"""Unit tests for the Grunwald-Letnikov reference path."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from _reference import gl_mode_evolve_loop, oracle_richardson
from fracgreen import oracle
from fracgreen.green import ProblemSpec, SpecValidationError
from fracgreen.oracle import (OracleConfig, OracleInstabilityError,
                              oracle_mode_evolve, oracle_solve)
from fracgreen.solver import (SourceDescriptor, SpaceTimeGrid, _padded_fft,
                              _padded_wavenumbers, solve)


def _evolve_scalar(alpha, c, dt, n):
    out = oracle_mode_evolve(alpha, np.array([c]), np.array([1.0]),
                             OracleConfig(dt, n))
    return out[:, 0]


class TestModeEvolve:
    def test_classical_exponential(self):
        dt, n = 1.0 / 256, 256
        u = _evolve_scalar(1.0, 1.0, dt, n)
        t = dt * (1 + np.arange(n))
        assert np.max(np.abs(u - np.exp(-t))) < 5.0 * dt

    def test_free_kernel(self):
        # c = 0: u(t) = t^(alpha-1)/Gamma(alpha)
        alpha, dt, n = 0.7, 1.0 / 128, 128
        u = _evolve_scalar(alpha, 0.0, dt, n)
        t = dt * (1 + np.arange(n))
        ref = t ** (alpha - 1.0) / math.gamma(alpha)
        assert abs(u[-1] - ref[-1]) / ref[-1] < 5.0 * dt

    def test_half_order_reference_value(self):
        # u(1) = E_{0.5,0.5}(-1), frozen from an extended-precision series
        ref = 0.13660600739194928
        errs = []
        for n in (256, 512, 1024):
            u = _evolve_scalar(0.5, 1.0, 1.0 / n, n)
            errs.append(abs(u[-1].real - ref) / ref)
        assert errs[-1] < 2e-3
        order = math.log2(errs[1] / errs[2])
        assert 0.9 <= order <= 1.1

    def test_dissipative_monotone_tail(self):
        u = np.abs(_evolve_scalar(0.8, 2.0, 1.0 / 128, 128))
        tail = u[16:]
        assert np.all(np.diff(tail) < 0.0)

    def test_instability_detected(self):
        # denominator 1 + c dt^alpha == 0 is a singular implicit step
        dt = 0.1
        c = -1.0 / dt ** 0.5
        with pytest.raises(OracleInstabilityError):
            _evolve_scalar(0.5, c, dt, 8)

    # a numpy dt becomes a Python float on entry, whose power raises; dt's
    # powers are named as the kernels' powers of t are
    @pytest.mark.parametrize("alpha, dt, power", [
        (1.5, 1e299, "1.5"), (0.01, 1e-314, "-0.99"),
        (1.5, np.float64(1e299), "1.5")],
        ids=["dt_alpha", "dt_alpha_minus_1", "dt_alpha_numpy"])
    def test_dt_power_overflow_named(self, alpha, dt, power):
        with pytest.raises(OverflowError, match=re.escape(
                f"t^{power} overflows the double range at t = {dt:g}, "
                f"alpha = {alpha:g}")):
            oracle_mode_evolve(alpha, np.ones(2), np.ones(2),
                               OracleConfig(dt, 4))

    @pytest.mark.filterwarnings("error")
    def test_bound_holds_for_data_near_the_double_range(self):
        # 1e12 (1 + max |v|) would pass the double range; the growing mode
        # answers in proportion to its datum
        cfg = OracleConfig(0.05, 50)
        unit = oracle_mode_evolve(0.9, [-0.5], [1.0], cfg)
        got = oracle_mode_evolve(0.9, [-0.5], [1e297], cfg)
        assert np.allclose(got, 1e297 * unit, rtol=1e-14, atol=0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oracle_mode_evolve(0.5, np.ones(3), np.ones(4),
                               OracleConfig(0.01, 4))

    def test_config_validation(self):
        for dt in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be"):
                OracleConfig(dt, 4)
        for n in (0, math.nan):
            with pytest.raises(ValueError, match="need at least one step"):
                OracleConfig(0.01, n)

    def test_step_count_must_be_an_integer(self):
        # refused on construction, not as a TypeError inside oracle_solve
        for n in (2.5, 3.0):
            with pytest.raises(ValueError,
                               match=f"n_steps must be an integer, got {n}"):
                OracleConfig(0.01, n)
        assert OracleConfig(0.01, np.int64(3)).n_steps == 3

    def test_step_count_is_bounded(self):
        # refused on construction, before any weights or history exist
        with pytest.raises(ValueError,
                           match=r"dt = 1e-300 needs 1e\+300 steps, over "
                                 r"the oracle's bound of 16384"):
            OracleConfig(1e-300, 10 ** 300)
        # past the float range the count is still named, as an integer
        with pytest.raises(ValueError,
                           match=r"dt = 0\.001 needs 1e\+400 steps"):
            OracleConfig(1e-3, 10 ** 400)
        with pytest.raises(ValueError, match=r"dt = 0\.001 needs inf steps"):
            OracleConfig(1e-3, math.inf)
        with pytest.raises(ValueError, match="needs 16385 steps"):
            OracleConfig(1.0 / 16384, oracle._MAX_STEPS + 1)
        assert OracleConfig(1.0 / 16384, oracle._MAX_STEPS).n_steps == 16384


def _modes(n_modes, spread=40.0):
    """Dissipative, mildly skewed rates and a complex datum per mode."""
    rng = np.random.default_rng(n_modes)
    c = rng.uniform(0.0, spread, n_modes) \
        * np.exp(1j * rng.uniform(-0.3, 0.3, n_modes))
    return c, rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)


def _rel_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


class TestModeBlocks:
    """oracle_mode_evolve, which steps the modes in blocks, against the
    one loop over steps for all modes in tests/_reference.py."""

    @pytest.mark.parametrize("n_modes", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("n_steps", [1, 5, 64, 512])
    def test_block_seams_match_the_loop(self, n_modes, n_steps):
        c, v = _modes(n_modes)
        cfg = OracleConfig(1.0 / n_steps, n_steps)
        got = oracle_mode_evolve(0.8, c, v, cfg)
        assert got.shape == (n_steps, n_modes)
        assert _rel_gap(got, gl_mode_evolve_loop(0.8, c, v, cfg)) <= 1e-12

    @pytest.mark.parametrize("alpha, tol", [
        (0.3, 1e-12), (0.9, 1e-12), (1.5, 1e-12), (1.8, 1e-12),
        # near alpha = 2 the recursion amplifies round-off
        (1.99, 5e-12)])
    def test_long_runs_match_the_loop(self, alpha, tol):
        c, v = _modes(130)
        cfg = OracleConfig(1.0 / 1024, 1024)
        got = oracle_mode_evolve(alpha, c, v, cfg)
        assert _rel_gap(got, gl_mode_evolve_loop(alpha, c, v, cfg)) <= tol

    def test_mode_shape_is_kept(self):
        c, v = _modes(6)
        cfg = OracleConfig(0.01, 7)
        got = oracle_mode_evolve(0.8, c.reshape(2, 3), v.reshape(2, 3), cfg)
        assert got.shape == (7, 2, 3)
        assert np.array_equal(got.reshape(7, 6),
                              oracle_mode_evolve(0.8, c, v, cfg))

    @pytest.mark.filterwarnings("error")
    def test_earliest_divergence_over_blocks_is_named(self):
        # growing modes (c < 0): the one in the third block outgrows the
        # bound at step 18, the first block's at step 106, and both
        # overflow well before the last step
        dt, n = 0.05, 1000
        c = np.zeros(150, dtype=complex)
        c[3], c[140] = -4.0, -12.0
        v = np.ones(150)
        cfg = OracleConfig(dt, n)
        with pytest.raises(OracleInstabilityError) as ref:
            gl_mode_evolve_loop(0.9, c, v, cfg)
        with pytest.raises(OracleInstabilityError) as first_alone:
            gl_mode_evolve_loop(0.9, c[:64], v[:64], cfg)
        assert str(ref.value) != str(first_alone.value)
        with pytest.raises(OracleInstabilityError) as got:
            oracle_mode_evolve(0.9, c, v, cfg)
        assert str(got.value) == str(ref.value)


class TestOracleSolve:
    @pytest.mark.parametrize("mode", ["riesz_feller", "identity"])
    def test_roles_come_by_position_not_by_identity(self, mode):
        # one descriptor object given as f, g and U is three terms, as
        # three equal descriptors are: a role is where a datum is passed,
        # never which object carries it
        spec = ProblemSpec(alpha=1.5, beta=1.6, gamma=1.8, mu=0.5,
                           source_mode=mode)
        grid = SpaceTimeGrid(-40.0, 40.0, 128, (0.5, 1.0))
        cfg = OracleConfig(1.0 / 64, 64)
        d = SourceDescriptor.gaussian(0.3, 1.2)
        f, g, U = (SourceDescriptor.gaussian(0.3, 1.2) for _ in range(3))
        for shared, apart in (
                (solve(spec, d, d, d, grid), solve(spec, f, g, U, grid)),
                (oracle_solve(spec, d, grid, cfg, g=d, U=d),
                 oracle_solve(spec, f, grid, cfg, g=g, U=U))):
            assert shared.values.tobytes() == apart.values.tobytes()

    def test_heat_regime_matches_evolution(self):
        spec = ProblemSpec(alpha=1.0, beta=2.0)
        grid = SpaceTimeGrid(-20.0, 20.0, 128, (1.0,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        got = oracle_solve(spec, f, grid,
                           OracleConfig(1.0 / 512, 512))
        s2 = 1.0 + 2.0
        exact = np.exp(-grid.x ** 2 / (2.0 * s2)) \
            / math.sqrt(2.0 * math.pi * s2)
        err = np.linalg.norm(got.values[0] - exact) / np.linalg.norm(exact)
        assert err < 1e-3

    def test_matches_solver_under_refinement(self):
        spec = ProblemSpec(alpha=0.7, beta=1.4, theta=0.1)
        grid = SpaceTimeGrid(-40.0, 40.0, 128, (1.0,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        ref = solve(spec, f, SourceDescriptor.zero(),
                    SourceDescriptor.zero(), grid)
        errs = []
        for n in (256, 512):
            got = oracle_solve(spec, f, grid, OracleConfig(1.0 / n, n))
            errs.append(np.linalg.norm(got.values[0] - ref.values[0])
                        / np.linalg.norm(ref.values[0]))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3

    def test_self_coupled_modes(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6, gamma=0.9, mu=0.5,
                           source_coupling="self")
        grid = SpaceTimeGrid(-40.0, 40.0, 128, (1.0,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        # the gamma = 0.9 operator has a |x|^-1.9 far field, so the
        # localization warning is expected on this window
        with pytest.warns(UserWarning, match="mass outside"):
            ref = solve(spec, f, SourceDescriptor.zero(),
                        SourceDescriptor.zero(), grid)
        # the oracle runs solve's data path, window verdict included
        with pytest.warns(UserWarning, match="mass outside"):
            got = oracle_solve(spec, f, grid, OracleConfig(1.0 / 512, 512))
        err = np.linalg.norm(got.values[0] - ref.values[0]) \
            / np.linalg.norm(ref.values[0])
        assert err < 5e-3

    def test_values_own_their_data(self):
        # a kept field must not hold the padded (n_times, M) transform
        spec = ProblemSpec(alpha=0.8, beta=1.6)
        f = SourceDescriptor.gaussian(0.0, 1.0)
        for times in ((1.0,), (0.5, 1.0)):
            grid = SpaceTimeGrid(-20.0, 20.0, 64, times)
            values = oracle_solve(spec, f, grid,
                                  OracleConfig(1.0 / 64, 64)).values
            assert values.base is None or values.flags.owndata
            assert values.shape == (len(times), 64)

    def test_keeps_only_the_output_steps(self):
        # the history lives one 64-mode block at a time (512 x 64 complex
        # values, 0.5 MB); the whole history of the 512 modes is 4 MB
        spec = ProblemSpec(alpha=0.8, beta=1.6)
        grid = SpaceTimeGrid(-40.0, 40.0, 128, (0.5, 1.0))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        cfg = OracleConfig(1.0 / 512, 512)
        oracle_solve(spec, f, grid, cfg)
        tracemalloc.start()
        try:
            got = oracle_solve(spec, f, grid, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6
        # the kept rows are those of the all-steps evolution
        M, k = _padded_wavenumbers(grid)
        modes = oracle_mode_evolve(spec.alpha, spec.rate(k, False),
                                   _padded_fft(f, grid, M), cfg)
        assert np.array_equal(got.values,
                              np.fft.ifft(modes[[255, 511]])[:, :grid.nx])

    @pytest.mark.filterwarnings("error")
    def test_zero_datum_takes_no_step(self):
        # mu puts the implicit step of the first padded mode at 1 - 1: a
        # Gaussian is refused, a zero datum is zero, as in solve; lam's
        # order is the top one, so G_hat does not grow
        grid = SpaceTimeGrid(-5.0, 5.0, 16, (0.5,))
        k, dt = _padded_wavenumbers(grid)[1], 0.25
        spec = ProblemSpec(alpha=0.5, beta=2.0, gamma=1.0,
                           mu=-(1.0 / dt ** 0.5 + k[1] ** 2) / abs(k[1]),
                           source_coupling="self")
        cfg = OracleConfig(dt, 2)
        with pytest.raises(OracleInstabilityError, match="singular"):
            oracle_solve(spec, SourceDescriptor.gaussian(0.0, 1.0), grid, cfg)
        got = oracle_solve(spec, SourceDescriptor.zero(), grid, cfg).values
        assert got.shape == (1, 16) and not got.any()

    @pytest.mark.filterwarnings("error")
    def test_field_past_the_double_range_named_as_in_solve(self):
        # dt^(alpha - 1) = 1e9 lifts the sample's modes past the double
        # range at the first step
        spec = ProblemSpec(alpha=0.1, beta=1.6)
        grid = SpaceTimeGrid(-5.0, 5.0, 16, (1e-10,))
        f = SourceDescriptor.from_samples([1e300] + [0.0] * 15)
        z = SourceDescriptor.zero()
        with pytest.raises(OverflowError) as ref:
            solve(spec, f, z, z, grid)
        with pytest.raises(OverflowError) as got:
            oracle_solve(spec, f, grid, OracleConfig(1e-10, 1))
        assert str(got.value) == str(ref.value) == (
            "the field has non-finite values at t = 1e-10: it leaves the "
            "double range")

    @pytest.mark.parametrize("spec, g, U, text", [
        (ProblemSpec(alpha=0.8, beta=1.6), "gauss", "zero",
         "second initial datum g requires 1 < alpha <= 2"),
        (ProblemSpec(alpha=0.8, beta=1.6, gamma=0.9, mu=0.5,
                     source_coupling="self"), "zero", "gauss",
         "self-coupled (two-operator) problems admit no external source"),
        (ProblemSpec(alpha=0.8, beta=1.6, mu=0.5), "zero", "delta",
         "delta source U is not supported"),
    ], ids=["g_below_alpha_one", "self_coupled_source", "delta_source"])
    def test_refuses_the_data_solve_refuses(self, spec, g, U, text):
        data = {"zero": SourceDescriptor.zero(),
                "gauss": SourceDescriptor.gaussian(0.0, 1.0),
                "delta": SourceDescriptor.delta()}
        f, g, U = data["gauss"], data[g], data[U]
        grid = SpaceTimeGrid(-20.0, 20.0, 32, (0.5,))
        with pytest.raises(SpecValidationError, match=re.escape(text)):
            solve(spec, f, g, U, grid)
        with pytest.raises(SpecValidationError, match=re.escape(text)):
            oracle_solve(spec, f, grid, OracleConfig(1.0 / 64, 32), g=g, U=U)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["riesz_feller", "identity"])
    def test_one_run_steps_every_datum(self, mode):
        # the GL recursion is linear: the one run over f, g and U is the
        # sum of the runs over each datum alone
        spec = ProblemSpec(alpha=1.4, beta=1.7, theta=0.1, gamma=1.2,
                           phi=0.1, mu=0.6, source_mode=mode)
        grid = SpaceTimeGrid(-40.0, 40.0, 128, (0.25, 0.5))
        cfg = OracleConfig(1.0 / 64, 32)
        z = SourceDescriptor.zero()
        f, g, U = (SourceDescriptor.gaussian(0.0, 1.0),
                   SourceDescriptor.gaussian(0.5, 1.5),
                   SourceDescriptor.gaussian(-0.5, 1.2))
        together = oracle_solve(spec, f, grid, cfg, g=g, U=U).values
        alone = sum(oracle_solve(spec, ff, grid, cfg, g=gg, U=uu).values
                    for ff, gg, uu in ((f, z, z), (z, g, z), (z, z, U)))
        assert _rel_gap(together, alone) <= 1e-13
        # each term moves the field
        for ff, gg, uu in ((z, g, U), (f, z, U), (f, g, z)):
            part = oracle_solve(spec, ff, grid, cfg, g=gg, U=uu).values
            assert _rel_gap(part, together) > 1e-3

    def test_off_lattice_time_rejected(self):
        spec = ProblemSpec(alpha=0.7, beta=1.4)
        grid = SpaceTimeGrid(-10.0, 10.0, 32, (0.3333,))
        with pytest.raises(ValueError):
            oracle_solve(spec, SourceDescriptor.delta(), grid,
                         OracleConfig(1.0 / 64, 64))

    def test_time_past_the_last_step_is_named(self):
        # 0.5 is step 128 of dt = 1/256, on the lattice but past step 100
        spec = ProblemSpec(alpha=0.7, beta=1.4)
        grid = SpaceTimeGrid(-10.0, 10.0, 32, (0.25, 0.5))
        with pytest.raises(ValueError, match=r"output time 0\.5 lies past "
                           r"the run: 100 steps of dt = 0\.00390625 end at "
                           r"t = 0\.390625"):
            oracle_solve(spec, SourceDescriptor.delta(), grid,
                         OracleConfig(1.0 / 256, 100))


class TestRichardson:
    """The oracle extrapolated twice in dt holds solve far tighter than
    criterion 6's first-order gaps of 1.9e-4 to 4.3e-4 at dt = 1/1024."""

    @pytest.mark.parametrize("spec, warn", [
        (ProblemSpec(alpha=0.6, beta=1.4, theta=0.2), None),
        (ProblemSpec(alpha=0.9, beta=1.8), None),
        (ProblemSpec(alpha=1.5, beta=1.9), None),
        # the gamma = 0.9 operator's |x|^-1.9 far field leaves the window,
        # and the oracle runs on the same periodic modes
        (ProblemSpec(alpha=0.8, beta=1.6, gamma=0.9, theta=0.1, phi=0.05,
                     mu=0.7, source_coupling="self"), "mass outside"),
    ], ids=["criterion6_a0.6", "criterion6_a0.9", "criterion6_a1.5", "G3"])
    def test_extrapolated_oracle_matches_solve(self, spec, warn):
        grid = SpaceTimeGrid(-40.0, 40.0, 256, (1.0,))
        f, z = SourceDescriptor.gaussian(0.0, 1.0), SourceDescriptor.zero()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = solve(spec, f, z, z, grid).values[-1]
        assert [warn in str(w.message) for w in caught] \
            == ([True] if warn else [])
        # each of the three oracle runs judges the window as solve does
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = oracle_richardson(spec, f, grid)[-1]
        assert [warn in str(w.message) for w in caught] \
            == ([True] * 3 if warn else [])
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-7


def _admissible_draws(seed, count):
    """Seeded (id, spec, f, g, U) draws over the admissible domain, with
    Gaussian data: alpha and beta in (0.3, 2); each skew within its order's
    bound min(order, 2 - order) and within 2 - alpha, past which G_hat
    grows with |k| and no field converges; g only where alpha > 1; U in
    both source modes, external only; self-coupled draws with f and g."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        a, b, gamma = rng.uniform(0.3, 2.0, 3)
        theta, phi = rng.uniform(-1.0, 1.0, 2) \
            * [min(order, 2.0 - order, 2.0 - a) for order in (b, gamma)]
        mode = ("riesz_feller", "identity")[i % 2]
        coupling = "self" if i % 3 == 2 else "external"
        spec = ProblemSpec(alpha=a, beta=b, theta=theta, gamma=gamma,
                           phi=phi, mu=rng.uniform(0.2, 1.0),
                           source_mode=mode, source_coupling=coupling)
        f, g, U = (SourceDescriptor.gaussian(c, w) for c, w in zip(
            rng.uniform(-1.0, 1.0, 3), rng.uniform(0.8, 1.5, 3)))
        z = SourceDescriptor.zero()
        # self-coupled: f and g; external: U with f, g or both
        keep = ((True, True, False) if coupling == "self" else
                ((True, False, True), (False, True, True),
                 (True, True, True))[rng.integers(3)])
        f, g, U = (d if k else z for d, k in zip((f, g, U), keep))
        if a <= 1.0:
            g = z
        terms = "".join(n for n, d in zip("fgU", (f, g, U)) if d is not z)
        draws.append((f"{i:02d}-{coupling}-{terms}", spec, f, g, U))
    return draws


_DRAWS = _admissible_draws(3, 24)


@pytest.mark.parametrize("spec, f, g, U", [d[1:] for d in _DRAWS],
                         ids=[d[0] for d in _DRAWS])
def test_seeded_draws_match_the_extrapolated_oracle(spec, f, g, U):
    # both solvers share the window verdict: whatever solve warns, each
    # oracle run warns the same kind, its ratio read at its own dt
    grid = SpaceTimeGrid(-16.0, 16.0, 64, (0.5, 1.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ref = solve(spec, f, g, U, grid).values
    kinds = [str(w.message).split(":")[0] for w in caught]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = oracle_richardson(spec, f, grid, g, U)
    assert [str(w.message).split(":")[0] for w in caught] == kinds * 3
    assert _rel_gap(got, ref) <= 1e-6
