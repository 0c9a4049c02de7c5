"""Unit tests for the Grunwald-Letnikov reference path."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from _reference import gl_mode_evolve_loop, oracle_richardson
from fracgreen import oracle
from fracgreen.green import ProblemSpec
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
        got = oracle_richardson(spec, f, grid)[-1]
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-7
