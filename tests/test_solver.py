"""Unit tests for the spectral solver and its convolution helpers."""

import inspect
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _reference import oracle_richardson
from fracgreen.fracmath import mittag_leffler, mittag_leffler_array
from fracgreen.green import ProblemSpec
from fracgreen import green, solver
from fracgreen.operators import riesz_feller_symbol
from fracgreen.solver import (Field, SourceDescriptor, SpaceTimeGrid,
                              SpecValidationError, convolve_time_singular,
                              solve)


class TestDescriptors:
    def test_gaussian_has_unit_mass(self):
        grid = SpaceTimeGrid(-30.0, 30.0, 512, (1.0,))
        vals = SourceDescriptor.gaussian(0.0, 1.5).render(grid.x, grid.dx)
        assert np.sum(vals.real) * grid.dx == pytest.approx(1.0, abs=1e-12)

    def test_delta_has_unit_mass(self):
        grid = SpaceTimeGrid(-10.0, 10.0, 64, (1.0,))
        vals = SourceDescriptor.delta(0.7).render(grid.x, grid.dx)
        assert np.sum(vals.real) * grid.dx == pytest.approx(1.0)
        assert np.count_nonzero(vals) == 1

    @pytest.mark.parametrize("center", [100.0, -20.5, 20.0, math.nan])
    def test_delta_outside_the_window_rejected(self, center):
        # the window is [-20, 20); the nearest grid point is no stand-in
        grid = SpaceTimeGrid(-20.0, 20.0, 64, (1.0,))
        with pytest.raises(ValueError) as err:
            SourceDescriptor.delta(center).render(grid.x, grid.dx)
        assert f"delta center {center} " in str(err.value)
        assert "[-20.0, 20.0)" in str(err.value)

    def test_delta_at_the_window_edges(self):
        grid = SpaceTimeGrid(-20.0, 20.0, 64, (1.0,))
        for center, j in ((-20.0, 0), (19.9, 63)):
            vals = SourceDescriptor.delta(center).render(grid.x, grid.dx)
            assert np.flatnonzero(vals).tolist() == [j]

    def test_box(self):
        grid = SpaceTimeGrid(-5.0, 5.0, 100, (1.0,))
        vals = SourceDescriptor.box(-1.0, 1.0).render(grid.x, grid.dx)
        assert np.sum(vals.real) * grid.dx == pytest.approx(2.0, abs=0.11)

    def test_zero_renders_zeros(self):
        grid = SpaceTimeGrid(-5.0, 5.0, 16, (1.0,))
        vals = SourceDescriptor.zero().render(grid.x, grid.dx)
        assert vals.dtype == complex and vals.shape == (16,)
        assert not vals.any()

    def test_samples_length_checked(self):
        grid = SpaceTimeGrid(-5.0, 5.0, 100, (1.0,))
        with pytest.raises(ValueError):
            SourceDescriptor.from_samples(np.ones(7)).render(grid.x, grid.dx)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SourceDescriptor(kind="spline")

    # refused where they enter, so a non-finite field means overflow
    @pytest.mark.parametrize("build, text", [
        (lambda: SourceDescriptor.from_samples([1.0, math.nan, math.inf]),
         "sample 1 is not finite: nan+0j"),
        (lambda: SourceDescriptor(kind="samples",
                                  values=[0.0, 1.0, complex(0.0, math.inf)]),
         "sample 2 is not finite: 0+infj"),
    ], ids=["from_samples", "constructor"])
    def test_non_finite_samples_named(self, build, text):
        with pytest.raises(ValueError, match=re.escape(text)):
            build()


class TestGrid:
    def test_times_must_increase_from_positive(self):
        with pytest.raises(ValueError):
            SpaceTimeGrid(-1.0, 1.0, 16, (0.0, 1.0))
        with pytest.raises(ValueError):
            SpaceTimeGrid(-1.0, 1.0, 16, (1.0, 0.5))

    def test_dx(self):
        grid = SpaceTimeGrid(-2.0, 2.0, 16, (1.0,))
        assert grid.dx == pytest.approx(0.25)
        assert grid.x[0] == pytest.approx(-2.0)

    def test_nx_is_an_integer(self):
        grid = SpaceTimeGrid(-20.0, 20.0, np.int64(32), (1.0,))
        assert type(grid.nx) is int and grid == SpaceTimeGrid(
            -20.0, 20.0, 32, (1.0,))
        zero = SourceDescriptor.zero()
        assert solve(ProblemSpec(alpha=0.8, beta=1.6),
                     SourceDescriptor.gaussian(0.0, 1.0), zero, zero,
                     grid).values.shape == (1, 32)
        with pytest.raises(ValueError, match="nx must be an integer, got 9.0"):
            SpaceTimeGrid(-20.0, 20.0, 9.0, (1.0,))

    def test_overflowing_window_width_named(self):
        # each end is finite, but x_max - x_min and so dx would be inf
        with pytest.raises(ValueError, match=r"window width x_max - x_min "
                                             r"overflows the double range"):
            SpaceTimeGrid(-1e308, 1e308, 16, (1.0,))
        assert SpaceTimeGrid(-1e307, 1e307, 16, (1.0,)).dx == 1.25e306

    def test_field_shape_checked(self):
        grid = SpaceTimeGrid(-2.0, 2.0, 16, (1.0,))
        with pytest.raises(ValueError):
            Field(grid=grid, values=np.zeros((2, 16)))


@pytest.mark.parametrize("build", [
    lambda: SpaceTimeGrid(5.0, -5.0, 16, (1.0,)),
    lambda: SpaceTimeGrid(2.0, 2.0, 16, (1.0,)),
    lambda: SpaceTimeGrid(0.0, 1.0, 16, (math.nan,)),
    lambda: SpaceTimeGrid(0.0, 1.0, 16, (1.0, math.inf)),
    lambda: SpaceTimeGrid(0.0, math.inf, 16, (1.0,)),
    lambda: SpaceTimeGrid(-math.inf, 1.0, 16, (1.0,)),
    lambda: SourceDescriptor.gaussian(0.0, 0.0),
    lambda: SourceDescriptor.gaussian(0.0, -1.0),
    lambda: SourceDescriptor.box(1.0, 1.0),
    lambda: SourceDescriptor.box(2.0, -2.0),
    lambda: SpaceTimeGrid(0.0, 1.0, 8.5, (1.0,)),
    lambda: SpaceTimeGrid(0.0, 1.0, np.float64(16.0), (1.0,)),
    lambda: SourceDescriptor.gaussian(math.nan, 1.0),
    lambda: SourceDescriptor.gaussian(-math.inf, 1.0),
    lambda: SourceDescriptor.gaussian(0.0, math.inf),
    lambda: SpaceTimeGrid(0.0, 1.0, 7, (1.0,)),
    lambda: SpaceTimeGrid(0.0, 1.0, 16, ()),
    lambda: SourceDescriptor(kind="samples"),
    # dx underflows to 0, or pi / dx, the largest wavenumber, overflows
    lambda: SpaceTimeGrid(0.0, 5e-324, 16, (1.0,)),
    lambda: SpaceTimeGrid(0.0, 1e-310, 16, (1.0,)),
    lambda: convolve_time_singular(np.ones(3), 0.5, 4, 0.25),
], ids=["grid_reversed", "grid_empty", "grid_time_nan", "grid_time_inf",
        "grid_x_max_inf", "grid_x_min_inf", "gaussian_zero_width",
        "gaussian_negative_width", "box_empty", "box_reversed",
        "grid_nx_fraction", "grid_nx_numpy_float", "gaussian_center_nan",
        "gaussian_center_inf", "gaussian_width_inf", "grid_nx_7",
        "grid_no_times", "samples_without_values", "grid_dx_zero",
        "grid_wavenumber_overflows", "convolve_too_few_samples"])
def test_malformed_inputs_rejected(build):
    with pytest.raises(ValueError):
        build()


class TestValidateSpec:
    def test_raises_with_all_problems(self):
        with pytest.raises(SpecValidationError) as err:
            ProblemSpec(alpha=5.0, beta=2.0, theta=1.0)
        assert len(err.value.problems) == 2


class TestConvolutions:
    def test_time_singular_constant_exact(self):
        # S = 1: integral is t^alpha / alpha, reproduced exactly
        alpha, dt, n = 0.6, 1.0 / 64, 64
        S = np.ones(n + 1, dtype=complex)
        got = convolve_time_singular(S, alpha, n, dt)
        t = n * dt
        assert got.real == pytest.approx(t ** alpha / alpha, rel=1e-13)

    def test_time_singular_linear_exact(self):
        # S = tau: exact by construction of the two moments
        alpha, dt, n = 1.3, 1.0 / 32, 32
        taus = dt * np.arange(n + 1)
        got = convolve_time_singular(taus.astype(complex), alpha, n, dt)
        t = n * dt
        ref = t ** (alpha + 1.0) / (alpha * (alpha + 1.0))
        assert got.real == pytest.approx(ref, rel=1e-12)

    def test_time_singular_smooth_second_order(self):
        alpha = 0.5
        t = 1.0
        ref = None
        errs = []
        for n in (64, 128, 256):
            taus = np.linspace(0.0, t, n + 1)
            S = np.cos(taus).astype(complex)
            got = convolve_time_singular(S, alpha, n, t / n).real
            errs.append(got)
        # Richardson: consecutive differences shrink ~4x
        d1 = abs(errs[1] - errs[0])
        d2 = abs(errs[2] - errs[1])
        assert d2 < 0.35 * d1

    def test_zero_steps(self):
        out = convolve_time_singular(np.ones((1, 4)), 0.5, 0, 0.1)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.5, math.nan])
    def test_alpha_outside_the_range_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\]"):
            convolve_time_singular(np.ones(5), alpha, 4, 0.25)


class TestSolve:
    def _zero(self):
        return SourceDescriptor.zero()

    def test_heat_equation_exact(self):
        spec = ProblemSpec(alpha=1.0, beta=2.0)
        grid = SpaceTimeGrid(-20.0, 20.0, 256, (0.5, 1.0))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        fld = solve(spec, f, self._zero(), self._zero(), grid)
        for it, t in enumerate(grid.times):
            s2 = 1.0 + 2.0 * t
            exact = np.exp(-grid.x ** 2 / (2.0 * s2)) \
                / math.sqrt(2.0 * math.pi * s2)
            assert np.max(np.abs(fld.values[it] - exact)) < 1e-12

    def test_g_datum_needs_high_regime(self):
        spec = ProblemSpec(alpha=0.7, beta=1.5)
        grid = SpaceTimeGrid(-10.0, 10.0, 64, (1.0,))
        with pytest.raises(SpecValidationError):
            solve(spec, self._zero(), SourceDescriptor.gaussian(0.0, 1.0),
                  self._zero(), grid)

    def test_self_coupling_excludes_source(self):
        spec = ProblemSpec(alpha=0.7, beta=1.5, gamma=0.9, mu=1.0,
                           source_coupling="self")
        grid = SpaceTimeGrid(-10.0, 10.0, 64, (1.0,))
        with pytest.raises(SpecValidationError):
            solve(spec, self._zero(), self._zero(),
                  SourceDescriptor.gaussian(0.0, 1.0), grid)

    def test_source_term_matches_fourier_reference(self):
        spec = ProblemSpec(alpha=0.7, beta=1.5, theta=0.2, mu=0.8,
                           source_mode="identity")
        grid = SpaceTimeGrid(-30.0, 30.0, 128, (1.0,))
        U = SourceDescriptor.gaussian(0.0, 1.5)
        # the kernel alone reads under-resolved (5.1e-2 at k_N); the
        # product with the Gaussian's transform is 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = solve(spec, self._zero(), self._zero(), U, grid)
        # exact per mode: mu U_hat t^a E_{a,a+1}(-lam Psi t^a)
        from fracgreen.solver import _padded_wavenumbers
        M, k = _padded_wavenumbers(grid)
        col = np.zeros(M, dtype=complex)
        col[:grid.nx] = U.render(grid.x, grid.dx)
        uh = np.fft.fft(col)
        t = 1.0
        psi = riesz_feller_symbol(spec.space_symbol(), k)
        ml = mittag_leffler_array(spec.alpha, spec.alpha + 1.0,
                                  -spec.lam * psi * t ** spec.alpha)
        ref = np.fft.ifft(spec.mu * uh * t ** spec.alpha * ml)[:grid.nx]
        rel = np.max(np.abs(fld.values[0] - ref)) / np.max(np.abs(ref))
        assert rel < 1e-4

    @staticmethod
    def _rf_source_problem(alpha):
        spec = ProblemSpec(alpha=alpha, beta=1.5, theta=0.2, gamma=0.8,
                           phi=0.1, mu=0.6, source_mode="riesz_feller")
        return (spec, SpaceTimeGrid(-20.0, 20.0, 128, (1.0,)),
                SourceDescriptor.gaussian(0.0, 1.5))

    def _rf_source_case(self, alpha):
        spec, grid, U = self._rf_source_problem(alpha)
        # resolved: the product with the Gaussian's transform is 0 at k_N,
        # where the kernel alone is 3.1e-2 (alpha 1) or 4.1e-2 (1.45).  The
        # |x|^-1.8 tail of m_S U wraps onto the window by 1.0e-3 (alpha 1)
        # or 9.0e-4 (1.45) of the peak, which the field's padding shows
        values, caught = _messages(spec, self._zero(), self._zero(), U, grid)
        assert len(caught) == 1 and "mass outside" in caught[0]
        from fracgreen.solver import _padded_wavenumbers
        M, k = _padded_wavenumbers(grid)
        col = np.zeros(M, dtype=complex)
        col[:grid.nx] = U.render(grid.x, grid.dx)
        # riesz_feller mode: -mu m_S(k) U_hat(k) times the time integral
        src_hat = -spec.mu * riesz_feller_symbol(spec.source_symbol(), k) \
            * np.fft.fft(col)
        c = spec.lam * riesz_feller_symbol(spec.space_symbol(), k)
        return values[0], grid, src_hat, c

    def test_riesz_feller_source_alpha_one_elementary(self):
        # alpha = 1: Int_0^t exp(-c s) ds = (1 - exp(-c t)) / c, t at c = 0
        got, grid, src_hat, c = self._rf_source_case(1.0)
        t = grid.times[0]
        safe = np.where(c == 0.0, 1.0, c)
        integral = np.where(c == 0.0, t, -np.expm1(-c * t) / safe)
        ref = np.fft.ifft(src_hat * integral)[:grid.nx]
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert rel < 1e-10

    def test_riesz_feller_source_matches_the_oracle(self):
        # the GL oracle steps the source as dt^alpha s mu m_S U_hat at
        # every step; extrapolated twice in dt it holds solve to 1e-6, and
        # each of its runs judges the window as solve does
        got = self._rf_source_case(1.45)[0]
        spec, grid, U = self._rf_source_problem(1.45)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = oracle_richardson(spec, self._zero(), grid, U=U)[0]
        assert ["mass outside" in str(w.message) for w in caught] \
            == [True] * 3
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-6

    _NARROW = SpaceTimeGrid(-3.0, 3.0, 64, (0.5, 1.0, 2.0))

    @pytest.mark.parametrize("spec, grid, source, text", [
        (ProblemSpec(alpha=0.8, beta=1.1), _NARROW, False, "mass outside"),
        (ProblemSpec(alpha=1.0, beta=1.5, theta=0.2),
         SpaceTimeGrid(-60.0, 60.0, 64, (0.25, 0.5, 1.0)), False,
         "under-resolved"),
        # a source-only solve is judged on the field its source term makes
        (ProblemSpec(alpha=0.8, beta=1.5, mu=0.5, source_mode="identity"),
         _NARROW, True, "mass outside"),
    ], ids=["mass_outside", "under_resolved", "source_mass_outside"])
    def test_window_warning_once_per_solve_at_the_caller(self, spec, grid,
                                                         source, text):
        datum = SourceDescriptor.gaussian(0.0, 1.0)
        f, U = (self._zero(), datum) if source else (datum, self._zero())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            solve(spec, f, self._zero(), U, grid)
        hits = [w for w in caught if text in str(w.message)]
        assert len(caught) == len(hits) == 1
        assert (hits[0].filename, hits[0].lineno) == (__file__, line)

    def test_all_zero_data_warn_nothing(self):
        # the narrow grid above warns for any kernel; zero data use none
        zero = self._zero()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in (ProblemSpec(alpha=0.8, beta=1.1),
                         ProblemSpec(alpha=0.8, beta=1.5, mu=0.5)):
                values = solve(spec, zero, zero, zero, self._NARROW).values
                assert not values.any()

    def test_values_own_their_data(self):
        # a kept field must not hold the padded (n_times, M) transform
        spec = ProblemSpec(alpha=0.8, beta=1.6)
        f = SourceDescriptor.gaussian(0.0, 1.0)
        for times in ((1.0,), (0.5, 1.0)):
            grid = SpaceTimeGrid(-20.0, 20.0, 64, times)
            values = solve(spec, f, self._zero(), self._zero(), grid).values
            assert values.base is None or values.flags.owndata
            assert values.shape == (len(times), 64)

    def test_window_mass_warning_fires_on_narrow_grid(self):
        spec = ProblemSpec(alpha=0.8, beta=1.1)
        grid = SpaceTimeGrid(-3.0, 3.0, 64, (2.0,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        with pytest.warns(UserWarning, match="mass outside"):
            solve(spec, f, self._zero(), self._zero(), grid)

    def test_under_resolved_grid_asks_for_more_points(self):
        # |N_hat| reaches 0.094 of its largest value near the largest
        # wavenumber here (the kernel's own ratio at k_N is 0.13): the far
        # "mass" is ringing, so widening the grid would make it worse
        spec = ProblemSpec(alpha=1.0, beta=1.5, theta=0.2)
        grid = SpaceTimeGrid(-60.0, 60.0, 64, (1.0,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(spec, f, self._zero(), self._zero(), grid)
        text = " ".join(str(w.message) for w in caught)
        assert "increase nx" in text and "9.4e-02" in text
        assert "widen the grid" not in text

    def test_no_warning_on_wide_grid(self):
        spec = ProblemSpec(alpha=1.0, beta=2.0)
        grid = SpaceTimeGrid(-20.0, 20.0, 128, (0.5,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(spec, f, self._zero(), self._zero(), grid)

    def test_delta_source_rejected(self):
        spec = ProblemSpec(alpha=0.7, beta=1.5, mu=1.0)
        grid = SpaceTimeGrid(-10.0, 10.0, 64, (1.0,))
        with pytest.raises(SpecValidationError,
                           match="delta source U is not supported"):
            solve(spec, self._zero(), self._zero(), SourceDescriptor.delta(),
                  grid)

    def test_invalid_spec_rejected(self):
        grid = SpaceTimeGrid(-10.0, 10.0, 64, (1.0,))
        with pytest.raises(SpecValidationError):
            solve(ProblemSpec(alpha=3.0, beta=1.5),
                  SourceDescriptor.delta(), self._zero(), self._zero(),
                  grid)


@st.composite
def _solve_cases(draw):
    """(spec, f, g, U) for one kind of solve: the G kernel, the G2 datum,
    either source mode, or the self-coupled G3/G4 pair."""
    case = draw(st.sampled_from(["G", "G2", "riesz_feller", "identity",
                                 "self"]))
    alpha = draw(st.floats(1.05, 1.95) if case == "G2"
                 else st.floats(0.9, 1.95))
    beta = draw(st.floats(1.2, 1.9))
    # |theta| < 2 - alpha keeps G_hat bounded in |k| for real lam
    theta = draw(st.floats(-0.9, 0.9)) * min(2.0 - beta, 2.0 - alpha)
    lam = draw(st.sampled_from([1.0, 0.6, 1.0 + 0.1j]))
    extra = {}
    if case in ("riesz_feller", "identity", "self"):
        extra = dict(mu=draw(st.floats(0.3, 0.9)), gamma=0.9, phi=0.05)
    if case == "self":
        extra["source_coupling"] = "self"
    if case in ("riesz_feller", "identity"):
        extra["source_mode"] = case
    spec = ProblemSpec(alpha=alpha, beta=beta, theta=theta, lam=lam, **extra)
    zero = SourceDescriptor.zero()
    f = SourceDescriptor.gaussian(draw(st.floats(-2.0, 2.0)), 1.5)
    if case in ("G2", "riesz_feller", "identity"):
        # a g-only or source-only solve convolves no G
        f = draw(st.sampled_from([f, zero]))
    g = SourceDescriptor.box(-1.0, 1.5) if alpha > 1.0 and case in (
        "G2", "self") else zero
    U = SourceDescriptor.box(-2.0, 1.0) if case in ("riesz_feller",
                                                    "identity") else zero
    return spec, f, g, U


@given(_solve_cases(), st.lists(st.floats(0.2, 2.5), min_size=2,
                                max_size=4, unique=True),
       st.sampled_from([solver._BLOCK_VALUES, 128, 256]))
def test_multi_time_rows_equal_single_time_solves(case, times, block):
    # each kernel is one Mittag-Leffler call per block of output times: all
    # of them, or one or two at a time when a block holds 128 or 256 values
    # of the 128 padded modes; a row must not depend on the other times
    spec, f, g, U = case
    grid = SpaceTimeGrid(-20.0, 20.0, 32, sorted(times))
    with warnings.catch_warnings(), \
            mock.patch.object(solver, "_BLOCK_VALUES", block):
        warnings.simplefilter("ignore")
        rows = solve(spec, f, g, U, grid).values
        for row, t in zip(rows, grid.times):
            one = SpaceTimeGrid(-20.0, 20.0, 32, (t,))
            assert solve(spec, f, g, U, one).values[0].tobytes() \
                == row.tobytes()


class TestTerms:
    """solve pairs each datum present with its kernel: one Mittag-Leffler
    call per kernel per block of output times, none for an absent datum."""

    _GAUSS = SourceDescriptor.gaussian(0.5, 1.0)
    _BOX = SourceDescriptor.box(-1.0, 1.5)
    _ZERO = SourceDescriptor.zero()

    def _calls(self, spec, f, g, U, block):
        # 3 times of 128 padded modes: one block, or two of 256 values
        grid = SpaceTimeGrid(-20.0, 20.0, 32, (0.5, 1.0, 1.5))
        calls = []
        real = green.mittag_leffler_array

        def counting(*args):
            calls.append(args[:2])
            return real(*args)

        solver._kernel_table.cache_clear()
        with mock.patch.object(green, "mittag_leffler_array", counting), \
                mock.patch.object(solver, "_BLOCK_VALUES", block), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            values = solve(spec, f, g, U, grid).values
        self.caught = [str(w.message) for w in caught]
        return calls, values

    @pytest.mark.parametrize("block, blocks", [(solver._BLOCK_VALUES, 1),
                                               (256, 2)])
    # the second Mittag-Leffler index of each kernel is alpha + offset:
    # G for f, G2 for g, the source kernel for U
    @pytest.mark.parametrize("data, offsets", [
        ("f", [0.0]),
        ("g", [-1.0]),
        ("U", [1.0]),
        ("fgU", [0.0, -1.0, 1.0]),
    ])
    @pytest.mark.parametrize("mode", ["riesz_feller", "identity"])
    def test_one_call_per_kernel_per_block(self, block, blocks, data,
                                           offsets, mode):
        spec = ProblemSpec(alpha=1.4, beta=1.6, theta=0.1, gamma=1.2,
                           phi=0.1, mu=0.6, source_mode=mode)
        f = self._GAUSS if "f" in data else self._ZERO
        g = self._BOX if "g" in data else self._ZERO
        U = self._BOX if "U" in data else self._ZERO
        calls, values = self._calls(spec, f, g, U, block)
        a = spec.alpha
        want = [(a, a + d) for d in offsets]
        assert calls == want * blocks
        assert np.all(np.isfinite(values)) and values.any()

    def test_repeated_solve_makes_no_call(self):
        # the second solve reads every kernel table from the memo
        spec = ProblemSpec(alpha=1.4, beta=1.6, theta=0.1, gamma=1.2,
                           phi=0.1, mu=0.6)
        grid = SpaceTimeGrid(-20.0, 20.0, 32, (0.5, 1.0, 1.5))
        calls, values = self._calls(spec, self._GAUSS, self._BOX, self._BOX,
                                    256)
        assert len(calls) == 6
        with mock.patch.object(green, "mittag_leffler_array") as ml, \
                mock.patch.object(solver, "_BLOCK_VALUES", 256), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = solve(spec, self._GAUSS, self._BOX, self._BOX,
                          grid).values
        assert ml.call_count == 0
        assert again.tobytes() == values.tobytes()

    @pytest.mark.parametrize("spec", [
        ProblemSpec(alpha=1.4, beta=1.6, mu=0.6),
        ProblemSpec(alpha=0.8, beta=1.5, gamma=0.9, mu=0.5,
                    source_coupling="self"),
    ], ids=["external", "self"])
    def test_all_zero_data_make_no_call(self, spec):
        z = self._ZERO
        calls, values = self._calls(spec, z, z, z, solver._BLOCK_VALUES)
        assert calls == []
        assert values.shape == (3, 32) and values.dtype == complex
        assert not values.any()

    @pytest.mark.parametrize("mode", ["riesz_feller", "identity"])
    def test_zero_transform_makes_no_call(self, mode):
        # a datum counts by its padded transform: samples of zeros draw no
        # kernel, nor does a U given with mu = 0, which warns once
        spec = ProblemSpec(alpha=1.4, beta=1.6, theta=0.1, gamma=1.2,
                           phi=0.1, source_mode=mode)
        zeros = SourceDescriptor.from_samples(np.zeros(32))
        calls, values = self._calls(spec, zeros, zeros, zeros,
                                    solver._BLOCK_VALUES)
        assert calls == [] and not values.any() and self.caught == []
        calls, values = self._calls(spec, self._ZERO, self._ZERO, self._BOX,
                                    solver._BLOCK_VALUES)
        assert calls == [] and not values.any()
        assert len(self.caught) == 1 and "mu = 0" in self.caught[0]
        calls, _ = self._calls(spec, self._GAUSS, self._ZERO, self._BOX,
                               solver._BLOCK_VALUES)
        assert calls == [(1.4, 1.4)]
        assert sum("mu = 0" in m for m in self.caught) == 1


def _messages(spec, f, g, U, grid):
    """solve's field and the texts of the warnings it raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = solve(spec, f, g, U, grid).values
    return values, [str(w.message) for w in caught]


def test_field_underflowing_in_every_mode_warns_nothing():
    # a datum of subnormal samples times the kernel is 0 in every mode:
    # the window check has no scale to divide by, and stays silent
    col = np.zeros(16)
    col[:2] = 5e-324, -5e-324
    values, caught = _messages(
        ProblemSpec(alpha=1.0, beta=2.0), SourceDescriptor.from_samples(col),
        SourceDescriptor.zero(), SourceDescriptor.zero(),
        SpaceTimeGrid(-8.0, 8.0, 16, (20.0,)))
    assert not values.any() and caught == []


def _wrap_draw(rng, case):
    """A seeded spec for one kind of solve (G, G2, either source mode or
    G3), a Gaussian datum's samples and one output time."""
    alpha = rng.uniform(1.05, 1.9) if case == "G2" else rng.uniform(0.5, 1.9)
    beta = rng.uniform(1.1, 2.0)
    kw = dict(alpha=alpha, beta=beta,
              theta=rng.uniform(-0.8, 0.8) * min(2.0 - beta, 2.0 - alpha),
              lam=float(rng.choice([0.6, 1.0])))
    if case not in ("G", "G2"):
        gamma = rng.uniform(0.6, 1.9)
        kw.update(mu=rng.uniform(0.3, 0.9), gamma=gamma,
                  phi=rng.uniform(-0.5, 0.5) * min(2.0 - gamma, gamma))
    if case == "self":
        kw["source_coupling"] = "self"
    elif case not in ("G", "G2"):
        kw["source_mode"] = case
    half, t = float(rng.choice([6.0, 10.0, 16.0, 25.0])), rng.uniform(0.5, 2)
    grid = SpaceTimeGrid(-half, half, 64, (t,))
    col = SourceDescriptor.gaussian(rng.uniform(-1.0, 1.0),
                                    rng.uniform(0.8, 1.5)).render(grid.x,
                                                                  grid.dx)
    return ProblemSpec(**kw), col, grid


def test_mass_outside_warning_tracks_the_wrap_error():
    # each draw's reference is the same data on a 9x wider window at the
    # same dx, where the field's tail wraps far less: their gap on the
    # window is the wrap error.  Above 1e-4 of the peak solve must warn,
    # below 1e-5 it must not; the ratio it reads predicts the error to
    # within a factor of 0.05-0.4 on these draws
    rng = np.random.default_rng(2023)
    errs = {"warned": [], "silent": []}
    for i in range(60):
        case = ("G", "G2", "riesz_feller", "identity", "self")[i % 5]
        spec, col, grid = _wrap_draw(rng, case)
        nx = grid.nx
        wide = SpaceTimeGrid(9 * grid.x_min, 9 * grid.x_max, 9 * nx,
                             grid.times)
        far = np.zeros(9 * nx, dtype=complex)
        far[4 * nx:5 * nx] = col
        slot = {"G": 0, "self": 0, "G2": 1}.get(case, 2)
        data, wide_data = ([SourceDescriptor.zero()] * 3 for _ in range(2))
        data[slot] = SourceDescriptor.from_samples(col)
        wide_data[slot] = SourceDescriptor.from_samples(far)
        values, caught = _messages(spec, *data, grid)
        ref = _messages(spec, *wide_data, wide)[0][0, 4 * nx:5 * nx]
        err = np.abs(values[0] - ref).max() / np.abs(ref).max()
        assert all("mass outside" in m for m in caught), (i, caught)
        errs["warned" if caught else "silent"].append(err)
        if err > 1e-4:
            assert len(caught) == 1, (i, case, err)
        elif err < 1e-5:
            assert caught == [], (i, case, err)
    # both sides of the rule are exercised
    assert sum(e > 1e-4 for e in errs["warned"]) >= 20
    assert sum(e < 1e-5 for e in errs["silent"]) >= 10


class TestKernelMemo:
    """solve keeps its latest kernel tables, and derives nothing else
    without the data; a solve on kept tables must give the bytes and the
    warnings of a solve after the memo is cleared."""

    _ZERO = SourceDescriptor.zero()
    _GAUSS = SourceDescriptor.gaussian(0.0, 1.0)
    _BOX = SourceDescriptor.box(-1.0, 1.5)
    _GRID = SpaceTimeGrid(-20.0, 20.0, 32, (0.5, 1.0))
    # 3 times of 128 padded modes: one block, or two of 256 values
    _GRID3 = SpaceTimeGrid(-20.0, 20.0, 32, (0.5, 1.0, 1.5))

    @staticmethod
    def _clear():
        solver._kernel_table.cache_clear()

    @given(_solve_cases())
    def test_hit_evicted_and_cleared_solves_agree(self, case):
        spec, f, g, U = case
        first, _ = _messages(spec, f, g, U, self._GRID)
        # 17 one-kernel, one-time tables push every older one out
        other = ProblemSpec(alpha=0.7, beta=1.3)
        for j in range(17):
            _messages(other, self._GAUSS, self._ZERO, self._ZERO,
                      SpaceTimeGrid(-4.0, 4.0, 8, (1.0 + j / 64.0,)))
        misses = solver._kernel_table.cache_info().misses
        evicted, _ = _messages(spec, f, g, U, self._GRID)
        assert solver._kernel_table.cache_info().misses > misses
        solver._kernel_table.cache_clear()
        cleared, _ = _messages(spec, f, g, U, self._GRID)
        assert first.tobytes() == evicted.tobytes() == cleared.tobytes()

    @pytest.mark.parametrize("spec, f, U, grid, text", [
        (ProblemSpec(alpha=0.8, beta=1.1), _GAUSS, _ZERO,
         SpaceTimeGrid(-3.0, 3.0, 64, (2.0,)), "mass outside"),
        (ProblemSpec(alpha=1.4, beta=1.6), _GAUSS,
         SourceDescriptor.box(-1.0, 1.5), _GRID, "mu = 0"),
    ], ids=["window", "mu_zero"])
    def test_hit_warns_as_a_miss(self, spec, f, U, grid, text):
        solver._kernel_table.cache_clear()
        _, miss = _messages(spec, f, self._ZERO, U, grid)
        hits = solver._kernel_table.cache_info().hits
        _, hit = _messages(spec, f, self._ZERO, U, grid)
        assert solver._kernel_table.cache_info().hits > hits
        assert hit == miss and any(text in m for m in miss)

    def test_written_field_leaves_the_next_solve(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6, theta=0.1)
        values, _ = _messages(spec, self._GAUSS, self._ZERO, self._ZERO,
                              self._GRID)
        want = values.tobytes()
        values[:] = 7.0
        again, _ = _messages(spec, self._GAUSS, self._ZERO, self._ZERO,
                             self._GRID)
        assert again.tobytes() == want

    def test_cached_table_is_read_only(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6)
        M, _ = solver._padded_wavenumbers(self._GRID)
        table = solver._kernel_table(green.GreenKind.G, spec, M,
                                     self._GRID.dx, (1.0,))
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize("one, other", [
        (dict(theta=0.0), dict(theta=-0.0)),
        (dict(lam=1), dict(lam=1 + 0j)),
    ], ids=["theta_zero_sign", "lam_int_complex"])
    @pytest.mark.parametrize("swap", [False, True])
    def test_equal_specs_share_bytes_in_either_order(self, one, other, swap):
        # equal specs share a key, so the first one's table serves both
        specs = [ProblemSpec(alpha=1.4, beta=1.6, mu=0.5, **kw)
                 for kw in (one, other)]
        if swap:
            specs.reverse()
        box = SourceDescriptor.box(-1.0, 1.5)
        solver._kernel_table.cache_clear()
        first, second = (_messages(sp, self._GAUSS, box, box, self._GRID)
                         for sp in specs)
        # the second solve read the first one's G, G2 and source tables
        assert solver._kernel_table.cache_info().hits == 3
        solver._kernel_table.cache_clear()
        alone = _messages(specs[1], self._GAUSS, box, box, self._GRID)
        assert first[0].tobytes() == second[0].tobytes() \
            == alone[0].tobytes()
        assert first[1] == second[1] == alone[1]

    @given(_solve_cases(), st.sampled_from([solver._BLOCK_VALUES, 256]))
    def test_hit_after_other_data_equals_a_cleared_solve(self, case, block):
        spec, f, g, U = case
        # other data with the same kernels make the tables, after the
        # last of them alone, which draws fewer kernels where there are more
        other = [d if d.kind == "zero"
                 else SourceDescriptor.gaussian(-0.5, 2.0) for d in case[1:]]
        present = [i for i, d in enumerate(other) if d.kind != "zero"]
        last = [d if i == present[-1] else self._ZERO
                for i, d in enumerate(other)]
        blocks = 1 if block == solver._BLOCK_VALUES else 2
        with mock.patch.object(solver, "_BLOCK_VALUES", block):
            _messages(spec, *last, self._GRID3)
            _messages(spec, *other, self._GRID3)
            hits = solver._kernel_table.cache_info().hits
            hit = _messages(spec, f, g, U, self._GRID3)
            # one table per kernel per block, each read once
            assert solver._kernel_table.cache_info().hits \
                == hits + len(present) * blocks
            self._clear()
            cleared = _messages(spec, f, g, U, self._GRID3)
        assert hit[0].tobytes() == cleared[0].tobytes()
        assert hit[1] == cleared[1]

    _NARROW = SpaceTimeGrid(-3.0, 3.0, 64, (0.5, 1.0, 2.0))

    @pytest.mark.parametrize("spec, data, grid, block, text, blocks", [
        # every kernel, the riesz_feller source's with m_S, 2 blocks
        (ProblemSpec(alpha=1.4, beta=1.6, theta=0.1, gamma=1.2, phi=0.1,
                     mu=0.6), "fgU", _GRID3, 256, "under-resolved", 2),
        # the window check reads the last inverse FFT, on a hit as well
        (ProblemSpec(alpha=0.8, beta=1.1), "f", _NARROW,
         solver._BLOCK_VALUES, "mass outside", 1),
        (ProblemSpec(alpha=0.8, beta=1.5, mu=0.5, source_mode="identity"),
         "U", _NARROW, 512, "mass outside", 2),
    ], ids=["rf_source_two_blocks", "window", "source_window"])
    def test_hit_derives_nothing_from_spec_and_grid(
            self, monkeypatch, spec, data, grid, block, text, blocks):
        f = self._GAUSS if "f" in data else self._ZERO
        g = self._BOX if "g" in data else self._ZERO
        U = self._BOX if "U" in data else self._ZERO
        counts = dict.fromkeys(["ml", "symbol", "ifft"], 0)

        def counting(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        for module, attr, name in [
                (green, "mittag_leffler_array", "ml"),
                (green, "riesz_feller_symbol", "symbol"),
                (np.fft, "ifft", "ifft")]:
            monkeypatch.setattr(module, attr,
                                counting(name, getattr(module, attr)))
        monkeypatch.setattr(solver, "_BLOCK_VALUES", block)
        self._clear()
        values, miss = _messages(spec, f, g, U, grid)
        assert counts["ml"] > 0 and counts["ifft"] == blocks
        counts.update(dict.fromkeys(counts, 0))
        again, hit = _messages(spec, f, g, U, grid)
        assert counts == dict(ml=0, symbol=0, ifft=blocks)
        assert again.tobytes() == values.tobytes() and hit == miss
        assert len(hit) == sum(text in m for m in hit) == 1

    def test_resolution_is_judged_on_each_solves_data(self):
        # one table, whose source kernel reads 1.4e-1 at the largest
        # wavenumber: a box's slowly decaying transform leaves the field
        # unresolved there, a Gaussian's does not.  The box over the 4
        # points -1.875 ... 0.9375 sums to 0 at k_N itself, so the rule
        # must read the wavenumbers next to k_N as well
        spec = ProblemSpec(alpha=0.93, beta=1.6, mu=0.7,
                           source_mode="identity")
        grid = SpaceTimeGrid(-30.0, 30.0, 64, (1.0,))
        odd, even = SourceDescriptor.box(-1.0, 1.0), \
            SourceDescriptor.box(-2.0, 1.0)
        ratios = {odd: "4.9e-02", even: "3.1e-02", self._GAUSS: None}
        self._clear()
        for U in (odd, self._GAUSS, even, odd, self._GAUSS, even):
            _, caught = _messages(spec, self._ZERO, self._ZERO, U, grid)
            if ratios[U] is None:
                assert caught == []
            else:
                assert len(caught) == 1
                assert "under-resolved" in caught[0]
                assert f"reaches {ratios[U]} of" in caught[0]
        assert solver._kernel_table.cache_info().hits == 5

    def test_underflowed_source_adds_no_term(self):
        # s mu U_hat is zero in every mode: U adds no kernel, no
        # warning and no bytes, as for a U of zero transform
        spec = ProblemSpec(alpha=0.8, beta=1.1, mu=5e-324,
                           source_mode="identity")
        faint = SourceDescriptor.from_samples(np.full(64, 1e-3))
        self._clear()
        values, caught = _messages(spec, self._ZERO, self._ZERO, faint,
                                   self._NARROW)
        assert not values.any() and caught == []
        assert solver._kernel_table.cache_info().misses == 0
        with_u = _messages(spec, self._GAUSS, self._ZERO, faint,
                           self._NARROW)
        self._clear()
        without = _messages(spec, self._GAUSS, self._ZERO, self._ZERO,
                            self._NARROW)
        assert with_u[0].tobytes() == without[0].tobytes()
        assert with_u[1] == without[1]
