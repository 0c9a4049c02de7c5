"""Unit tests for the spectral solver and its convolution helpers."""

import math
import warnings

import numpy as np
import pytest

from fracgreen.fracmath import mittag_leffler, mittag_leffler_array
from fracgreen.green import ProblemSpec
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

    def test_box(self):
        grid = SpaceTimeGrid(-5.0, 5.0, 100, (1.0,))
        vals = SourceDescriptor.box(-1.0, 1.0).render(grid.x, grid.dx)
        assert np.sum(vals.real) * grid.dx == pytest.approx(2.0, abs=0.11)

    def test_samples_length_checked(self):
        grid = SpaceTimeGrid(-5.0, 5.0, 100, (1.0,))
        with pytest.raises(ValueError):
            SourceDescriptor.from_samples(np.ones(7)).render(grid.x, grid.dx)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SourceDescriptor(kind="spline")


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

    def test_field_shape_checked(self):
        grid = SpaceTimeGrid(-2.0, 2.0, 16, (1.0,))
        with pytest.raises(ValueError):
            Field(grid=grid, values=np.zeros((2, 16)))


@pytest.mark.parametrize("build", [
    lambda: SpaceTimeGrid(5.0, -5.0, 16, (1.0,)),
    lambda: SpaceTimeGrid(2.0, 2.0, 16, (1.0,)),
    lambda: SourceDescriptor.gaussian(0.0, 0.0),
    lambda: SourceDescriptor.gaussian(0.0, -1.0),
    lambda: SourceDescriptor.box(1.0, 1.0),
    lambda: SourceDescriptor.box(2.0, -2.0),
], ids=["grid_reversed", "grid_empty", "gaussian_zero_width",
        "gaussian_negative_width", "box_empty", "box_reversed"])
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

    def _rf_source_case(self, alpha):
        spec = ProblemSpec(alpha=alpha, beta=1.5, theta=0.2, gamma=0.8,
                           phi=0.1, mu=0.6, source_mode="riesz_feller")
        grid = SpaceTimeGrid(-20.0, 20.0, 128, (1.0,))
        U = SourceDescriptor.gaussian(0.0, 1.5)
        fld = solve(spec, self._zero(), self._zero(), U, grid)
        from fracgreen.solver import _padded_wavenumbers
        M, k = _padded_wavenumbers(grid)
        col = np.zeros(M, dtype=complex)
        col[:grid.nx] = U.render(grid.x, grid.dx)
        # riesz_feller mode: -mu m_S(k) U_hat(k) times the time integral
        src_hat = -spec.mu * riesz_feller_symbol(spec.source_symbol(), k) \
            * np.fft.fft(col)
        c = spec.lam * riesz_feller_symbol(spec.space_symbol(), k)
        return fld.values[0], grid, src_hat, c

    def test_riesz_feller_source_alpha_one_elementary(self):
        # alpha = 1: Int_0^t exp(-c s) ds = (1 - exp(-c t)) / c, t at c = 0
        got, grid, src_hat, c = self._rf_source_case(1.0)
        t = grid.times[0]
        safe = np.where(c == 0.0, 1.0, c)
        integral = np.where(c == 0.0, t, -np.expm1(-c * t) / safe)
        ref = np.fft.ifft(src_hat * integral)[:grid.nx]
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert rel < 1e-10

    def test_riesz_feller_source_matches_product_integration(self):
        alpha, n = 1.45, 256
        got, grid, src_hat, c = self._rf_source_case(alpha)
        t = grid.times[0]
        w = t - (t / n) * np.arange(n + 1)
        S = mittag_leffler_array(alpha, alpha, -np.outer(w ** alpha, c)) \
            * src_hat[None, :]
        integral = convolve_time_singular(S, alpha, n, t / n)
        ref = np.fft.ifft(integral)[:grid.nx]
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert rel < 1e-4

    def test_window_mass_warning_fires_on_narrow_grid(self):
        spec = ProblemSpec(alpha=0.8, beta=1.1)
        grid = SpaceTimeGrid(-3.0, 3.0, 64, (2.0,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        with pytest.warns(UserWarning, match="mass outside"):
            solve(spec, f, self._zero(), self._zero(), grid)

    def test_under_resolved_grid_asks_for_more_points(self):
        # |G_hat| at the largest wavenumber is 0.13 of |G_hat(0)| here: the
        # far "mass" is ringing, so widening the grid would make it worse
        spec = ProblemSpec(alpha=1.0, beta=1.5, theta=0.2)
        grid = SpaceTimeGrid(-60.0, 60.0, 64, (1.0,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(spec, f, self._zero(), self._zero(), grid)
        text = " ".join(str(w.message) for w in caught)
        assert "increase nx" in text and "1.3e-01" in text
        assert "widen the grid" not in text

    def test_growing_kernel_warning_names_the_growth(self):
        # G_hat grows with |k| here, so a finer grid is no remedy
        spec = ProblemSpec(alpha=1.8, beta=1.2, theta=0.5)
        grid = SpaceTimeGrid(-10.0, 10.0, 64, (0.9,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(spec, SourceDescriptor.delta(), self._zero(), self._zero(),
                  grid)
        text = " ".join(str(w.message) for w in caught)
        assert "grows with |k|" in text and "-0.75 pi" in text
        assert "increase nx" not in text

    def test_no_warning_on_wide_grid(self):
        spec = ProblemSpec(alpha=1.0, beta=2.0)
        grid = SpaceTimeGrid(-20.0, 20.0, 128, (0.5,))
        f = SourceDescriptor.gaussian(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(spec, f, self._zero(), self._zero(), grid)

    def test_invalid_spec_rejected(self):
        grid = SpaceTimeGrid(-10.0, 10.0, 64, (1.0,))
        with pytest.raises(SpecValidationError):
            solve(ProblemSpec(alpha=3.0, beta=1.5),
                  SourceDescriptor.delta(), self._zero(), self._zero(),
                  grid)
