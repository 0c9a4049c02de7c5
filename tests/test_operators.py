"""Unit tests for symbols, GL weights, and the real-space reference
operator."""

import math

import numpy as np
import pytest
from scipy.special import binom

from fracgreen.operators import SymbolParams, gl_weights, riesz_feller_symbol

from _reference import riesz_feller_apply


class TestSymbol:
    def test_symmetric_case_is_power_law(self):
        p = SymbolParams(order=1.5)
        k = np.array([-4.0, -1.0, 0.0, 1.0, 4.0])
        v = riesz_feller_symbol(p, k)
        assert np.allclose(v, np.abs(k) ** 1.5)
        assert v[2] == 0.0

    def test_skew_phase(self):
        p = SymbolParams(order=1.2, skew=0.3)
        v = riesz_feller_symbol(p, 2.0)
        assert abs(v) == pytest.approx(2.0 ** 1.2, rel=1e-14)
        assert math.atan2(v.imag, v.real) == pytest.approx(
            0.3 * math.pi / 2.0, rel=1e-14)
        # opposite wavenumber conjugates the phase
        w = riesz_feller_symbol(p, -2.0)
        assert w == pytest.approx(v.conjugate())

    def test_scalar_input_returns_scalar(self):
        assert isinstance(riesz_feller_symbol(SymbolParams(1.0), 3.0),
                          complex)

    def test_skew_bound_enforced(self):
        SymbolParams(order=1.5, skew=0.5)
        with pytest.raises(ValueError):
            SymbolParams(order=1.5, skew=0.6)
        with pytest.raises(ValueError):
            SymbolParams(order=2.0, skew=0.1)
        with pytest.raises(ValueError):
            SymbolParams(order=0.0)


class TestGLWeights:
    def test_matches_binomial(self):
        a = 0.7
        w = gl_weights(a, 6)
        ref = [(-1.0) ** j * binom(a, j) for j in range(7)]
        assert np.allclose(w, ref, rtol=1e-13)

    def test_first_order_telescopes(self):
        w = gl_weights(1.0, 5)
        assert np.allclose(w, [1.0, -1.0, 0.0, 0.0, 0.0, 0.0])

    def test_weights_sum_tends_to_zero(self):
        # sum_j w_j = (1-1)^a in the limit; partial sums shrink like n^-a
        a = 0.5
        s200 = abs(gl_weights(a, 200).sum())
        s800 = abs(gl_weights(a, 800).sum())
        assert s800 < s200
        assert s800 < 0.02

    def test_input_validation(self):
        with pytest.raises(ValueError):
            gl_weights(-0.5, 4)
        with pytest.raises(ValueError):
            gl_weights(0.5, -1)


class TestRieszFellerApply:
    def _grid_gaussian(self, n=512, span=40.0):
        dx = span / n
        x = dx * np.arange(n) - span / 2.0
        return x, np.exp(-0.5 * x * x), dx

    def _spectral_reference(self, f, dx, p):
        n = f.size
        k = -2.0 * math.pi * np.fft.fftfreq(4 * n, d=dx)
        pad = np.zeros(4 * n)
        pad[:n] = f
        sym = riesz_feller_symbol(p, k)
        return np.real(np.fft.ifft(-sym * np.fft.fft(pad)))[:n]

    @pytest.mark.parametrize("order,skew", [(0.6, 0.0), (1.5, 0.0),
                                            (1.2, 0.3), (0.9, -0.2)])
    def test_matches_spectral_path(self, order, skew):
        x, f, dx = self._grid_gaussian()
        p = SymbolParams(order=order, skew=skew)
        got = riesz_feller_apply(f, dx, p)
        ref = self._spectral_reference(f, dx, p)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) / scale < 2e-3

    def test_order_two_rejected(self):
        with pytest.raises(ValueError):
            riesz_feller_apply(np.zeros(16), 0.1, SymbolParams(order=2.0))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            riesz_feller_apply(np.zeros(4), 0.1, SymbolParams(order=1.0))
