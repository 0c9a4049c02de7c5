"""Unit tests for the special-function layer."""

import cmath
import math

import numpy as np
import pytest
from scipy.special import erfcx, loggamma as scipy_loggamma

from fracgreen.fracmath import (HAccuracyError, HFunctionParams,
                                h_function, loggamma, mittag_leffler,
                                mittag_leffler_array, rgamma)


class TestGamma:
    def test_rgamma_vanishes_at_poles(self):
        for n in (0, -1, -2, -7):
            assert rgamma(float(n)) == 0.0

    def test_rgamma_on_the_negative_axis(self):
        # the asymptotic Mittag-Leffler coefficients and the residue
        # series of h_function take 1/Gamma at negative arguments
        import mpmath as mp

        worst = 0.0
        with mp.workdps(40):
            for x in np.linspace(-80.3, -0.1, 801):
                ref = mp.rgamma(mp.mpf(float(x)))
                worst = max(worst, float(abs((rgamma(float(x)) - ref) / ref)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("alpha, beta, theta, index", [
        (0.5, 1.5, 0.2, None), (0.8, 1.6, 0.1, None), (1.4, 1.7, 0.0, 0.4),
        (1.9, 1.1, 0.1, None), (0.3, 0.5, -0.2, None), (1.0, 2.0, 0.0, None)])
    def test_loggamma_on_h_function_arguments(self, alpha, beta, theta,
                                              index):
        # every gamma argument of theta_log on the line Re xi = c that
        # h_function integrates along, and at the left poles of its residue
        # series; the imaginary part counts mod 2 pi
        params = HFunctionParams.green_kernel(alpha, beta,
                                              (beta - theta) / (2.0 * beta),
                                              index)
        cl, cr = params.left_abscissa(), params.right_abscissa()
        c = 0.5 * (cl + min(cr, cl + 2.0))
        y = np.concatenate([np.linspace(-30.0, 30.0, 6001),
                            np.linspace(-5e4, 5e4, 20001)])
        poles = [-(b + k) / B for b, B in params.lower[:params.m]
                 for k in range(40)]
        xi = np.concatenate([c + 1j * y, poles])
        z = np.concatenate([w for b, B in params.upper + params.lower
                            for w in (b + B * xi, 1.0 - b - B * xi)])
        # log Gamma has no condition to speak of within 1e-6 of its poles
        near_pole = (z.imag == 0.0) & (z.real < 0.5) \
            & (np.abs(z.real - np.round(z.real)) < 1e-6)
        z = z[~near_pole]
        ref = scipy_loggamma(z)
        d = loggamma(z) - ref
        d = d.real + 1j * np.remainder(d.imag + math.pi, 2.0 * math.pi) \
            - 1j * math.pi
        assert np.max(np.abs(d) / np.maximum(1.0, np.abs(ref))) <= 1e-13

    def test_loggamma_keeps_the_shape(self):
        assert loggamma(0.3 + 50j).shape == ()
        assert loggamma(np.ones((2, 3))).shape == (2, 3)
        assert np.allclose(loggamma(np.arange(1.0, 6.0)),
                           np.log([1.0, 1.0, 2.0, 6.0, 24.0]), atol=1e-14)


class TestMittagLeffler:
    def test_exponential_case(self):
        for z in (-5.0, 0.3, 2.0 + 1.0j, -40.0):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(
                cmath.exp(z), rel=1e-11)

    def test_cosine_case(self):
        for z in (0.5, 3.0, 9.0):
            assert mittag_leffler(2.0, 1.0, -z * z).real == pytest.approx(
                math.cos(z), rel=1e-10, abs=1e-12)

    def test_cosh_case(self):
        assert mittag_leffler(2.0, 1.0, 4.0).real == pytest.approx(
            math.cosh(2.0), rel=1e-12)

    def test_value_at_zero(self):
        for beta in (0.3, 1.0, 1.7):
            assert mittag_leffler(0.6, beta, 0.0).real == pytest.approx(
                1.0 / math.gamma(beta), rel=1e-14)

    def test_half_order_erfcx_identity(self):
        # E_{1/2,1}(-x) = erfcx(x), machine-checkable far into the tail
        for x in (0.5, 3.0, 9.0, 30.0):
            assert mittag_leffler(0.5, 1.0, -x).real == pytest.approx(
                float(erfcx(x)), rel=1e-10)

    def test_half_order_second_parameter_identity(self):
        # E_{1/2,1/2}(-x) = 1/sqrt(pi) - x erfcx(x)
        for x in (1.0, 4.0, 9.0):
            ref = 1.0 / math.sqrt(math.pi) - x * float(erfcx(x))
            assert mittag_leffler(0.5, 0.5, -x).real == pytest.approx(
                ref, rel=1e-9)

    def test_frozen_reference_values(self):
        cases = [
            (0.5, 0.5, -1.0, 0.13660600739194928 + 0j),
            (0.7, 1.0, -3.5, 0.11599093758675771 + 0j),
            (1.3, 1.3, 2.0 + 1.0j, 3.102464592097207 + 1.8882828117449608j),
            (0.65, 1.3, -9.7, 0.07413522215848412 + 0j),
        ]
        for a, b, z, ref in cases:
            got = mittag_leffler(a, b, z)
            assert abs(got - ref) / abs(ref) < 1e-10

    def test_recurrence(self):
        for a, b in ((0.4, 0.9), (1.1, 1.0), (1.8, 0.5)):
            for z in (-6.0, 1.5, 2.0 - 3.0j):
                lhs = mittag_leffler(a, b, z)
                rhs = z * mittag_leffler(a, a + b, z) + rgamma(b)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_conjugate_symmetry(self):
        z = 2.0 + 3.0j
        v = mittag_leffler(0.8, 1.1, z)
        w = mittag_leffler(0.8, 1.1, z.conjugate())
        assert w == v.conjugate()

    def test_array_agrees_with_scalar(self):
        zs = np.array([-20.0, -4.0, 0.0, 1.5, 3.0 + 2.0j, -8.0 - 1.0j,
                       -120.0, 40.0j])
        for a, b in ((0.6, 1.0), (0.9, 0.9), (1.3, 1.3), (2.0, 1.0)):
            arr = mittag_leffler_array(a, b, zs)
            for z, v in zip(zs, arr):
                s = mittag_leffler(a, b, complex(z))
                assert abs(v - s) <= 1e-9 * max(1.0, abs(s))

    def test_array_large_negative_ray(self):
        # the algebraic tail: E_{a,a}(-x) ~ x^{-2}/Gamma(-a) for large x
        x = np.linspace(200.0, 2000.0, 7)
        a = 0.7
        got = mittag_leffler_array(a, a, -x)
        # two algebraic terms; the next correction is O(x^-3)
        ref = -(x ** -2.0) * rgamma(-a) + (x ** -3.0) * rgamma(-2.0 * a)
        assert np.max(np.abs(got.real / ref - 1.0)) < 1e-4

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler_array(-1.0, 1.0, np.array([1.0]))


class TestHFunction:
    def test_gaussian_collapse(self):
        # alpha=1, beta=2 kernel: H at rho=1/2 reproduces the heat kernel
        params = HFunctionParams.green_kernel(1.0, 2.0, 0.5)
        for x in (0.3, 1.0, 2.5):
            t = 1.0
            z = x / t ** 0.5
            h = h_function(params, z)
            kernel = 1.0 / (2.0 * x) * float(np.real(h))
            ref = math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
            assert kernel == pytest.approx(ref, rel=1e-9)

    def test_symmetric_stable_density(self):
        # alpha=1 (exponential time factor gone), beta=1 similarity law:
        # the H value equals beta*x times the Cauchy density at unit time
        params = HFunctionParams.green_kernel(1.0, 1.0, 0.5)
        for x in (0.5, 2.0):
            h = float(np.real(h_function(params, x))) / x
            cauchy = 1.0 / (math.pi * (1.0 + x * x))
            assert h == pytest.approx(cauchy, rel=1e-9)

    @pytest.mark.parametrize("alpha, beta",
                             [(0.8, 1.7), (0.8, 1.5), (1.4, 1.6), (1.0, 2.0)])
    def test_array_matches_one_point_calls(self, alpha, beta):
        # beta = 1.5 and 2 have coinciding left poles, which send small z
        # to the contour; the others take the residue series below 0.1
        rng = np.random.default_rng(7)
        zs = np.concatenate([[1e-4, 0.02, 0.09, 0.1, 0.5, 3.0, 40.0],
                             np.exp(rng.uniform(math.log(1e-4),
                                                math.log(40.0), 12))])
        rho = 0.5 if beta == 2.0 else 0.45
        params = HFunctionParams.green_kernel(alpha, beta, rho)
        batch = h_function(params, zs)
        assert np.array_equal(batch, [h_function(params, z) for z in zs])
        perm = rng.permutation(zs.size)
        assert np.array_equal(h_function(params, zs[perm]), batch[perm])
        assert isinstance(h_function(params, zs[0]), float)
        with pytest.raises(ValueError):
            h_function(params, np.array([0.5, 0.0]))

    def test_pole_separation_guard(self):
        params = HFunctionParams.green_kernel(1.0, 2.0, 0.5)
        assert params.check_pole_separation()
