"""Unit tests for the special-function layer."""

import cmath
import math
import re

import numpy as np
import pytest
from scipy.special import erfcx, loggamma as scipy_loggamma

from fracgreen import fracmath
from fracgreen.fracmath import (HAccuracyError, HFunctionParams, h_function,
                                loggamma, mittag_leffler,
                                mittag_leffler_array, rgamma)

from _reference import h_integrand_log, h_residue_series


# (alpha, beta, theta, index) of the H-function checks; index None is
# the first-kind kernel's index alpha
_H_PARAMS = [
    (0.5, 1.5, 0.2, None), (0.8, 1.6, 0.1, None), (1.4, 1.7, 0.0, 0.4),
    (1.9, 1.1, 0.1, None), (0.3, 0.5, -0.2, None), (1.0, 2.0, 0.0, None)]


def _h_params(alpha, beta, theta, index):
    return HFunctionParams(alpha, beta, (beta - theta) / (2.0 * beta),
                           alpha if index is None else index)


def _contour(beta, height, n):
    """n points of the line h_function integrates along, |Im xi| <= height."""
    return -0.5 * min(1.0, beta) + 1j * np.linspace(-height, height, n)


def _left_poles(beta):
    k = np.arange(40.0)
    return np.concatenate([-(1.0 + k), -(1.0 + k) * beta])


def _mod_2pi_i(d):
    """d with its imaginary part reduced to [-pi, pi)."""
    return d.real + 1j * (np.remainder(d.imag + math.pi, 2.0 * math.pi)
                          - math.pi)


class TestGamma:
    def test_rgamma_vanishes_at_poles(self):
        for n in (0, -1, -2, -7):
            assert rgamma(float(n)) == 0.0

    def test_rgamma_on_the_negative_axis(self):
        # green_points' tail envelope 1/Gamma(b - 2a) and its Mellin form
        # at x = 0 take 1/Gamma at negative arguments
        import mpmath as mp

        worst = 0.0
        with mp.workdps(40):
            for x in np.linspace(-80.3, -0.1, 801):
                ref = mp.rgamma(mp.mpf(float(x)))
                worst = max(worst, float(abs((rgamma(float(x)) - ref) / ref)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("x", [-171.5, -172.5, -180.5, -1000.5])
    def test_rgamma_overflows_to_a_signed_infinity(self, x):
        # Gamma(x) underflows here, so 1/Gamma(x) is past the double range
        import mpmath as mp

        got = rgamma(x)
        assert math.isinf(got)
        assert math.copysign(1.0, got) == float(mp.sign(mp.rgamma(x)))

    @pytest.mark.parametrize("alpha, beta, theta, index", _H_PARAMS)
    def test_loggamma_on_h_function_arguments(self, alpha, beta, theta,
                                              index):
        # the two gamma arguments of theta_log, 1 + xi and
        # index + alpha xi/beta, on the line Re xi = -min(1, beta)/2 that
        # h_function integrates along and at the integrand's left poles;
        # the imaginary part counts mod 2 pi
        params = _h_params(alpha, beta, theta, index)
        xi = np.concatenate([_contour(beta, 30.0, 6001),
                             _contour(beta, 5e4, 20001),
                             _left_poles(beta)])
        z = np.concatenate([1.0 + xi, params.index + alpha / beta * xi])
        # log Gamma has no condition to speak of within 1e-6 of its poles
        near_pole = (z.imag == 0.0) & (z.real < 0.5) \
            & (np.abs(z.real - np.round(z.real)) < 1e-6)
        z = z[~near_pole]
        ref = scipy_loggamma(z)
        d = _mod_2pi_i(loggamma(z) - ref)
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
        params = HFunctionParams(1.0, 2.0, 0.5, 1.0)
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
        params = HFunctionParams(1.0, 1.0, 0.5, 1.0)
        for x in (0.5, 2.0):
            h = float(np.real(h_function(params, x))) / x
            cauchy = 1.0 / (math.pi * (1.0 + x * x))
            assert h == pytest.approx(cauchy, rel=1e-9)

    @pytest.mark.parametrize("a", [0.7, 1.3, 1.9])
    def test_neutral_diffusion_density(self, a):
        # alpha = beta with Mittag-Leffler index 1: H / (a x) is the
        # neutral-diffusion density of Mainardi, Luchko & Pagnini (FCAA
        # 4(2), 2001) in elementary form.  The bound is ten times the
        # trapezoid's stop, 1e-12 absolute or 1e-9 relative in H; the
        # skews reach 0.95 of the edge |theta| = 2 - alpha at a = 1.9
        xs = np.geomspace(0.01, 30.0, 9)
        for frac in (-0.95, 0.0, 0.95):
            theta = frac * min(a, 2.0 - a)
            params = HFunctionParams(a, a, (a - theta) / (2.0 * a), 1.0)
            u = 0.5 * math.pi * (a - theta)
            density = xs ** (a - 1.0) * math.sin(u) / (
                math.pi * (1.0 + 2.0 * xs ** a * math.cos(u) + xs ** (2 * a)))
            err = np.abs(h_function(params, xs) - a * xs * density)
            assert np.all(err <= 1e-11 + 1e-8 * a * xs * density)

    @pytest.mark.parametrize("alpha, beta",
                             [(0.8, 1.7), (0.8, 1.5), (1.4, 1.6), (1.0, 2.0)])
    def test_array_matches_one_point_calls(self, alpha, beta):
        # every z takes the contour; small z need the finest step levels,
        # which one-point calls build on their own
        rng = np.random.default_rng(7)
        zs = np.concatenate([[1e-4, 0.02, 0.09, 0.1, 0.5, 3.0, 40.0],
                             np.exp(rng.uniform(math.log(1e-4),
                                                math.log(40.0), 12))])
        rho = 0.5 if beta == 2.0 else 0.45
        params = HFunctionParams(alpha, beta, rho, alpha)
        batch = h_function(params, zs)
        assert np.array_equal(batch, [h_function(params, z) for z in zs])
        perm = rng.permutation(zs.size)
        assert np.array_equal(h_function(params, zs[perm]), batch[perm])
        assert isinstance(h_function(params, zs[0]), float)
        with pytest.raises(ValueError):
            h_function(params, np.array([0.5, 0.0]))

    @pytest.mark.parametrize("alpha, beta, theta, index", _H_PARAMS)
    def test_integrand_is_the_six_gamma_ratio(self, alpha, beta, theta,
                                              index):
        # the reflection formula turns the six gamma factors into two and
        # two sines; their logs agree mod 2 pi i
        params = _h_params(alpha, beta, theta, index)
        xi = _contour(beta, 200.0, 8001)
        ref = h_integrand_log(alpha, beta, params.rho, params.index, xi)
        d = _mod_2pi_i(params.theta_log(xi) - ref)
        assert np.max(np.abs(d) / np.maximum(1.0, np.abs(ref))) <= 1e-12

    def test_rho_outside_the_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"need 0 <= rho <= 1 and beta "
                                             r"> 0, got rho=1\.2, beta=1\.6"):
            HFunctionParams(0.8, 1.6, 1.2, 0.8)

    def test_extremal_rho(self):
        # at rho = 0 sin(pi rho xi) vanishes, and H with it; at rho = 1,
        # with alpha < beta, the left-pole series is a reference
        zs = np.geomspace(1e-6, 0.09, 7)
        zero = h_function(HFunctionParams(0.5, 0.93, 0.0, 0.5), zs)
        assert np.array_equal(zero, np.zeros(7))
        got = h_function(HFunctionParams(0.5, 0.93, 1.0, 0.5), zs)
        ref = h_residue_series(0.5, 0.93, 1.0, 0.5, zs)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_node_cap_names_z_and_the_count(self, monkeypatch):
        # the step levels one z uses hold at most _H_NODES nodes together;
        # z = 2 at (0.8, 1.6) needs 800 + 1600 by its second level
        monkeypatch.setattr(fracmath, "_H_NODES", 2 ** 10)
        with pytest.raises(HAccuracyError, match=re.escape(
                "needs over 1024 nodes (2400 by step level 2) at z = 2")):
            h_function(HFunctionParams(0.8, 1.6, 0.5, 0.8), 2.0)

    @pytest.mark.parametrize("beta", [1.7, 1.9])
    def test_residue_series_matches_the_contour(self, beta):
        # for alpha < beta the residue series over the left poles converges
        # and is an independent reference for small z
        params = HFunctionParams(0.8, beta, 0.45, 0.8)
        zs = np.geomspace(1e-8, 0.0999, 15)
        ref = h_residue_series(0.8, beta, 0.45, 0.8, zs)
        assert np.max(np.abs(h_function(params, zs) - ref)) <= 1e-12

    def test_residue_series_on_drawn_sets(self):
        # alpha < beta over the kernels' parameter domain, both indices, and
        # h_function's own tolerance; a drawn set whose kept left poles
        # clash would make the reference raise
        rng = np.random.default_rng(11)
        for _ in range(40):
            beta = rng.uniform(0.1, 2.0)
            alpha = rng.uniform(0.05, beta)
            theta = 0.999 * rng.uniform(-1.0, 1.0) * min(beta, 2.0 - beta)
            index = alpha if alpha <= 1.0 or rng.random() < 0.5 \
                else alpha - 1.0
            rho = (beta - theta) / (2.0 * beta)
            zs = np.exp(rng.uniform(math.log(1e-8), math.log(0.1), 8))
            got = h_function(HFunctionParams(alpha, beta, rho, index), zs)
            ref = h_residue_series(alpha, beta, rho, index, zs)
            assert np.all(np.abs(got - ref)
                          <= np.maximum(1e-12, 1e-9 * np.abs(ref)))
