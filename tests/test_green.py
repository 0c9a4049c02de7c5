"""Unit tests for kernels: Fourier side, quadrature, closed form, mass."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgreen.fracmath import mittag_leffler_array
from fracgreen.green import (FourierOnlyError, GreenKind, ProblemSpec,
                             QuadratureConfig, RegimeError,
                             SpecValidationError, green_hat,
                             green_mass, green_point, green_point_closed,
                             green_points)
from fracgreen.operators import riesz_feller_symbol


class TestProblemSpec:
    def test_valid_spec_has_no_violations(self):
        spec = ProblemSpec(alpha=0.7, beta=1.4, theta=0.2)
        assert (spec.alpha, spec.beta, spec.theta) == (0.7, 1.4, 0.2)

    def test_collects_all_violations(self):
        with pytest.raises(SpecValidationError) as err:
            ProblemSpec(alpha=3.0, beta=2.0, theta=0.5, gamma=-1.0)
        assert len(err.value.problems) == 3
        assert isinstance(err.value, ValueError)

    @given(st.floats(-0.5, 2.5), st.floats(-0.5, 2.5), st.floats(-1.5, 1.5),
           st.floats(-0.5, 2.5), st.floats(-1.5, 1.5))
    def test_constructs_exactly_on_the_admissible_domain(
            self, alpha, beta, theta, gamma, phi):
        def diamond(order, skew, order_name, skew_name):
            # 0 < order <= 2 and |skew| <= min(order, 2 - order)
            if not 0.0 < order <= 2.0:
                return {order_name}
            if abs(skew) > min(order, 2.0 - order) + 1e-15:
                return {skew_name}
            return set()

        broken = diamond(beta, theta, "beta", "theta") \
            | diamond(gamma, phi, "gamma", "phi")
        if not 0.0 < alpha <= 2.0:
            broken.add("alpha")
        kw = dict(alpha=alpha, beta=beta, theta=theta, gamma=gamma, phi=phi)
        if not broken:
            ProblemSpec(**kw)
            return
        with pytest.raises(SpecValidationError) as err:
            ProblemSpec(**kw)
        named = {p.split()[0].strip("|") for p in err.value.problems}
        assert named == broken


@st.composite
def _admissible(draw):
    """(alpha, beta, theta) inside the admissible domain, |theta| up to
    its bound min(beta, 2 - beta)."""
    alpha = draw(st.floats(0.0, 2.0, exclude_min=True))
    beta = draw(st.floats(0.0, 2.0, exclude_min=True))
    theta = draw(st.floats(-1.0, 1.0)) * min(beta, 2.0 - beta)
    return alpha, beta, theta


class TestGreenHat:
    @given(_admissible(), st.sampled_from(list(GreenKind)),
           st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
    def test_mirror_symmetry_is_exact(self, abt, kind, ks):
        # G(x; theta) = G(-x; -theta), i.e. G_hat(-k; theta) = G_hat(k; -theta)
        alpha, beta, theta = abt
        if kind in (GreenKind.G2, GreenKind.G4) and alpha <= 1.0:
            return
        k = np.asarray(ks)
        kw = dict(alpha=alpha, beta=beta, gamma=1.3, phi=0.0, mu=0.4)
        pos = green_hat(kind, -k, 0.8, ProblemSpec(theta=theta, **kw))
        neg = green_hat(kind, k, 0.8, ProblemSpec(theta=-theta, **kw))
        assert np.array_equal(pos, neg)

    def test_heat_kernel_transform(self):
        spec = ProblemSpec(alpha=1.0, beta=2.0)
        k = np.linspace(-5.0, 5.0, 41)
        gh = green_hat(GreenKind.G, k, 0.7, spec)
        assert np.allclose(gh, np.exp(-0.7 * k * k), atol=1e-12)

    def test_zero_mode_is_mass(self):
        spec = ProblemSpec(alpha=0.6, beta=1.5, theta=0.1)
        t = 1.3
        gh = green_hat(GreenKind.G, np.array([0.0]), t, spec)
        assert gh[0].real == pytest.approx(green_mass(GreenKind.G, t, spec),
                                           rel=1e-13)

    def test_source_kernel_riesz_mode_carries_symbol(self):
        spec = ProblemSpec(alpha=0.7, beta=1.5, gamma=0.9, theta=0.1)
        k = np.array([0.5, 2.0, -3.0])
        t = 0.8
        g1 = green_hat(GreenKind.G1, k, t, spec)
        arg = -spec.lam * riesz_feller_symbol(spec.space_symbol(), k) \
            * t ** spec.alpha
        ml = mittag_leffler_array(spec.alpha, spec.alpha, arg)
        ref = riesz_feller_symbol(spec.source_symbol(), k) * ml
        assert np.allclose(g1, ref, rtol=1e-11)

    def test_g2_requires_high_regime(self):
        spec = ProblemSpec(alpha=0.7, beta=1.5)
        with pytest.raises(RegimeError):
            green_hat(GreenKind.G2, np.array([1.0]), 1.0, spec)

    def test_wave_limit(self):
        # alpha=2, beta=2: first kernel is sin(kt)/k, second cos(kt)
        spec = ProblemSpec(alpha=2.0, beta=2.0)
        k = np.array([0.3, 1.0, 4.0])
        t = 0.9
        g = green_hat(GreenKind.G, k, t, spec)
        g2 = green_hat(GreenKind.G2, k, t, spec)
        assert np.allclose(g, np.sin(k * t) / k, atol=1e-10)
        assert np.allclose(g2, np.cos(k * t), atol=1e-10)


class TestGreenPoint:
    def test_heat_kernel_values(self):
        spec = ProblemSpec(alpha=1.0, beta=2.0)
        for x, t in ((0.0, 1.0), (1.0, 0.5), (-2.0, 2.0)):
            ref = math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
            got = green_point(GreenKind.G, x, t, spec)
            assert got.real == pytest.approx(ref, abs=1e-9)

    def test_cauchy_kernel_values(self):
        # beta=1, alpha=1: Cauchy density t/(pi (x^2+t^2))
        spec = ProblemSpec(alpha=1.0, beta=1.0)
        for x, t in ((0.5, 1.0), (3.0, 0.5)):
            ref = t / (math.pi * (x * x + t * t))
            got = green_point(GreenKind.G, x, t, spec)
            assert got.real == pytest.approx(ref, rel=1e-7)

    def test_batch_matches_scalar(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6, theta=0.1)
        xs = np.array([-2.0, 0.4, 1.7])
        batch = green_points(GreenKind.G, xs, 1.0, spec)
        for x, v in zip(xs, batch):
            s = green_point(GreenKind.G, x, 1.0, spec)
            assert abs(v - s) < 1e-7

    def test_skew_mirror_symmetry(self):
        # negating both x and theta leaves the kernel unchanged
        s_pos = ProblemSpec(alpha=0.7, beta=1.4, theta=0.25)
        s_neg = ProblemSpec(alpha=0.7, beta=1.4, theta=-0.25)
        a = green_point(GreenKind.G, 1.3, 1.0, s_pos)
        b = green_point(GreenKind.G, -1.3, 1.0, s_neg)
        assert a.real == pytest.approx(b.real, rel=1e-8)

    def test_dispersive_coefficient_rejected(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6, lam=1j)
        with pytest.raises(FourierOnlyError):
            green_point(GreenKind.G, 1.0, 1.0, spec)


class TestClosedForm:
    def test_matches_quadrature(self):
        spec = ProblemSpec(alpha=0.5, beta=1.5, theta=0.2)
        for x in (0.2, 1.0, 4.0, -1.5):
            c = green_point_closed(GreenKind.G, x, 1.0, spec)
            q = green_point(GreenKind.G, x, 1.0, spec)
            assert c == pytest.approx(q.real, rel=1e-6)

    def test_g2_matches_quadrature(self):
        spec = ProblemSpec(alpha=1.4, beta=1.7)
        c = green_point_closed(GreenKind.G2, 0.8, 1.0, spec)
        q = green_point(GreenKind.G2, 0.8, 1.0, spec)
        assert c == pytest.approx(q.real, rel=1e-6)

    def test_array_matches_one_point_calls(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6, theta=0.1)
        xs = np.array([-7.0, -0.05, 0.03, 0.4, -1.2, 2.5, 30.0])
        got = green_point_closed(GreenKind.G, xs, 1.5, spec)
        assert np.array_equal(
            got, [green_point_closed(GreenKind.G, float(x), 1.5, spec)
                  for x in xs])
        with pytest.raises(ValueError):
            green_point_closed(GreenKind.G, np.array([1.0, 0.0]), 1.0, spec)

    @pytest.mark.parametrize("alpha, beta, theta",
                             [(0.8, 1.7, 0.1), (0.6, 1.3, 0.0),
                              (1.4, 1.7, -0.1)])
    def test_residue_series_matches_quadrature(self, alpha, beta, theta):
        # lam = 1 and t = 1 make z = |x| < 0.1: the residue series of
        # h_function
        spec = ProblemSpec(alpha=alpha, beta=beta, theta=theta)
        xs = np.array([0.01, 0.03, 0.06, -0.04])
        closed = green_point_closed(GreenKind.G, xs, 1.0, spec)
        quad = green_points(GreenKind.G, xs, 1.0, spec)
        assert np.max(np.abs(closed - quad.real) / np.abs(closed)) <= 1e-7

    def test_rejects_x_zero_and_complex_lam(self):
        spec = ProblemSpec(alpha=0.5, beta=1.5)
        with pytest.raises(ValueError):
            green_point_closed(GreenKind.G, 0.0, 1.0, spec)
        with pytest.raises(ValueError):
            green_point_closed(GreenKind.G, 1.0, 1.0,
                               ProblemSpec(alpha=0.5, beta=1.5, lam=1j))

    def test_g2_low_regime_rejected(self):
        spec = ProblemSpec(alpha=0.5, beta=1.5)
        with pytest.raises(RegimeError):
            green_point_closed(GreenKind.G2, 1.0, 1.0, spec)


class TestMass:
    def test_mass_law_values(self):
        spec = ProblemSpec(alpha=0.5, beta=1.5)
        assert green_mass(GreenKind.G, 1.0, spec) == pytest.approx(
            1.0 / math.gamma(0.5), rel=1e-13)
        spec2 = ProblemSpec(alpha=1.5, beta=1.5)
        assert green_mass(GreenKind.G2, 2.0, spec2) == pytest.approx(
            2.0 ** -0.5 / math.gamma(0.5), rel=1e-13)

    def test_g2_mass_low_regime_rejected(self):
        with pytest.raises(RegimeError):
            green_mass(GreenKind.G2, 1.0, ProblemSpec(alpha=0.5, beta=1.5))
