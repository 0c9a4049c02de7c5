"""Unit tests for kernels: Fourier side, quadrature, closed form, mass."""

import math

import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st

from fracgreen.fracmath import HAccuracyError, mittag_leffler_array
from fracgreen.green import (FourierOnlyError, GreenKind, ProblemSpec,
                             RegimeError, SpecValidationError,
                             ToleranceNotMetError, _expint_series,
                             _growing_phase, _oscillatory_tail, green_hat,
                             green_mass, green_point_closed, green_points)
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

    @pytest.mark.parametrize("name", ["lam", "mu"])
    def test_non_finite_coefficient_named(self, name):
        with pytest.raises(SpecValidationError) as err:
            ProblemSpec(alpha=0.8, beta=1.5, **{name: complex(math.nan)})
        assert [p.split()[0] for p in err.value.problems] == [name]

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


@st.composite
def _density_specs(draw):
    """(alpha, beta, theta, t) where Mainardi, Luchko & Pagnini (FCAA 4(2),
    2001) prove G a probability density: 0 < alpha <= 1 with
    0 < beta <= 2, or 1 < alpha <= beta <= 2, |theta| up to
    0.95 min(beta, 2 - beta).

    alpha >= 0.01 and beta >= 0.1 leave out the orders at which the
    contour's argument |x| / t^(alpha/beta) leaves the float range: an
    open fault of the closed form, not an exception to the density
    property.  The corner alpha ~ beta near 2 is drawn in full.
    """
    if draw(st.booleans()):
        alpha = draw(st.floats(0.01, 1.0))
        beta = draw(st.floats(0.1, 2.0))
    else:
        beta = draw(st.floats(1.0, 2.0, exclude_min=True))
        alpha = draw(st.floats(1.0, beta, exclude_min=True))
    theta = draw(st.floats(-0.95, 0.95)) * min(beta, 2.0 - beta)
    return alpha, beta, theta, draw(st.floats(0.2, 3.0))


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
            got = green_points(GreenKind.G, [x], t, spec)[0]
            assert got.real == pytest.approx(ref, abs=1e-9)

    def test_cauchy_kernel_values(self):
        # beta=1, alpha=1: Cauchy density t/(pi (x^2+t^2))
        spec = ProblemSpec(alpha=1.0, beta=1.0)
        for x, t in ((0.5, 1.0), (3.0, 0.5)):
            ref = t / (math.pi * (x * x + t * t))
            got = green_points(GreenKind.G, [x], t, spec)[0]
            assert got.real == pytest.approx(ref, rel=1e-7)

    def test_batch_matches_scalar(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6, theta=0.1)
        xs = np.array([-2.0, 0.4, 1.7])
        batch = green_points(GreenKind.G, xs, 1.0, spec)
        for x, v in zip(xs, batch):
            s = green_points(GreenKind.G, [x], 1.0, spec)[0]
            assert abs(v - s) < 1e-7

    def test_skew_mirror_symmetry(self):
        # negating both x and theta leaves the kernel unchanged
        s_pos = ProblemSpec(alpha=0.7, beta=1.4, theta=0.25)
        s_neg = ProblemSpec(alpha=0.7, beta=1.4, theta=-0.25)
        a = green_points(GreenKind.G, [1.3], 1.0, s_pos)[0]
        b = green_points(GreenKind.G, [-1.3], 1.0, s_neg)[0]
        assert a.real == pytest.approx(b.real, rel=1e-8)

    def test_dispersive_coefficient_rejected(self):
        spec = ProblemSpec(alpha=0.8, beta=1.6, lam=1j)
        with pytest.raises(FourierOnlyError):
            green_points(GreenKind.G, [1.0], 1.0, spec)

    def test_growing_transform_refused(self):
        # admissible, but |theta| > 2 - alpha puts the Mittag-Leffler
        # argument phase -0.75 pi inside alpha pi/2 = 0.9 pi
        spec = ProblemSpec(alpha=1.8, beta=1.2, theta=0.5)
        assert abs(green_hat(GreenKind.G, 500.0, 0.9, spec)) > 1e4
        with pytest.raises(FourierOnlyError, match=r"-0\.75 pi .* 0\.9 pi"):
            green_points(GreenKind.G, [-3.0, -0.7, 0.4, 1.1, 5.0], 0.9, spec)
        with pytest.raises(FourierOnlyError, match="inside alpha pi/2"):
            green_point_closed(GreenKind.G, [0.4, 1.1], 0.9, spec)
        with pytest.raises(FourierOnlyError, match="inside alpha pi/2"):
            green_points(GreenKind.G, [0.5], 0.9, ProblemSpec(
                alpha=1.8, beta=1.2, theta=0.5, lam=0.8 + 0.3j))

    @pytest.mark.parametrize("spec, grows", [
        (ProblemSpec(alpha=1.8, beta=1.2, theta=0.15), False),
        (ProblemSpec(alpha=1.8, beta=1.2, theta=-0.25), True),
        # on the boundary alpha pi/2 itself: no refusal from this rule
        (ProblemSpec(alpha=2.0, beta=1.2), False),
        (ProblemSpec(alpha=1.0, beta=2.0, lam=1j), False),
        # self-coupled: the higher order sets the phase at large |k|
        (ProblemSpec(alpha=1.8, beta=1.2, theta=0.5, gamma=1.5, mu=1.0,
                     source_coupling="self"), False),
    ])
    def test_growth_rule(self, spec, grows):
        self_coupled = spec.source_coupling == "self"
        assert (_growing_phase(spec, self_coupled) is not None) == grows

    def test_schrodinger_coefficient_keeps_its_refusal(self):
        spec = ProblemSpec(alpha=1.0, beta=2.0, lam=1j)
        with pytest.raises(FourierOnlyError, match="not positive"):
            green_points(GreenKind.G, [1.0], 1.0, spec)


class TestClosedForm:
    def test_matches_quadrature(self):
        spec = ProblemSpec(alpha=0.5, beta=1.5, theta=0.2)
        for x in (0.2, 1.0, 4.0, -1.5):
            c = green_point_closed(GreenKind.G, x, 1.0, spec)
            q = green_points(GreenKind.G, [x], 1.0, spec)[0]
            assert c == pytest.approx(q.real, rel=1e-6)

    def test_g2_matches_quadrature(self):
        spec = ProblemSpec(alpha=1.4, beta=1.7)
        c = green_point_closed(GreenKind.G2, 0.8, 1.0, spec)
        q = green_points(GreenKind.G2, [0.8], 1.0, spec)[0]
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
                              (1.4, 1.7, -0.1), (1.45, 0.76, 0.02)])
    def test_residue_series_matches_quadrature(self, alpha, beta, theta):
        # lam = 1 and t = 1 make z = |x| < 0.1, small H arguments on the
        # contour, against the independent quadrature
        spec = ProblemSpec(alpha=alpha, beta=beta, theta=theta)
        xs = np.array([0.01, 0.03, 0.06, -0.04])
        closed = green_point_closed(GreenKind.G, xs, 1.0, spec)
        quad = green_points(GreenKind.G, xs, 1.0, spec)
        assert np.max(np.abs(closed - quad.real) / np.abs(closed)) <= 1e-7

    # the examples pin the edges: beta = 2, where the far values are
    # tiny, and alpha = beta near 2, where the contour is longest
    @given(_density_specs())
    @example((0.6, 2.0, 0.0, 0.2))
    @example((1.5, 2.0, 0.0, 3.0))
    @example((1.75, 1.75, 0.2375, 3.0))
    @example((1.9, 1.9, 0.095, 1.0))
    @example((1.95, 1.95, 0.04, 0.2))
    def test_non_negative_where_a_density(self, abtt):
        # no value below the contour's absolute tolerance 1e-12, carried
        # over to G through the prefactor t^(alpha-1) / (beta |x|); only
        # the draws that the contour refuses on its named edge
        # |theta| = 2 - alpha are left out
        alpha, beta, theta, t = abtt
        xs = np.geomspace(1e-3, 30.0, 6)
        xs = np.concatenate([xs, -xs])
        spec = ProblemSpec(alpha=alpha, beta=beta, theta=theta)
        try:
            vals = green_point_closed(GreenKind.G, xs, t, spec)
        except HAccuracyError as exc:
            if "|theta_eff| = 2 - alpha" not in str(exc):
                raise
            reject()
        tol = 1e-12 * t ** (alpha - 1.0) / (beta * np.abs(xs))
        assert np.all(vals >= -tol)

    @pytest.mark.parametrize("alpha, theta", [(1.9, 0.095), (1.9, -0.095),
                                              (1.95, 0.04), (1.95, -0.04),
                                              (1.99, 0.0)])
    def test_matches_quadrature_near_alpha_equal_beta_2(self, alpha, theta):
        # the contour integrand decays slowest here: at the Stirling rate
        # pi (2 - |theta| - alpha) / (2 beta) on the side of x = 0 where
        # theta_eff = -|theta|, 0.0041 at alpha 1.9
        spec = ProblemSpec(alpha=alpha, beta=alpha, theta=theta)
        xs = np.array([-6.0, -1.0, -0.05, 0.05, 1.0, 6.0])
        closed = green_point_closed(GreenKind.G, xs, 1.0, spec)
        quad = green_points(GreenKind.G, xs, 1.0, spec)
        assert np.max(np.abs(closed - quad.real)) <= 1e-10

    def test_edge_of_the_density_region_is_named(self):
        # on |theta| = 2 - alpha the Stirling rate of the contour
        # integrand vanishes on one side of x = 0: at alpha = beta = 2 on
        # both, and for (1.8, 1.8, 0.2) on x < 0 only
        wave = ProblemSpec(alpha=2.0, beta=2.0)
        with pytest.raises(HAccuracyError, match=r"rate 0 .*2 - alpha"):
            green_point_closed(GreenKind.G, [0.5, 2.0], 1.0, wave)
        spec = ProblemSpec(alpha=1.8, beta=1.8, theta=0.2)
        with pytest.raises(HAccuracyError, match=r"rate \S+ per unit"):
            green_point_closed(GreenKind.G, [-0.5], 1.0, spec)
        vals = green_point_closed(GreenKind.G, [0.5, 2.0], 1.0, spec)
        assert np.all(np.isfinite(vals) & (vals > 0.0))

    def test_rejects_x_zero_and_complex_lam(self):
        spec = ProblemSpec(alpha=0.5, beta=1.5)
        with pytest.raises(ValueError):
            green_point_closed(GreenKind.G, 0.0, 1.0, spec)
        with pytest.raises(ValueError):
            green_point_closed(GreenKind.G, 1.0, 1.0,
                               ProblemSpec(alpha=0.5, beta=1.5, lam=1j))

    @pytest.mark.parametrize("t", [3.0, 0.2])
    def test_order_near_zero_is_named(self, t):
        # at beta = 1e-10, (lam t^alpha)^(1/beta) is about exp(+-5e9): at
        # t = 3 the H argument underflows, at t = 0.2 it overflows
        spec = ProblemSpec(alpha=0.5, beta=1e-10)
        with pytest.raises(HAccuracyError, match=rf"x = 0.5, t = {t:g}$"):
            green_point_closed(GreenKind.G, [0.5, 1.75, 3.0], t, spec)

    def test_small_order_in_range_still_answers(self):
        # beta = 0.01 keeps every H argument inside the double range
        spec = ProblemSpec(alpha=0.5, beta=0.01)
        vals = green_point_closed(GreenKind.G, [0.5, 3.0], 1.0, spec)
        assert np.all(np.isfinite(vals))

    def test_g2_low_regime_rejected(self):
        spec = ProblemSpec(alpha=0.5, beta=1.5)
        with pytest.raises(RegimeError):
            green_point_closed(GreenKind.G2, 1.0, 1.0, spec)


_KERNEL_ENTRY_POINTS = {
    "green_hat": lambda t, spec: green_hat(GreenKind.G, 1.0, t, spec),
    "green_mass": lambda t, spec: green_mass(GreenKind.G, t, spec),
    "green_points": lambda t, spec: green_points(GreenKind.G, [1.0], t, spec),
    "green_point_closed":
        lambda t, spec: green_point_closed(GreenKind.G, 1.0, t, spec),
}


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_KERNEL_ENTRY_POINTS))
def test_every_kernel_entry_point_checks_the_time(entry, t):
    spec = ProblemSpec(alpha=0.8, beta=1.6, theta=0.1)
    with pytest.raises(ValueError, match="times must start above 0"):
        _KERNEL_ENTRY_POINTS[entry](t, spec)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluate", [green_points, green_point_closed])
def test_non_finite_x_named(evaluate, x):
    spec = ProblemSpec(alpha=0.8, beta=1.6, theta=0.1)
    with pytest.raises(ValueError, match=f"x = {x} is not finite"):
        evaluate(GreenKind.G, [0.5, x], 1.0, spec)


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


class TestExponentialIntegral:
    @staticmethod
    def _reference(s, z):
        # E_s(z) = z^(s-1) Gamma(1-s, z)
        import mpmath as mp
        with mp.workdps(30):
            zz = mp.mpc(z)
            return complex(zz ** (mp.mpf(s) - 1) * mp.gammainc(1 - mp.mpf(s),
                                                              zz))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_integer_order_series(self, n):
        r = np.concatenate([[1e-8, 1e-3], np.linspace(0.05, 3.0, 60)])
        for z in np.concatenate([1j * r, -1j * r]):
            ref = self._reference(n, z)
            assert abs(_expint_series(float(n), z) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("s", [3.0 + 1e-9, 2.0 * 1.15 - 0.3,
                                   3.0 - 4e-4, 1.0 + 1e-6, 2.5, 0.9])
    def test_near_integer_and_fractional_orders(self, s):
        # the G1 tail exponent 2 beta - gamma is 2 - 2e-16 at beta 1.15,
        # gamma 0.3: the Gamma term and one series term have cancelling
        # poles there
        for z in (0.01j, 0.7j, -2.9j):
            ref = self._reference(s, z)
            assert abs(_expint_series(s, z) - ref) <= 1e-12 * abs(ref)

    def test_tail_matches_reference_on_both_routes(self):
        # |K x| below and above 3: the series and the continued fraction
        K = 300.0
        for x in (-0.004, 0.009, 0.02, -0.5):
            ref = K ** -2.0 * self._reference(3.0, 1j * K * x)
            got = _oscillatory_tail(x, K, 3.0)
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_failure_names_the_tail(self, monkeypatch):
        import fracgreen.green as green

        def stalled(s, z):
            raise ToleranceNotMetError("exponential-integral CF did not "
                                       "converge")
        monkeypatch.setattr(green, "_expint_cf", stalled)
        with pytest.raises(ToleranceNotMetError,
                           match=r"x = 0\.5, K = 300\.0, s = 3\.0"):
            _oscillatory_tail(0.5, 300.0, 3.0)
