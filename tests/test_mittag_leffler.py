"""Accuracy, purity and properties of the Mittag-Leffler evaluator.

Every point with |z| >= 1e-8 takes the optimal parabolic contour; below,
the two leading Taylor terms.  The reference is the extended-precision
Taylor series `ml_mpmath` up to |z| = 27 and the asymptotic expansion
`ml_asymptotic_mpmath` beyond: the small-|z| table, the disks |z| <= 1
and 25, the annulus 5 < |z| < 15 and the large-|z| table all test the
contour against them.
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgreen.fracmath import (MLConvergenceError, mittag_leffler,
                                mittag_leffler_array)

from _reference import ml_asymptotic_mpmath, ml_mpmath


def _rel(got, ref):
    return np.abs(np.asarray(got) - ref) / np.abs(ref)


class TestAccuracy:
    def test_mid_annulus_regression(self):
        # small alpha in the mid annulus, where only the contour is accurate
        ref = -0.11026246453712873 + 0.12238788645827656j
        got = mittag_leffler(0.3, 1.3, 4.8179 + 4.5281j)
        assert _rel(got, ref) <= 1e-12

    @pytest.mark.parametrize("alpha",
                             [0.3, 0.5834, 0.8, 0.95, 1.2, 1.45, 1.9])
    def test_mid_annulus_table(self, alpha):
        rng = np.random.default_rng(int(alpha * 1e4))
        # at alpha = 0.3 the value overflows beyond |z| = 600^0.3, and the
        # reference costs seconds a point, so three points cover it
        n, r_hi = (1, 6.0) if alpha == 0.3 else (6, 15.0)
        worst = 0.0
        for beta in (alpha, alpha + 1.0, 1.0):
            z = rng.uniform(5.0, r_hi, n) * np.exp(
                1j * rng.uniform(-math.pi, math.pi, n))
            got = mittag_leffler_array(alpha, beta, z)
            ref = np.array([ml_mpmath(alpha, beta, complex(v)) for v in z])
            worst = max(worst, float(np.max(_rel(got, ref))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("alpha, beta, r, turn",
                             [(1.2, 1.2, 27.1, 0.385),
                              (0.95, 1.0, 25.6, 0.64)])
    def test_asymptotic_region_edge(self, alpha, beta, r, turn):
        # just past |z| = 15 a large-|z| asymptotic expansion is accurate to
        # 1e-12-1e-11 only here; the contour must do better
        z = r * cmath.exp(1j * math.pi * turn)
        got = mittag_leffler(alpha, beta, z)
        assert _rel(got, ml_mpmath(alpha, beta, z)) <= 1e-12

    @pytest.mark.parametrize("alpha",
                             [0.3, 0.5834, 0.8, 0.95, 1.2, 1.45, 1.9])
    def test_large_argument_table(self, alpha):
        # |arg z| >= alpha pi/2, where E stays bounded, and |z| in
        # [15, 1e9].  A point counts where the expansion's own error
        # estimate is below 1e-15 of the scale |E| + 1/|z| (at beta =
        # alpha the leading term vanishes and |E| ~ |z|^-2), and where
        # the rounding of a double argument moves E by less than 1e-14
        # of it: near arg z = alpha pi/2 the term exp(z^(1/alpha)) has
        # modulus 1 and the condition number grows as |z|^(1/alpha).
        # |z E'(z)| comes from E' = (E_{a,b-1} - (b-1) E_{a,b}) / (a z).
        rng = np.random.default_rng(int(alpha * 1e4))
        n = 12
        betas = [alpha, alpha + 1.0] + ([alpha - 1.0] if alpha > 1.0 else [])
        worst, kept = 0.0, 0
        for beta in betas:
            z = np.exp(rng.uniform(math.log(15.0), math.log(1e9), n)
                       + 1j * rng.choice([-1.0, 1.0], n)
                       * rng.uniform(alpha * math.pi / 2.0, math.pi, n))
            got = mittag_leffler_array(alpha, beta, z)
            for v, g in zip(z, got):
                ref, err = ml_asymptotic_mpmath(alpha, beta, complex(v))
                scale = abs(ref) + 1.0 / abs(v)
                low = ml_asymptotic_mpmath(alpha, beta - 1.0, complex(v))[0]
                cond = abs(low - (beta - 1.0) * ref) / alpha / scale
                if err > 1e-15 * scale or cond * 2.0 ** -52 > 1e-14:
                    continue
                kept += 1
                worst = max(worst, abs(g - ref) / scale)
        assert kept >= n * len(betas) // 2
        assert worst <= 1e-13

    @pytest.mark.parametrize("alpha", [0.0, 2.5])
    def test_order_outside_zero_two_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"outside \(0, 2\]"):
            mittag_leffler_array(alpha, 1.0, [0.5, 2.0])


def _rel_max1(got, ref):
    return np.abs(np.asarray(got) - ref) / np.maximum(1.0, np.abs(ref))


class TestSeries:
    """Points in the disks of the mpmath Taylor series, which the contour
    answers: |z| <= 1 and 25, and the small-|z| band where the origin's
    branch point sets the contour's step."""

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.5, 1.9])
    def test_disk_edge(self, alpha):
        # |z| = 1 (alpha <= 1) or 25 (alpha > 1) at phases near pi, where
        # the Taylor terms alternate
        radius = 1.0 if alpha <= 1.0 else 25.0
        z = radius * np.exp(1j * math.pi * np.array([0.9, 0.95, 0.99, 1.0,
                                                     -0.97]))
        for beta in (alpha, alpha + 1.0, 1.0):
            ref = np.array([ml_mpmath(alpha, beta, complex(v)) for v in z])
            assert np.all(_rel(mittag_leffler_array(alpha, beta, z), ref)
                          <= 1e-12)

    def test_tiny_order_goes_to_the_contour(self):
        # 1/Gamma(0.03 n + 1) falls so slowly that a Taylor sum would need
        # thousands of terms at |z| = 0.99
        z = np.array([-0.99 + 0j, 0.999 * cmath.exp(0.9j * math.pi)])
        got = mittag_leffler_array(0.03, 1.0, z)
        ref = np.array([ml_mpmath(0.03, 1.0, complex(v)) for v in z])
        assert np.all(_rel(got, ref) <= 1e-13)

    def test_cancelling_point(self):
        # E_{1.5}(-20): the largest Taylor term is about 1e3, the sum 1e-2
        ref = ml_mpmath(1.5, 1.5, -20.0)
        assert _rel(mittag_leffler(1.5, 1.5, -20.0), ref) <= 1e-12

    @pytest.mark.parametrize("alpha",
                             [0.3, 0.5, 0.8, 0.95, 0.99, 1.2, 1.6, 1.95])
    def test_small_argument_table(self, alpha):
        # b - a near 1 with a < 1 at phases above a pi, where no pole is on
        # the sheet, is where the origin's strength must read s^-b: with
        # Garrappa's 2 (b - a - 1) alone E_{0.99,2.04}(-1e-7) is 8.6e-13
        # off
        worst = 0.0
        for d in (-0.5, 0.0, 0.9, 1.0, 1.05, 1.2, 1.5):
            beta = alpha + d
            if beta <= 0.0:
                continue
            z = np.array([r * cmath.exp(1j * ph)
                          for r in (1e-7, 1e-2, 0.5)
                          for ph in (math.pi,
                                     (1.0 + min(alpha, 1.0)) * math.pi / 2)])
            ref = np.array([ml_mpmath(alpha, beta, complex(v)) for v in z])
            got = mittag_leffler_array(alpha, beta, z)
            worst = max(worst, float(np.max(_rel_max1(got, ref))))
        assert worst <= 1e-14

    @pytest.mark.parametrize("alpha, beta", [(1.7, 2.7), (2.0, 3.0),
                                             (0.8, 1.8)])
    def test_tiny_and_seam_points(self, alpha, beta):
        # the two Taylor terms take |z| < 1e-8, the contour the rest; both
        # sides of the seam, and |z| down to the smallest double
        r = np.array([5e-324, 1e-300, 1e-100, 1e-20, 0.99e-8, 1e-8,
                      1.01e-8, 1e-7])
        z = (r[:, None] * np.exp(1j * math.pi * np.array([0.0, 0.5, 0.9,
                                                          1.0]))).ravel()
        ref = np.array([ml_mpmath(alpha, beta, complex(v)) for v in z])
        assert np.all(_rel_max1(mittag_leffler_array(alpha, beta, z), ref)
                      <= 1e-14)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_disk_sweep(self, seed):
        # alpha 0.05-2, beta 0.05-3, phase 0-pi, |z| log-uniform from 1e-9
        # to the disk radius 1 (alpha <= 1) or 25
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(400):
            alpha, beta = rng.uniform(0.05, 2.0), rng.uniform(0.05, 3.0)
            radius = 1.0 if alpha <= 1.0 else 25.0
            z = cmath.rect(math.exp(rng.uniform(math.log(1e-9),
                                                math.log(radius))),
                           rng.uniform(0.0, math.pi))
            worst = max(worst, float(_rel_max1(
                mittag_leffler(alpha, beta, z), ml_mpmath(alpha, beta, z))))
        assert worst <= 5e-14

    def test_no_runtime_warning(self):
        rng = np.random.default_rng(11)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for alpha in (0.03, 0.3, 0.9, 1.0, 1.5, 2.0):
                radius = 1.0 if alpha <= 1.0 else 25.0
                z = np.concatenate([
                    [0.0, radius, -radius, 1e-300],
                    rng.uniform(0.0, 3.0 * radius, 60)
                    * np.exp(1j * rng.uniform(0.6, 1.0, 60) * math.pi)])
                for beta in (alpha, alpha + 1.0, 1.0):
                    assert np.all(np.isfinite(
                        mittag_leffler_array(alpha, beta, z)))


_PURITY_SCRIPT = """
import numpy as np
from fracgreen.fracmath import mittag_leffler_array as ml
# mid-annulus, tiny and either side of the 1e-8 seam of the two-term sum
z = np.array([6.0, 8.0, 11.0, 1e-300, 0.99e-8, 1.01e-8]) * np.exp(0.9j * np.pi)
rng = np.random.default_rng(3)
others = rng.uniform(0.0, 40.0, 500) * np.exp(1j * rng.uniform(-3, 3, 500))
others[::50] *= 1e-8
batch = np.concatenate([others[:250], z, others[250:]])
same = []
for beta in (0.7, 1.7):
    cold = ml(0.7, beta, z)
    ml(0.7, beta, np.linspace(5.0, 15.0, 40) * np.exp(0.9j * np.pi))
    after_sweep = ml(0.7, beta, z)
    in_batch = ml(0.7, beta, batch)[250:250 + z.size]
    same.append(cold.tobytes() == after_sweep.tobytes() == in_batch.tobytes())
print(all(same))
"""


class TestPurity:
    def test_value_independent_of_history_and_batch(self, run_python):
        # a fresh process, so the first call is cold
        assert run_python(_PURITY_SCRIPT).strip() == "True"


def _finite_on_double(alpha, z):
    """True where E_{alpha,beta}(z) stays far inside the double range: its
    growing term exp(z^(1/alpha)) lives in |arg z| < alpha pi only."""
    ph = abs(np.angle(z))
    cos = math.cos(ph / alpha) if ph < alpha * math.pi else 0.0
    return cos <= 0.0 or math.log(abs(z)) / alpha + math.log(cos) < 6.0


# alpha below 0.02 puts |z|^(1/alpha) on this annulus past the double range
_alpha = st.floats(min_value=0.02, max_value=2.0)
_beta = st.floats(min_value=0.0, max_value=3.0, exclude_min=True)
_radius = st.floats(min_value=5.0, max_value=15.0)
_phase = st.floats(min_value=-math.pi, max_value=math.pi)


class TestProperties:
    @given(_alpha, _beta, _radius, _phase)
    def test_conjugate_symmetry_is_exact(self, alpha, beta, r, ph):
        z = r * complex(math.cos(ph), math.sin(ph))
        if not _finite_on_double(alpha, z):
            return
        v, w = mittag_leffler_array(alpha, beta, [z, z.conjugate()])
        assert w == v.conjugate()

    @given(_alpha, _beta, st.one_of(st.floats(min_value=-15.0,
                                              max_value=15.0),
                                    st.floats(min_value=-1e-6,
                                              max_value=1e-6)))
    def test_real_argument_gives_real_value(self, alpha, beta, x):
        # E has real Taylor coefficients, so a real z has a real value; the
        # contour's rounding must not leave an imaginary part
        zs = [complex(x, 0.0), complex(x, -0.0)]
        if x != 0.0 and not _finite_on_double(alpha, zs[0]):
            return
        for v in mittag_leffler_array(alpha, beta, zs):
            assert v.imag == 0.0

    @given(_alpha, _beta, _radius, _phase)
    def test_recurrence(self, alpha, beta, r, ph):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b)
        z = r * complex(math.cos(ph), math.sin(ph))
        if not _finite_on_double(alpha, z):
            return
        lhs = mittag_leffler(alpha, beta, z)
        rhs = z * mittag_leffler(alpha, alpha + beta, z) \
            + math.exp(-math.lgamma(beta))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    @given(_alpha, _beta, st.lists(st.tuples(_radius, _phase), min_size=2,
                                   max_size=12),
           st.lists(st.integers(min_value=0), max_size=12))
    def test_one_point_equals_batch(self, alpha, beta, points, repeats):
        zs = [r * complex(math.cos(ph), math.sin(ph)) for r, ph in points]
        # a batch evaluates each distinct argument once: give it conjugate
        # pairs, both signed zeros on either axis, the origin and exact
        # repeats, each of which must still give its one-point bytes
        zs += [w for z in zs for w in (
            z.conjugate(), complex(z.real, 0.0), complex(z.real, -0.0),
            complex(0.0, z.imag), complex(-0.0, z.imag))]
        zs = [z for z in zs if z != 0 and _finite_on_double(alpha, z)]
        zs += [0j, complex(-0.0, -0.0)]
        zs += [zs[i % len(zs)] for i in repeats]
        batch = mittag_leffler_array(alpha, beta, zs)
        for z, v in zip(zs, batch):
            one = np.complex128(mittag_leffler(alpha, beta, z))
            assert one.tobytes() == v.tobytes()

    @given(_alpha, st.permutations([
        6.0 * cmath.exp(0.9j * math.pi), 0.5 + 0.25j, 0.5 + 0.25j,
        0.5 - 0.25j, complex(math.nan, 1.0), complex(math.nan, -1.0),
        complex(math.nan, 1.0), complex(1.0, math.nan),
        complex(math.inf, 0.0), complex(math.inf, -0.0),
        complex(-math.inf, 2.0)]))
    def test_non_finite_value_names_the_first_such_z(self, alpha, zs):
        # duplicates and conjugates of a bad z stay in the batch; the error
        # names the first z, in the caller's order, whose value alone is
        # not finite
        def fails(z):
            try:
                mittag_leffler(alpha, 1.3, z)
            except MLConvergenceError:
                return True
            return False

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            first = next(z for z in zs if fails(z))
            with pytest.raises(MLConvergenceError) as err:
                mittag_leffler_array(alpha, 1.3, zs)
        assert str(err.value).endswith(f"z={first}")

    @pytest.mark.parametrize("alpha, beta, z", [
        (0.5, 0.7, complex(0.0, math.inf)),
        (0.5, 0.7, complex(0.0, -math.inf)),
        (1.5, 1.2, complex(-math.inf, 0.0)),
        (1.5, 1.2, complex(-math.inf, 3.0)),
        (0.9, 1.9, complex(-3.0, math.inf)),
    ])
    def test_infinite_argument_in_the_decay_sector(self, alpha, beta, z):
        # |arg z| > alpha pi/2: E decays to 0, with no numpy RuntimeWarning
        # from the inf - inf of the contour set-up on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = mittag_leffler_array(alpha, beta, [z, z.conjugate(), -1.0])
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[2] == mittag_leffler(alpha, beta, -1.0)

    @pytest.mark.parametrize("alpha, beta, z", [
        (0.5, 0.7, complex(math.inf, 0.0)),
        (1.5, 1.2, complex(0.0, math.inf)),
        (1.0, 1.0, complex(0.0, math.inf)),
        (2.0, 2.0, complex(-math.inf, 0.0)),
    ])
    def test_infinite_argument_without_a_limit_named(self, alpha, beta, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MLConvergenceError) as err:
                mittag_leffler_array(alpha, beta, [-1.0, z])
        assert str(err.value).endswith(f"z={z}")
