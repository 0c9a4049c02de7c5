"""Accuracy, purity and properties of the Mittag-Leffler evaluator.

The reference is the extended-precision Taylor series `ml_mpmath`.  The
annulus 5 < |z| < 15 is where neither the Taylor series nor the
asymptotic expansion is accurate enough and the contour evaluation does
the work.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgreen.fracmath import mittag_leffler, mittag_leffler_array

from _reference import ml_mpmath


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
        # just past |z| = 15 the asymptotic expansion's error estimate
        # lies between 1e-12 and 1e-11 here; such points go to the contour
        z = r * cmath.exp(1j * math.pi * turn)
        got = mittag_leffler(alpha, beta, z)
        assert _rel(got, ml_mpmath(alpha, beta, z)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 2.5])
    def test_order_outside_zero_two_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"outside \(0, 2\]"):
            mittag_leffler_array(alpha, 1.0, [0.5, 2.0])


_PURITY_SCRIPT = """
import numpy as np
from fracgreen.fracmath import mittag_leffler_array as ml
z = np.array([6.0, 8.0, 11.0]) * np.exp(0.9j * np.pi)
cold = ml(0.7, 0.7, z)
ml(0.7, 0.7, np.linspace(5.0, 15.0, 40) * np.exp(0.9j * np.pi))
after_sweep = ml(0.7, 0.7, z)
rng = np.random.default_rng(3)
others = rng.uniform(0.0, 40.0, 500) * np.exp(1j * rng.uniform(-3, 3, 500))
batch = np.concatenate([others[:250], z, others[250:]])
in_batch = ml(0.7, 0.7, batch)[250:253]
print(cold.tobytes() == after_sweep.tobytes() == in_batch.tobytes())
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
                                   max_size=12))
    def test_one_point_equals_batch(self, alpha, beta, points):
        zs = [r * complex(math.cos(ph), math.sin(ph)) for r, ph in points]
        zs = [z for z in zs if _finite_on_double(alpha, z)]
        batch = mittag_leffler_array(alpha, beta, zs)
        for z, v in zip(zs, batch):
            assert mittag_leffler(alpha, beta, z) == v
