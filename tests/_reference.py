"""Reference implementations that the tests compare the package against.

They use scipy and mpmath, which are test dependencies only: the
extended-precision Mittag-Leffler Taylor series, and the Riesz-Feller
derivative from its real-space integral representation.
"""

import math

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

from fracgreen.fracmath import MLConvergenceError
from fracgreen.operators import SymbolParams


def ml_mpmath(alpha: float, beta: float, z: complex) -> complex:
    """Extended-precision Taylor series of E_{alpha,beta}(z), the reference
    for the evaluator (small and moderate |z| only)."""
    need = 30 + int(1.2 * abs(z) ** (1.0 / alpha) / math.log(10.0))
    if need > 3000:
        raise MLConvergenceError(
            f"no admissible evaluation region for alpha={alpha}, beta={beta}, z={z}"
        )
    with mp.workdps(need):
        zz = mp.mpc(z)
        aa = mp.mpf(alpha)
        bb = mp.mpf(beta)
        acc = mp.mpc(0)
        term_floor = mp.mpf(10) ** (-need + 5)
        power = mp.mpc(1)
        for n in range(0, 20000):
            term = power / mp.gamma(aa * n + bb)
            acc += term
            power *= zz
            if n > 4 and abs(term) < term_floor * (1 + abs(acc)):
                break
        return complex(acc)


def log_panels(h: float, span: float, per_efold: int = 4, nodes: int = 8):
    """Gauss nodes/weights on log-spaced panels covering [h, span]."""
    n_pan = max(1, int(math.ceil(per_efold * math.log(span / h))))
    edges = np.exp(np.linspace(math.log(h), math.log(span), n_pan + 1))
    gx, gw = leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


def riesz_feller_apply(samples, dx: float, p: SymbolParams):
    """Riesz-Feller derivative of grid samples via the one-sided integrals.

    Evaluates Gamma(1+a)/pi * [c+ I+ + c- I-] with c(+/-) = sin((a+/-skew)pi/2)
    and I(+/-) the integrals of (f(x +/- z) - f(x)) / z^(1+a).  The samples
    are spline-interpolated and extended by zero outside the window, so f
    should decay to ~0 at the ends.  For 1 < order < 2 the first-order
    Taylor term is subtracted under the integral (analytic continuation);
    its finite part over (0, inf) vanishes, which the split below respects.
    """
    a = p.order
    if a >= 2.0:
        raise ValueError("integral representation is invalid at order = 2; "
                         "use the symbol path")
    f = np.asarray(samples, dtype=float)
    n = f.size
    if n < 8:
        raise ValueError("need at least 8 samples")
    x = dx * np.arange(n)
    spline = CubicSpline(x, f, extrapolate=False)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    cp = math.sin((a + p.skew) * math.pi / 2.0)
    cm = math.sin((a - p.skew) * math.pi / 2.0)
    span = x[-1] - x[0]
    h = 1e-3 * dx
    pts, wts = log_panels(h, span)

    fx = f
    f1 = d1(x)
    subtract = a > 1.0

    # f(x +/- z) on the grid for every quadrature node, zero outside
    xp = x[:, None] + pts[None, :]
    xm = x[:, None] - pts[None, :]
    fp = np.nan_to_num(spline(xp), nan=0.0)
    fm = np.nan_to_num(spline(xm), nan=0.0)
    dp = fp - fx[:, None]
    dm = fm - fx[:, None]
    if subtract:
        dp = dp - pts[None, :] * f1[:, None]
        dm = dm + pts[None, :] * f1[:, None]
    integrand = cp * dp + cm * dm
    body = integrand @ (wts * pts ** (-1.0 - a))

    # analytic head on (0, h): Taylor in z
    f2 = d2(x)
    if subtract:
        head = (cp + cm) * f2 * h ** (2.0 - a) / (2.0 * (2.0 - a))
    else:
        head = (cp - cm) * f1 * h ** (1.0 - a) / (1.0 - a) \
            + (cp + cm) * f2 * h ** (2.0 - a) / (2.0 * (2.0 - a))

    # analytic tail beyond the window, where f(x +/- z) = 0
    tail = -(cp + cm) * fx * span ** (-a) / a
    if subtract:
        tail = tail - (cp - cm) * f1 * span ** (1.0 - a) / (a - 1.0)

    return math.gamma(1.0 + a) / math.pi * (body + head + tail)
