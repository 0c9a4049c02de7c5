"""Fractional operators on the line.

The Riesz-Feller derivative is handled two ways: through its Fourier
multiplier -Psi (the form every kernel downstream consumes) and through
the real-space integral representation, which exists for validation.
Grunwald-Letnikov binomial weights for the time derivative live here too.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


def order_skew_problems(order: float, skew: float, order_name: str = "order",
                        skew_name: str = "skew") -> list:
    """Violations of 0 < order <= 2, |skew| <= min(order, 2 - order).

    The admissible order/skewness pairs of a Riesz-Feller operator (the
    Feller-Takayasu diamond); the names label the two values in the
    messages.  Empty when the pair is admissible.
    """
    if not 0.0 < order <= 2.0:
        return [f"{order_name} = {order} outside (0, 2]"]
    bound = min(order, 2.0 - order)
    if not abs(skew) <= bound + 1e-15:
        return [f"|{skew_name}| = {abs(skew)} exceeds "
                f"min({order_name}, 2-{order_name}) = {bound}"]
    return []


@dataclass(frozen=True)
class SymbolParams:
    """Order/skewness pair of the space-fractional operator."""

    order: float
    skew: float = 0.0

    def __post_init__(self):
        problems = order_skew_problems(self.order, self.skew)
        if problems:
            raise ValueError(problems[0])


@dataclass(frozen=True)
class GLWeights:
    order: float
    weights: np.ndarray


def riesz_feller_symbol(p: SymbolParams, k):
    """Fourier symbol Psi(k) = |k|^order * exp(i sign(k) skew pi/2).

    The operator itself acts as multiplication by -Psi; the value at
    k = 0 is 0 by continuity.  Accepts scalars or arrays.
    """
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    mag = np.abs(k) ** p.order
    phase = np.exp(1j * np.sign(k) * p.skew * np.pi / 2.0)
    out = np.where(k == 0.0, 0.0 + 0.0j, mag * phase)
    return complex(out[0]) if scalar else out


def gl_weights(order: float, n: int) -> GLWeights:
    """Binomial weights (-1)^j C(order, j), j = 0..n, by the usual recursion."""
    if order <= 0:
        raise ValueError("order must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    w = np.empty(n + 1)
    w[0] = 1.0
    for j in range(1, n + 1):
        w[j] = w[j - 1] * (1.0 - (order + 1.0) / j)
    return GLWeights(order=order, weights=w)


def _log_panels(h: float, span: float, per_efold: int = 4, nodes: int = 8):
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
    from scipy.interpolate import CubicSpline

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
    pts, wts = _log_panels(h, span)

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
