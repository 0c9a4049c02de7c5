"""Fractional operators on the line.

The Riesz-Feller derivative acts through its Fourier multiplier -Psi, the
form every kernel downstream consumes; its real-space integral
representation serves only as a reference in the tests.
Grunwald-Letnikov binomial weights for the time derivative live here too.
"""

from dataclasses import dataclass

import numpy as np


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


def riesz_feller_symbol(p: SymbolParams, k):
    """Fourier symbol Psi(k) = |k|^order * exp(i sign(k) skew pi/2).

    The operator itself acts as multiplication by -Psi; the value at
    k = 0 is 0 by continuity.  Accepts scalars or arrays.  Every k, real
    or complex, takes the continuation from the half line s = sign(Re k),
    (s k)^order exp(i s skew pi/2), which refuses Re k = 0 != k; a k that
    is not finite is refused as well.
    """
    k = np.asarray(k, dtype=complex) + 0j  # + 0j: k = -0.0 becomes 0
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    if not np.isfinite(k).all():
        raise ValueError(f"k = {k[~np.isfinite(k)][0]} is not finite")
    s = np.sign(k.real)
    cut = (s == 0.0) & (k != 0.0)
    if cut.any():
        raise ValueError(f"k = {k[cut][0]} lies between the "
                         f"continuations from k > 0 and k < 0")
    z = s * k
    out = np.abs(z) ** p.order * np.exp(
        1j * (p.order * np.angle(z) + s * p.skew * np.pi / 2.0))
    return complex(out[0]) if scalar else out


def gl_weights(order: float, n: int) -> np.ndarray:
    """Binomial weights (-1)^j C(order, j), j = 0..n, by the usual recursion
    w_j = w_(j-1) (1 - (order + 1) / j), one running product."""
    if order <= 0:
        raise ValueError("order must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    steps = 1.0 - (order + 1.0) / np.arange(1.0, n + 1.0)
    return np.cumprod(np.concatenate(([1.0], steps)))

