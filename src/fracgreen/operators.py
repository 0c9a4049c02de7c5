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
    k = 0 is 0 by continuity.  Accepts scalars or arrays.
    """
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    k = np.atleast_1d(k)
    mag = np.abs(k) ** p.order
    phase = np.exp(1j * np.sign(k) * p.skew * np.pi / 2.0)
    out = np.where(k == 0.0, 0.0 + 0.0j, mag * phase)
    return complex(out[0]) if scalar else out


def gl_weights(order: float, n: int) -> np.ndarray:
    """Binomial weights (-1)^j C(order, j), j = 0..n, by the usual recursion."""
    if order <= 0:
        raise ValueError("order must be positive")
    if n < 0:
        raise ValueError("n must be non-negative")
    w = np.empty(n + 1)
    w[0] = 1.0
    for j in range(1, n + 1):
        w[j] = w[j - 1] * (1.0 - (order + 1.0) / j)
    return w

