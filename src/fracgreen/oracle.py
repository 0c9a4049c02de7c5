"""Independent reference solver via Grunwald-Letnikov time stepping.

Each Fourier mode obeys a scalar fractional ODE; it is integrated with
the implicit GL scheme and first-order memory weights.  Nothing here
touches the Mittag-Leffler or Fox-function machinery, so agreement with
the closed-form path is a genuine cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .green import ProblemSpec
from .operators import gl_weights
from .solver import (Field, SourceDescriptor, SpaceTimeGrid, _padded_fft,
                     _padded_wavenumbers)


class OracleInstabilityError(Exception):
    pass


# Modes evolve in blocks of this many, so a block's history (n_steps rows)
# stays small; wider blocks run faster but keep more history alive.
_BLOCK_MODES = 64


@dataclass(frozen=True)
class OracleConfig:
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError("need at least one step")


def _evolve(alpha, c, v, cfg, rows):
    """GL evolution of the 1-D modes c, v; returns the steps listed in rows.

    The modes run in blocks of _BLOCK_MODES.  A block keeps its history
    newest step first, filled from its last row up, so step i's memory
    sum w[1] u_(i-1) + ... + w[i] u_0 is one product that reads both the
    weights and the history forward and copies neither.  Divergence is
    checked once per block over all of its steps, against the bound that
    every mode shares; the earliest failing step over all blocks is the
    one reported.
    """
    dt, n = cfg.dt, cfg.n_steps
    w = gl_weights(alpha, n)
    denom = 1.0 + c * dt ** alpha
    if np.any(np.abs(denom) < 1e-12):
        raise OracleInstabilityError(
            "implicit GL step is singular; reduce dt")
    bound = 1e12 * (1.0 + np.max(np.abs(v)))
    scale = dt ** (alpha - 1.0) * v
    out = np.empty((len(rows), c.size), dtype=complex)
    first_bad = n
    for lo in range(0, c.size, _BLOCK_MODES):
        block = slice(lo, lo + _BLOCK_MODES)
        d = denom[block]
        hist = np.empty((n, d.size), dtype=complex)  # row n - 1 - i: step i
        # a diverging block runs on to inf and nan, and is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            hist[-1] = scale[block] / d
            for i in range(1, n):
                hist[n - 1 - i] = -(w[1:i + 1] @ hist[n - i:]) / d
            bad = np.flatnonzero(~(np.max(np.abs(hist), axis=1) <= bound))
        if bad.size:
            first_bad = min(first_bad, n - 1 - bad[-1])
        out[:, block] = hist[n - 1 - rows]
    if first_bad < n:
        raise OracleInstabilityError(
            f"GL iteration diverged at step {first_bad + 1}")
    return out


def oracle_mode_evolve(alpha: float, coeffs, init, cfg: OracleConfig):
    """GL evolution of the modes u of d^alpha u/dt^alpha = -c u + init delta.

    coeffs and init are arrays over modes; returns (n_steps, n_modes)
    with row n approximating u((n + 1) dt).  The impulse initial datum
    enters as dt^(alpha - 1) * init at the first step, matching the
    generating-function solution
    u_hat(zeta) = dt^(alpha-1) init / ((1 - zeta)^alpha + c dt^alpha).
    """
    c = np.asarray(coeffs, dtype=complex)
    v = np.asarray(init, dtype=complex)
    if c.shape != v.shape:
        raise ValueError("coeffs and init must have matching shapes")
    out = _evolve(alpha, c.ravel(), v.ravel(), cfg, np.arange(cfg.n_steps))
    return out.reshape((cfg.n_steps,) + c.shape)


def oracle_solve(spec: ProblemSpec, f: SourceDescriptor,
                 grid: SpaceTimeGrid, cfg: OracleConfig) -> Field:
    """Reference field for the pure initial-value problem (g = 0, U = 0).

    Works mode by mode: FFT the initial datum, run the GL recursion for
    every wavenumber at once, inverse-FFT at the requested output times.
    Output times must sit on the dt lattice, and only their steps are
    kept.  The modes are the same 4x-extended set as solve's, so
    differences against it measure the time discretization alone.
    """
    rows = []
    for t in grid.times:
        n = int(round(t / cfg.dt)) - 1
        if not (0 <= n < cfg.n_steps
                and abs((n + 1) * cfg.dt - t) < 1e-9 * max(t, cfg.dt)):
            raise ValueError(f"output time {t} is off the dt lattice")
        rows.append(n)
    M, k = _padded_wavenumbers(grid)
    rate = spec.rate(k, spec.source_coupling == "self")
    modes = _evolve(spec.alpha, rate, _padded_fft(f, grid, M), cfg,
                   np.array(rows))
    values = np.fft.ifft(modes, axis=1)[:, :grid.nx].copy()
    return Field(grid=grid, values=values)
