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
from .solver import (Field, SourceDescriptor, SpaceTimeGrid,
                     _padded_wavenumbers)


class OracleInstabilityError(Exception):
    pass


@dataclass(frozen=True)
class OracleConfig:
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")


def oracle_mode_evolve(alpha: float, coeffs, init, cfg: OracleConfig):
    """GL evolution of u' s fractional modes du^alpha/dt = -c u + init delta.

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
    dt, n = cfg.dt, cfg.n_steps
    w = gl_weights(alpha, n)
    denom = 1.0 + c * dt ** alpha
    if np.any(np.abs(denom) < 1e-12):
        raise OracleInstabilityError(
            "implicit GL step is singular; reduce dt")
    out = np.empty((n,) + c.shape, dtype=complex)
    scale = dt ** (alpha - 1.0) * v
    for i in range(n):
        mem = np.zeros_like(c)
        if i > 0:
            mem = np.tensordot(w[1:i + 1], out[i - 1::-1], axes=(0, 0))
        rhs = (scale if i == 0 else 0.0) - mem
        out[i] = rhs / denom
        peak = np.max(np.abs(out[i]))
        if not np.isfinite(peak) or peak > 1e12 * (1.0 + np.max(np.abs(v))):
            raise OracleInstabilityError(
                f"GL iteration diverged at step {i + 1}")
    return out


def oracle_solve(spec: ProblemSpec, f: SourceDescriptor,
                 grid: SpaceTimeGrid, cfg: OracleConfig) -> Field:
    """Reference field for the pure initial-value problem (g = 0, U = 0).

    Works mode by mode: FFT the initial datum, run the GL recursion for
    every wavenumber at once, inverse-FFT at the requested output times.
    Output times must sit on the dt lattice.  The modes are the same
    4x-extended set as solve's, so differences against it measure the
    time discretization alone.
    """
    nx = grid.nx
    M, k = _padded_wavenumbers(grid)
    col = np.zeros(M, dtype=complex)
    col[:nx] = f.render(grid.x, grid.dx)
    fhat = np.fft.fft(col)
    rate = spec.rate(k, spec.source_coupling == "self")
    modes = oracle_mode_evolve(spec.alpha, rate, fhat, cfg)
    out = np.empty((len(grid.times), nx), dtype=complex)
    for it, t in enumerate(grid.times):
        n = int(round(t / cfg.dt)) - 1
        if not (0 <= n < cfg.n_steps
                and abs((n + 1) * cfg.dt - t) < 1e-9 * max(t, cfg.dt)):
            raise ValueError(f"output time {t} is off the dt lattice")
        out[it] = np.fft.ifft(modes[n])[:nx]
    return Field(grid=grid, values=out)
