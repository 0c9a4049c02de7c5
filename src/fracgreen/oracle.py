"""Independent reference solver via Grunwald-Letnikov time stepping.

Each Fourier mode obeys a scalar fractional ODE; it is integrated with
the implicit GL scheme and first-order memory weights.  Nothing here
touches the Mittag-Leffler or Fox-function machinery, so agreement with
the closed-form path is a genuine cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .green import ProblemSpec, _ml_arg, _time_power
from .operators import gl_weights
from .solver import (Field, SourceDescriptor, SpaceTimeGrid, _padded_fft,
                     _padded_wavenumbers)


class OracleInstabilityError(ArithmeticError):
    pass


# Modes evolve in blocks of this many, so a block's history (n_steps rows)
# stays small; wider blocks run faster but keep more history alive.
_BLOCK_MODES = 64

# The most steps one run may take: 16x the 1024 of a dt = 1/1024 run to
# t = 1, with a 16 MiB history per block.  The work grows as n_steps^2,
# so a tiny dt is refused rather than left to run for hours.
_MAX_STEPS = 2 ** 14


@dataclass(frozen=True)
class OracleConfig:
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        # a Python float: its powers raise OverflowError, numpy's give inf
        object.__setattr__(self, "dt", float(self.dt))
        if not self.n_steps >= 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")
        if self.n_steps > _MAX_STEPS:
            try:
                steps = f"{self.n_steps:.6g}"
            except OverflowError:  # an integer past the float range: round
                # its digits to 6 figures, half to even as :.6g would
                d = str(round(self.n_steps, 6 - len(str(self.n_steps))))
                steps = f"{d[0]}.{d[1:6]}".rstrip("0.") + f"e+{len(d) - 1}"
            raise ValueError(f"dt = {self.dt:g} needs {steps} steps, over "
                             f"the oracle's bound of {_MAX_STEPS}; raise dt")
        if not isinstance(self.n_steps, (int, np.integer)):
            raise ValueError(f"n_steps must be an integer, got {self.n_steps!r}")


def _evolve(alpha, arg, v, cfg, rows):
    """GL evolution of the 1-D modes v with Mittag-Leffler argument arg =
    -c dt^alpha at t = dt; returns the steps listed in rows.

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
    denom = 1.0 - arg
    scale = _time_power(dt, alpha - 1.0, alpha) * v
    if np.any(np.abs(denom) < 1e-12):
        raise OracleInstabilityError(
            "implicit GL step is singular; reduce dt")
    bound = 1e12 * (1.0 + np.max(np.abs(v)))
    out = np.empty((len(rows), arg.size), dtype=complex)
    first_bad = n
    for lo in range(0, arg.size, _BLOCK_MODES):
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
    arg = -c.ravel() * _time_power(cfg.dt, alpha, alpha)
    out = _evolve(alpha, arg, v.ravel(), cfg, np.arange(cfg.n_steps))
    return out.reshape((cfg.n_steps,) + c.shape)


def _step(t, dt):
    """t / dt rounded half up from the exact ratios of the two floats, so
    it holds past the float range: an output time's step, a run's count."""
    (p, q), (r, s) = float(t).as_integer_ratio(), float(dt).as_integer_ratio()
    return (2 * p * s + q * r) // (2 * q * r)


def oracle_solve(spec: ProblemSpec, f: SourceDescriptor,
                 grid: SpaceTimeGrid, cfg: OracleConfig) -> Field:
    """Reference field for the pure initial-value problem (g = 0, U = 0).

    Works mode by mode: FFT the initial datum, run the GL recursion for
    every wavenumber at once, inverse-FFT at the requested output times.
    Output times must sit on the dt lattice within the run, and only their
    steps are kept.  The modes are the same 4x-extended set as solve's, so
    differences against it measure the time discretization alone.
    """
    rows = []
    for t in grid.times:
        n = _step(t, cfg.dt)
        if n > cfg.n_steps:
            raise ValueError(
                f"output time {t} lies past the run: {cfg.n_steps} steps of "
                f"dt = {cfg.dt:g} end at t = {cfg.n_steps * cfg.dt:g}")
        if not (n >= 1 and abs(n * cfg.dt - t) < 1e-9 * max(t, cfg.dt)):
            raise ValueError(f"output time {t} is off the dt lattice")
        rows.append(n - 1)
    M, k = _padded_wavenumbers(grid)
    v = _padded_fft(f, grid, M)
    arg = _ml_arg(k, (cfg.dt,), spec, spec.source_coupling == "self")[0]
    modes = _evolve(spec.alpha, arg, v, cfg, np.array(rows))
    values = np.fft.ifft(modes, axis=1)[:, :grid.nx].copy()
    return Field(grid=grid, values=values)
