"""Assemble full solutions N(x, t) from Green kernels and data.

The solution is built spectrally: transform the initial data on a padded
grid, multiply by the Fourier-side kernel per output time, transform
back.  The source is a fixed profile switched on at t = 0, so its time
integral against the singular kernel is exact per mode:
Int_0^t s^(a-1) E_{a,a}(-c s^a) ds = t^a E_{a,a+1}(-c t^a).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .green import (GreenKind, ProblemSpec, SpecValidationError,
                    _growing_phase, green_hat)
from .fracmath import mittag_leffler_array
from .operators import riesz_feller_symbol


@dataclass(frozen=True)
class SourceDescriptor:
    """Initial datum or source profile: a named preset or raw samples."""

    kind: str = "zero"
    center: float = 0.0
    width: float = 1.0
    lo: float = 0.0
    hi: float = 0.0
    values: np.ndarray = None

    _KINDS = ("dirac_delta", "gaussian", "box", "samples", "zero")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == "samples" and self.values is None:
            raise ValueError("samples descriptor needs values")
        if self.kind == "gaussian" and not self.width > 0.0:
            raise ValueError(
                f"gaussian width must be positive, got {self.width}")
        if self.kind == "box" and not self.lo < self.hi:
            raise ValueError(f"box needs lo < hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def zero(cls):
        return cls(kind="zero")

    @classmethod
    def delta(cls, center=0.0):
        return cls(kind="dirac_delta", center=center)

    @classmethod
    def gaussian(cls, center=0.0, width=1.0):
        return cls(kind="gaussian", center=center, width=width)

    @classmethod
    def box(cls, lo, hi):
        return cls(kind="box", lo=lo, hi=hi)

    @classmethod
    def from_samples(cls, values):
        return cls(kind="samples", values=np.asarray(values, dtype=complex))

    def render(self, x: np.ndarray, dx: float) -> np.ndarray:
        """Samples of the descriptor on the grid x (delta: unit impulse 1/dx)."""
        if self.kind == "zero":
            return np.zeros(x.size, dtype=complex)
        if self.kind == "dirac_delta":
            out = np.zeros(x.size, dtype=complex)
            j = int(np.argmin(np.abs(x - self.center)))
            out[j] = 1.0 / dx
            return out
        if self.kind == "gaussian":
            u = (x - self.center) / self.width
            return np.exp(-0.5 * u * u).astype(complex) \
                / (self.width * math.sqrt(2.0 * math.pi))
        if self.kind == "box":
            return ((x >= self.lo) & (x <= self.hi)).astype(complex)
        vals = np.asarray(self.values, dtype=complex)
        if vals.size != x.size:
            raise ValueError(
                f"sample count {vals.size} does not match grid size {x.size}"
            )
        return vals


@dataclass(frozen=True)
class SpaceTimeGrid:
    x_min: float
    x_max: float
    nx: int
    times: tuple

    def __post_init__(self):
        if self.nx < 8:
            raise ValueError("nx must be at least 8")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max = {self.x_max} must exceed "
                             f"x_min = {self.x_min}")
        ts = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        if not ts or ts[0] <= 0.0:
            raise ValueError("times must start above 0 (kernels are singular "
                             "at t = 0)")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be strictly increasing")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)


@dataclass
class Field:
    grid: SpaceTimeGrid
    values: np.ndarray  # (n_times, nx) complex

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (len(self.grid.times), self.grid.nx):
            raise ValueError("field shape does not match grid")


def convolve_time_singular(kernel_values, alpha: float, t_index: int,
                           dt: float) -> np.ndarray:
    """Int_0^t (t - tau)^(alpha - 1) S(tau) dtau by product integration.

    kernel_values[j] holds the smooth factor S at tau = j dt (scalar or
    vector); it is interpolated linearly on each step while the singular
    power is integrated exactly, so constants are reproduced exactly and
    smooth integrands converge at O(dt^2).  solve does not call it; it
    serves as an independent check on the closed-form source term there.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (0, 2]")
    S = np.asarray(kernel_values, dtype=complex)
    n = t_index
    if n == 0:
        return np.zeros_like(S[0])
    if S.shape[0] < n + 1:
        raise ValueError("need smooth-factor samples at tau = 0..t")
    t = n * dt
    j = np.arange(n)
    uj = t - j * dt          # upper u on each sub-interval
    uj1 = t - (j + 1) * dt   # lower u
    m0 = (uj ** alpha - uj1 ** alpha) / alpha
    m1 = (uj ** (alpha + 1.0) - uj1 ** (alpha + 1.0)) / (alpha + 1.0)
    w_lo = m0 - (uj * m0 - m1) / dt      # weight of S_j   (tau side)
    w_hi = (uj * m0 - m1) / dt           # weight of S_{j+1}
    shape = (n,) + (1,) * (S.ndim - 1)
    acc = (S[:n] * w_lo.reshape(shape)).sum(axis=0) \
        + (S[1:n + 1] * w_hi.reshape(shape)).sum(axis=0)
    return acc


def _padded_wavenumbers(grid: SpaceTimeGrid):
    """Padded mode count and wavenumbers matching the transform convention.

    With f_hat(k) = Int exp(+ikx) f dx, the FFT bin m carries
    k_m = -2 pi fftfreq(M, dx)[m].
    """
    M = 1
    while M < 4 * grid.nx:
        M *= 2
    k = -2.0 * math.pi * np.fft.fftfreq(M, d=grid.dx)
    return M, k


def _window_mass_warning(ghat, M, nx):
    """Warn when the padded convolution cannot be trusted.

    First the resolution: when |G_hat| at the largest padded wavenumber is
    not small against |G_hat(0)|, the grid under-resolves the kernel and
    its transform rings round the whole ring, so far "mass" is an artefact
    and the remedy is a finer grid.  Otherwise kernel mass beyond half the
    (M - nx)/2 grid offsets of slack on either side is about to wrap onto
    the window and corrupt the convolution.
    """
    ratio = abs(ghat[M // 2]) / max(abs(ghat[0]), 1e-300)
    if ratio > 1e-2:
        warnings.warn(
            f"kernel under-resolved: |G_hat| at the largest wavenumber is "
            f"{ratio:.1e} of |G_hat(0)|; increase nx", stacklevel=3
        )
        return
    h = np.abs(np.fft.ifft(ghat))
    offs = np.minimum(np.arange(M), M - np.arange(M))
    far = h[offs > (M - nx) // 2].sum() / max(h.sum(), 1e-300)
    if far > 1e-3:
        warnings.warn(
            f"kernel mass outside the spatial window is {far:.1e}, above "
            f"1e-3; widen the grid", stacklevel=3
        )


def solve(spec: ProblemSpec, f: SourceDescriptor, g: SourceDescriptor,
          U: SourceDescriptor, grid: SpaceTimeGrid) -> Field:
    """Solution field from initial data f (and g for alpha > 1) plus source U.

    U is read as a fixed spatial profile switched on at t = 0; mode k
    receives s mu t^a E_{a,a+1}(-lam Psi_beta(k) t^a) m_S(k) U_hat(k), the
    exact time integral of the source kernel.  The riesz_feller source
    mode has s = -1 and m_S the gamma-operator symbol; the identity mode
    has s = 1 and m_S = 1.  f = SourceDescriptor.delta() makes the output
    the Green function itself.
    """
    a = spec.alpha
    if g.kind != "zero" and a <= 1.0:
        raise SpecValidationError(
            ["second initial datum g requires 1 < alpha <= 2"])
    self_coupled = spec.source_coupling == "self"
    if self_coupled and U.kind != "zero":
        raise SpecValidationError(
            ["self-coupled (two-operator) problems admit no external source"])
    if U.kind == "dirac_delta":
        raise SpecValidationError(["delta source U is not supported"])

    M, k = _padded_wavenumbers(grid)
    nx, dx = grid.nx, grid.dx
    x = grid.x

    def padded_fft(desc):
        col = np.zeros(M, dtype=complex)
        col[:nx] = desc.render(x, dx)
        return np.fft.fft(col)

    fhat = padded_fft(f)
    ghat_data = padded_fft(g) if g.kind != "zero" else None
    uhat = padded_fft(U) if U.kind != "zero" else None

    kind_f = GreenKind.G3 if self_coupled else GreenKind.G
    kind_g = GreenKind.G4 if self_coupled else GreenKind.G2

    out = np.empty((len(grid.times), nx), dtype=complex)

    if uhat is not None:
        if spec.source_mode == "riesz_feller":
            src_hat = -spec.mu * riesz_feller_symbol(spec.source_symbol(), k) \
                * uhat
        else:
            src_hat = spec.mu * uhat
        rate = spec.rate(k)

    grows = _growing_phase(spec, self_coupled)
    if grows is not None:
        # refining the grid only admits larger |G_hat|
        warnings.warn(
            f"G_hat grows with |k|: Mittag-Leffler argument phase "
            f"{grows / math.pi:.4g} pi inside alpha pi/2 = "
            f"{spec.alpha / 2.0:.4g} pi; the kernel has no real-space "
            f"form and the field does not converge in nx", stacklevel=2)

    for it, t in enumerate(grid.times):
        gh = green_hat(kind_f, k, t, spec)
        # the localization heuristic only makes sense for dissipative
        # kernels; dispersive (imaginary-coefficient) ones never localize
        if (it == len(grid.times) - 1 and spec.lam.real > 0.0
                and grows is None):
            _window_mass_warning(gh, M, nx)
        nhat = fhat * gh
        if ghat_data is not None:
            nhat = nhat + ghat_data * green_hat(kind_g, k, t, spec)
        if uhat is not None:
            ta = t ** a
            nhat = nhat + ta * mittag_leffler_array(
                a, a + 1.0, -ta * rate) * src_hat
        out[it] = np.fft.ifft(nhat)[:nx]
    return Field(grid=grid, values=out)
