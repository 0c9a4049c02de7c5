"""Assemble full solutions N(x, t) from Green kernels and data.

The solution is built spectrally: transform each datum on a padded grid,
multiply by its Fourier-side kernel at every output time, sum, transform
back.  The source is a fixed profile switched on at t = 0, so its kernel,
the time integral of G, is exact per mode:
Int_0^t s^(a-1) E_{a,a}(-c s^a) ds = t^a E_{a,a+1}(-c t^a).
"""

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .green import (_SOURCE, GreenKind, ProblemSpec, SpecValidationError,
                    _growth, _kernel, _kernel_rows, _time)


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
        if self.kind == "gaussian" and not (math.isfinite(self.center)
                                            and math.isfinite(self.width)):
            raise ValueError(f"gaussian center and width must be finite, "
                             f"got {self.center}, {self.width}")
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
        """Samples of the descriptor on the grid x (delta: unit impulse 1/dx
        at the point nearest its center, which must lie in the window)."""
        if self.kind == "zero":
            return np.zeros(x.size, dtype=complex)
        if self.kind == "dirac_delta":
            if not x[0] <= self.center < x[-1] + dx:
                raise ValueError(
                    f"delta center {self.center} lies outside the window "
                    f"[{x[0]}, {x[-1] + dx})")
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
        try:
            object.__setattr__(self, "nx", operator.index(self.nx))
        except TypeError:
            raise ValueError(f"nx must be an integer, got {self.nx!r}") \
                from None
        if self.nx < 8:
            raise ValueError("nx must be at least 8")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)
                and self.x_max > self.x_min):
            raise ValueError(f"x_max = {self.x_max} must exceed "
                             f"x_min = {self.x_min}, both finite")
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError(f"the window width x_max - x_min overflows the "
                             f"double range: [{self.x_min}, {self.x_max}]")
        # the largest padded wavenumber is pi / dx
        if not (self.dx > 0.0 and math.isfinite(math.pi / self.dx)):
            raise ValueError(f"the grid spacing dx = (x_max - x_min) / nx = "
                             f"{self.dx:g} puts the wavenumber pi / dx "
                             f"outside the double range: [{self.x_min}, "
                             f"{self.x_max}], nx = {self.nx}")
        ts = tuple(map(_time, self.times))
        object.__setattr__(self, "times", ts)
        if not ts:
            raise ValueError("the grid needs at least one time")
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


# solve evaluates each kernel over a block of output times in one
# Mittag-Leffler call of at most this many arguments, or of one time's
# padded modes where those are more; 2^13 keeps a many-time solve's peak
# memory at the per-time loop's
_BLOCK_VALUES = 2 ** 13


def _padded_count(nx: int) -> int:
    """The padded mode count M of nx grid points: the least power of 2
    at least 4 nx."""
    return 1 << (4 * nx - 1).bit_length()


def _padded_wavenumbers(grid: SpaceTimeGrid):
    """Padded mode count and wavenumbers matching the transform convention.

    With f_hat(k) = Int exp(+ikx) f dx, the FFT bin m carries
    k_m = -2 pi fftfreq(M, dx)[m].
    """
    M = _padded_count(grid.nx)
    return M, _wavenumbers(M, grid.dx)


def _wavenumbers(M: int, dx: float) -> np.ndarray:
    """The M padded wavenumbers of spacing dx, in FFT bin order."""
    return -2.0 * math.pi * np.fft.fftfreq(M, d=dx)


@functools.lru_cache(maxsize=16)
def _kernel_table(kind, spec: ProblemSpec, M: int, dx: float, ts: tuple):
    """solve's propagator for one kernel kind (GreenKind or _SOURCE) and
    block of output times: the read-only _kernel_rows on the wavenumbers
    of (M, dx), and the warning that the kernel grows with |k|, or None.

    The key holds every input of both, and a Mittag-Leffler value depends
    on its (alpha, beta, z) alone, so a hit returns the bytes and the text
    a miss computes.  A table holds at most max(_BLOCK_VALUES, M) values:
    2 MB for the 16 kept on grids up to M = 8192 (nx <= 2048).
    """
    kern = _kernel(kind, spec)
    table = _kernel_rows(kern, _wavenumbers(M, dx), ts, spec)
    table.flags.writeable = False
    return table, _growth(spec, kern.self_coupled)


def _padded_fft(desc: SourceDescriptor, grid: SpaceTimeGrid, M: int):
    """Transform of desc rendered on grid, zero-padded to M points; a zero
    rendering skips the FFT."""
    col = desc.render(grid.x, grid.dx)
    return np.fft.fft(col, n=M) if col.any() else np.zeros(M, dtype=complex)


# solve warns that the field wraps round the padded period where |N| over
# the middle half of the padding, at the last output time, exceeds this
# fraction of its largest value in the window; the wrap error on the
# window was 0.05-0.4 times that ratio on the seeded draws of
# test_mass_outside_warning_tracks_the_wrap_error
_WRAP_RATIO = 1.5e-4


def _window_verdict(nhat, row, nx):
    """The warning that the window misses the field, or None: nhat is
    its padded transform at one time, row the inverse FFT (window first).
    Under-resolved: max |nhat| over |k| >= 7 k_N / 8 (a sampled box can
    vanish at k_N itself) passes 1e-2 of max |nhat| (not of |nhat(0)|,
    as m_S(0) = 0).  Else mass outside: max |N| over the middle half of
    the padding passes _WRAP_RATIO of max |N| in the window."""
    M = nhat.size
    a = np.abs(nhat)
    top = a[M // 2 - M // 16:M // 2 + M // 16 + 1].max()
    ratio = top / a.max() if top else 0.0  # all of nhat may be 0
    if ratio > 1e-2:
        return (f"field under-resolved: |N_hat| near the largest wavenumber "
                f"reaches {ratio:.1e} of its largest value; increase nx")
    a = np.abs(row)
    q = (M - nx) // 4
    far, near = a[nx + q:M - q].max(), a[:nx].max()
    if far > _WRAP_RATIO * near:
        return (f"field mass outside the spatial window: |N| in the padding "
                f"reaches {far / near:.1e} of its largest value in the "
                f"window, above {_WRAP_RATIO:.1e}; widen the grid")
    return None


def solve(spec: ProblemSpec, f: SourceDescriptor, g: SourceDescriptor,
          U: SourceDescriptor, grid: SpaceTimeGrid) -> Field:
    """Solution field from initial data f (and g for alpha > 1) plus source U.

    U is read as a fixed spatial profile switched on at t = 0; mode k
    receives s mu t^a E_{a,a+1}(-lam Psi_beta(k) t^a) m_S(k) U_hat(k), the
    exact time integral of the source kernel.  The riesz_feller source
    mode has s = -1 and m_S the gamma-operator symbol; the identity mode
    has s = 1 and m_S = 1.  f = SourceDescriptor.delta() makes the output
    the Green function itself.

    Each datum whose padded transform (for U times s mu) has a nonzero
    entry is one term: that transform times its kernel from green's table,
    G or G3 for f, G2 or G4 for g, the source kernel t^a E_{a,a+1} m_S for
    U; a U given with mu = 0 warns that it adds nothing.  A kernel is one
    Mittag-Leffler call over every padded mode and output time, in which
    identical arguments are evaluated once; past _BLOCK_VALUES values the
    times go in blocks, one call per block, so working memory does not
    grow with their number.  A zero datum costs nothing.  Each row of
    the result equals the single-time solve at its t.  A field that
    leaves the double range raises OverflowError naming its first such
    t, without a warning on the way.  Then one window check
    (_window_verdict) reads the last t once: its transform for
    resolution, then, if resolved, its inverse FFT over the whole padded
    period for mass about to wrap onto the window.

    What does not depend on the data is kept within a process: the 16
    most recently used kernel tables (_kernel_table), each with its
    growth warning, at most 2 MB on grids up to nx = 2048.  A repeated
    solve on a (spec, grid) then renders and transforms each datum
    given, multiplies by the kept tables and makes one inverse FFT per
    block: no Mittag-Leffler call and no symbol.
    The values do not depend on which solves came before, and the warnings
    are raised on every call.
    """
    if g.kind != "zero" and spec.alpha <= 1.0:
        raise SpecValidationError(
            ["second initial datum g requires 1 < alpha <= 2"])
    self_coupled = spec.source_coupling == "self"
    if self_coupled and U.kind != "zero":
        raise SpecValidationError(
            ["self-coupled (two-operator) problems admit no external source"])
    if U.kind == "dirac_delta":
        raise SpecValidationError(["delta source U is not supported"])

    nx, M = grid.nx, _padded_count(grid.nx)
    kind_f, kind_g = ((GreenKind.G3, GreenKind.G4) if self_coupled
                      else (GreenKind.G, GreenKind.G2))
    # an overflow on the way leaves inf or nan in the field, named below
    with np.errstate(over="ignore", invalid="ignore"):
        # the padded transform and kind of each datum that is not all
        # zero; a zero descriptor is neither rendered nor transformed
        data, kinds = [], []
        for desc, kind in ((f, kind_f), (g, kind_g), (U, _SOURCE)):
            if desc.kind == "zero":
                continue
            datum = _padded_fft(desc, grid, M)
            if kind is _SOURCE and datum.any():
                if spec.mu == 0:
                    warnings.warn("source U given with mu = 0 adds nothing "
                                  "to the field", stacklevel=2)
                    continue
                # s mu U_hat, which can underflow to zero; the source
                # kernel's table holds m_S
                datum = (-spec.mu if spec.source_mode == "riesz_feller"
                         else spec.mu) * datum
            if not datum.any():
                continue
            data.append(datum)
            kinds.append(kind)
        if not data:
            return Field(grid, np.zeros((len(grid.times), nx), complex))

        out = np.empty((len(grid.times), nx), dtype=complex)
        step = max(1, _BLOCK_VALUES // M)
        for lo in range(0, len(grid.times), step):
            ts = grid.times[lo:lo + step]
            tables = [_kernel_table(kind, spec, M, grid.dx, ts)
                      for kind in kinds]
            nhat = functools.reduce(np.add, (
                datum * table for datum, (table, _) in zip(data, tables)))
            rows = np.fft.ifft(nhat, axis=1)
            out[lo:lo + len(ts)] = rows[:, :nx]
    if not np.isfinite(out).all():
        t = grid.times[int(np.argmin(np.isfinite(out).all(axis=1)))]
        raise OverflowError(f"solve produced non-finite values at t = {t:g}: "
                            f"the field leaves the double range")
    # every kernel of one solve has the same rate: G3 and G4 come only
    # self-coupled, the source kernel only external
    verdict = tables[0][1]
    # dispersive (imaginary-coefficient) kernels never localize
    if verdict is None and spec.lam.real > 0.0:
        verdict = _window_verdict(nhat[-1], rows[-1], nx)
    if verdict is not None:
        warnings.warn(verdict, stacklevel=2)
    return Field(grid=grid, values=out)
