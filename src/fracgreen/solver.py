"""Assemble full solutions N(x, t) from Green kernels and data.

The solution is built spectrally: transform each datum on a padded grid,
multiply by its Fourier-side kernel at every output time, sum, transform
back.  The source is a fixed profile switched on at t = 0, so its kernel,
the time integral of G, is exact per mode:
Int_0^t s^(a-1) E_{a,a}(-c s^a) ds = t^a E_{a,a+1}(-c t^a).
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .green import (_SOURCE, GreenKind, ProblemSpec, SpecValidationError,
                    _growing_phase, _kernel, _kernel_rows)
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
        if self.nx < 8:
            raise ValueError("nx must be at least 8")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)
                and self.x_max > self.x_min):
            raise ValueError(f"x_max = {self.x_max} must exceed "
                             f"x_min = {self.x_min}, both finite")
        ts = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        if not ts or ts[0] <= 0.0 or not all(map(math.isfinite, ts)):
            raise ValueError(f"times must start above 0 (kernels are singular "
                             f"at t = 0) and be finite, got {ts}")
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
def _kernel_table(kern, spec: ProblemSpec, M: int, dx: float, ts: tuple):
    """Read-only _kernel_rows(kern, k, ts, spec) on the wavenumbers k of
    (M, dx), solve's propagator for one kernel and block of output times.

    The key holds every input of the table, and a Mittag-Leffler value
    depends on its (alpha, beta, z) alone, so a hit returns the bytes a
    miss computes.  A table holds at most max(_BLOCK_VALUES, M) values:
    2 MB for the 16 kept on grids up to M = 8192 (nx <= 2048).
    """
    table = _kernel_rows(kern, _wavenumbers(M, dx), ts, spec)
    table.flags.writeable = False
    return table


def _padded_fft(desc: SourceDescriptor, grid: SpaceTimeGrid, M: int):
    """Transform of desc rendered on grid, zero-padded to M points; a zero
    rendering skips the FFT."""
    col = desc.render(grid.x, grid.dx)
    return np.fft.fft(col, n=M) if col.any() else np.zeros(M, dtype=complex)


def _window_verdict(ghat, M, nx):
    """The warning that the padded convolution cannot be trusted, or None.

    First the resolution: when |G_hat| at the largest padded wavenumber is
    not small against |G_hat(0)|, the grid under-resolves the kernel and
    its transform rings round the whole ring, so far "mass" is an artefact
    and the remedy is a finer grid.  Otherwise kernel mass beyond half the
    (M - nx)/2 grid offsets of slack on either side is about to wrap onto
    the window and corrupt the convolution.
    """
    ratio = abs(ghat[M // 2]) / max(abs(ghat[0]), 1e-300)
    if ratio > 1e-2:
        return (f"kernel under-resolved: |G_hat| at the largest wavenumber "
                f"is {ratio:.1e} of |G_hat(0)|; increase nx")
    h = np.abs(np.fft.ifft(ghat))
    offs = np.minimum(np.arange(M), M - np.arange(M))
    far = h[offs > (M - nx) // 2].sum() / max(h.sum(), 1e-300)
    if far > 1e-3:
        return (f"kernel mass outside the spatial window is {far:.1e}, "
                f"above 1e-3; widen the grid")
    return None


# a plan's window verdict before the first solve reads it
_UNREAD = object()


@dataclass
class _SolvePlan:
    """What solve derives from (spec, grid, kinds, block step) alone.

    kernels holds the kernel of each kind in kinds, the kinds of the
    nonzero data in the order f, g, U; blocks the (first row, times) of
    each block of output times; source the read-only factor s mu m_S of
    the source datum, or None; grows the growth warning's text, or None.
    window is the window warning's text, or None, and _UNREAD until the
    first solve on the plan reads the first kernel's table at the last
    time; solves that race to read it write the same text.
    """

    kernels: tuple
    blocks: tuple
    source: object
    grows: str
    window: object


@functools.lru_cache(maxsize=16)
def _plan(spec: ProblemSpec, grid: SpaceTimeGrid, kinds: tuple,
          step: int) -> _SolvePlan:
    """solve's plan for the data of the given kernel kinds, step output
    times to a block.  It holds at most M complex values, the source
    factor's: 2 MB for the 16 kept on grids up to nx = 2048."""
    times = grid.times
    blocks = tuple((lo, times[lo:lo + step])
                   for lo in range(0, len(times), step))
    source = None
    if _SOURCE in kinds:
        # s mu m_S stays on the datum side: the source kernel keeps its
        # positive k = 0 value t^a / Gamma(a + 1) for the window check
        m_s = (-riesz_feller_symbol(spec.source_symbol(),
                                    _padded_wavenumbers(grid)[1])
               if spec.source_mode == "riesz_feller" else 1.0)
        source = spec.mu * m_s
        if isinstance(source, np.ndarray):
            source.flags.writeable = False
    ph = _growing_phase(spec, spec.source_coupling == "self")
    grows = None
    if ph is not None:
        # refining the grid only admits larger |G_hat|
        grows = (f"G_hat grows with |k|: Mittag-Leffler argument phase "
                 f"{ph / math.pi:.4g} pi inside alpha pi/2 = "
                 f"{spec.alpha / 2.0:.4g} pi; the kernel has no real-space "
                 f"form and the field does not converge in nx")
    # the localization heuristic only makes sense for dissipative kernels;
    # dispersive (imaginary-coefficient) ones never localize
    window = _UNREAD if spec.lam.real > 0.0 and ph is None else None
    return _SolvePlan(tuple(_kernel(kind, spec) for kind in kinds), blocks,
                      source, grows, window)


def solve(spec: ProblemSpec, f: SourceDescriptor, g: SourceDescriptor,
          U: SourceDescriptor, grid: SpaceTimeGrid) -> Field:
    """Solution field from initial data f (and g for alpha > 1) plus source U.

    U is read as a fixed spatial profile switched on at t = 0; mode k
    receives s mu t^a E_{a,a+1}(-lam Psi_beta(k) t^a) m_S(k) U_hat(k), the
    exact time integral of the source kernel.  The riesz_feller source
    mode has s = -1 and m_S the gamma-operator symbol; the identity mode
    has s = 1 and m_S = 1.  f = SourceDescriptor.delta() makes the output
    the Green function itself.

    Each datum whose padded transform (for U times s mu m_S) has a nonzero
    entry is one term: that transform times its kernel from green's table,
    G or G3 for f, G2 or G4 for g, the source kernel t^a E_{a,a+1} for U;
    a U given with mu = 0 warns that it adds nothing.  A kernel is one
    Mittag-Leffler call over every padded mode and output time, in which
    identical arguments are evaluated once; past _BLOCK_VALUES values the
    times go in blocks, one call per block, so working memory does not
    grow with their number.  A zero datum costs nothing.  Each row of
    the result equals the single-time solve at its t.  The window check
    reads the first term's kernel (G or G3 when f is given) at the last t.

    What does not depend on the data is reused within a process.  The 16
    most recently used kernel tables are kept, keyed on (kernel, spec,
    padded mode count M, dx, the block's times); a table holds at most
    max(_BLOCK_VALUES, M) values, 2 MB for all 16 on grids up to
    nx = 2048.  The 16 most recently used plans are kept, keyed on (spec,
    grid, the kernels of the nonzero data, the block step): the time
    blocks, s mu m_S (at most M values, 2 MB for all 16 up to
    nx = 2048), the growth warning and the window check's verdict.  A
    repeated solve on a (spec, grid) then renders and transforms each
    datum given, multiplies by the kept tables and makes one inverse FFT
    per block: no Mittag-Leffler call, no symbol and no window check.
    The values do not depend on which solves came before, and the
    warnings are raised on every call.
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
    # the padded transform and kind of each datum that is not all zero; a
    # zero descriptor is neither rendered nor transformed
    data, kinds = [], []
    for desc, kind in ((f, kind_f), (g, kind_g), (U, _SOURCE)):
        if desc.kind == "zero":
            continue
        datum = _padded_fft(desc, grid, M)
        if not datum.any():
            continue
        if kind is _SOURCE and spec.mu == 0:
            warnings.warn("source U given with mu = 0 adds nothing to the "
                          "field", stacklevel=2)
            continue
        data.append(datum)
        kinds.append(kind)
    if data:
        plan = _plan(spec, grid, tuple(kinds), max(1, _BLOCK_VALUES // M))
        if plan.source is not None:
            data[-1] = plan.source * data[-1]
            # s mu m_S U_hat can underflow to zero and add no term; the
            # plan's last kernel, the source's, then goes unread
            if not data[-1].any():
                data.pop()
    if not data:
        return Field(grid, np.zeros((len(grid.times), nx), dtype=complex))

    if plan.grows is not None:
        warnings.warn(plan.grows, stacklevel=2)
    out = np.empty((len(grid.times), nx), dtype=complex)
    for lo, ts in plan.blocks:
        rows = [_kernel_table(kern, spec, M, grid.dx, ts)
                for _, kern in zip(data, plan.kernels)]
        nhat = functools.reduce(np.add, (datum * r for datum, r
                                         in zip(data, rows)))
        out[lo:lo + len(ts)] = np.fft.ifft(nhat, axis=1)[:, :nx]
    if plan.window is _UNREAD:
        plan.window = _window_verdict(rows[0][-1], M, nx)
    if plan.window is not None:
        warnings.warn(plan.window, stacklevel=2)
    return Field(grid=grid, values=out)
