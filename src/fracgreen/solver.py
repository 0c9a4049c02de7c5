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
                    _kernel, _kernel_rows, _refuse_growth, _time)


@dataclass(frozen=True)
class SourceDescriptor:
    """Initial datum or source profile: a named preset or raw samples,
    which must be finite."""

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
        if self.kind == "samples":
            if self.values is None:
                raise ValueError("samples descriptor needs values")
            # refused here, so a non-finite field only ever means overflow
            vals = np.ravel(np.asarray(self.values, dtype=complex))
            bad = np.flatnonzero(~np.isfinite(vals))
            if bad.size:
                raise ValueError(f"sample {bad[0]} is not finite: "
                                 f"{vals[bad[0]]:g}")
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
    smooth integrands converge at O(dt^2).  Not called by the library: it
    stays for the tests and perfbench/trace.py, which looks it up by name.
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
    """The padded mode count M of grid and its _wavenumbers."""
    M = _padded_count(grid.nx)
    return M, _wavenumbers(M, grid.dx)


def _wavenumbers(M: int, dx: float) -> np.ndarray:
    """The M padded wavenumbers of spacing dx in FFT bin order: with
    f_hat(k) = Int exp(+ikx) f dx, bin m carries -2 pi fftfreq(M, dx)[m]."""
    return -2.0 * math.pi * np.fft.fftfreq(M, d=dx)


@functools.lru_cache(maxsize=16)
def _kernel_table(kind, spec: ProblemSpec, M: int, dx: float, ts: tuple):
    """solve's propagator for one kernel kind (GreenKind or _SOURCE) and
    block of output times: the read-only _kernel_rows on the wavenumbers
    of (M, dx).  The key holds every input, and a Mittag-Leffler value
    depends on its (alpha, beta, z) alone, so a hit returns the bytes a
    miss computes.  A table holds at most max(_BLOCK_VALUES, M) values:
    2 MB for the 16 kept on grids up to M = 8192 (nx <= 2048).
    """
    table = _kernel_rows(_kernel(kind, spec), _wavenumbers(M, dx), ts, spec)
    table.flags.writeable = False
    return table


def _padded_fft(desc: SourceDescriptor, grid: SpaceTimeGrid, M: int):
    """Transform of desc rendered on grid, zero-padded to M points, or None
    where it is all zero; a zero descriptor or rendering skips the FFT."""
    if desc.kind == "zero":
        return None
    col = desc.render(grid.x, grid.dx)
    if not col.any():
        return None
    hat = np.fft.fft(col, n=M)
    return hat if hat.any() else None


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

    U is a fixed profile switched on at t = 0; mode k receives
    s mu t^a E_{a,a+1}(-lam Psi_beta(k) t^a) m_S(k) U_hat(k), the exact
    time integral of the source kernel, with s = -1 and m_S the
    gamma-operator symbol in the riesz_feller source mode, s = 1 and
    m_S = 1 in the identity mode.  f = SourceDescriptor.delta() makes the
    output the Green function itself.

    The data path is _field, shared with oracle_solve, which raises
    FourierOnlyError where G_hat grows with |k|, as green_points does.
    solve is the one place that maps the terms to kernel kinds: f goes
    through G (G3 when self-coupled), g through G2 (G4), and the source
    through t^a E_{a,a+1} m_S (_SOURCE); the modes are the sum of each
    given term times its kernel, in the order f, g, U.  A kernel is one
    Mittag-Leffler call over every padded mode and output time, identical
    arguments evaluated once; past _BLOCK_VALUES values the times go in
    blocks, one call each, so working memory does not grow with their
    number.  Each row equals the single-time solve at its t.  A repeated
    solve on a (spec, grid) reads the kept tables (_kernel_table): no
    Mittag-Leffler call and no symbol.  The values do not depend on which
    solves came before, and the warnings are raised on every call.
    """
    M = _padded_count(grid.nx)
    kinds = ((GreenKind.G3, GreenKind.G4) if spec.source_coupling == "self"
             else (GreenKind.G, GreenKind.G2)) + (_SOURCE,)

    def propagate(f_hat, g_hat, src_hat):
        step = max(1, _BLOCK_VALUES // M)
        for lo in range(0, len(grid.times), step):
            block = slice(lo, lo + step)
            modes = [hat * _kernel_table(kind, spec, M, grid.dx,
                                         grid.times[block])
                     for hat, kind in zip((f_hat, g_hat, src_hat), kinds)
                     if hat is not None]
            yield block, functools.reduce(np.add, modes)

    return _field(spec, f, g, U, grid, propagate)


def _field(spec: ProblemSpec, f: SourceDescriptor, g: SourceDescriptor,
           U: SourceDescriptor, grid: SpaceTimeGrid, propagate) -> Field:
    """The data path of solve and oracle_solve around one propagator:
    propagate(f_hat, g_hat, src_hat) takes the three terms by role, the
    padded transforms of f and g and s mu U_hat, each None where that
    term is absent, and yields blocks of output times: a slice of
    grid.times and the modes that the terms reach together at those times.

    It refuses a g where alpha <= 1, a U on a self-coupled spec, a delta
    U, then, zero data too, a spec whose G_hat grows (_refuse_growth).
    Each datum is rendered and transformed under np.errstate; a zero
    descriptor, a transform that is all zero (s mu U_hat can underflow)
    and a U given with mu = 0, which warns that it adds nothing, are
    absent terms, and with no term the field is zeros at once.  Per block
    of times the modes are inverse transformed.  A field that leaves the
    double range raises OverflowError naming its first such t, without a
    warning on the way.  Then, where Re lam > 0, one window check
    (_window_verdict) reads the last t once: its transform for
    resolution, then, if resolved, its inverse FFT over the whole padded
    period for mass about to wrap onto the window.
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
    # every term has the one rate of the spec: one growth test covers all
    _refuse_growth(spec, self_coupled)
    nx, M = grid.nx, _padded_count(grid.nx)
    # an overflow on the way leaves inf or nan in the field, named below
    with np.errstate(over="ignore", invalid="ignore"):
        f_hat, g_hat, src_hat = [_padded_fft(d, grid, M) for d in (f, g, U)]
        if src_hat is not None and spec.mu == 0:
            warnings.warn("source U given with mu = 0 adds nothing to the "
                          "field", stacklevel=3)
            src_hat = None
        elif src_hat is not None:
            src_hat = (-spec.mu if spec.source_mode == "riesz_feller"
                       else spec.mu) * src_hat
            src_hat = src_hat if src_hat.any() else None
        if f_hat is None and g_hat is None and src_hat is None:
            return Field(grid, np.zeros((len(grid.times), nx), complex))

        out = np.empty((len(grid.times), nx), dtype=complex)
        for block, nhat in propagate(f_hat, g_hat, src_hat):
            rows = np.fft.ifft(nhat, axis=1)
            out[block] = rows[:, :nx]
    if not np.isfinite(out).all():
        t = grid.times[int(np.argmin(np.isfinite(out).all(axis=1)))]
        raise OverflowError(f"the field has non-finite values at t = {t:g}: "
                            f"it leaves the double range")
    # dispersive (imaginary-coefficient) kernels never localize
    verdict = spec.lam.real > 0.0 and _window_verdict(nhat[-1], rows[-1], nx)
    if verdict:
        warnings.warn(verdict, stacklevel=3)
    return Field(grid=grid, values=out)
