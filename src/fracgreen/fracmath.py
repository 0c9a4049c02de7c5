"""Special-function kernel: reciprocal and complex log-gamma, the
Mittag-Leffler function, and Mellin-Barnes evaluation of the H-function
family used by the Green kernels.  numpy is the only dependency.

Everything here is pure and stateless apart from read-only caches, so
concurrent use is safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use.

    No package code calls it, and scipy is not a runtime dependency; the
    name stays because perfbench's tracer wraps it.
    """
    from scipy.integrate import quad as _quad

    return _quad(*args, **kwargs)


class MLConvergenceError(ArithmeticError):
    """No evaluation region could meet its own error estimate."""


class ContourPlacementError(ValueError):
    """No vertical line separates the two pole families."""


class HAccuracyError(ArithmeticError):
    """Mellin-Barnes quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

# Evaluation regions.  The Taylor series takes |z| <= 1 for alpha <= 1 and
# |z| <= 25 for alpha > 1, where it costs less than the contour (measured
# on warm solves), and the asymptotic expansion |z| >= 15; each keeps a
# point only when it passes its own error estimate, and the optimal
# parabolic contour takes every other point.
_SERIES_RADIUS = 1.0
_SERIES_RADIUS_HIGH = 25.0
_ASYMPTOTIC_RADIUS = 15.0
_SERIES_CAP = 500
_ASYMPTOTIC_TERMS = 40
# error estimate / |value| the asymptotic expansion accepts; the contour
# takes the rest to about 1e-15 (1e-11 let errors of 5e-12 through at
# |z| = 25-27 for alpha near 1)
_ASYMPTOTIC_TOL = 1e-13
# largest term / |sum| the series accepts: its rounding error is about
# this ratio times (number of terms) * eps, so 1e2 keeps it near 1e-13
_CANCELLATION_LIMIT = 1e2

# Optimal parabolic contour (Garrappa, SIAM J. Numer. Anal. 53(3), 2015):
# the target accuracy, the log of the unit round-off, the node count above
# which the target is relaxed tenfold, and the most points summed at once.
_OPC_LOG_TOL = math.log(1e-15)
_LOG_EPS = math.log(np.finfo(float).eps)
_OPC_MAX_NODES = 200
_OPC_BLOCK = 4096


def rgamma(x: float) -> float:
    """1/Gamma(x) for real x from math.gamma; exactly zero at the
    non-positive integers and past the double range."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


# Stirling series of log Gamma: B_2k / (2k (2k - 1)), k = 1..8.  With
# |w| >= _STIRLING_RADIUS and Re w >= 1/2 the truncation error is below
# 1e-15.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0,
             -3617.0 / 122400.0)
_STIRLING_RADIUS = 10.0


def loggamma(z) -> np.ndarray:
    """log Gamma(z) for a complex array, up to a multiple of 2 pi i.

    Points with Re z >= 1/2 take the Stirling series, after the upward
    shift Gamma(w) = Gamma(w + n) / (w (w + 1) ... (w + n - 1)) where
    |w| < 10; the others take the reflection Gamma(z) Gamma(1 - z) =
    pi / sin(pi z), with log sin(pi z) written through exp(2 i pi z) so
    that it does not overflow at large |Im z| (Hare, J. Algorithms 25(2),
    1997).  The imaginary part is not the principal branch: callers use
    exp(loggamma) and its real part only.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.ravel()
    left = z.real < 0.5
    w = np.where(left, 1.0 - z, z)
    small = np.flatnonzero(np.abs(w) < _STIRLING_RADIUS)
    if small.size:
        ws = w[small]
        shift = np.ceil(_STIRLING_RADIUS - ws.real)
        prod = np.ones_like(ws)
        for k in range(int(shift.max())):
            prod *= np.where(k < shift, ws + k, 1.0)
        w[small] = ws + shift
    inv = 1.0 / w
    inv2 = inv * inv
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * inv2 + c
    out = ((w - 0.5) * np.log(w) - w + 0.5 * math.log(2.0 * math.pi)
           + series * inv)
    if small.size:
        out[small] -= np.log(prod)
    refl = np.flatnonzero(left)
    if refl.size:
        zl = z[refl]
        # sin(pi z) has period 2 in Re z; on the upper half plane
        # log sin(pi z) = -i pi z + log(i/2) + log(1 - exp(2 i pi z)), and
        # sin(pi conj z) = conj sin(pi z)
        zr = zl.real - 2.0 * np.round(0.5 * zl.real) + 1j * np.abs(zl.imag)
        with np.errstate(divide="ignore"):
            log_sin = (-1j * np.pi * zr
                       + complex(-math.log(2.0), 0.5 * math.pi)
                       + np.log(1.0 - np.exp(2j * np.pi * zr)))
        log_sin = np.where(zl.imag >= 0.0, log_sin, log_sin.conjugate())
        out[refl] = math.log(math.pi) - log_sin - out[refl]
    return out.reshape(shape)


@functools.lru_cache(maxsize=64)
def _ml_coeffs(alpha: float, beta: float):
    """Read-only coefficient rows for (alpha, beta).

    1/Gamma(alpha j + beta) for the Taylor series, 1/Gamma(beta - alpha
    (j + 1)) for the asymptotic expansion, and a smooth envelope of the
    latter: |1/Gamma(y)| dips to zero near the poles, which would fool a
    smallest-term truncation rule, while the reflection bound
    Gamma(1 - y)/pi is monotone there.
    """
    series = np.array([rgamma(alpha * j + beta)
                       for j in range(_SERIES_CAP)])
    ys = [beta - alpha * (j + 1) for j in range(_ASYMPTOTIC_TERMS)]
    asym = np.array([rgamma(y) for y in ys])
    env = np.array([abs(rgamma(y)) if y >= 0.5
                    else math.gamma(1.0 - y) / math.pi for y in ys])
    for row in (series, asym, env):
        row.flags.writeable = False
    return series, asym, env


def _ml_series_batch(alpha: float, beta: float, z: np.ndarray):
    """Taylor series on an array; returns (values, ok_mask)."""
    coeffs = _ml_coeffs(alpha, beta)[0]
    acc = np.full(z.shape, coeffs[0], dtype=complex)
    power = np.ones_like(acc)
    maxmag = np.abs(acc)
    active = np.ones(z.shape, dtype=bool)
    small_streak = np.zeros(z.shape, dtype=np.int8)
    for n in range(1, _SERIES_CAP):
        power = power * z
        term = coeffs[n] * power
        acc += np.where(active, term, 0.0)
        tm = np.abs(term)
        maxmag = np.maximum(maxmag, np.where(active, tm, 0.0))
        tiny = tm <= 1e-17 * (np.abs(acc) + 1e-300)
        small_streak = np.where(active & tiny, small_streak + 1, 0)
        active &= small_streak < 3
        if not active.any():
            break
    converged = ~active
    safe = maxmag <= _CANCELLATION_LIMIT * (np.abs(acc) + 1e-300)
    return acc, converged & safe


def _ml_asymptotic_batch(alpha: float, beta: float, z: np.ndarray):
    """Algebraic expansion (plus exponential term in-sector); (values, ok)."""
    _, coeffs, env = _ml_coeffs(alpha, beta)
    zinv = 1.0 / z
    acc = np.zeros(z.shape, dtype=complex)
    power = np.ones_like(acc)
    best_err = np.full(z.shape, np.inf)
    frozen = np.zeros(z.shape, dtype=bool)
    for n in range(_ASYMPTOTIC_TERMS):
        power = power * zinv
        term = coeffs[n] * power
        tm = env[n] * np.abs(power)
        growing = tm > best_err
        frozen |= growing
        acc += np.where(frozen, 0.0, -term)
        best_err = np.where(frozen, best_err, np.minimum(best_err, tm + 1e-300))
    vals = acc
    phase = np.angle(z)
    mag = np.abs(z)
    # the pole terms (1/alpha) r^(1-beta) exp(r), r = z^(1/alpha) on a sheet
    # with |arg| < alpha pi; for alpha > 1 a neighbouring sheet can hold one
    # too.  Near the Stokes line |arg| = alpha pi the weight of a term moves
    # from 1 to 0, so there its size counts as error.
    ks = (0,) if alpha <= 1.0 else (-1, 0, 1)
    for k in ks:
        ph = phase + 2.0 * np.pi * k
        near = np.abs(ph) <= 1.25 * alpha * np.pi
        if near.any():
            # a value beyond the double range stays inf here and is
            # reported as MLConvergenceError by the caller
            with np.errstate(over="ignore", invalid="ignore"):
                root = np.where(near, mag, 1.0) ** (1.0 / alpha) * np.exp(
                    1j * ph / alpha
                )
                expterm = (1.0 / alpha) * root ** (1.0 - beta) * np.exp(root)
            vals = vals + np.where(np.abs(ph) < alpha * np.pi, expterm, 0.0)
            edge = near & (np.abs(ph) >= 0.75 * alpha * np.pi)
            best_err = best_err + np.where(edge, np.abs(expterm), 0.0)
    ok = best_err <= _ASYMPTOTIC_TOL * (np.abs(vals) + 1e-300)
    return vals, ok


def _opc_bounded(phi0, phi1, p, log_tol):
    """(mu, h, N) for a contour between two singularities.

    Garrappa's rule for the region between the parabolas phi0 (strength p)
    and phi1 (a simple pole); N is inf where the region cannot reach
    exp(log_tol).
    """
    f_max = np.exp(log_tol - _LOG_EPS)
    sq0 = np.sqrt(phi0)
    sq1 = np.minimum(np.sqrt(phi1), 2.0 * np.sqrt(log_tol - _LOG_EPS) - sq0)
    if p < 1e-14:
        # only the branch point at the origin can be this weak, so sq0 = 0
        f_min = 1.01
        ok = f_min < f_max
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        sq1 = 2.0 * sq1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = 1.01 * (sq0 + sq1) / (sq1 - sq0) ** max(p, 1.0)
        ok = f_min < f_max
        # inadmissible points get N = inf below; clamp them to stay finite
        f_min = np.clip(f_min, 1.5, f_max)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p)
        fq = 1.0 / f_bar
        w = -phi1 / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        sq0, sq1 = (((2.0 + w + fq) * sq0 + fp * sq1) / den,
                    (-(1.0 + w) * fq * sq0
                     + (2.0 + w - (1.0 + w) * fp) * sq1) / den)
    log_tol = log_tol - np.log(f_bar)
    w = -sq1 ** 2 / log_tol
    mu = (((1.0 + w) * sq0 + sq1) / (2.0 + w)) ** 2
    h = -2.0 * np.pi / log_tol * (sq1 - sq0) / ((1.0 + w) * sq0 + sq1)
    n = np.ceil(np.sqrt(1.0 - log_tol / mu) / h)
    return mu, h, np.where(ok, n, np.inf)


def _opc_unbounded(phi, p, log_tol):
    """(mu, h, N) for the contour right of a singularity of strength p.

    Garrappa's rule for the unbounded region beyond the parabola phi; the
    fixed-point search for the singularity distance runs on every point
    at once.  N is inf where exp(mu) would amplify round-off past the
    target.
    """
    sq0 = np.sqrt(phi)
    phib = np.where(phi > 0.0, 1.01 * phi, 0.01)
    sqb = np.sqrt(phib)
    weak = p < 1e-14
    shrink = 5.0 ** (-1.0 / np.where(weak, 1.0, p))
    active = ~weak
    for _ in range(50):
        lp = log_tol / phib
        n = np.ceil(phib / np.pi * (1.0 - 1.5 * lp + np.sqrt(1.0 - 2.0 * lp)))
        a = np.pi * n / phib
        sq_mu = sqb * np.abs(4.0 - a) / np.abs(7.0 - np.sqrt(1.0 + 12.0 * a))
        fbar = ((sqb - sq0) / sq_mu) ** (-p)
        active &= ~((1.0 < fbar) & (fbar < 10.0))
        if not active.any():
            break
        sqb = np.where(active, shrink * sq_mu + sq0, sqb)
        phib = sqb ** 2
    mu = sq_mu ** 2
    h = (-3.0 * a - 2.0 + 2.0 * np.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    thr = log_tol - _LOG_EPS
    big = mu > thr
    if big.any():
        # pull the contour back to the round-off threshold when the
        # singularity allows it
        phib = (np.where(weak, 0.0, shrink * sq_mu) + sq0) ** 2
        fix = big & (phib < thr)
        w = np.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = np.sqrt(-phib / _LOG_EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            # entries outside `fix` may divide by zero; they are dropped
            n_fix = np.ceil(w * log_tol / (2.0 * np.pi) / (u * w - 1.0))
            h = np.where(fix, w / n_fix, h)
        mu = np.where(fix, thr, mu)
        n = np.where(fix, n_fix, np.where(big, np.inf, n))
    return mu, h, n


def _on_grid(phi, up):
    """phi moved onto the grid 2^(j/8), up or down.

    A contour placed for a singularity moved away from its region stays
    valid, and points whose singularities land on the same grid values get
    the same (mu, h, N), so they share their nodes.
    """
    e = 8.0 * np.log2(np.maximum(phi, 1e-300))
    return np.exp2((np.ceil(e) if up else np.floor(e)) / 8.0)


def _opc_params(alpha, beta, phi_a, phi_b, has_a, has_b, log_tol):
    """Per point (mu, h, N, region) of the admissible region with the fewest
    nodes: region 0 lies left of every pole, 1 between pole b and pole a
    (phi_b <= phi_a), 2 right of every pole.  The left-most wins a tie."""
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))  # branch point at the origin
    thr = log_tol - _LOG_EPS
    lo_a, hi_a = _on_grid(phi_a, False), _on_grid(phi_a, True)
    lo_b, hi_b = _on_grid(phi_b, False), _on_grid(phi_b, True)
    mu, h, n = _opc_unbounded(np.where(has_a, hi_a, 0.0),
                              np.where(has_a, 1.0, p0), log_tol)
    n = np.where(has_a & (hi_a >= thr), np.inf, n)
    region = np.where(has_a, 2, 0)
    between = has_b & (hi_b < lo_a) & (hi_b < thr)
    first = np.where(has_b, lo_b, np.where(has_a, lo_a, 1.0))
    for r, sel, lo, hi, p in (
            (1, between, np.where(between, hi_b, 0.0),
             np.where(between, lo_a, 1.0), 1.0),
            (0, has_a, 0.0, first, p0)):
        if sel.any():
            mu_r, h_r, n_r = _opc_bounded(lo, hi, p, log_tol)
            take = sel & (n_r <= n)
            mu = np.where(take, mu_r, mu)
            h = np.where(take, h_r, h)
            n = np.where(take, n_r, n)
            region = np.where(take, r, region)
    return mu, h, n, region


def _ml_opc(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) for 0 < alpha <= 2 and Im z >= 0.

    Inverts the Laplace transform s^(alpha-beta) / (s^alpha - z) with the
    trapezoid rule on the parabola s(u) = mu (1 + iu)^2, and adds the
    residue (1/alpha) s*^(1-beta) exp(s*) of each pole s*^alpha = z that
    lies right of the contour.  mu, the step h and the node count N are
    chosen per point by Garrappa's rules.
    """
    theta = np.angle(z)
    r = np.abs(z) ** (1.0 / alpha)
    # the poles s = r exp(i (theta + 2 pi k) / alpha) on the principal
    # sheet, |theta + 2 pi k| <= alpha pi, are k = 0 and, for alpha > 1
    # near the negative axis, k = -1; phi is the parabola through each
    pole_a = r * np.exp(1j * theta / alpha)
    pole_b = r * np.exp(1j * (theta - 2.0 * np.pi) / alpha)
    phi_a = 0.5 * (pole_a.real + r)
    phi_b = 0.5 * (pole_b.real + r)
    has_a = (theta <= alpha * np.pi) & (phi_a > 1e-15)
    has_b = (2.0 * np.pi - theta <= alpha * np.pi) & (phi_b > 1e-15)
    log_tol = np.full(z.shape, _OPC_LOG_TOL)
    mu, h, n, region = _opc_params(alpha, beta, phi_a, phi_b, has_a, has_b,
                                   log_tol)
    for _ in range(10):
        # relax the target tenfold where every region needs too many nodes
        bad = np.flatnonzero(n > _OPC_MAX_NODES)
        if not bad.size:
            break
        log_tol[bad] += math.log(10.0)
        got = _opc_params(alpha, beta, phi_a[bad], phi_b[bad], has_a[bad],
                          has_b[bad], log_tol[bad])
        for arr, new in zip((mu, h, n, region), got):
            arr[bad] = new
    # a point no region admits gets NaN; a dummy one-node contour keeps
    # the arithmetic below finite
    lost = ~np.isfinite(n)
    mu, h = np.where(lost, 1.0, mu), np.where(lost, 1.0, h)
    n = np.where(lost, 0, n).astype(np.int64)
    out = np.empty(z.shape, dtype=complex)
    # points with the same contour share its nodes: every point with no
    # pole, and most points right of a far pole, get identical (mu, h, N)
    order = np.lexsort((n, h, mu))
    ms, hs, ns = mu[order], h[order], n[order]
    cut = np.flatnonzero((ms[1:] != ms[:-1]) | (hs[1:] != hs[:-1])
                         | (ns[1:] != ns[:-1])) + 1
    for grp in (g[i:i + _OPC_BLOCK] for g in np.split(order, cut)
                for i in range(0, g.size, _OPC_BLOCK)):
        m, hg, ng = mu[grp[0]], h[grp[0]], n[grp[0]]
        u = hg * np.arange(-ng, ng + 1)
        s = m * (1.0 + 1j * u) ** 2
        # log s from real parts: log(mu (1 + u^2)) + 2i atan(u); numpy's
        # complex log costs several times more
        ls = math.log(m) + np.log1p(u * u) + 2j * np.arctan(u)
        num = np.exp(s + (alpha - beta) * ls) * (2.0 * m * (1j - u))
        f = np.exp(alpha * ls) - z[grp, None]
        np.divide(num, f, out=f)
        # one row sum per point over its own nodes, so a value does not
        # depend on the batch it arrives in
        out[grp] = hg / (2j * np.pi) * f.sum(axis=1)
    for pole, right in ((pole_a, has_a & (region < 2)),
                        (pole_b, has_b & (region < 1))):
        if right.any():
            sr = pole[right]
            with np.errstate(over="ignore", invalid="ignore"):
                out[right] += (1.0 / alpha) * sr ** (1.0 - beta) * np.exp(sr)
    out[lost] = np.nan
    return out


def _ml_array(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} on a flat array with Im z >= 0, 0 < alpha <= 2."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    out = np.empty(z.shape, dtype=complex)
    done = z == 0
    out[done] = rgamma(beta)
    az = np.abs(z)
    radius = _SERIES_RADIUS if alpha <= 1.0 else _SERIES_RADIUS_HIGH
    for region, batch in ((az <= radius, _ml_series_batch),
                          (az >= _ASYMPTOTIC_RADIUS, _ml_asymptotic_batch)):
        idx = np.flatnonzero(region & ~done)
        if idx.size:
            vals, ok = batch(alpha, beta, z[idx])
            out[idx[ok]] = vals[ok]
            done[idx[ok]] = True
    rest = np.flatnonzero(~done)
    if rest.size:
        out[rest] = _ml_opc(alpha, beta, z[rest])
    return out


def mittag_leffler_array(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of complex arguments.

    Takes 0 < alpha <= 2, the time orders of the equation.  Each point
    takes the Taylor series (small |z|) or the asymptotic expansion
    (|z| >= 15) when that passes its own error estimate, and the optimal
    parabolic contour otherwise.  A value depends on (alpha, beta, z)
    alone, not on the rest of the batch.  Raises MLConvergenceError,
    naming the first such z, where the value is not finite.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha = {alpha} outside (0, 2]")
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.ravel()
    # E(conj z) = conj E(z): evaluate on the upper half plane
    flip = np.signbit(z.imag)
    vals = _ml_array(alpha, beta, np.where(flip, z.conjugate(), z))
    vals = np.where(flip, vals.conjugate(), vals)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise MLConvergenceError(
            f"non-finite Mittag-Leffler value at alpha={alpha}, beta={beta}, "
            f"z={complex(z[np.argmax(bad)])}"
        )
    return vals.reshape(shape)


def mittag_leffler(alpha: float, beta: float, z) -> complex:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) at one point.

    The one-point case of mittag_leffler_array, with the same regions,
    errors and values.
    """
    return complex(mittag_leffler_array(alpha, beta, [complex(z)])[0])


# ---------------------------------------------------------------------------
# Fox H-function, H^{m,n}_{p,q}, by Mellin-Barnes contour quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HFunctionParams:
    """Parameter set of the Mellin-Barnes gamma-ratio integrand.

    upper holds the (a_j, A_j) pairs (length p, first n in the numerator),
    lower the (b_j, B_j) pairs (length q, first m in the numerator).
    """

    m: int
    n: int
    p: int
    q: int
    upper: tuple
    lower: tuple

    def __post_init__(self):
        if not (0 <= self.n <= self.p):
            raise ValueError("need 0 <= n <= p")
        if not (1 <= self.m <= self.q):
            raise ValueError("need 1 <= m <= q")
        if len(self.upper) != self.p or len(self.lower) != self.q:
            raise ValueError("row lengths must match p and q")
        for _, A in self.upper:
            if A <= 0:
                raise ValueError("A_j must be positive")
        for _, B in self.lower:
            if B <= 0:
                raise ValueError("B_j must be positive")

    @classmethod
    def green_kernel(
        cls, alpha: float, beta: float, rho: float, index: float = None
    ) -> "HFunctionParams":
        """H^{2,1}_{3,3} parameter rows of the fractional-diffusion kernels.

        The second upper slot reads (index, alpha/beta), index the second
        Mittag-Leffler index of the kernel's Fourier transform: alpha (the
        default) for the first-kind kernel, alpha - 1 for the second-kind
        kernel of the wave range 1 < alpha <= 2.  Requires 0 < rho < 1.
        """
        if index is None:
            index = alpha
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho={rho:g} outside (0, 1)")
        if beta <= 0:
            raise ValueError("beta must be positive")
        return cls(
            m=2,
            n=1,
            p=3,
            q=3,
            upper=((1.0, 1.0 / beta), (index, alpha / beta), (1.0, rho)),
            lower=((1.0, 1.0), (1.0, 1.0 / beta), (1.0, rho)),
        )

    def left_abscissa(self) -> float:
        return max(-b / B for b, B in self.lower[: self.m])

    def right_abscissa(self) -> float:
        return min((1.0 - a) / A for a, A in self.upper[: self.n]) if self.n else math.inf

    def check_pole_separation(self, max_index: int = 24, tol: float = 1e-9) -> bool:
        """Numerical check of the pole non-coincidence condition."""
        for i in range(self.n):
            a, A = self.upper[i]
            for j in range(self.m):
                b, B = self.lower[j]
                for k in range(max_index):
                    for s in range(max_index):
                        if abs(A * (b + k) - B * (a - s - 1.0)) < tol:
                            return False
        return True

    def theta_log(self, xi: np.ndarray) -> np.ndarray:
        """log of the gamma-ratio integrand at contour points xi."""
        acc = np.zeros_like(xi, dtype=complex)
        for j in range(self.m):
            b, B = self.lower[j]
            acc += loggamma(b + B * xi)
        for j in range(self.n):
            a, A = self.upper[j]
            acc += loggamma(1.0 - a - A * xi)
        for j in range(self.m, self.q):
            b, B = self.lower[j]
            acc -= loggamma(1.0 - b - B * xi)
        for j in range(self.n, self.p):
            a, A = self.upper[j]
            acc -= loggamma(a + A * xi)
        return acc


# Points below _RESIDUE_Z take the residue series over the left poles xi
# with z^(-xi) >= _RESIDUE_TOL.  Its pole list is built for z = _RESIDUE_Z,
# so it holds every pole any smaller z keeps and does not depend on the
# batch.  The contour trapezoid stops when two step levels agree to
# _H_ABS_TOL or _H_REL_TOL.
_RESIDUE_Z = 0.1
_RESIDUE_TOL = 1e-18
_H_ABS_TOL = 1e-12
_H_REL_TOL = 1e-9


def _h_left_poles(params: HFunctionParams):
    """Left poles of the residue series and their z-free coefficients.

    Returns (xi, coef, clash): the residue at xi[i] is coef[i] z^(-xi[i]),
    and clash marks a pole within 1e-8 of another one or on a pole of a
    numerator gamma, where the simple-pole residue does not hold (its
    coef is 0).
    """
    xi, coef, on_pole = [], [], []
    for j in range(params.m):
        b, B = params.lower[j]
        for k in range(200):
            xi0 = -(b + k) / B
            if _RESIDUE_Z ** (-xi0) < _RESIDUE_TOL:
                break
            num = [bb + BB * xi0 for jj, (bb, BB)
                   in enumerate(params.lower[:params.m]) if jj != j]
            num += [1.0 - a - A * xi0 for a, A in params.upper[:params.n]]
            hit = any(g <= 0.0 and g == math.floor(g) for g in num)
            term = (-1.0) ** k / (math.factorial(k) * B)
            if not hit:
                for g in num:
                    term *= math.gamma(g)
            for bb, BB in params.lower[params.m:]:
                term *= rgamma(1.0 - bb - BB * xi0)
            for a, A in params.upper[params.n:]:
                term *= rgamma(a + A * xi0)
            xi.append(xi0)
            coef.append(term)
            on_pole.append(hit)
    xi = np.array(xi)
    near = np.abs(xi[:, None] - xi[None, :]) < 1e-8
    clash = np.array(on_pole) | (near.sum(axis=1) > 1)
    return xi, np.where(clash, 0.0, coef), clash


def _h_contour(params: HFunctionParams, c: float, zs: np.ndarray):
    """Trapezoid values of the contour integral on Re xi = c at each z.

    The gamma ratio on the contour does not depend on z, so each step
    level 0.25 2^-j is evaluated once for all of zs; each z starts at the
    first level that resolves its z^(-xi) oscillation and halves its own
    step until two levels agree.
    """
    # pick the height from the observed decay rate of the gamma ratio
    g50 = params.theta_log(c + 50j).real
    g150 = params.theta_log(c + 150j).real
    rate = max((g50 - g150) / 100.0, 1e-4)
    height = min(max(200.0, 45.0 / rate + 100.0), 5e4)
    levels = {}
    out = np.empty(zs.shape)
    for i, z in enumerate(zs):
        lnz = math.log(z)
        j0 = 0
        while 0.25 * 0.5 ** j0 > 0.5 / max(1.0, abs(lnz)):
            j0 += 1
        prev = None
        for j in range(j0, j0 + 8):
            if j not in levels:
                xi = c + 1j * np.arange(0.0, height, 0.25 * 0.5 ** j)
                levels[j] = xi, params.theta_log(xi)
            xi, theta = levels[j]
            f = np.exp(theta - xi * lnz)
            mag = np.abs(f)
            peak = mag.max()
            if peak == 0.0 or not np.isfinite(peak):
                raise HAccuracyError("degenerate contour integrand")
            keep = np.nonzero(mag > 1e-18 * peak)[0]
            if keep[-1] == len(xi) - 1 and mag[-1] > _H_ABS_TOL:
                raise HAccuracyError(
                    "contour integrand not decayed at the probed height"
                )
            f = f[: keep[-1] + 1]
            val = (0.25 * 0.5 ** j / math.pi) * (f.real.sum() - 0.5 * f.real[0])
            if prev is not None and abs(val - prev) <= max(
                    _H_ABS_TOL, _H_REL_TOL * abs(val)):
                out[i] = val
                break
            prev = val
        else:
            raise HAccuracyError("Mellin-Barnes trapezoid did not converge")
    return out


def h_function(params: HFunctionParams, z):
    """Mellin-Barnes integral of the H-function at z > 0.

    z is a scalar, giving a float, or an array, giving an array of its
    shape; each value depends on z alone.  A z below 0.1 takes the
    residue series over the left poles unless two of the poles it keeps
    clash; every other z is integrated along a vertical line separating
    the two pole families with an adaptive trapezoid rule.
    """
    zs = np.asarray(z, dtype=float)
    if not np.all(zs > 0):
        raise ValueError("z must be positive")
    if not params.check_pole_separation():
        raise ContourPlacementError("pole families coincide (condition 2.14)")
    cl, cr = params.left_abscissa(), params.right_abscissa()
    if not (cl < cr):
        raise ContourPlacementError(
            f"no separating vertical line: left {cl:g} >= right {cr:g}"
        )
    flat = zs.ravel()
    out = np.empty(flat.shape)
    todo = np.ones(flat.shape, dtype=bool)
    small = np.flatnonzero(flat < _RESIDUE_Z)
    if small.size:
        xi, coef, clash = _h_left_poles(params)
        power = flat[small, None] ** -xi
        kept = power >= _RESIDUE_TOL
        # one row sum per z over the same pole list
        out[small] = np.where(kept, coef * power, 0.0).sum(axis=1)
        todo[small] = (kept & clash).any(axis=1)
    rest = np.flatnonzero(todo)
    if rest.size:
        out[rest] = _h_contour(params, 0.5 * (cl + min(cr, cl + 2.0)),
                               flat[rest])
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)
