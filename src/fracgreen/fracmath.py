"""Special-function kernel: reciprocal and complex log-gamma, the
Mittag-Leffler function, and the one Fox function the closed-form Green
kernels need, H^{2,1}_{3,3}, by a trapezoid rule on its Mellin-Barnes
contour.  numpy is the only dependency.

Everything here is pure and stateless, so concurrent use is safe.
"""

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
    """No contour region met its error estimate, or E left the doubles."""


class HAccuracyError(ArithmeticError):
    """Mellin-Barnes quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

# Optimal parabolic contour (Garrappa, SIAM J. Numer. Anal. 53(3), 2015):
# the target accuracy, the log of the unit round-off, the node count above
# which the target is relaxed tenfold, and the most points summed at once.
_OPC_LOG_TOL = math.log(1e-15)
_LOG_EPS = math.log(np.finfo(float).eps)
_OPC_MAX_NODES = 200
_OPC_BLOCK = 4096


def rgamma(x: float) -> float:
    """1/Gamma(x) for real x from math.gamma; exactly zero at the
    non-positive integers and past the double range on the positive axis,
    and a signed infinity where Gamma underflows on the negative axis."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:
        return 0.0
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


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
    pi / sin(pi z), with _log_sin_pi (Hare, J. Algorithms 25(2), 1997).
    The imaginary part is not the principal branch: callers use
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
        out[refl] = math.log(math.pi) - _log_sin_pi(z[refl]) - out[refl]
    return out.reshape(shape)


def _log_sin_pi(u) -> np.ndarray:
    """log sin(pi u) for a complex array, up to a multiple of 2 pi i.

    sin(pi u) has period 2 in Re u; on the upper half plane
    log sin(pi u) = -i pi u + log(i/2) + log(1 - exp(2 i pi u)), which
    does not overflow at large |Im u|, and sin(pi conj u) = conj sin(pi u).
    """
    u = np.asarray(u, dtype=complex)
    ur = u.real - 2.0 * np.round(0.5 * u.real) + 1j * np.abs(u.imag)
    with np.errstate(divide="ignore"):
        out = (-1j * np.pi * ur + complex(-math.log(2.0), 0.5 * math.pi)
               + np.log(1.0 - np.exp(2j * np.pi * ur)))
    return np.where(u.imag >= 0.0, out, out.conjugate())


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


def _opc_unbounded(phi, log_tol):
    """(mu, h, N) for the contour right of a pole.

    Garrappa's rule for the unbounded region beyond the parabola phi > 0
    of a simple pole; the fixed-point search for the pole's distance runs
    on every point at once.  N is inf where exp(mu) would amplify
    round-off past the target.
    """
    sq0 = np.sqrt(phi)
    phib = 1.01 * phi
    sqb = np.sqrt(phib)
    active = np.ones(phi.shape, dtype=bool)
    for _ in range(50):
        lp = log_tol / phib
        n = np.ceil(phib / np.pi * (1.0 - 1.5 * lp + np.sqrt(1.0 - 2.0 * lp)))
        a = np.pi * n / phib
        sq_mu = sqb * np.abs(4.0 - a) / np.abs(7.0 - np.sqrt(1.0 + 12.0 * a))
        fbar = sq_mu / (sqb - sq0)
        active &= ~((1.0 < fbar) & (fbar < 10.0))
        if not active.any():
            break
        sqb = np.where(active, 0.2 * sq_mu + sq0, sqb)
        phib = sqb ** 2
    mu = sq_mu ** 2
    h = (-3.0 * a - 2.0 + 2.0 * np.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    thr = log_tol - _LOG_EPS
    big = mu > thr
    if big.any():
        # pull the contour back to the round-off threshold when the pole
        # allows it
        phib = (0.2 * sq_mu + sq0) ** 2
        fix = big & (phib < thr)
        w = np.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = np.sqrt(-phib / _LOG_EPS)
        # entries outside `fix` may divide by zero; they are dropped
        n_fix = np.ceil(w * log_tol / (2.0 * np.pi) / (u * w - 1.0))
        h = np.where(fix, w / n_fix, h)
        mu = np.where(fix, thr, mu)
        n = np.where(fix, n_fix, np.where(big, np.inf, n))
    return mu, h, n


def _grid_key(phi, has):
    """(e, key) per point: e = 8 log2(phi) where the pole is on the sheet,
    0 elsewhere, and an integer key in [0, 2^17) per (floor e, ceil e, has).

    floor and ceil of e put phi on the grid 2^(j/8), down and up.  A
    contour placed for a singularity moved away from its region stays
    valid, and points whose singularities land on the same grid values get
    the same (mu, h, N), so they share their nodes.  An overflowed phi
    stays past the double range as e = 9000.
    """
    e = 8.0 * np.log2(np.maximum(phi, 1e-300))
    e = np.minimum(np.where(has, e, 0.0), 9000.0)
    lo = np.floor(e)
    key = ((lo + 9000.0) * 2.0 + (np.ceil(e) - lo)) * 2.0 + has
    return e, key.astype(np.int64)


def _opc_origin(beta, log_tol):
    """(mu, h, N) right of the origin, for points with no pole on the sheet.

    The origin sits at u = +-i of the parabola s = mu (1 + iu)^2, so the
    trapezoid rule's error from it is exp(-2 pi / h) times the integrand
    at the scale |s| ~ mu (h / 2 pi)^2 it resolves there.  Near s = 0 the
    transform is -s^(alpha-beta) / z while |s|^alpha << |z|, the case
    Garrappa's strength 2 (beta - alpha - 1) covers, but s^-beta beyond.
    As |z| falls the error grows like 1/|z| until z passes below that
    scale, and its z = 0 limit, exp(-2 pi / h) (2 pi / h)^q with
    q = max(0, 2 (beta - 1)), bounds it on the whole pole-free sector.  So
    h sets that limit to tol, mu is the round-off threshold exp(mu) eps =
    tol, and N h reaches exp(mu (1 - (N h)^2)) = tol; q = 0 is Garrappa's
    rule for a weak origin.
    """
    q = max(0.0, 2.0 * (beta - 1.0))
    x = -log_tol  # 2 pi / h
    for _ in range(6):
        x = q * np.log(x) - log_tol
    w = np.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
    n = np.ceil(w * x / (2.0 * np.pi))
    return log_tol - _LOG_EPS, w / n, n


def _opc_params(alpha, beta, lo_a, hi_a, lo_b, hi_b, has_a, has_b,
                log_tol):
    """Per point (mu, h, N, region) of the admissible region with the fewest
    nodes: region 0 lies left of every pole (or right of the origin where
    no pole is on the sheet), 1 between pole b and pole a (phi_b <= phi_a),
    2 right of every pole.  The left-most wins a tie.  lo and hi are the
    parabola parameters phi of each pole on the grid."""
    p0 = max(0.0, 2.0 * (beta - alpha - 1.0))  # branch point at the origin
    thr = log_tol - _LOG_EPS
    mu, h, n = (np.where(has_a, pole, origin) for pole, origin in zip(
        _opc_unbounded(np.where(has_a, hi_a, 1.0), log_tol),
        _opc_origin(beta, log_tol)))
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
    chosen by Garrappa's rules, once per distinct pole placement on the
    grid of _grid_key.
    """
    theta = np.angle(z)
    r = np.abs(z) ** (1.0 / alpha)
    # the poles s = r exp(i (theta + 2 pi k) / alpha) on the principal
    # sheet, |theta + 2 pi k| <= alpha pi, are k = 0 and, for alpha > 1
    # near the negative axis, k = -1; phi is the parabola through each
    pole_a = r * np.exp(1j * theta / alpha)
    phi_a = 0.5 * (pole_a.real + r)
    has_a = (theta <= alpha * np.pi) & (phi_a > 1e-15)
    e_a, key = _grid_key(phi_a, has_a)
    if alpha > 1.0:
        pole_b = r * np.exp(1j * (theta - 2.0 * np.pi) / alpha)
        phi_b = 0.5 * (pole_b.real + r)
        has_b = (2.0 * np.pi - theta <= alpha * np.pi) & (phi_b > 1e-15)
        e_b, key_b = _grid_key(phi_b, has_b)
        key = key * 2 ** 17 + key_b
    else:
        # 2 pi - theta >= pi >= alpha pi, with equality only where phi_b = 0
        has_b = np.zeros(z.shape, dtype=bool)
        e_b = np.zeros(z.shape)
    # one set of contour parameters per distinct key, scattered back below
    _, rep, inv = np.unique(key, return_index=True, return_inverse=True)
    e_a, e_b, has_a_k, has_b_k = e_a[rep], e_b[rep], has_a[rep], has_b[rep]
    grid = [np.exp2(step(e) / 8.0)
            for e in (e_a, e_b) for step in (np.floor, np.ceil)]
    log_tol = np.full(rep.shape, _OPC_LOG_TOL)
    mu, h, n, region = _opc_params(alpha, beta, *grid, has_a_k, has_b_k,
                                   log_tol)
    for _ in range(10):
        # relax the target tenfold where every region needs too many nodes
        bad = np.flatnonzero(n > _OPC_MAX_NODES)
        if not bad.size:
            break
        log_tol[bad] += math.log(10.0)
        got = _opc_params(alpha, beta, *(g[bad] for g in grid),
                          has_a_k[bad], has_b_k[bad], log_tol[bad])
        for arr, new in zip((mu, h, n, region), got):
            arr[bad] = new
    # a point no region admits gets NaN; a dummy one-node contour keeps
    # the arithmetic below finite
    lost = ~np.isfinite(n)
    mu, h = np.where(lost, 1.0, mu), np.where(lost, 1.0, h)
    n = np.where(lost, 0, n).astype(np.int64)
    out = np.empty(z.shape, dtype=complex)
    # keys with the same contour share its nodes: every point with no
    # pole, and most points right of a far pole, get identical (mu, h, N)
    contour = np.zeros(rep.size, dtype=np.int64)
    if rep.size > 1:
        korder = np.lexsort((n, h, mu))
        contour[korder[1:]] = np.cumsum((np.diff(mu[korder]) != 0)
                                        | (np.diff(h[korder]) != 0)
                                        | (np.diff(n[korder]) != 0))
    if contour.any():
        point_contour = contour[inv]
        order = np.argsort(point_contour, kind="stable")
        groups = np.split(order,
                          np.flatnonzero(np.diff(point_contour[order])) + 1)
    else:
        groups = [np.arange(z.size)]
    for grp in (g[i:i + _OPC_BLOCK] for g in groups
                for i in range(0, g.size, _OPC_BLOCK)):
        k = inv[grp[0]]
        m, hg, ng = mu[k], h[k], n[k]
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
    region = region[inv]
    residues = [(pole_a, has_a & (region < 2))]
    if alpha > 1.0:
        residues.append((pole_b, has_b & (region < 1)))
    for pole, right in residues:
        if right.any():
            sr = pole[right]
            out[right] += (1.0 / alpha) * sr ** (1.0 - beta) * np.exp(sr)
    out[lost[inv]] = np.nan
    return out


def _ml_array(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta} on a flat array with Im z >= 0, 0 < alpha <= 2: exp
    at alpha = beta = 1; 1/Gamma(beta) + z/Gamma(alpha + beta) for
    |z| < 1e-8, where the next term is below 1.2e-16; the optimal
    parabolic contour elsewhere, with the imaginary part its rounding
    leaves on the real axis set to 0."""
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    out = rgamma(beta) + z * rgamma(alpha + beta)
    far = ~(np.abs(z) < 1e-8)
    if far.any():
        out[far] = _ml_opc(alpha, beta, z[far])
    out.imag[z.imag == 0.0] = 0.0
    return out


def mittag_leffler_array(alpha: float, beta: float, z) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of complex arguments.

    Takes 0 < alpha <= 2, the time orders of the equation.  One algorithm
    answers every point, Garrappa's optimal parabolic contour, apart from
    exp at alpha = beta = 1 and the two Taylor terms that are exact below
    |z| = 1e-8 (see _ml_array); a real z gives a real value.  A value
    depends on (alpha, beta, z) alone, not on the rest of the batch, so
    each distinct argument is evaluated once, after the fold
    E(conj z) = conj E(z) onto the upper half plane: duplicates and
    conjugate pairs cost one point.  Raises MLConvergenceError, naming
    the first such z, where the value is not finite.
    """
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha = {alpha} outside (0, 2]")
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.ravel()
    flip = np.signbit(z.imag)
    upper, inv = np.unique(np.where(flip, z.conjugate(), z),
                           return_inverse=True)
    # the finiteness check below is the one report of a failed point; the
    # numpy warnings on the way (inf - inf at an infinite z) add nothing
    with np.errstate(all="ignore"):
        vals = _ml_array(alpha, beta, upper)[inv]
    vals = np.where(flip, vals.conjugate(), vals)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise MLConvergenceError(
            f"non-finite Mittag-Leffler value at alpha={alpha}, beta={beta}, "
            f"z={complex(z[np.argmax(bad)])}"
        )
    return vals.reshape(shape)


def mittag_leffler(alpha: float, beta: float, z) -> complex:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) at one point:
    the one-point case of mittag_leffler_array, same errors and values."""
    return complex(mittag_leffler_array(alpha, beta, [complex(z)])[0])


# ---------------------------------------------------------------------------
# The kernels' H-function, H^{2,1}_{3,3}, by Mellin-Barnes integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HFunctionParams:
    """The H^{2,1}_{3,3} of the fractional-diffusion kernels.

    Its Mellin-Barnes integrand (Mainardi, Luchko & Pagnini, FCAA 4(2),
    2001), the six-gamma ratio
    Gamma(1 + xi) Gamma(1 + xi/beta) Gamma(-xi/beta)
    / (Gamma(-rho xi) Gamma(index + alpha xi/beta) Gamma(1 + rho xi)),
    is by the reflection formula Gamma(1 + xi) sin(pi rho xi)
    / (sin(pi xi/beta) Gamma(index + alpha xi/beta)).
    index is the second Mittag-Leffler index of the kernel's Fourier
    transform: alpha for the first-kind kernel, alpha - 1 for the
    second-kind kernel of the wave range 1 < alpha <= 2.  The poles of
    Gamma(1 + xi) and sin(pi xi/beta) below 0 and those of sin(pi xi/beta)
    at 0 and above lie on either side of the line Re xi = -min(1, beta)/2.
    """

    alpha: float
    beta: float
    rho: float
    index: float

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0 and self.beta > 0.0):
            raise ValueError(f"need 0 <= rho <= 1 and beta > 0, got "
                             f"rho={self.rho:g}, beta={self.beta:g}")

    def theta_log(self, xi) -> np.ndarray:
        """log of the integrand at xi, up to a multiple of 2 pi i."""
        xi = np.asarray(xi, dtype=complex)
        return (loggamma(1.0 + xi)
                - loggamma(self.index + self.alpha / self.beta * xi)
                + _log_sin_pi(self.rho * xi) - _log_sin_pi(xi / self.beta))


# The contour trapezoid stops when two step levels agree to _H_ABS_TOL or
# _H_REL_TOL.
_H_ABS_TOL = 1e-12
_H_REL_TOL = 1e-9

# The most nodes the step levels of one z may hold together, 128 MiB of
# nodes and integrand; the answered cases hold at most 2.7e6
_H_NODES = 2 ** 22


def _h_contour(params: HFunctionParams, zs: np.ndarray):
    """Trapezoid values of the contour integral at each z.

    The integrand on the contour, z^(-xi) aside, does not depend on z, so
    each step level 0.25 2^-j is evaluated once for all of zs; each z
    starts at the first level that resolves its z^(-xi) oscillation and
    halves its own step until two levels agree.  By Stirling, the
    integrand decays as a power of Im xi times exp(-rate Im xi); the
    contour stops 100 past the height where that exponential is e^-45.
    The levels one z uses hold at most _H_NODES nodes together, so those
    kept for all of zs hold at most twice that.
    """
    a, b = params.alpha, params.beta
    c = -0.5 * min(1.0, b)
    theta_eff = b * (1.0 - 2.0 * params.rho)
    rate = math.pi * (2.0 + theta_eff - a) / (2.0 * b)
    if rate <= 45.0 / (5e4 - 100.0):
        raise HAccuracyError(
            f"contour integrand decays at rate {rate:.4g} per unit of "
            f"Im xi, too slowly for a contour height of at most 5e4: "
            f"alpha = {a:g}, beta = {b:g}, theta_eff = {theta_eff:g} lie "
            f"on or next to the edge |theta_eff| = 2 - alpha")
    height = max(200.0, 45.0 / rate + 100.0)
    levels = {}
    out = np.empty(zs.shape)
    for i, z in enumerate(zs):
        lnz = math.log(z)
        j0 = 0
        while 0.25 * 0.5 ** j0 > 0.5 / max(1.0, abs(lnz)):
            j0 += 1
        prev, nodes = None, 0
        for j in range(j0, j0 + 8):
            nodes += math.ceil(height / (0.25 * 0.5 ** j))
            if nodes > _H_NODES:
                raise HAccuracyError(
                    f"Mellin-Barnes trapezoid needs over {_H_NODES} nodes "
                    f"({nodes} by step level {j - j0 + 1}) at z = {z:g}")
            if j not in levels:
                xi = c + 1j * np.arange(0.0, height, 0.25 * 0.5 ** j)
                levels[j] = xi, params.theta_log(xi)
            xi, theta = levels[j]
            f = np.exp(theta - xi * lnz)
            mag = np.abs(f)
            peak = mag.max()
            if peak == 0.0 or not np.isfinite(peak):
                raise HAccuracyError("degenerate contour integrand")
            if mag[-1] > _H_ABS_TOL:
                raise HAccuracyError(
                    f"contour integrand not decayed at height {height:g} "
                    f"for z = {z:g}")
            val = (0.25 * 0.5 ** j / math.pi) * (f.real.sum() - 0.5 * f.real[0])
            if prev is not None and abs(val - prev) <= max(
                    _H_ABS_TOL, _H_REL_TOL * abs(val)):
                out[i] = val
                break
            prev = val
        else:
            raise HAccuracyError(
                f"Mellin-Barnes trapezoid did not converge at z = {z:g}")
    return out


def h_function(params: HFunctionParams, z):
    """Mellin-Barnes integral of the kernels' H-function at z > 0.

    z is a scalar, giving a float, or an array, giving an array of its
    shape; each value depends on z alone.  At rho = 0 the integrand's
    sin(pi rho xi) vanishes, and so does H.  Every z is integrated along
    the line Re xi = -min(1, beta)/2 with an adaptive trapezoid rule, up
    to a height set by the integrand's Stirling decay rate
    pi (2 + theta_eff - alpha) / (2 beta), theta_eff = beta (1 - 2 rho).
    The rate vanishes at theta_eff = alpha - 2, on the edge
    |theta_eff| = 2 - alpha (alpha = beta = 2 among it); there and next
    to it HAccuracyError names the rate.
    """
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs) & (zs > 0)):
        raise ValueError("z must be finite and positive")
    if params.rho == 0.0:
        out = np.zeros(zs.size)
    else:
        out = _h_contour(params, zs.ravel())
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)
