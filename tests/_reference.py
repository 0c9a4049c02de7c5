"""Reference implementations that the tests compare the package against.

They use scipy and mpmath, which are test dependencies only: the
extended-precision Mittag-Leffler Taylor series and large-|z| asymptotic
expansion, the six-gamma Mellin-Barnes integrand of the kernels'
H-function and its residue series, the Riesz-Feller derivative from
its real-space integral representation, the self-coupled kernels at
x = 0 from their k integral, and any kernel at x != 0 from scipy's
Fourier-weighted quadrature of its transform.  The Grunwald-Letnikov
step loop that the oracle replaced by mode blocks is kept here as the
oracle's reference, and the oracle's field extrapolated in dt as a
sharp check on solve.
"""

import functools
import math

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import loggamma

from fracgreen.fracmath import MLConvergenceError
from fracgreen.operators import SymbolParams, gl_weights
from fracgreen.oracle import (OracleConfig, OracleInstabilityError,
                              oracle_solve)
from fracgreen.solver import SourceDescriptor


def ml_mpmath(alpha: float, beta: float, z: complex) -> complex:
    """Extended-precision Taylor series of E_{alpha,beta}(z), the reference
    for the evaluator (small and moderate |z| only)."""
    need = 30 + int(1.2 * abs(z) ** (1.0 / alpha) / math.log(10.0))
    if need > 3000:
        raise MLConvergenceError(
            f"no admissible evaluation region for alpha={alpha}, beta={beta}, z={z}"
        )
    with mp.workdps(need):
        zz = mp.mpc(z)
        aa = mp.mpf(alpha)
        bb = mp.mpf(beta)
        acc = mp.mpc(0)
        term_floor = mp.mpf(10) ** (-need + 5)
        power = mp.mpc(1)
        for n in range(0, 20000):
            term = power / mp.gamma(aa * n + bb)
            acc += term
            power *= zz
            if n > 4 and abs(term) < term_floor * (1 + abs(acc)):
                break
        return complex(acc)


def ml_asymptotic_mpmath(alpha: float, beta: float, z: complex):
    """Large-|z| asymptotic expansion of E_{alpha,beta}(z) in extended
    precision, with its own error estimate; returns (value, error).

    The algebraic series -sum_k z^(-k) / Gamma(beta - alpha k) is cut at
    its smallest term, bounded by the reflection envelope Gamma(1 - y)/pi
    of 1/Gamma(y), which does not dip to zero near the poles, or once that
    bound falls below 1e-20 / |z|.  Each pole
    r = z^(1/alpha) of the Laplace transform on a sheet with
    |arg r| < pi adds (1/alpha) r^(1-beta) exp(r).  Near the Stokes line
    |arg| = alpha pi the weight of such a term moves from 1 to 0, so there
    its size counts as error.
    """
    # digits enough for the phase of exp(r), |r| = |z|^(1/alpha)
    with mp.workdps(30 + int(math.log10(abs(z)) / alpha)):
        zz, a, b = mp.mpc(z), mp.mpf(alpha), mp.mpf(beta)
        acc = mp.mpc(0)
        err = mp.inf
        for k in range(1, 400):
            y = b - a * k
            env = abs(mp.rgamma(y)) if y >= 0.5 else mp.gamma(1 - y) / mp.pi
            size = env * abs(zz) ** -k
            if size > err:
                break
            err = size
            acc -= mp.rgamma(y) * zz ** -k
            if size < 1e-20 / abs(zz):
                break
        for sheet in ((0,) if alpha <= 1.0 else (-1, 0, 1)):
            ph = mp.arg(zz) + 2 * mp.pi * sheet
            if abs(ph) >= 1.25 * a * mp.pi:
                continue
            r = abs(zz) ** (1 / a) * mp.expj(ph / a)
            term = r ** (1 - b) * mp.exp(r) / a
            if abs(ph) < a * mp.pi:
                acc += term
            if abs(ph) >= 0.75 * a * mp.pi:
                err += abs(term)
        return complex(acc), float(err)


def h_residue_series(alpha: float, beta: float, rho: float, index: float,
                     zs) -> np.ndarray:
    """H^{2,1}_{3,3} of the kernels at each z of zs as the residue series
    over the left poles of its Mellin-Barnes integrand, in extended
    precision; converges for alpha < beta.

    The two pole families are those of Gamma(1 + xi), at -(1 + k), with
    residue (-1)^k / k!, and of 1/sin(pi xi/beta), at -(1 + k) beta, with
    residue (-1)^(k+1) beta/pi.  The sum keeps the poles with
    z^(-xi) >= 1e-16 at the largest z, which leaves out less than 1e-16
    times a coefficient.  Raises ValueError where two poles it keeps lie
    within 1e-8 of each other, since the simple-pole residues do not hold
    there.
    """
    if not alpha < beta:
        raise ValueError("the residue series converges for alpha < beta")
    zs = np.asarray(zs, dtype=float)
    x_max = 16.0 * math.log(10.0) / -math.log(float(zs.max()))
    poles = [(0, k) for k in range(int(x_max))] \
        + [(1, k) for k in range(int(x_max / beta))]
    xs = np.array([-(1.0 + k) * (1.0 if f == 0 else beta) for f, k in poles])
    if (np.abs(xs[:, None] - xs[None, :]) < 1e-8).sum() > xs.size:
        raise ValueError(f"left poles clash at beta = {beta}")
    with mp.workdps(30):
        a, b, r, ix = (mp.mpf(v) for v in (alpha, beta, rho, index))
        terms = []
        for family, k in poles:
            x = -(1 + k) * (1 if family == 0 else b)
            rest = mp.sin(mp.pi * r * x) * mp.rgamma(ix + a / b * x)
            if family == 0:
                coef = (-1) ** k / mp.factorial(k) * rest / mp.sin(mp.pi * x / b)
            else:
                coef = (-1) ** (k + 1) * b / mp.pi * mp.gamma(1 + x) * rest
            terms.append((x, coef))
        return np.array([float(mp.fsum(c * mp.mpf(float(z)) ** -x
                                       for x, c in terms)) for z in zs])


def h_integrand_log(alpha: float, beta: float, rho: float, index: float,
                    xi) -> np.ndarray:
    """log of the H^{2,1}_{3,3} Mellin-Barnes integrand of the kernels as
    the six-gamma ratio
    Gamma(1 + xi) Gamma(1 + xi/beta) Gamma(-xi/beta)
    / (Gamma(-rho xi) Gamma(index + alpha xi/beta) Gamma(1 + rho xi)),
    on scipy's log-gamma."""
    xi = np.asarray(xi, dtype=complex)
    u = xi / beta
    return (loggamma(1.0 + xi) + loggamma(1.0 + u) + loggamma(-u)
            - loggamma(-rho * xi) - loggamma(index + alpha * u)
            - loggamma(1.0 + rho * xi))


def log_panels(h: float, span: float, per_efold: int = 4, nodes: int = 8):
    """Gauss nodes/weights on log-spaced panels covering [h, span]."""
    n_pan = max(1, int(math.ceil(per_efold * math.log(span / h))))
    edges = np.exp(np.linspace(math.log(h), math.log(span), n_pan + 1))
    gx, gw = leggauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    return pts, wts


def riesz_feller_apply(samples, dx: float, p: SymbolParams):
    """Riesz-Feller derivative of grid samples via the one-sided integrals.

    Evaluates Gamma(1+a)/pi * [c+ I+ + c- I-] with c(+/-) = sin((a+/-skew)pi/2)
    and I(+/-) the integrals of (f(x +/- z) - f(x)) / z^(1+a).  The samples
    are spline-interpolated and extended by zero outside the window, so f
    should decay to ~0 at the ends.  For 1 < order < 2 the first-order
    Taylor term is subtracted under the integral (analytic continuation);
    its finite part over (0, inf) vanishes, which the split below respects.
    """
    a = p.order
    if a >= 2.0:
        raise ValueError("integral representation is invalid at order = 2; "
                         "use the symbol path")
    f = np.asarray(samples, dtype=float)
    n = f.size
    if n < 8:
        raise ValueError("need at least 8 samples")
    x = dx * np.arange(n)
    spline = CubicSpline(x, f, extrapolate=False)
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)

    cp = math.sin((a + p.skew) * math.pi / 2.0)
    cm = math.sin((a - p.skew) * math.pi / 2.0)
    span = x[-1] - x[0]
    h = 1e-3 * dx
    pts, wts = log_panels(h, span)

    fx = f
    f1 = d1(x)
    subtract = a > 1.0

    # f(x +/- z) on the grid for every quadrature node, zero outside
    xp = x[:, None] + pts[None, :]
    xm = x[:, None] - pts[None, :]
    fp = np.nan_to_num(spline(xp), nan=0.0)
    fm = np.nan_to_num(spline(xm), nan=0.0)
    dp = fp - fx[:, None]
    dm = fm - fx[:, None]
    if subtract:
        dp = dp - pts[None, :] * f1[:, None]
        dm = dm + pts[None, :] * f1[:, None]
    integrand = cp * dp + cm * dm
    body = integrand @ (wts * pts ** (-1.0 - a))

    # analytic head on (0, h): Taylor in z
    f2 = d2(x)
    if subtract:
        head = (cp + cm) * f2 * h ** (2.0 - a) / (2.0 * (2.0 - a))
    else:
        head = (cp - cm) * f1 * h ** (1.0 - a) / (1.0 - a) \
            + (cp + cm) * f2 * h ** (2.0 - a) / (2.0 * (2.0 - a))

    # analytic tail beyond the window, where f(x +/- z) = 0
    tail = -(cp + cm) * fx * span ** (-a) / a
    if subtract:
        tail = tail - (cp - cm) * f1 * span ** (1.0 - a) / (a - 1.0)

    return math.gamma(1.0 + a) / math.pi * (body + head + tail)


def self_coupled_at_zero(kind, spec, t: float) -> float:
    """G3 or G4 at x = 0 by its k integral, apart from green_points:
    green_hat on 32-node Gauss panels 5 % wide from k = 1e-10 to 1e7 (and
    one on [0, 1e-10]), and past 1e7 the large-|w| series
    -t^tpow sum_{n=2}^{5} (-w)^(-n) / Gamma(index - alpha n) of the exact
    w = rate(k) t^alpha, out to 1e40 (what is left past 1e40 is of order
    1e40^(1 - 2 top), top the larger order)."""
    from fracgreen.green import GreenKind, green_hat
    from scipy.special import rgamma

    nodes, weights = leggauss(32)

    def panels(edges):
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        return ((mid[:, None] + half[:, None] * nodes).ravel(),
                (half[:, None] * weights).ravel())

    a = spec.alpha
    index, tpow = ((a, a - 1.0) if GreenKind(kind) == GreenKind.G3
                   else (a - 1.0, a - 2.0))
    k, w = panels(np.concatenate([[0.0], np.geomspace(1e-10, 1e7, 800)]))
    total = w @ green_hat(kind, np.concatenate([k, -k]), t,
                          spec).reshape(2, -1).sum(axis=0)
    k, w = panels(np.geomspace(1e7, 1e40, 3000))
    for side in (k, -k):
        z = spec.rate(side, True) * t ** a
        total += w @ -sum((-1.0 / z) ** n * t ** tpow * rgamma(index - a * n)
                          for n in range(2, 6))
    return (total / (2.0 * math.pi)).real


def fourier_inverse_qawf(kind, spec, t: float, x: float) -> complex:
    """The kernel at x != 0 as (1/2pi) Int_0^inf [exp(-ikx) G_hat(k)
    + exp(ikx) G_hat(-k)] dk, apart from green_points: QUADPACK's QAWF
    (scipy's quad with a cos or sin weight on [0, inf)) on green_hat, at
    its default tolerance.  QAWF integrates cycle by cycle and sums the
    cycles with the epsilon algorithm, so it also answers where G_hat
    grows algebraically."""
    from fracgreen.green import green_hat

    @functools.lru_cache(maxsize=None)
    def pair(k):
        up, dn = green_hat(kind, np.array([k, -k]), t, spec)
        return up + dn, up - dn

    w, sgn = abs(x), math.copysign(1.0, x)

    def part(weight, which, attr):
        return quad(lambda k: getattr(pair(k)[which], attr), 0.0, np.inf,
                    weight=weight, wvar=w, limlst=200)[0]

    # e^(-ikx) G_hat(k) + e^(ikx) G_hat(-k)
    #     = cos(kx) (G_hat(k) + G_hat(-k)) - i sin(kx) (G_hat(k) - G_hat(-k))
    re = part("cos", 0, "real") + sgn * part("sin", 1, "imag")
    im = part("cos", 0, "imag") - sgn * part("sin", 1, "real")
    return complex(re, im) / (2.0 * math.pi)


def gl_mode_evolve_loop(alpha: float, coeffs, init, cfg):
    """oracle_mode_evolve as one loop over steps for all modes at once,
    each step's memory sum a tensordot over the reversed history."""
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


def oracle_richardson(spec, f, grid, g=SourceDescriptor.zero(),
                      U=SourceDescriptor.zero()):
    """oracle_solve's field on grid for the data f, g and U from
    dt = T/256, T/512 and T/1024, T the last output time, with two
    Richardson levels.  The Grunwald-Letnikov error has an expansion in
    whole powers of dt (Lubich, SIAM J. Math. Anal. 17(3), 1986): the
    first level removes its dt term, the second its dt^2 term."""
    u = [oracle_solve(spec, f, grid, OracleConfig(grid.times[-1] / n, n),
                      g=g, U=U).values for n in (256, 512, 1024)]
    once = [2.0 * fine - coarse for coarse, fine in zip(u, u[1:])]
    return (4.0 * once[1] - once[0]) / 3.0
