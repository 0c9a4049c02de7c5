"""Green functions of the space-time fractional diffusion family.

Three evaluation routes: Fourier-space values (green_hat), real-space
oscillatory quadrature (green_points, with green_point its one-point
form), and the closed H-function form (green_point_closed) where it
exists.  All share one convention:
f_hat(k) = Int exp(+ikx) f(x) dx, inversion with exp(-ikx), and the
space operator acts as multiplication by -Psi.
"""

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fracmath import HFunctionParams, h_function, mittag_leffler_array, rgamma
from .operators import (SymbolParams, order_skew_problems,
                        riesz_feller_symbol)


class FourierOnlyError(Exception):
    """Real-space evaluation refused; the kernel only exists in Fourier space."""


class ToleranceNotMetError(Exception):
    pass


class RegimeError(Exception):
    """Kernel requested outside its range of the time order alpha."""


class GreenKind(Enum):
    G = "G"
    G1 = "G1"
    G2 = "G2"
    G3 = "G3"
    G4 = "G4"


class SpecValidationError(ValueError):
    """A ProblemSpec outside the admissible domain; problems lists every
    violated constraint."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ProblemSpec:
    """All parameters of the fractional evolution equation.

    alpha is the time order, beta/theta the space order and skewness,
    gamma/phi the same for the source-side operator, lam and mu the two
    coefficients.  source_mode chooses whether the source enters through
    the gamma-operator or bare; source_coupling "self" switches to the
    two-operator equation (kernels G3/G4).  Construction raises
    SpecValidationError listing every constraint the parameters break.
    """

    alpha: float
    beta: float
    gamma: float = 1.0
    theta: float = 0.0
    phi: float = 0.0
    lam: complex = 1.0 + 0.0j
    mu: complex = 0.0 + 0.0j
    source_mode: str = "riesz_feller"
    source_coupling: str = "external"

    def __post_init__(self):
        problems = []
        if not 0.0 < self.alpha <= 2.0:
            problems.append(f"alpha = {self.alpha} outside (0, 2]")
        problems += order_skew_problems(self.beta, self.theta, "beta", "theta")
        problems += order_skew_problems(self.gamma, self.phi, "gamma", "phi")
        if self.source_mode not in ("riesz_feller", "identity"):
            problems.append(f"unknown source_mode {self.source_mode!r}")
        if self.source_coupling not in ("external", "self"):
            problems.append(
                f"unknown source_coupling {self.source_coupling!r}")
        if problems:
            raise SpecValidationError(problems)

    def space_symbol(self) -> SymbolParams:
        return SymbolParams(self.beta, self.theta)

    def source_symbol(self) -> SymbolParams:
        return SymbolParams(self.gamma, self.phi)

    def rate(self, k, self_coupled: bool = False):
        """lam Psi_beta(k), plus mu Psi_gamma(k) when self-coupled: mode k
        relaxes as E_alpha(-rate t^alpha)."""
        r = self.lam * riesz_feller_symbol(self.space_symbol(), k)
        if self_coupled:
            r = r + self.mu * riesz_feller_symbol(self.source_symbol(), k)
        return r


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute error target of green_points."""

    abs_tol: float = 1e-9


# green_points integrates panels out to at most _K_MAX, and accepts an
# accelerated sum whose two last estimates agree to abs_tol or _REL_TOL
_K_MAX = 5000.0
_REL_TOL = 1e-8


@dataclass(frozen=True)
class _Kernel:
    """G_hat(k, t) = t^tpow E_{alpha,ml_index}(-rate(k) t^alpha), times
    Psi_gamma(k) when mult_order > 0; the rate is self-coupled for G3/G4."""

    ml_index: float
    tpow: float
    mult_order: float
    self_coupled: bool


def _kernel(kind: GreenKind, spec: ProblemSpec) -> _Kernel:
    """The kernel table; G2/G4 exist only for 1 < alpha <= 2."""
    kind = GreenKind(kind)
    a = spec.alpha
    if kind in (GreenKind.G2, GreenKind.G4):
        if a <= 1.0:
            raise RegimeError(f"{kind.value} requires 1 < alpha <= 2, got {a}")
        return _Kernel(a - 1.0, a - 2.0, 0.0, kind == GreenKind.G4)
    if kind == GreenKind.G1:
        mult = spec.gamma if spec.source_mode == "riesz_feller" else 0.0
        return _Kernel(a, 0.0, mult, False)
    return _Kernel(a, a - 1.0, 0.0, kind == GreenKind.G3)


def green_hat(kind: GreenKind, k, t: float, spec: ProblemSpec):
    """Fourier transform of the requested kernel at wavenumber(s) k, time t."""
    kern = _kernel(kind, spec)
    a = spec.alpha
    arr = np.asarray(k, dtype=float)
    scalar = arr.ndim == 0
    k1d = np.atleast_1d(arr)
    arg = -spec.rate(k1d, kern.self_coupled) * t ** a
    out = t ** kern.tpow * mittag_leffler_array(a, kern.ml_index, arg)
    if kern.mult_order:
        out = out * riesz_feller_symbol(spec.source_symbol(), k1d)
    return complex(out[0]) if scalar else out


def _growing_phase(spec: ProblemSpec, self_coupled: bool):
    """The argument phase on a half line where G_hat grows with |k|, else
    None.

    On each half line the Mittag-Leffler argument -rate(k) t^alpha has,
    for large |k|, the phase pi + arg(lam) +- theta pi/2 (the argument of
    the leading coefficient of a self-coupled rate in place of lam).
    Reduced to (-pi, pi] and strictly inside alpha pi/2, its exponential
    term grows without bound.
    """
    terms = [(spec.lam, spec.theta, spec.beta)]
    if self_coupled and abs(spec.mu) > 0:
        terms.append((spec.mu, spec.phi, spec.gamma))
    top = max(order for _, _, order in terms)
    for sgn in (1.0, -1.0):
        lead = sum(c * cmath.exp(1j * sgn * skew * math.pi / 2.0)
                   for c, skew, order in terms if order == top)
        ph = math.remainder(math.pi + cmath.phase(lead), 2.0 * math.pi)
        if abs(ph) < spec.alpha * math.pi / 2.0:
            return ph
    return None


def _check_dissipative(spec: ProblemSpec, kinds_self: bool):
    """Raise FourierOnlyError where the real-space kernel does not exist:
    Re(coeff * symbol) not strictly positive off k = 0, or G_hat growing
    with |k|."""
    pairs = [(spec.lam, spec.theta)]
    if kinds_self and abs(spec.mu) > 0:
        pairs.append((spec.mu, spec.phi))
    for coeff, skew in pairs:
        for s in (1.0, -1.0):
            re = (coeff * cmath.exp(1j * s * skew * math.pi / 2.0)).real
            if re <= 0.0:
                raise FourierOnlyError(
                    "Re(coefficient * symbol) is not positive; the real-space "
                    "kernel does not decay (Fourier-space evaluation only)"
                )
    ph = _growing_phase(spec, kinds_self)
    if ph is not None:
        raise FourierOnlyError(
            f"Mittag-Leffler argument phase {ph / math.pi:.6g} pi lies "
            f"inside alpha pi/2 = {spec.alpha / 2.0:.6g} pi, so G_hat grows "
            f"with |k| and the real-space kernel does not exist "
            f"(Fourier-space evaluation only)"
        )


def _wynn(s):
    """Wynn epsilon acceleration of a partial-sum sequence.

    Returns the deepest finite even-column entry; odd columns are the
    auxiliary reciprocal rows and are never reported.
    """
    prev = np.zeros(len(s) + 1, dtype=complex)
    cur = np.asarray(s, dtype=complex)
    best = cur[-1]
    for col in range(1, len(s)):
        diff = np.diff(cur)
        if np.any(diff == 0):
            break
        nxt = prev[1:len(cur)] + 1.0 / diff
        prev, cur = cur, nxt
        if len(cur) == 0 or not np.all(np.isfinite(cur)):
            break
        if col % 2 == 0:
            best = cur[-1]
    return best


# Gauss-Legendre nodes and weights of every k panel; green_points sizes
# its panels for 16 nodes
_GAUSS_X, _GAUSS_W = leggauss(16)


def green_point(kind: GreenKind, x: float, t: float, spec: ProblemSpec,
                cfg: QuadratureConfig = None):
    """Real-space kernel value at one point: green_points on [x]."""
    return complex(green_points(kind, [x], t, spec, cfg)[0])


def _kernel_tail_data(kern: _Kernel, spec: ProblemSpec, t: float,
                      abs_tol: float):
    """Where the second asymptotic ML term starts dominating green_hat.

    Returns (K, info) such that for k >= K the substitute
    F(k) ~ -pref * rgamma(bt - 2 alpha) * (coeff(k) t^alpha)^(-2) * mult(k)
    carries integrated error below abs_tol, or None when no such K exists
    (alpha = 2, or the self-coupled kernels, which fall back to
    acceleration).  The exponential ML term sets the scale near alpha = 2.
    """
    if kern.self_coupled:
        return None
    a = spec.alpha
    bt = kern.ml_index
    tpow = t ** kern.tpow
    pref = abs(tpow)
    p_mul = kern.mult_order
    beta = spec.beta
    if 3.0 * beta - p_mul <= 1.0:
        return None
    c = abs(spec.lam) * t ** a
    lam_arg = cmath.phase(complex(spec.lam))
    # phase of the ML argument on each half line; pi from the minus sign
    ph_up = math.remainder(math.pi + lam_arg + spec.theta * math.pi / 2.0,
                           2.0 * math.pi)
    ph_dn = math.remainder(math.pi + lam_arg - spec.theta * math.pi / 2.0,
                           2.0 * math.pi)
    # exponential ML terms exist only for argument phases inside the
    # sector |phase| <= 0.75 alpha pi, scanning neighbouring sheets
    cosmax = None
    for ph in (ph_up, ph_dn):
        for sheet in (-1, 0, 1):
            phs = ph + 2.0 * math.pi * sheet
            if abs(phs) <= 0.75 * a * math.pi:
                cv = math.cos(phs / a)
                cosmax = cv if cosmax is None else max(cosmax, cv)
    rg3a = abs(rgamma(bt - 3.0 * a)) + 0.5

    def exp_term(k):
        if cosmax is None:
            return 0.0
        if cosmax >= -1e-12:
            return math.inf
        w = c * k ** beta
        try:
            return k ** p_mul / a * w ** ((1.0 - bt) / a) \
                * math.exp(cosmax * w ** (1.0 / a))
        except OverflowError:
            return 0.0

    K = max((10.0 / c) ** (1.0 / beta), 1.0)
    for _ in range(60):
        err_alg = pref * rg3a / c ** 3 \
            * K ** (p_mul + 1.0 - 3.0 * beta) / (3.0 * beta - p_mul - 1.0) \
            / math.pi
        g0, g1 = exp_term(K), exp_term(1.05 * K)
        if math.isinf(g0):
            err_exp = math.inf if cosmax >= -1e-12 else 0.0
        elif g0 <= 0 or g1 <= 0:
            err_exp = 0.0
        else:
            rate = max(math.log(g0 / g1) / math.log(1.05), 1.5)
            err_exp = pref * g0 * K / (rate - 1.0) / math.pi
        if err_alg + err_exp < 0.5 * abs_tol:
            break
        if math.isinf(err_exp) and cosmax is not None and cosmax >= -1e-12:
            return None
        K *= 1.6
    else:
        return None
    rg2 = rgamma(bt - 2.0 * a)
    c_up = complex(spec.lam) * cmath.exp(1j * spec.theta * math.pi / 2.0) * t ** a
    c_dn = complex(spec.lam) * cmath.exp(-1j * spec.theta * math.pi / 2.0) * t ** a
    m_up = cmath.exp(1j * spec.phi * math.pi / 2.0) if p_mul else 1.0
    m_dn = cmath.exp(-1j * spec.phi * math.pi / 2.0) if p_mul else 1.0
    amp_up = -tpow * complex(rg2) / c_up ** 2 * m_up
    amp_dn = -tpow * complex(rg2) / c_dn ** 2 * m_dn
    s = 2.0 * beta - p_mul
    return K, (amp_up, amp_dn, s)


def _expint_cf(s: float, z: complex) -> complex:
    """Generalized exponential integral E_s(z) by modified Lentz CF."""
    tiny = 1e-300
    f = tiny
    C = f
    D = 0.0
    b = z
    a = 1.0
    for i in range(1, 500):
        D = b + a * D
        if D == 0.0:
            D = tiny
        C = b + a / C
        if C == 0.0:
            C = tiny
        D = 1.0 / D
        delta = C * D
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            return cmath.exp(-z) * f
        # continued-fraction pattern: z + s/(1 + 1/(z + (s+1)/(1 + 2/(...))))
        if i % 2 == 1:
            a = s + (i - 1) / 2.0
            b = 1.0
        else:
            a = i / 2.0
            b = z
    raise ToleranceNotMetError("exponential-integral CF did not converge")


# Euler's constant and zeta(3), for the polygamma values at integers
_EULER = 0.5772156649015329
_ZETA3 = 1.2020569031595942


def _expint_series(s: float, z: complex) -> complex:
    """E_s(z) for small |z| by the ascending series.

    E_s(z) = Gamma(1 - s) z^(s-1) - sum_m (-z)^m / ((m - s + 1) m!).  Within
    1e-3 of an integer n >= 1 the Gamma term and the m = n - 1 term have
    poles that cancel, so the two are summed as one,
    -(-z)^(n-1) / (n-1)! * expm1(e d) / e with e = s - n and d the
    expansion of log z - psi(n + e) + log(pi e / sin(pi e)) / e to O(e^3),
    the psi^(j)(n) written through H_j = sum_{k<n} k^-j.  At e = 0 this is
    Abramowitz & Stegun 5.1.12.
    """
    n = round(s)
    e = s - n
    skip = n - 1 if n >= 1 and abs(e) <= 1e-3 else -1
    if skip < 0:
        acc = math.gamma(1.0 - s) * z ** (s - 1.0)
    else:
        h1, h2, h3, h4 = (sum(k ** -j for k in range(1, n))
                          for j in (1, 2, 3, 4))
        d = (cmath.log(z) + _EULER - h1
             + e * (math.pi ** 2 / 12.0 + h2 / 2.0)
             + e * e * (_ZETA3 - h3) / 3.0
             + e ** 3 * (math.pi ** 4 / 360.0 + h4 / 4.0))
        if e == 0.0:
            ratio = d
        else:
            a, b = (e * d).real, (e * d).imag
            ratio = complex(math.expm1(a) * math.cos(b)
                            - 2.0 * math.sin(0.5 * b) ** 2,
                            math.exp(a) * math.sin(b)) / e
        acc = -(-z) ** skip / math.factorial(skip) * ratio
    term = 1.0 + 0.0j
    for m in range(200):
        if m != skip:
            acc -= term / (m - s + 1.0)
        term *= -z / (m + 1.0)
        if m >= skip and abs(term) < 1e-17 * (1.0 + abs(acc)):
            return acc
    raise ToleranceNotMetError("exponential-integral series did not converge")


def _oscillatory_tail(x: float, K: float, s: float) -> complex:
    """Int_K^inf exp(-ikx) k^(-s) dk = K^(1-s) E_s(i K x).

    E_s takes the continued fraction for |K x| >= 3 and the ascending
    series below.
    """
    if x == 0.0:
        return K ** (1.0 - s) / (s - 1.0)
    z = 1j * K * x
    try:
        e = _expint_cf(s, z) if abs(z) >= 3.0 else _expint_series(s, z)
    except ToleranceNotMetError as exc:
        raise ToleranceNotMetError(
            f"{exc} for the tail at x = {x}, K = {K}, s = {s}") from None
    return K ** (1.0 - s) * e


def green_points(kind: GreenKind, xs, t: float, spec: ProblemSpec,
                 cfg: QuadratureConfig = None) -> np.ndarray:
    """Kernel values on a whole x-grid sharing one Fourier-side evaluation.

    The integrand F(k) does not depend on x, so the panel nodes are
    evaluated once and reused for every point.  Panels run out to where
    the asymptotic form of the integrand is trustworthy; the remainder is
    added analytically per point.  Parameter corners with no usable
    asymptote fall back to epsilon acceleration of the panel sums.
    """
    kern = _kernel(kind, spec)
    cfg = cfg or QuadratureConfig()
    if t <= 0:
        raise ValueError("t must be positive")
    xs = np.asarray(xs, dtype=float)
    _check_dissipative(spec, kern.self_coupled)

    coeff_scale = abs(spec.lam)
    if kern.self_coupled:
        coeff_scale += abs(spec.mu)
    k1 = (coeff_scale * t ** spec.alpha) ** (-1.0 / spec.beta)
    xmax = float(np.max(np.abs(xs))) if xs.size else 0.0
    halfper = math.pi / xmax if xmax > 0 else math.inf

    tail = _kernel_tail_data(kern, spec, t, cfg.abs_tol)
    if tail is not None and xmax > 0:
        # 16-node Gauss panels resolve ~3 oscillation cycles, so the
        # half-period cap is only needed when acceleration may be used
        halfper = 20.0 / xmax
    if tail is not None:
        K_stop, (amp_up, amp_dn, s) = tail
        if s <= 1.0 and np.any(xs == 0.0):
            raise ToleranceNotMetError(
                f"kernel diverges at x = 0: Fourier decay exponent {s} <= 1"
            )
        K_stop = min(K_stop, _K_MAX)
    else:
        K_stop = _K_MAX

    edges = [0.0]
    max_panels = 60000
    while edges[-1] < K_stop and len(edges) <= max_panels:
        e = edges[-1]
        width = min(halfper, max(0.5 * e, k1 / 8.0), K_stop - e)
        edges.append(e + width)
    edges = np.asarray(edges)

    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    knodes = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    kflat = knodes.ravel()
    fup = green_hat(kind, kflat, t, spec).reshape(knodes.shape)
    fdn = green_hat(kind, -kflat, t, spec).reshape(knodes.shape)

    n_pan = len(mid)
    S = np.empty((n_pan, xs.size), dtype=complex)
    w2 = half[:, None] * _GAUSS_W[None, :]
    xr = xs.ravel()
    for lo in range(0, n_pan, 512):
        hi = min(lo + 512, n_pan)
        phase = np.exp(-1j * knodes[lo:hi, :, None] * xr[None, None, :])
        S[lo:hi] = (w2[lo:hi, :, None]
                    * (phase * fup[lo:hi, :, None]
                       + np.conj(phase) * fdn[lo:hi, :, None])).sum(axis=1)
    C = np.cumsum(S, axis=0)

    out = np.empty(xs.size, dtype=complex)
    K_reached = float(edges[-1])
    if tail is not None and K_reached >= K_stop - 1e-12:
        for i, xi in enumerate(xr):
            # down-side tail carries exp(+ikx), i.e. the -x evaluation
            tl = amp_up * _oscillatory_tail(float(xi), K_reached, s) \
                + amp_dn * _oscillatory_tail(-float(xi), K_reached, s)
            out[i] = (C[-1, i] + tl) / (2.0 * math.pi)
        return out.reshape(xs.shape)

    # fallback: per-point epsilon acceleration on half-period partial sums
    uniform_w = float(half[-1] * 2.0)
    for i, xi in enumerate(xr):
        per = math.pi / abs(xi) if xi != 0.0 else uniform_w
        m = max(1, int(round(per / uniform_w)))
        idx = np.arange(m - 1, n_pan, m)
        seq = C[idx, i]
        if len(seq) < 18:
            raise ToleranceNotMetError(
                f"not enough oscillation panels to accelerate at x = {xi}"
            )
        acc1 = _wynn(seq[-17:-1])
        acc2 = _wynn(seq[-16:])
        if abs(acc2 - acc1) > max(cfg.abs_tol,
                                  _REL_TOL * abs(acc2)) * 2.0 * math.pi:
            raise ToleranceNotMetError(
                f"acceleration stalled at x = {xi}: "
                f"residual {abs(acc2 - acc1) / (2.0 * math.pi):.2e}"
            )
        out[i] = acc2 / (2.0 * math.pi)
    return out.reshape(xs.shape)


def green_point_closed(kind: GreenKind, x, t: float, spec: ProblemSpec):
    """Closed-form kernel value through the Mellin-Barnes representation.

    Defined for G and (for 1 < alpha <= 2) G2, real positive lam, x != 0,
    and refused with FourierOnlyError where G_hat grows with |k|.
    x is a scalar, giving a float, or an array, giving an array of its
    shape; each value depends on x alone.  The x < 0 values are the
    mirror kernel with the skew negated.
    """
    kind = GreenKind(kind)
    if kind not in (GreenKind.G, GreenKind.G2):
        raise ValueError("closed form available for G and G2 only")
    xs = np.asarray(x, dtype=float)
    if np.any(xs == 0.0):
        raise ValueError("closed form has a 1/|x| prefactor; x must be nonzero")
    if abs(complex(spec.lam).imag) > 0 or complex(spec.lam).real <= 0:
        raise ValueError("closed form requires real positive lam")
    _check_dissipative(spec, False)
    kern = _kernel(kind, spec)
    a, b = spec.alpha, spec.beta
    lam = complex(spec.lam).real
    ax = np.abs(xs)
    h = np.empty(xs.shape)
    pos = xs > 0
    for side, theta_eff in ((pos, spec.theta), (~pos, -spec.theta)):
        if side.any():
            rho = (b - theta_eff) / (2.0 * b)
            params = HFunctionParams.green_kernel(a, b, rho, kern.ml_index)
            h[side] = h_function(params, ax[side] / (lam * t ** a) ** (1.0 / b))
    out = t ** kern.tpow / (b * ax) * h
    return float(out) if xs.ndim == 0 else out


def green_mass(kind: GreenKind, t: float, spec: ProblemSpec):
    """Total x-integral of the kernel, i.e. its k = 0 Fourier value."""
    kind = GreenKind(kind)
    if kind not in (GreenKind.G, GreenKind.G2):
        raise ValueError("mass defined for G and G2")
    kern = _kernel(kind, spec)
    return t ** kern.tpow * rgamma(kern.ml_index)
