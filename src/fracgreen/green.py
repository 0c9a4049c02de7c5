"""Green functions of the space-time fractional diffusion family.

Three evaluation routes: Fourier-space values (green_hat), real-space
oscillatory quadrature on an x array (green_points), and the closed
H-function form (green_point_closed) where it exists.  All share one
convention:
f_hat(k) = Int exp(+ikx) f(x) dx, inversion with exp(-ikx), and the
space operator acts as multiplication by -Psi.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial.legendre import leggauss

from .fracmath import (HAccuracyError, HFunctionParams, h_function,
                       mittag_leffler_array, rgamma)
from .operators import (SymbolParams, order_skew_problems,
                        riesz_feller_symbol)


class FourierOnlyError(Exception):
    """Real-space evaluation refused; the kernel only exists in Fourier space."""


class ToleranceNotMetError(Exception):
    """A value cannot be given to its tolerance: no algebraic tail of
    green_points closes below _K_MAX (the asymptotic series stops
    improving, or starts past _K_MAX, or the exponential Mittag-Leffler
    term does not decay, at alpha = 2, or its bound passes abs_tol / 2 at
    every K), its panels pass the edge budget, the kernel diverges at
    x = 0, or a tail's E_s does not converge."""


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
        for name, coeff in (("lam", self.lam), ("mu", self.mu)):
            if not cmath.isfinite(coeff):
                problems.append(f"{name} = {coeff} is not finite")
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


# green_points integrates Gauss panels out to the K of its algebraic
# tail, and no K passes _K_MAX
_K_MAX = 5000.0


@dataclass(frozen=True)
class _Kernel:
    """G_hat(k, t) = t^tpow E_{alpha,ml_index}(-rate(k) t^alpha), times
    Psi_gamma(k) when mult_order > 0; the rate is self-coupled for G3/G4."""

    ml_index: float
    tpow: float
    mult_order: float
    self_coupled: bool


# _kernel's key for solve's source kernel, the time integral of G
_SOURCE = object()


def _kernel(kind, spec: ProblemSpec) -> _Kernel:
    """The kernel table, GreenKinds and _SOURCE; G2/G4 need 1 < alpha <= 2."""
    a = spec.alpha
    if kind is _SOURCE:
        return _Kernel(a + 1.0, a, 0.0, False)
    kind = GreenKind(kind)
    if kind in (GreenKind.G2, GreenKind.G4):
        if a <= 1.0:
            raise RegimeError(f"{kind.value} requires 1 < alpha <= 2, got {a}")
        return _Kernel(a - 1.0, a - 2.0, 0.0, kind == GreenKind.G4)
    if kind == GreenKind.G1:
        mult = spec.gamma if spec.source_mode == "riesz_feller" else 0.0
        return _Kernel(a, 0.0, mult, False)
    return _Kernel(a, a - 1.0, 0.0, kind == GreenKind.G3)


def _check_time(t: float):
    """Raise ValueError unless t is finite and above 0."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"times must start above 0 (kernels are singular "
                         f"at t = 0) and be finite, got t = {t}")


def _finite_xs(x) -> np.ndarray:
    """x as a float array; raises ValueError naming a non-finite x."""
    xs = np.asarray(x, dtype=float)
    bad = ~np.isfinite(xs)
    if bad.any():
        raise ValueError(f"x = {xs[bad][0]} is not finite")
    return xs


def _kernel_rows(kern: _Kernel, k: np.ndarray, times, spec: ProblemSpec):
    """kern at the wavenumber array k for every t in times, one row per
    time, from one mittag_leffler_array call over all the arguments."""
    for t in times:
        _check_time(t)
    a = spec.alpha
    col = (-1,) + (1,) * k.ndim
    # powers as Python floats: numpy's array power can differ in the last
    # bit, and green_hat's values must not depend on the times beside t
    ta = np.array([t ** a for t in times]).reshape(col)
    tpow = np.array([t ** kern.tpow for t in times]).reshape(col)
    arg = -spec.rate(k, kern.self_coupled) * ta
    out = tpow * mittag_leffler_array(a, kern.ml_index, arg)
    if kern.mult_order:
        out = out * riesz_feller_symbol(spec.source_symbol(), k)
    return out


def green_hat(kind: GreenKind, k, t: float, spec: ProblemSpec):
    """Fourier transform of the requested kernel at wavenumber(s) k, time t."""
    arr = np.asarray(k, dtype=float)
    out = _kernel_rows(_kernel(kind, spec), np.atleast_1d(arr), (t,),
                       spec)[0]
    return complex(out[0]) if arr.ndim == 0 else out


def _rate_terms(spec: ProblemSpec, self_coupled: bool):
    """rate's (coefficient, skew, order) terms; mu's if self-coupled."""
    terms = [(spec.lam, spec.theta, spec.beta)]
    if self_coupled and abs(spec.mu) > 0:
        terms.append((spec.mu, spec.phi, spec.gamma))
    return terms


def _leading_coeffs(terms):
    """Large-|k| coefficients of sum c Psi_{order,skew}(k) / |k|^top on
    k > 0 and k < 0, over (c, skew, order) terms: the top-order terms'
    c e^(+-i skew pi/2), summed."""
    top = max(order for _, _, order in terms)
    return [sum(c * cmath.exp(1j * sgn * skew * math.pi / 2.0)
                for c, skew, order in terms if order == top)
            for sgn in (1.0, -1.0)]


def _ml_phases(leads):
    """The phase pi + arg(lead), reduced to (-pi, pi], of the large-|k|
    Mittag-Leffler argument -rate(k) t^alpha on each half line, for the
    rate's leading coefficients leads."""
    return [math.remainder(math.pi + cmath.phase(lead), 2.0 * math.pi)
            for lead in leads]


def _growing_phase(spec: ProblemSpec, self_coupled: bool):
    """The Mittag-Leffler argument phase on a half line where it lies
    strictly inside alpha pi/2, so that G_hat grows with |k|; else None."""
    for ph in _ml_phases(_leading_coeffs(_rate_terms(spec, self_coupled))):
        if abs(ph) < spec.alpha * math.pi / 2.0:
            return ph
    return None


def _check_dissipative(spec: ProblemSpec, kinds_self: bool):
    """Raise FourierOnlyError where the real-space kernel does not exist:
    Re(coeff * symbol) not strictly positive off k = 0, or G_hat growing
    with |k|."""
    for term in _rate_terms(spec, kinds_self):
        if min(lead.real for lead in _leading_coeffs([term])) <= 0.0:
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


# Gauss-Legendre nodes and weights of every k panel; green_points sizes
# its panels for 16 nodes
_GAUSS_X, _GAUSS_W = leggauss(16)


def _kernel_tail_data(kern: _Kernel, spec: ProblemSpec, t: float,
                      abs_tol: float):
    """(K, terms, freq): past K, green_hat is the sum over terms
    (amp_up, amp_dn, s) of amp |k|^(-s), on k > 0 and k < 0.

    The powers come from E_{a,b}(-w) ~ -sum_n (-w)^(-n) rgamma(b - a n),
    n >= 2 (n = 1 vanishes for every GreenKind), w = A |k|^top (1 + q);
    for two rate orders (1 + q)^(-n) is expanded in q = (B/A) |k|^-d,
    d = top - low, so the power (n, m) has s = n top + m d - p_mul.  Kept:
    the fewest powers in increasing s, then the least K <= _K_MAX on
    K0 1.6^j (|w| = 10, |q| = 1/2 at K0) where the dropped powers' bound
    past K is below abs_tol / 2.  That bound sums, over the frontier (each
    started family's next power, and the next family's first, which stands
    for every higher n as the asymptotic series' next term does),
    pref (|rgamma| + 1/2) |binom(-n, m)| |B/A|^m / |A|^n K^(1-s) / (s - 1)
    / pi / (1 - |q(K)|)^n, the last factor bounding the family's binomial
    rest, plus the exponential term's bound; powers are added while that
    bound at _K_MAX falls.  freq(k): the exponential term's phase rate."""
    a, bt, p_mul = spec.alpha, kern.ml_index, kern.mult_order
    tpow, ta = t ** kern.tpow, t ** a
    pref = abs(tpow)
    rate = _rate_terms(spec, kern.self_coupled)
    top = max(order for _, _, order in rate)
    tops = [term for term in rate if term[2] == top]
    lows = [term for term in rate if term[2] < top]
    # A and mult(k) on k > 0 and k < 0; c = |A| on the weaker half line
    leads = _leading_coeffs(rate)
    mults = _leading_coeffs([(1.0, spec.phi, p_mul)]) if p_mul else [1.0, 1.0]
    c = (abs(tops[0][0]) if len(tops) == 1 else min(map(abs, leads))) * ta
    K0 = max((10.0 / c) ** (1.0 / top), 1.0)
    d, ratios = 0.0, [0.0, 0.0]
    if lows:
        d = top - lows[0][2]
        ratios = [b / lead for b, lead in zip(_leading_coeffs(lows), leads)]
        K0 = max(K0, (2.0 * max(map(abs, ratios))) ** (1.0 / d))
    qmax = max(map(abs, ratios))
    if K0 > _K_MAX:
        raise ToleranceNotMetError(
            f"the large-|k| asymptotics of the kernel start at K = {K0:.3g},"
            f" past K = {_K_MAX:g}")
    phs = [ph / a for ph in _ml_phases(leads) if abs(ph) <= 0.75 * a * math.pi]
    cosmax = max(map(math.cos, phs), default=None)
    if cosmax is not None and cosmax >= -1e-12:
        raise ToleranceNotMetError(
            f"the exponential Mittag-Leffler term does not decay with |k| "
            f"(alpha = {a:g}, cos(phase / alpha) = {cosmax:.3g})")

    def exp_err(k):
        """g(k) k / (s - 1), s = -d log g / d log k, for the exponential
        term g = k^p_mul / alpha w^((1 - bt)/alpha) exp(cosmax w^(1/alpha))."""
        if cosmax is None:
            return 0.0
        w = c * k ** top
        try:
            g = k ** p_mul / a * w ** ((1.0 - bt) / a) \
                * math.exp(cosmax * w ** (1.0 / a))
        except OverflowError:
            return 0.0
        # past the float range it counts as no error, as OverflowError does
        if g > sys.float_info.max:
            return 0.0
        s = -(p_mul + top * (1.0 - bt) / a
              + cosmax * top / a * w ** (1.0 / a))
        return pref * g * k / (max(s, 1.5) - 1.0) / math.pi

    def freq(k):
        """d/dk of |sin(phase / alpha)| w^(1/alpha) while exp_err > tol/4."""
        if not exp_err(k) > 0.25 * abs_tol:
            return 0.0
        return max(abs(math.sin(ph)) for ph in phs) * top / a \
            * c ** (1.0 / a) * k ** (top / a - 1.0)

    def bound(n, m, K):
        """Integrated size past K of the powers (n, m') with m' >= m."""
        e = n * top + m * d
        if e - p_mul <= 1.0:
            return math.inf
        return pref * (abs(rgamma(bt - n * a)) + 0.5) \
            * math.comb(n + m - 1, m) * qmax ** m / c ** n \
            * K ** (p_mul + 1.0 - e) / (e - p_mul - 1.0) / math.pi \
            / (1.0 - qmax * K ** -d) ** n

    def term(n, m):
        up, dn = (-tpow * complex((-1) ** n * rgamma(bt - n * a))
                  / (lead * ta) ** n * mul for lead, mul in zip(leads, mults))
        if m:
            up, dn = (amp * math.comb(n + m - 1, m) * (-ratio) ** m
                      for amp, ratio in zip((up, dn), ratios))
        return up, dn, n * top + m * d - p_mul

    ladder = [K0]
    while ladder[-1] * 1.6 < _K_MAX:
        ladder.append(ladder[-1] * 1.6)
    ladder.append(_K_MAX)
    exp_least = min(map(exp_err, ladder))
    if not exp_least < 0.5 * abs_tol:
        raise ToleranceNotMetError(
            f"the exponential Mittag-Leffler term alone bounds the k "
            f"integral past every K <= {_K_MAX:g} by {exp_least:.2e}, above "
            f"abs_tol / 2 = {0.5 * abs_tol:.2e}")
    # nxt[n - 2]: the next power m of family n, None once it has no more
    kept, nxt = [(2, 0)], [1 if lows else None, 0]
    best = math.inf
    while True:
        front = [(n, m) for n, m in enumerate(nxt, 2) if m is not None]

        def err(K):
            return sum(bound(n, m, K) for n, m in front) + exp_err(K)
        if best < math.inf and not err(_K_MAX) < best:
            break
        best = err(_K_MAX)
        K = next((K for K in ladder if err(K) < 0.5 * abs_tol), None)
        if K is not None:
            return K, [tm for tm in (term(*p) for p in kept)
                       if tm[0] or tm[1]], freq
        n, m = min(front, key=lambda p: p[0] * top + p[1] * d)
        kept.append((n, m))
        nxt[n - 2] = m + 1 if lows else None
        if n - 1 == len(nxt):
            nxt.append(0)
    raise ToleranceNotMetError(
        f"no algebraic tail closes the k integral below K = {_K_MAX:g}: "
        f"its best bound, {best:.2e} with {len(kept) - 1} powers, exceeds "
        f"abs_tol / 2 = {0.5 * abs_tol:.2e}")


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


def green_points(kind: GreenKind, xs, t: float, spec: ProblemSpec, *,
                 abs_tol: float = 1e-9) -> np.ndarray:
    """Kernel values on a whole x-grid sharing one Fourier-side evaluation.

    The integrand F(k) does not depend on x, so the panel nodes are
    evaluated once and reused for every point: one green_hat call, and so
    one Mittag-Leffler call, over the nodes k and -k together, in which
    identical arguments are evaluated once.  Gauss panels run out to the
    K of _kernel_tail_data, past which its algebraic tail is integrated
    per point.  abs_tol is the absolute error target of every value.
    """
    kern = _kernel(kind, spec)
    _check_time(t)
    xs = _finite_xs(xs)
    _check_dissipative(spec, kern.self_coupled)

    a, rate = spec.alpha, _rate_terms(spec, kern.self_coupled)
    k1 = (sum(abs(c) for c, _, _ in rate) * t ** a) ** (-1.0 / spec.beta)
    xmax = float(np.max(np.abs(xs))) if xs.size else 0.0
    K, terms, freq = _kernel_tail_data(kern, spec, t, abs_tol)
    s_min = min((s for _, _, s in terms), default=math.inf)
    if s_min <= 1.0 and np.any(xs == 0.0):
        raise ToleranceNotMetError(
            f"kernel diverges at x = 0: Fourier decay exponent {s_min} <= 1")
    edges = [0.0]
    while edges[-1] < K and len(edges) <= 60000:
        e = edges[-1]
        # 16-node Gauss panels resolve ~3 oscillation cycles: 20 rad at
        # the largest |x| plus the phase rate of green_hat itself
        phase_rate = xmax + max(freq(max(e, k1)), freq(max(1.5 * e, k1)))
        width = min(20.0 / phase_rate if phase_rate > 0 else math.inf,
                    max(0.5 * e, k1 / 8.0), K - e)
        edges.append(e + width)
    if edges[-1] < K:
        raise ToleranceNotMetError(
            f"the k panels to K = {K:.4g} at |x| = {xmax:g} need more than "
            f"60000 edges")
    # near k = 0 green_hat is a constant plus amp |k|^p terms, p the
    # multiplier's order or else each rate order; 16-node Gauss misses
    # Int_0^h k^p dk by h^(p+1) times its miss on [0, 1], so the first
    # panel is halved till both half lines miss by at most abs_tol / 4
    cusps = ([(kern.mult_order, abs(rgamma(kern.ml_index)))]
             if kern.mult_order else
             [(o, abs(rgamma(kern.ml_index + a)) * t ** a * abs(c))
              for c, _, o in rate])

    def miss(h):
        return abs(t ** kern.tpow) / math.pi * sum(
            amp * h ** (p + 1.0)
            * abs(_GAUSS_W @ ((1.0 + _GAUSS_X) / 2.0) ** p / 2 - 1 / (p + 1.0))
            for p, amp in cusps)
    halve = 0
    while miss(edges[1] * 0.5 ** halve) > 0.25 * abs_tol:
        halve += 1
    edges = np.concatenate([[0.0], edges[1] * 0.5 ** np.arange(halve, 0, -1),
                            edges[1:]])

    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    knodes = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    fup, fdn = green_hat(kind, np.concatenate([knodes.ravel(),
                                               -knodes.ravel()]), t,
                         spec).reshape((2,) + knodes.shape)

    S = np.empty((len(mid), xs.size), dtype=complex)
    w2, xr = half[:, None] * _GAUSS_W[None, :], xs.ravel()
    for lo in range(0, len(mid), 512):
        hi = lo + 512
        phase = np.exp(-1j * knodes[lo:hi, :, None] * xr[None, None, :])
        S[lo:hi] = (w2[lo:hi, :, None]
                    * (phase * fup[lo:hi, :, None]
                       + np.conj(phase) * fdn[lo:hi, :, None])).sum(axis=1)
    body = S.sum(axis=0)

    K_reached = float(edges[-1])
    # down-side tail carries exp(+ikx), i.e. the -x evaluation
    tails = [sum(amp_up * _oscillatory_tail(float(xi), K_reached, s)
                 + amp_dn * _oscillatory_tail(-float(xi), K_reached, s)
                 for amp_up, amp_dn, s in terms) for xi in xr]
    return ((body + np.asarray(tails)) / (2.0 * math.pi)).reshape(xs.shape)


def green_point_closed(kind: GreenKind, x, t: float, spec: ProblemSpec):
    """Closed-form kernel value through the Mellin-Barnes representation
    t^(alpha-1) / (beta |x|) H^{2,1}_{3,3}(|x| / (lam t^alpha)^(1/beta)),
    with t^(alpha-2) in front for G2.

    Defined for G and (for 1 < alpha <= 2) G2, real positive lam, x != 0,
    and refused with FourierOnlyError where G_hat grows with |k|.
    x is a scalar, giving a float, or an array, giving an array of its
    shape; each value depends on x alone.  The x < 0 values are the
    mirror kernel with the skew negated.
    """
    kind = GreenKind(kind)
    if kind not in (GreenKind.G, GreenKind.G2):
        raise ValueError("closed form available for G and G2 only")
    _check_time(t)
    xs = _finite_xs(x)
    if np.any(xs == 0.0):
        raise ValueError("closed form has a 1/|x| prefactor; x must be nonzero")
    if abs(complex(spec.lam).imag) > 0 or complex(spec.lam).real <= 0:
        raise ValueError("closed form requires real positive lam")
    _check_dissipative(spec, False)
    kern = _kernel(kind, spec)
    a, b = spec.alpha, spec.beta
    lam = complex(spec.lam).real
    ax = np.abs(xs)
    # the H argument |x| / (lam t^a)^(1/b) in logs: for beta near 0 the
    # scale leaves the double range before the argument does
    log_arg = np.log(ax) - (math.log(lam) + a * math.log(t)) / b
    outside = ((log_arg > math.log(sys.float_info.max))
               | (log_arg < math.log(sys.float_info.min))).ravel()
    if outside.any():
        i = np.flatnonzero(outside)[0]
        raise HAccuracyError(
            f"H argument |x| / (lam t^alpha)^(1/beta) = "
            f"exp({log_arg.ravel()[i]:.4g}) is outside the double range at "
            f"x = {xs.ravel()[i]:g}, t = {t:g}")
    h = np.empty(xs.shape)
    pos = xs > 0
    for side, theta_eff in ((pos, spec.theta), (~pos, -spec.theta)):
        if side.any():
            rho = (b - theta_eff) / (2.0 * b)
            params = HFunctionParams(a, b, rho, kern.ml_index)
            h[side] = h_function(params, np.exp(log_arg[side]))
    out = t ** kern.tpow / (b * ax) * h
    return float(out) if xs.ndim == 0 else out


def green_mass(kind: GreenKind, t: float, spec: ProblemSpec):
    """Total x-integral of the kernel, i.e. its k = 0 Fourier value."""
    kind = GreenKind(kind)
    if kind not in (GreenKind.G, GreenKind.G2):
        raise ValueError("mass defined for G and G2")
    kern = _kernel(kind, spec)
    _check_time(t)
    return t ** kern.tpow * rgamma(kern.ml_index)
