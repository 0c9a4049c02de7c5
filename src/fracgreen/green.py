"""Green functions of the space-time fractional diffusion family.

Three evaluation routes: Fourier-space values (green_hat), real-space
quadrature of the Fourier inverse on rays rotated off the real k axis,
on an x array (green_points), and the closed H-function form
(green_point_closed) where it exists.  Every G_hat value, on the real
axis or on a ray, comes from _kernel_rows.  All share one convention:
f_hat(k) = Int exp(+ikx) f(x) dx, inversion with exp(-ikx), and the
space operator acts as multiplication by -Psi.
"""

import cmath
import functools
import math
import sys
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .fracmath import (_H_ABS_TOL, HAccuracyError, HFunctionParams,
                       h_function, mittag_leffler_array, rgamma)
from .operators import (SymbolParams, order_skew_problems,
                        riesz_feller_symbol)


class FourierOnlyError(ArithmeticError):
    """Real-space evaluation refused; the kernel only exists in Fourier space."""


class ToleranceNotMetError(ArithmeticError):
    """A value of green_points cannot be given to its tolerance: the
    kernel's scale lies far outside the double range, the k integral does
    not decay on any ray (no room to rotate, at alpha = 2 and on the edge
    |theta_eff| = 2 - alpha), the kernel diverges at x = 0, the ray to a
    tiny |x| runs so far that the round-off of its Mittag-Leffler values
    passes _ABS_TOL or its argument leaves the double range, or the
    trapezoid rule on a ray next to that edge needs more than _RAY_NODES
    nodes.  A message names at most one x, and the call with that x alone
    raises it too."""


class RegimeError(ValueError):
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
        # Python numbers, whose powers raise OverflowError where a numpy
        # scalar's return inf; the checks above refuse a string
        for f in fields(self):
            if f.type in (float, complex):
                object.__setattr__(self, f.name, f.type(getattr(self, f.name)))

    def space_symbol(self) -> SymbolParams:
        return SymbolParams(self.beta, self.theta)

    def source_symbol(self) -> SymbolParams:
        return SymbolParams(self.gamma, self.phi)

    def rate(self, k, self_coupled: bool = False):
        """lam Psi_beta(k), plus mu Psi_gamma(k) when self-coupled: mode k
        relaxes as E_alpha(-rate t^alpha); the sum of _rate_terms."""
        terms = [c * riesz_feller_symbol(SymbolParams(order, skew), k)
                 for c, skew, order in _rate_terms(self, self_coupled)]
        return sum(terms[1:], terms[0])


# green_points halves a ray's trapezoid step at most until the ray of one
# point holds this many nodes
_RAY_NODES = 2 ** 18

# the absolute error of every value of green_points
_ABS_TOL = 1e-9


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
    # the gamma-operator symbol m_S multiplies G1 and the source kernel
    mult = spec.gamma if spec.source_mode == "riesz_feller" else 0.0
    if kind is _SOURCE:
        return _Kernel(a + 1.0, a, mult, False)
    kind = GreenKind(kind)
    if kind in (GreenKind.G2, GreenKind.G4):
        if a <= 1.0:
            raise RegimeError(f"{kind.value} requires 1 < alpha <= 2, got {a}")
        return _Kernel(a - 1.0, a - 2.0, 0.0, kind == GreenKind.G4)
    if kind == GreenKind.G1:
        return _Kernel(a, 0.0, mult, False)
    return _Kernel(a, a - 1.0, 0.0, kind == GreenKind.G3)


def _time(t) -> float:
    """float(t), once t is finite and above 0; else ValueError."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"times must start above 0 (kernels are singular "
                         f"at t = 0) and be finite, got t = {t}")
    return float(t)


def _time_power(t: float, p: float, alpha: float) -> float:
    """t ** p, a power of the time order alpha; OverflowError names t and
    alpha where it leaves the double range."""
    try:
        return t ** p
    except OverflowError:
        raise OverflowError(f"t^{p:.6g} overflows the double range at "
                            f"t = {t:g}, alpha = {alpha:g}") from None


def _finite_xs(x) -> np.ndarray:
    """x as a float array; raises ValueError naming a non-finite x."""
    xs = np.asarray(x, dtype=float)
    bad = ~np.isfinite(xs)
    if bad.any():
        raise ValueError(f"x = {xs[bad][0]} is not finite")
    return xs


def _ml_arg(k: np.ndarray, times, spec: ProblemSpec, self_coupled: bool):
    """The Mittag-Leffler argument -rate(k) t^alpha at the wavenumber array
    k, real or complex, for every t in times, which the caller has
    checked, one row per time.  OverflowError names the first t and its
    largest |k| where it leaves the double range."""
    a = spec.alpha
    # powers as Python floats: numpy's array power can differ in the last
    # bit, and green_hat's values must not depend on the times beside t
    ta = np.array([_time_power(t, a, a) for t in times])
    with np.errstate(over="ignore", invalid="ignore"):
        arg = -spec.rate(k, self_coupled) * ta.reshape(-1, *(1,) * k.ndim)
    bad = ~np.isfinite(arg)
    if bad.any():
        row = int(np.argmax(bad.reshape(len(times), -1).any(axis=1)))
        raise OverflowError(f"-rate(k) t^alpha leaves the double range at "
                            f"t = {times[row]:g}, |k| = "
                            f"{np.abs(k[bad[row]]).max():g}")
    return arg


def _kernel_rows(kern: _Kernel, k: np.ndarray, times, spec: ProblemSpec):
    """kern at the wavenumber array k, real or complex, for every t in
    times, which the caller has checked, one row per time, from one
    mittag_leffler_array call on _ml_arg's checked argument."""
    a = spec.alpha
    arg = _ml_arg(k, times, spec, kern.self_coupled)
    tpow = np.array([_time_power(t, kern.tpow, a) for t in times])
    out = tpow.reshape(-1, *(1,) * k.ndim) \
        * mittag_leffler_array(a, kern.ml_index, arg)
    if kern.mult_order:
        out = out * riesz_feller_symbol(spec.source_symbol(), k)
    return out


def green_hat(kind: GreenKind, k, t: float, spec: ProblemSpec):
    """Fourier transform of the requested kernel at wavenumber(s) k, time t."""
    kern = _kernel(kind, spec)
    t = _time(t)
    arr = np.asarray(k, dtype=float)
    out = _kernel_rows(kern, np.atleast_1d(arr), (t,), spec)[0]
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
    c Psi_{order,skew}(+-1), summed."""
    top = max(order for _, _, order in terms)
    return [sum(c * riesz_feller_symbol(SymbolParams(order, skew), sgn)
                for c, skew, order in terms if order == top)
            for sgn in (1.0, -1.0)]


@functools.lru_cache(maxsize=256)
def _growth(spec: ProblemSpec, self_coupled: bool):
    """The text saying that G_hat grows with |k|, or None: where the
    phase pi + arg(lead), reduced to (-pi, pi], of the large-|k|
    Mittag-Leffler argument -rate(k) t^alpha on a half line is below
    alpha pi/2 in size.  Kept, as ProblemSpec is frozen: every solve asks."""
    for lead in _leading_coeffs(_rate_terms(spec, self_coupled)):
        ph = math.remainder(math.pi + cmath.phase(lead), 2.0 * math.pi)
        if abs(ph) < spec.alpha * math.pi / 2.0:
            return (f"G_hat grows with |k|: Mittag-Leffler argument phase "
                    f"{ph / math.pi:.4g} pi inside alpha pi/2 = "
                    f"{spec.alpha / 2.0:.4g} pi; the kernel has no "
                    f"real-space form")
    return None


def _refuse_growth(spec: ProblemSpec, self_coupled: bool):
    """FourierOnlyError where G_hat grows (_growth), the one refusal of the
    real-space entries and both solvers there."""
    if (growth := _growth(spec, self_coupled)) is not None:
        raise FourierOnlyError(f"{growth} (Fourier-space evaluation only)")


def _check_dissipative(spec: ProblemSpec, kinds_self: bool):
    """FourierOnlyError where the real-space kernel does not exist: some
    Re(coeff * symbol) not positive off k = 0, or G_hat growing."""
    for term in _rate_terms(spec, kinds_self):
        if min(lead.real for lead in _leading_coeffs([term])) <= 0.0:
            raise FourierOnlyError(
                "Re(coefficient * symbol) is not positive; the real-space "
                "kernel does not decay (Fourier-space evaluation only)")
    _refuse_growth(spec, kinds_self)


def green_points(kind: GreenKind, xs, t: float,
                 spec: ProblemSpec) -> np.ndarray:
    """Kernel values on an x array, each to the absolute error _ABS_TOL.

    G(x) = (1/2pi) Int exp(-ikx) G_hat(k) dk.  At x != 0 both half lines
    turn onto the rays k = r e^(-i rot) and k = -r e^(i rot),
    rot = phi sign(x), where _kernel_rows evaluates G_hat as on the real
    axis and exp(-ikx) decays as exp(-r |x| sin phi), as in Zolotarev's
    integral for stable laws (Nolan, Commun. Statist. Stochastic Models
    13(4), 1997); phi is half the largest rotation, at most pi/2, that
    keeps the Mittag-Leffler argument out of its growth sector
    |arg| < alpha pi/2 at large |k|.  Each ray is summed by the trapezoid
    rule in u = log r (Trefethen & Weideman, SIAM Review 56(3), 2014),
    halving the step until two levels agree, on nodes shared by the points
    of one sign; a point's ray ends where its own tail is below
    _ABS_TOL / 100, so its value depends on its x alone.  x = 0 takes the
    Mellin transform of E_{a,b} with one rate order, and the unrotated ray
    with two."""
    kern = _kernel(kind, spec)
    t = _time(t)
    xs = _finite_xs(xs)
    _check_dissipative(spec, kern.self_coupled)
    a, b, p = spec.alpha, kern.ml_index, kern.mult_order
    rate = _rate_terms(spec, kern.self_coupled)
    top = max(order for _, _, order in rate)
    leads = _leading_coeffs(rate)
    try:
        ta = t ** a
    except OverflowError:  # A is then inf, refused below
        ta = math.inf
    # |w| ~ A r^top at large r; the kernel's scale k1 is where |w| = 1
    A = min(map(abs, leads)) * ta
    if not 0.0 < A < math.inf or abs(math.log(A)) > 300.0 * top:
        raise ToleranceNotMetError(f"A = {A:.3g} at t = {t:g}, alpha = {a:g} "
                                   f"puts the kernel's scale, |w| = 1, far "
                                   f"outside the double range")
    pref = abs(_time_power(t, kern.tpow, a))
    k1 = A ** (-1.0 / top)
    # amp r^-s bounds G_hat at large r: the n = 2 term of E_{a,b}(-w) ~
    # -sum_n (-w)^-n / Gamma(b - a n), n = 1 vanishing, and 1/2 for the
    # rest; E_{1,1}(-w) = exp(-w) has no algebraic tail.  f0 bounds G_hat
    # at the kernel's scale
    amp = 0.0 if a == 1.0 else \
        pref * (abs(rgamma(b - 2.0 * a)) + 0.5) / A / A
    s = 2.0 * top - p if amp else math.inf
    f0 = pref * max(1.0, k1 ** p)
    # per sign of x, phi = room / 2, which is also the half-width of the
    # strip about the ray where the integrand is analytic; the unrotated
    # ray at x = 0 may turn either way, by the smaller room
    slack = math.pi - a * math.pi / 2.0
    args = [cmath.phase(lead) for lead in leads]
    width = {sgn: 0.5 * min(math.pi / 2.0, (slack + sgn * args[0]) / top,
                            (slack - sgn * args[1]) / top)
             for sgn in (1.0, -1.0)}
    width[0.0] = 2.0 * min(width.values())
    flat = xs.ravel()
    sides = np.sign(flat)
    # a stage raises for its first failing point, as that point's call does
    for x, side in zip(flat, sides):
        if width[side] < 1e-12:
            raise ToleranceNotMetError(
                f"the k integral at x = {x:g} does not decay on any ray: the "
                f"Mittag-Leffler argument lies on the edge of its growth "
                f"sector (alpha = {a:g}), so no rotation is left")
    if s <= 1.0 and not np.all(flat):
        trend = (f"falls as |k|^-{s:.6g}, and {s:.6g} <= 1" if s > 0.0 else
                 f"grows as |k|^{-s:.6g}" if s < 0.0 else "does not fall")
        raise ToleranceNotMetError(f"kernel diverges at x = 0: G_hat {trend}")

    def log_reach(width):
        """log of the R (inf where s <= 1) past which G_hat integrates to
        below _ABS_TOL / 100 on a ray whose Mittag-Leffler argument keeps
        top * width off the growth sector: its tail amp r^-s, and its term
        (1/a) w^((1-b)/a) exp(w^(1/a)), decaying there as
        exp(-sin(top width / a) |w|^(1/a)); the lower order's share of
        the rate is below 1/2 past R."""
        if s <= 1.0:
            return math.inf
        reach = [math.log(10.0 / A) / top] + [
            math.log(2.0 * abs(c) * ta / A) / (top - order)
            for c, _, order in rate if order < top]
        decay = math.sin(min(top * width / a, math.pi / 2.0))
        y = 1.0
        for _ in range(4):
            log_r = (a * math.log(y / decay) - math.log(A)) / top
            y = max(1.0, math.log(100.0 * pref / (a * math.pi * _ABS_TOL))
                    + (1.0 + p) * log_r
                    + (1.0 - b) / a * (math.log(A) + top * log_r))
        reach = [math.log(10.0) + max(reach), log_r]
        if amp:
            reach.append(math.log(100.0 * amp / (math.pi * (s - 1.0)
                                                 * _ABS_TOL)) / (s - 1.0))
        return max(reach)

    # x = 0 with one rate order takes the Mellin form, every other x a ray
    mellin = len({order for _, _, order in rate}) == 1
    on_ray = (sides != 0.0) | (not mellin)
    reach = {side: log_reach(width[side]) for side in set(sides[on_ray])}

    def log_end(x):
        """log of the r, at most R, past which the ray at x integrates
        exp(-r |x| sin phi) (f0 + amp r^-s) to below _ABS_TOL / 1e5, and
        of the smaller of it and 1 / (|x| sin phi)."""
        side = np.sign(x)
        if x == 0.0:
            return reach[side], reach[side]
        log_c = math.log(abs(x)) + math.log(math.sin(width[side]))
        y = 1.0
        for _ in range(4):
            env = f0 + amp * math.exp(min(700.0, -s * (math.log(y) - log_c)))
            y = max(1.0, math.log(1e5 * env / (math.pi * _ABS_TOL)) - log_c)
        end = min(math.log(y) - log_c, reach[side])
        return end, min(end, -log_c)

    ends, rhos = np.array([log_end(x) if ray else (0.0, 0.0)
                           for x, ray in zip(flat, on_ray)]).reshape(-1, 2).T
    log_rate = max(0.0, math.log(sum(abs(c) for c, _, _ in rate) * ta))
    for x, end, rho in zip(flat[on_ray], ends[on_ray], rhos[on_ray]):
        # mittag_leffler_array's absolute error, eps below the kernel's
        # scale k1 and about eps / |w| past it, times r^p exp(-r |x| sin phi)
        # integrates to eps rho^(1 + p - top) / A, times (rho / k1)^top
        # where rho < k1
        log_bound = math.log(2.2e-16 * pref / A) + (1.0 + p - top) * rho \
            + top * min(0.0, rho - math.log(k1))
        if log_bound > math.log(_ABS_TOL) or top * end + log_rate > 700.0:
            raise ToleranceNotMetError(
                f"the ray at x = {x:g} runs to r = exp({end:.4g}), where the "
                f"Mittag-Leffler argument leaves the double range or the "
                f"round-off of its values, exp({log_bound:.4g}), passes "
                f"abs_tol = {_ABS_TOL:g}")
    u_lo = math.log(min(1e-5 * _ABS_TOL / f0, 1e-3 * k1))

    def ray_sum(xg, ends, rot, width):
        """The values at the points xg, whose rays at the angle rot end at
        exp(ends); the integrand is analytic up to width off the ray."""
        h, act, first = min(0.5, width), np.arange(xg.size), True
        total, out = np.zeros(xg.size, complex), np.empty(xg.size, complex)
        while act.size:
            n = np.maximum(np.floor((ends[act] - u_lo) / h) + 1.0, 0.0)
            if np.any(n > _RAY_NODES):
                raise ToleranceNotMetError(
                    f"the ray at x = {xg[act][n > _RAY_NODES][0]:g} needs "
                    f"over {_RAY_NODES} nodes: {width:.3g} rad of room either "
                    f"side is narrow next to |theta_eff| = 2 - alpha")
            # the first level takes every node, each later one the new half
            idx = np.arange(0 if first else 1, n.max(), 1 if first else 2)
            r = np.exp(u_lo + h * idx)
            turn = np.array([[cmath.exp(-1j * rot)], [cmath.exp(1j * rot)]])
            up, dn = _kernel_rows(kern, turn * r * [[1.0], [-1.0]], (t,),
                                  spec)[0] * r * turn
            gp, gm = up + dn, up - dn
            new = np.zeros(act.size, dtype=complex)
            block = max(1, 2 ** 18 // act.size)
            for lo in range(0, idx.size, block):
                sl = slice(lo, lo + block)
                # exp(-ikx) on the up ray, its conjugate on the down one
                xr = r[sl, None] * xg[act]
                damp = np.exp(-xr * math.sin(rot)) * (idx[sl, None] < n)
                for trig, g, coef in ((np.cos, gp[sl], 1.0),
                                      (np.sin, gm[sl], -1j)):
                    m = (damp * trig(xr * math.cos(rot))).T
                    new += coef * (m @ g.real + 1j * (m @ g.imag))
            prev = total[act]
            total[act] = h * new if first else 0.5 * prev + h * new
            if not first:
                # two levels agree to _ABS_TOL / 10
                done = np.abs(total[act] - prev) <= 0.2 * math.pi * _ABS_TOL
                out[act[done]] = total[act[done]]
                act = act[~done]
            first = False
            h *= 0.5
        return out / (2.0 * math.pi)

    out = np.empty(flat.shape, dtype=complex)
    for side in set(sides):
        sel = sides == side
        if side or not mellin:
            out[sel] = ray_sum(flat[sel], ends[sel], side * width[side],
                               width[side])
            continue
        # Int_0^inf k^p E_{a,b}(-C k^top) dk = C^-m Gamma(m) Gamma(1 - m)
        # / (top Gamma(b - a m)), m = (1 + p) / top, whose last ratio is
        # finite at e = 1 - m = 0 so written, b = a or a - 1, or 1 at a = 1
        m, e = (1.0 + p) / top, (top - 1.0 - p) / top
        ratio = 1.0 if a == 1.0 else \
            a * math.gamma(1.0 + e) * rgamma(1.0 + a * e)
        if b != a:
            ratio *= a * e - 1.0
        mults = _leading_coeffs([(1.0, spec.phi, p)]) if p else [1.0, 1.0]
        out[sel] = t ** kern.tpow * math.gamma(m) * ratio / top * sum(
            mult * (lead * ta) ** -m for mult, lead in zip(mults, leads)) \
            / (2.0 * math.pi)
    return out.reshape(xs.shape)


def green_point_closed(kind: GreenKind, x, t: float, spec: ProblemSpec):
    """Closed-form kernel value through the Mellin-Barnes representation
    t^(alpha-1) / (beta |x|) H^{2,1}_{3,3}(|x| / (lam t^alpha)^(1/beta)),
    with t^(alpha-2) in front for G2.

    Defined for G and (for 1 < alpha <= 2) G2, real positive lam, x != 0,
    and refused with FourierOnlyError where G_hat grows with |k|.
    x is a scalar, giving a float, or an array, giving an array of its
    shape; each value depends on x alone.  The x < 0 values are the
    mirror kernel with the skew negated.  Where theta_eff = beta <= 1
    (rho = 0) the density is one-sided, and the values are exactly 0.
    """
    kind = GreenKind(kind)
    if kind not in (GreenKind.G, GreenKind.G2):
        raise ValueError("closed form available for G and G2 only")
    t = _time(t)
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
    # h_function's exact 0 at rho = 0 takes no contour tolerance
    contour = np.zeros(xs.shape, dtype=bool)
    for side, theta_eff in ((pos, spec.theta), (~pos, -spec.theta)):
        if side.any():
            rho = (b - theta_eff) / (2.0 * b)
            params = HFunctionParams(a, b, rho, kern.ml_index)
            h[side] = h_function(params, np.exp(log_arg[side]))
            contour |= side & (rho > 0.0)
    tpow = _time_power(t, kern.tpow, a)
    out = tpow / (b * ax) * h
    # the contour stops at the absolute _H_ABS_TOL; carried through the
    # prefactor, that stop may exceed both the value and _H_ABS_TOL itself
    # (tiny |x|), and then no digit of the value is certain
    stop = _H_ABS_TOL * tpow / (b * ax)
    lost = (contour & (stop > np.abs(out)) & (stop > _H_ABS_TOL)).ravel()
    if lost.any():
        i = np.flatnonzero(lost)[0]
        raise HAccuracyError(
            f"at x = {xs.ravel()[i]:g}, t = {t:g} the H contour's absolute "
            f"tolerance {_H_ABS_TOL:g} becomes {stop.ravel()[i]:.3g} in G, "
            f"above the value {out.ravel()[i]:.3g}")
    return float(out) if xs.ndim == 0 else out


def green_mass(kind: GreenKind, t: float, spec: ProblemSpec):
    """Total x-integral of the kernel, i.e. its k = 0 Fourier value."""
    if GreenKind(kind) not in (GreenKind.G, GreenKind.G2):
        raise ValueError("mass defined for G and G2")
    return green_hat(kind, 0.0, t, spec).real
