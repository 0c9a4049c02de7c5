"""Seeded inputs for the three workloads.

Everything here is plain data (dicts, tuples, argv lists), so the inputs
can be generated and compared without importing fracgreen.  Every draw
stays inside the admissible domain: |theta| <= min(beta, 2 - beta),
|phi| <= min(gamma, 2 - gamma), lambda dissipative (Re(lambda e^{+-i theta
pi/2}) > 0), and beta != gamma for the self-coupled (G3) kernels.

The two benchmarked workloads, cli_cold and fields_warm, draw only inputs
on which every operation succeeds and passes its gate.  Two known defects
decide where that holds:

- green_points for G3 falls back to per-point epsilon acceleration, which
  raises ToleranceNotMetError for about one draw in eight: at x = 0
  ("acceleration stalled") and whenever the last k panel is a sliver
  ("not enough oscillation panels").  cli_cold therefore reaches the G3
  and G4 kernels through a self-coupled `solve`, not through
  `green --kind G3`; kernels_warm keeps its G3 green_points calls, so the
  defect still shows there.
- the product-integration source term misses the 1e-4 gate near alpha
  0.78 (1.36e-4 seen after a warm cycle), so identity-mode source solves
  draw alpha from 0.92-0.95, where the gap stays near 1e-5.

Each workload is a fixed cycle of request classes.  A class fixes the
kernel, the method and a narrow band of alpha and beta; the seed draws the
parameters inside the band, the grids, times and data.  The bands are
narrow because the cost of one request swings by 10x across the domain
(cold Mittag-Leffler ray models cost more the smaller alpha is), and every
seed has to measure the same work.  A band also keeps clear of steps in
cost: a cold complex-lambda `green` request takes about 4 s up to alpha
0.83 and about 9.5 s from 0.85 on, so that class draws from 0.86-0.9, on
the slow side of the step.
"""

import cmath
import math
import random

ORACLE_DT = 1.0 / 1024.0


def _skew(rng, order, frac=0.25):
    """Skewness inside |skew| <= frac * min(order, 2 - order)."""
    bound = min(order, 2.0 - order)
    return round(rng.uniform(-frac, frac) * bound, 4)


def _u(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _times(rng, n, lo, hi):
    ts = set()
    while len(ts) < n:
        ts.add(_u(rng, lo, hi, 3))
    return tuple(sorted(ts))


def _lattice_times(rng):
    """Two output times on the oracle dt lattice, the later one in [0.48, 0.5].

    The oracle's history sum grows with the square of its step count, so a
    wider range of end times makes the oracle's cost a matter of the seed.
    """
    n = 2 * rng.randrange(245, 257)
    return (n // 2 * ORACLE_DT, n * ORACLE_DT)


def spec(rng, alpha, beta, **extra):
    """A spec dict with alpha and beta drawn from bands, admissible theta."""
    a, b = _u(rng, *alpha), _u(rng, *beta)
    out = dict(alpha=a, beta=b, gamma=1.0, theta=_skew(rng, b), phi=0.0,
               lam=complex(1.0), mu=complex(0.0),
               source_mode="riesz_feller", source_coupling="external")
    out.update(extra)
    return out


def self_coupled_spec(rng, alpha, beta=(1.5, 1.7), gamma=(0.8, 1.0)):
    """Two-operator (G3) spec: beta and gamma bands do not overlap."""
    s = spec(rng, alpha, beta)
    g = _u(rng, *gamma)
    s.update(gamma=g, phi=_skew(rng, g), mu=complex(_u(rng, 0.6, 0.8)),
             source_coupling="self")
    return s


def complex_lambda_spec(rng, alpha, beta=(1.5, 1.7)):
    """Spec with complex lambda, Re > 0, dissipative on both half lines."""
    s = spec(rng, alpha, beta)
    room = math.pi / 2.0 - abs(s["theta"]) * math.pi / 2.0
    lam = cmath.rect(rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.3) * room)
    s["lam"] = complex(round(lam.real, 4), round(lam.imag, 4))
    return s


def source(kind, rng, span):
    """Gaussian or box profile centred in the inner fifth of the window."""
    c = _u(rng, -span / 10.0, span / 10.0, 3)
    if kind == "gaussian":
        return ("gaussian", c, _u(rng, 0.8, 1.2, 3))
    half = _u(rng, 0.8, 1.5, 3)
    return ("box", round(c - half, 3), round(c + half, 3))


def _num(v):
    return repr(float(v))


def _spec_argv(s):
    argv = ["--alpha", _num(s["alpha"]), "--beta", _num(s["beta"]),
            "--theta", _num(s["theta"])]
    lam = complex(s["lam"])
    if lam != 1.0:
        argv += ["--lambda", f"{_num(lam.real)},{_num(lam.imag)}"]
    if s["source_coupling"] == "self":
        argv += ["--gamma", _num(s["gamma"]), "--phi", _num(s["phi"]),
                 "--mu", _num(complex(s["mu"]).real),
                 "--source-coupling", "self"]
    return argv


def _source_arg(src):
    name, *vals = src
    return name + ":" + ",".join(_num(v) for v in vals)


def _grid_argv(lo, hi, nx, times):
    return ["--x-range", _num(lo), _num(hi), "--nx", str(nx),
            "--t", ",".join(_num(t) for t in times)]


# ---------------------------------------------------------------------------
# cli_cold: one fresh CLI process per request
# ---------------------------------------------------------------------------

def _green_request(name, s, kind, method, xspan, nx, times):
    argv = (["green", "--kind", kind] + _spec_argv(s)
            + _grid_argv(-xspan, xspan, nx, times) + ["--method", method])
    return dict(name=name, command="green", argv=argv, spec=s, kind=kind,
                times=times, nx=nx, x=(-xspan, xspan), output="out.csv")


def cli_round(rng, r):
    """One round of the cli_cold cycle: nine requests, fixed classes."""
    reqs = [
        _green_request("green_quad_low", spec(rng, (0.58, 0.6), (1.45, 1.55)),
                       "G", "quadrature", _u(rng, 4.5, 5.5, 3), 41,
                       _times(rng, 2, 0.8, 1.2)),
        _green_request("green_closed", spec(rng, (0.75, 0.85), (1.5, 1.7)),
                       "G", "closed", _u(rng, 3.5, 4.5, 3), 20,
                       _times(rng, 3, 0.8, 1.5)),
        _green_request("green_auto_g2", spec(rng, (1.4, 1.6), (1.5, 1.7)),
                       "G2", "auto", _u(rng, 3.5, 4.5, 3), 20,
                       _times(rng, 4, 0.8, 1.5)),
        _green_request("green_complex", complex_lambda_spec(rng, (0.86, 0.9)),
                       "G", "auto", _u(rng, 3.5, 4.5, 3), 31,
                       _times(rng, 3, 0.8, 1.5)),
    ]

    s = spec(rng, (1.4, 1.6), (1.6, 1.9))
    span = _u(rng, 25.0, 35.0, 3)
    times = _times(rng, 3, 0.5, 1.5)
    f, g = source("gaussian", rng, span), source("gaussian", rng, span)
    argv = (["solve"] + _spec_argv(s) + _grid_argv(-span, span, 64, times)
            + ["--f", _source_arg(f), "--g", _source_arg(g)])
    reqs.append(dict(name="solve_g", command="solve", argv=argv, spec=s,
                     times=times, nx=64, output="out.csv",
                     manifest="manifest.json"))

    # the self-coupled (G3) kernel, through the Fourier-side solver
    s = self_coupled_spec(rng, (0.75, 0.85))
    times = _times(rng, 2, 0.4, 1.6)
    f = source("gaussian", rng, 80.0)
    argv = (["solve"] + _spec_argv(s) + _grid_argv(-40.0, 40.0, 64, times)
            + ["--f", _source_arg(f)])
    reqs.append(dict(name="solve_g3", command="solve", argv=argv, spec=s,
                     times=times, nx=64, output="out.csv",
                     manifest="manifest.json"))

    s = spec(rng, (0.75, 0.9), (1.5, 1.8))
    times = _lattice_times(rng)
    f = source("gaussian", rng, 80.0)
    tail = (_spec_argv(s) + _grid_argv(-40.0, 40.0, 64, times)
            + ["--f", _source_arg(f)])
    reqs.append(dict(name="solve_ref", command="solve", argv=["solve"] + tail,
                     spec=s, times=times, nx=64, output="solve.csv"))
    reqs.append(dict(name="oracle", command="oracle",
                     argv=["oracle"] + tail + ["--dt", _num(ORACLE_DT)],
                     spec=s, times=times, nx=64, output="oracle.csv"))
    reqs.append(dict(name="compare", command="compare",
                     argv=["compare", "{solve.csv}", "{oracle.csv}",
                           "--tol", "0.01"],
                     times=(), nx=0, output="compare.json"))
    for q in reqs:
        q["round"] = r
    return reqs


def cli_stream(seed):
    """Endless cli_cold request stream for one seed."""
    rng = random.Random(f"cli_cold:{seed}")
    r = 0
    while True:
        yield from cli_round(rng, r)
        r += 1


# ---------------------------------------------------------------------------
# kernels_warm: one process, caches filled by an untimed warm-up
# ---------------------------------------------------------------------------

KERNEL_T = (0.8, 1.5)
G3_T = (0.4, 1.6)


def kernel_plan(seed):
    """(specs, warm-up calls, endless call stream) for kernels_warm.

    kernels_warm runs with --workload kernels_warm or all but is not listed
    in BENCHMARK.json: its millisecond calls follow the host's speed swings
    closely, and averaging them out needs longer runs than the benchmark's
    time budget leaves for a third workload.
    """
    rng = random.Random(f"kernels_warm:{seed}")
    specs = {
        "low": spec(rng, (0.6, 0.62), (1.45, 1.55)),
        "mid": spec(rng, (0.8, 0.85), (1.5, 1.7)),
        "high": spec(rng, (1.4, 1.5), (1.5, 1.7)),
        "cplx": complex_lambda_spec(rng, (0.8, 0.85)),
        "g3a": self_coupled_spec(rng, (0.75, 0.85)),
        "g3b": self_coupled_spec(rng, (0.75, 0.85)),
    }
    # The G3 kernels keep no state between calls (their Mittag-Leffler
    # arguments have scattered phases), so only the other specs are warmed.
    warm = []
    for key, kind, op in (("low", "G", "points"), ("mid", "G", "points"),
                          ("high", "G", "points"),
                          ("cplx", "G", "points"), ("low", "G", "hat"),
                          ("mid", "G", "hat"), ("high", "G", "hat")):
        for t in KERNEL_T:
            if op == "points":
                warm.append(dict(op=op, spec=key, kind=kind, t=t, x=(-5.0, 5.0),
                                 nx=41))
            else:
                warm.append(dict(op=op, spec=key, kind=kind, t=t, kmax=12.0,
                                 nk=64))

    def points(key, kind, t_range=KERNEL_T, span=(4.0, 5.0), nx=None):
        xs = _u(rng, *span, 3)
        return dict(op="points", spec=key, kind=kind, t=_u(rng, *t_range, 3),
                    x=(-xs, xs), nx=nx or rng.randrange(37, 46))

    def closed(key, kind):
        x = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 4.0), 4)
        return dict(op="closed", spec=key, kind=kind, t=_u(rng, *KERNEL_T, 3),
                    x=x)

    def hat(key, kind):
        return dict(op="hat", spec=key, kind=kind, t=_u(rng, *KERNEL_T, 3),
                    kmax=_u(rng, 8.0, 12.0, 3), nk=64)

    def stream():
        r = 0
        while True:
            g3 = "g3a" if r % 2 == 0 else "g3b"
            hk = ("low", "mid", "high")[r % 3]
            # nine of the fourteen calls are single-digit-millisecond closed
            # and Fourier-side calls, so the median call sits inside that
            # class whatever the seeded specs cost
            calls = [
                hat(hk, "G"), hat("high", "G"), hat("mid", "G"),
                closed("low", "G"), closed("mid", "G"), closed("high", "G2"),
                closed("high", "G"), closed("mid", "G"), closed("low", "G"),
                points("mid", "G"), points("high", "G"), points("cplx", "G"),
                points("low", "G"),
                points(g3, "G3", t_range=G3_T, span=(6.0, 6.0), nx=41),
            ]
            for c in calls:
                c["round"] = r
            yield from calls
            r += 1

    return specs, warm, stream()


# ---------------------------------------------------------------------------
# fields_warm: one process, solve and oracle_solve on warmed specs
# ---------------------------------------------------------------------------

def field_plan(seed):
    """(cases, warm-up solves, endless solve stream) for fields_warm.

    Source-term solves use alpha 0.92-0.95 or above 1: below 0.75 one warm
    solve on this grid takes 2 s (alpha 0.7) to 30 s (alpha 0.55), more
    than a whole timed run, and near 0.78 the source term misses its gate
    (see the module docstring).  Four of the nine solves in the cycle are
    identity-mode source-term solves, so the median solve is one of them
    whatever the other cases cost.

    Each case is drawn once per seed and then solved every round, so its
    band is as narrow as the cost slope around it asks: a warm solve costs
    1.7x more at alpha 0.58 than at 0.61 (free_low), 1.5x more at beta 1.7
    than at 1.5 (self), and 1.4x more at alpha 1.33 than at 1.46 (src_rf).
    """
    rng = random.Random(f"fields_warm:{seed}")

    def free(alpha):
        # a warm solve at alpha 0.6 costs 1.5x more for beta near 1.55
        return dict(spec=spec(rng, alpha, (1.65, 1.8)), x=(-40.0, 40.0),
                    nx=128, times=_lattice_times(rng), f="gaussian", g=None,
                    U=None, oracle=True)

    def src(alpha, mode, **extra):
        mu = complex(_u(rng, 0.5, 0.9))
        return dict(spec=spec(rng, alpha, (1.5, 1.7), source_mode=mode, mu=mu,
                              **extra),
                    x=(-30.0, 30.0), nx=64, times=_times(rng, 1, 0.8, 1.2),
                    f=None, g=None, U="box", oracle=False)

    g = _u(rng, 1.0, 1.4)
    cases = {
        "free": free((0.8, 0.9)),
        "free_low": free((0.595, 0.6)),
        # alpha / 2 stays above 0.75: the order-halving evaluation of
        # alpha > 1 costs 15x more just below alpha = 1.5
        "gdatum": dict(spec=spec(rng, (1.55, 1.65), (1.6, 1.9)),
                       x=(-30.0, 30.0), nx=128,
                       times=_times(rng, 2, 0.8, 1.2),
                       f="box", g="gaussian", U=None, oracle=False),
        "src_identity": src((0.92, 0.95), "identity"),
        "src_rf": src((1.42, 1.47), "riesz_feller", gamma=g, phi=_skew(rng, g)),
        "self": dict(spec=self_coupled_spec(rng, (0.75, 0.85), beta=(1.5, 1.55)),
                     x=(-40.0, 40.0), nx=128, times=_lattice_times(rng),
                     f="gaussian", g=None, U=None, oracle=True),
    }

    def draw(key):
        c = cases[key]
        span = c["x"][1] - c["x"][0]
        return dict(case=key,
                    f=source(c["f"], rng, span) if c["f"] else None,
                    g=source(c["g"], rng, span) if c["g"] else None,
                    U=source(c["U"], rng, span) if c["U"] else None)

    warm = [draw(key) for key in cases]
    cycle = ("free", "src_identity", "gdatum", "src_identity", "free_low",
             "src_identity", "src_rf", "src_identity", "self")

    def stream():
        r = 0
        while True:
            for key in cycle:
                d = draw(key)
                d["round"] = r
                yield d
            r += 1

    return cases, warm, stream()
