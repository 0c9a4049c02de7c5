"""The admissible domain swept under a memory bound.

A seeded sweep draws kernels, specs, x and t over the admissible domain
and runs each real-space evaluation in a child process whose address
space is capped (RLIMIT_AS, _MEMORY_LIMIT) and whose every call has a
time bound (_CALL_SECONDS).  Every draw lies inside its entry's
documented scope (x != 0, real positive lam, the kind's range of alpha),
so each call must give finite values or raise an ArithmeticError, which
the CLI maps to exit 3: never a ValueError from a check below the entry,
a MemoryError, another exception or a warning.  A few draws also go
through cli.run, which exits 0, 2 or 3 with at most one stderr line.

A second sweep runs both solvers in process over every skew: each call
gives a finite field, at most a window warning, or FourierOnlyError
exactly where G_hat grows with |k|.
"""

import json
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from fracgreen.green import FourierOnlyError, ProblemSpec, _growth
from fracgreen.oracle import OracleConfig, oracle_solve
from fracgreen.solver import SourceDescriptor, SpaceTimeGrid, solve

# the child's address-space bound, 1 GiB; the closed form's node cap keeps
# its largest refusal near 0.6 GiB of address space
_MEMORY_LIMIT = 2 ** 30

# the bound on one call's wall time; the slowest calls, the closed form's
# refusals at its node cap, take about 3 s
_CALL_SECONDS = 30.0

# the refusals of an admissible input
_ARITHMETIC_ERRORS = ("FourierOnlyError", "ToleranceNotMetError",
                      "HAccuracyError", "MLConvergenceError", "OverflowError")

# the documented warnings of a field whose window misses it
_WINDOW_WARNINGS = ("field under-resolved", "field mass outside")

_CHILD = r'''
import contextlib, io, json, os, resource, signal, sys, tempfile, time
import warnings
limit, seed, n_draws, n_cli, bound = json.loads(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
warnings.simplefilter("error")
import numpy as np
from fracgreen import cli
from fracgreen.green import ProblemSpec, green_point_closed, green_points


class Slow(Exception):
    pass


def on_alarm(signum, frame):
    raise Slow(f"over {bound} s")


signal.signal(signal.SIGALRM, on_alarm)


def bounded(fn):
    """(fn(), None) within bound seconds, else (None, its exception)."""
    signal.setitimer(signal.ITIMER_REAL, bound)
    try:
        return fn(), None
    except Exception as exc:  # a MemoryError, a warning, Slow
        return None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def outcome(fn):
    """"finite" or "non-finite" values, the class of a ValueError or an
    ArithmeticError, or "unnamed" and any other exception."""
    vals, exc = bounded(fn)
    if exc is None:
        return "finite" if np.all(np.isfinite(vals)) else "non-finite"
    if isinstance(exc, (ValueError, ArithmeticError)):
        return type(exc).__name__
    return f"unnamed {type(exc).__name__}: {str(exc)[:200]}"


rng = np.random.default_rng(seed)


def draw(kind):
    """A spec admissible for kind, with |theta| and |phi| on their bound
    one time in five, and an x = +-10^U(-6, 8) and t = 10^U(-3, 3)."""
    wave = kind in ("G2", "G4")
    alpha = float(rng.uniform(1.0 if wave else 0.05, 2.0))
    beta, gamma = (float(v) for v in rng.uniform(0.05, 2.0, 2))

    def skew(order):
        edge = min(order, 2.0 - order)
        on_edge = rng.random() < 0.2
        return float(rng.choice([-1.0, 1.0]) if on_edge
                     else rng.uniform(-1.0, 1.0)) * edge

    spec = ProblemSpec(alpha=alpha, beta=beta, theta=skew(beta), gamma=gamma,
                       phi=skew(gamma), mu=float(rng.uniform(0.0, 1.0)),
                       source_coupling="self" if kind in ("G3", "G4")
                       else "external")
    x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 8.0))
    return spec, x, float(10.0 ** rng.uniform(-3.0, 3.0))


calls = []
for i in range(n_draws):
    for kind in ("G", "G1", "G2", "G3", "G4"):
        spec, x, t = draw(kind)
        methods = [("rays", green_points)]
        if kind in ("G", "G2"):
            methods.append(("closed", green_point_closed))
        for name, fn in methods:
            start = time.perf_counter()
            got = outcome(lambda: fn(kind, [x], t, spec))
            calls.append([kind, name, repr(spec), x, t,
                          time.perf_counter() - start, got])
runs = []
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "g.csv")
    for i in range(n_cli):
        kind = ("G", "G2")[i % 2]
        spec, x, t = draw(kind)
        argv = ["green", "--kind", kind, f"--alpha={spec.alpha!r}",
                f"--beta={spec.beta!r}", f"--theta={spec.theta!r}",
                "--x-range", repr(x), repr(x), "--nx", "1", f"--t={t!r}",
                "-o", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, exc = bounded(lambda: cli.run(argv))
        runs.append([argv, code if exc is None else repr(exc),
                     err.getvalue()])
print(json.dumps({"calls": calls, "runs": runs}))
'''


def test_admissible_draws_give_values_or_named_refusals(python_env):
    # seed 7's 30 draws hold extremal skews |theta| = beta <= 1 and a G2
    # closed form at its node cap
    args = [_MEMORY_LIMIT, 7, 30, 4, _CALL_SECONDS]
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(args)],
                          env=python_env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    calls = report["calls"]
    wrong = [c for c in calls
             if c[-1] not in ("finite", *_ARITHMETIC_ERRORS)]
    assert not wrong
    shares = Counter(c[-1] for c in calls)
    print(f"{len(calls)} calls, slowest {max(c[-2] for c in calls):.2f} s:",
          ", ".join(f"{k} {v / len(calls):.1%}"
                    for k, v in shares.most_common()))
    # a sweep that refused everything would show nothing
    assert shares["finite"] >= len(calls) / 2
    for argv, code, err in report["runs"]:
        assert code in (0, 2, 3), (argv, err)
        assert err.count("\n") == (code != 0), (argv, err)


def _solver_draws(seed, count):
    """Seeded (spec, f, g, U, grid, cfg) draws: alpha and beta in (0.3, 2),
    each skew up to its order's whole bound min(order, 2 - order), so past
    2 - alpha where G_hat grows, and on it one time in four; mu > 0 in
    both source modes, one draw in three self-coupled; Gaussian data on
    nx 8 or 16 and two times on the lattice of 16 or 32 oracle steps."""
    rng = np.random.default_rng(seed)
    zero = SourceDescriptor.zero()
    draws = []
    for i in range(count):
        a, b, gamma = (float(v) for v in rng.uniform(0.3, 2.0, 3))
        theta, phi = (float(rng.choice([-1.0, 1.0]) if rng.random() < 0.25
                            else rng.uniform(-1.0, 1.0)) * min(o, 2.0 - o)
                      for o in (b, gamma))
        coupling = "self" if i % 3 == 2 else "external"
        spec = ProblemSpec(alpha=a, beta=b, theta=theta, gamma=gamma,
                           phi=phi, mu=float(rng.uniform(0.1, 1.0)),
                           source_mode=("riesz_feller", "identity")[i % 2],
                           source_coupling=coupling)
        f, g, U = (SourceDescriptor.gaussian(float(c), float(w))
                   for c, w in zip(rng.uniform(-1.0, 1.0, 3),
                                   rng.uniform(0.5, 1.5, 3)))
        g = g if a > 1.0 else zero
        U = U if coupling == "external" else zero
        t, n = float(rng.uniform(0.2, 2.0)), int(rng.choice([16, 32]))
        grid = SpaceTimeGrid(-8.0, 8.0, int(rng.choice([8, 16])),
                             (t / 2.0, t))
        draws.append((spec, f, g, U, grid, OracleConfig(t / n, n)))
    return draws


def test_solvers_answer_or_refuse_where_g_hat_grows():
    # a growing spec is refused by both solvers before any work, every
    # other one gives a finite field with at most a window warning; never
    # a RuntimeWarning, an MLConvergenceError or an OracleInstabilityError
    grown = 0
    for spec, f, g, U, grid, cfg in _solver_draws(11, 60):
        grows = _growth(spec, spec.source_coupling == "self") is not None
        grown += grows
        for run in (lambda: solve(spec, f, g, U, grid),
                    lambda: oracle_solve(spec, f, grid, cfg, g=g, U=U)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.simplefilter("error", RuntimeWarning)
                if grows:
                    with pytest.raises(FourierOnlyError):
                        run()
                    continue
                values = run().values
            assert np.isfinite(values).all(), spec
            assert all(str(w.message).startswith(_WINDOW_WARNINGS)
                       for w in caught), spec
    # both sides of the rule are drawn
    assert 5 <= grown <= 55
