"""Spans around fracgreen's public functions, recorded from outside.

``install`` replaces every binding of each traced function in every loaded
``fracgreen`` module (``green`` and ``solver`` import
``mittag_leffler_array`` by name, ``cli`` imports ``green_points``), so the
package itself is not modified.  Spans are kept in memory; ``summarize``
turns them into per-name calls, counts and self times.

Self time of a span is its duration minus the part of it covered by its
children.  A span opened on a thread whose own stack is empty is adopted
by the tracer's current root span (the ``cli.run`` span in a CLI child),
so work done on the CLI's worker threads is subtracted from ``cli.run``
while each library span keeps its own per-thread self time.
"""

import threading
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "count", "phase")

    def __init__(self, name, parent, t0, count, phase):
        self.name = name
        self.parent = parent
        self.t0 = t0
        self.t1 = None
        self.count = count
        self.phase = phase


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self.phase = "timed"
        self.root = None
        self._local = threading.local()
        self._restore = []

    def open(self, name, count=0):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.root
        span = Span(name, parent, _clock(), count, self.phase)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.t1 = _clock()
        self._local.stack.pop()

    def wrap(self, name, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name, count(args, kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)


class _SpanContext:
    """Context manager that times the body of another one."""

    def __init__(self, tracer, name, inner):
        self.tracer = tracer
        self.name = name
        self.inner = inner
        self.span = None

    def __enter__(self):
        if self.tracer.enabled:
            self.span = self.tracer.open(self.name)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            if self.span is not None:
                self.tracer.close(self.span)


def _size(index, key):
    import numpy as np

    def count(args, kwargs):
        v = args[index] if len(args) > index else kwargs.get(key)
        return int(np.size(v))
    return count


def _mode_steps(args, kwargs):
    import numpy as np
    coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return int(np.size(coeffs)) * int(cfg.n_steps)


# (defining module, attribute, span name, count function)
TARGETS = (
    ("fracgreen.fracmath", "mittag_leffler_array",
     "fracmath.mittag_leffler_array", _size(2, "z")),
    ("fracgreen.fracmath", "mittag_leffler", "fracmath.mittag_leffler", None),
    ("fracgreen.fracmath", "h_function", "fracmath.h_function", None),
    ("fracgreen.fracmath", "quad", "fracmath.scipy_quad", None),
    ("fracgreen.operators", "riesz_feller_symbol",
     "operators.riesz_feller_symbol", None),
    ("fracgreen.operators", "gl_weights", "operators.gl_weights", None),
    ("fracgreen.green", "green_hat", "green.green_hat", _size(1, "k")),
    ("fracgreen.green", "green_points", "green.green_points", _size(1, "xs")),
    ("fracgreen.green", "green_point_closed", "green.green_point_closed", None),
    ("fracgreen.solver", "solve", "solver.solve", None),
    ("fracgreen.solver", "convolve_time_singular",
     "solver.convolve_time_singular", None),
    ("fracgreen.oracle", "oracle_mode_evolve", "oracle.oracle_mode_evolve",
     _mode_steps),
    ("fracgreen.oracle", "oracle_solve", "oracle.oracle_solve", None),
)


def install(tracer):
    """Wrap every binding of the TARGETS in all loaded fracgreen modules,
    and time each entry into ``mpmath.workdps`` as ``fracmath.mpmath``."""
    import importlib
    import sys

    import fracgreen.cli  # noqa: F401  (loads every submodule)
    import mpmath

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "fracgreen"
                                     or name.startswith("fracgreen."))]
    for mod_name, attr, span_name, count in TARGETS:
        original = getattr(importlib.import_module(mod_name), attr)
        traced = tracer.wrap(span_name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    tracer.patch(mod, key, traced)

    workdps = mpmath.workdps

    def traced_workdps(*args, **kwargs):
        return _SpanContext(tracer, "fracmath.mpmath", workdps(*args, **kwargs))
    tracer.patch(mpmath, "workdps", traced_workdps)


def union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every closed span: duration minus covered child time."""
    children = {}
    for s in spans:
        if s.parent is not None and s.t1 is not None:
            children.setdefault(id(s.parent), []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        if s.t1 is None:
            continue
        kids = children.get(id(s), ())
        out[id(s)] = (s.t1 - s.t0) - union_length(kids, s.t0, s.t1)
    return out


def _under(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def summarize(spans):
    """Per-phase, per-name totals: calls, count, self_s, total_s.

    Also returns, per phase, the Mittag-Leffler points evaluated inside
    ``solver.solve`` spans (key ``ml_points_in_solve``).
    """
    own = self_times(spans)
    out = {}
    for s in spans:
        if s.t1 is None:
            continue
        ph = out.setdefault(s.phase, {"ml_points_in_solve": 0})
        rec = ph.setdefault(s.name, {"calls": 0, "count": 0, "self_s": 0.0,
                                     "total_s": 0.0})
        rec["calls"] += 1
        rec["count"] += s.count
        rec["self_s"] += own[id(s)]
        rec["total_s"] += s.t1 - s.t0
        if s.name == "fracmath.mittag_leffler_array" and _under(s, "solver.solve"):
            ph["ml_points_in_solve"] += s.count
    return out


def merge(into, summary):
    """Add one summarize() result into another (for CLI children)."""
    for phase, names in summary.items():
        dst = into.setdefault(phase, {"ml_points_in_solve": 0})
        for name, rec in names.items():
            if name == "ml_points_in_solve":
                dst[name] += rec
                continue
            d = dst.setdefault(name, {"calls": 0, "count": 0, "self_s": 0.0,
                                      "total_s": 0.0})
            for k in d:
                d[k] += rec[k]
    return into
