"""In-process workloads (kernels_warm, fields_warm) and the Mittag-Leffler
region probe.  Started by run.py as a child process:

    python3 perfbench/inproc.py --workload W --seed N --seconds S
        --trace 0|1 --role setup|main --out result.json
    python3 perfbench/inproc.py --probe --seed N --out result.json

A worker prints READY on stdout once it is set up (imported and warmed),
so the parent can time set-up from process start.  A ``setup`` worker
exits there; the ``main`` worker goes on to the timed closed loop (one
caller, each call waits for the previous one), then checks the results
with tracing off, and writes everything to --out.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
import warnings

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(_HERE), os.path.join(os.path.dirname(_HERE), "src")]

from perfbench import gates, gen, trace  # noqa: E402


class Lib:
    """Late-bound access to fracgreen, so traced wrappers are picked up."""

    def __init__(self):
        t0 = time.perf_counter()
        import fracgreen.cli  # noqa: F401
        import numpy
        self.import_s = time.perf_counter() - t0
        self.fg = sys.modules["fracgreen"]
        self.np = numpy

    def spec(self, d):
        return self.fg.green.ProblemSpec(
            alpha=d["alpha"], beta=d["beta"], gamma=d["gamma"],
            theta=d["theta"], phi=d["phi"], lam=complex(d["lam"]),
            mu=complex(d["mu"]), source_mode=d["source_mode"],
            source_coupling=d["source_coupling"])

    def source(self, src):
        S = self.fg.solver.SourceDescriptor
        if src is None:
            return S.zero()
        name, *vals = src
        return S.gaussian(*vals) if name == "gaussian" else S.box(*vals)


# ---------------------------------------------------------------------------
# kernels_warm
# ---------------------------------------------------------------------------

class Kernels:
    def __init__(self, lib, seed):
        self.lib = lib
        specs, self.warm, self.stream = gen.kernel_plan(seed)
        self.specs = {k: lib.spec(v) for k, v in specs.items()}
        self.seed = seed

    def call(self, c):
        """Run one kernel call; returns (class, values, output, times)."""
        lib, np = self.lib, self.lib.np
        green = lib.fg.green
        kind = green.GreenKind[c["kind"]]
        sp = self.specs[c["spec"]]
        if c["op"] == "points":
            xs = np.linspace(c["x"][0], c["x"][1], c["nx"])
            out = green.green_points(kind, xs, c["t"], sp)
            return _op_class(c), xs.size, out, 1
        if c["op"] == "closed":
            out = green.green_point_closed(kind, c["x"], c["t"], sp)
            return _op_class(c), 1, out, 1
        k = np.linspace(-c["kmax"], c["kmax"], c["nk"])
        out = green.green_hat(kind, k, c["t"], sp)
        return _op_class(c), k.size, out, 1

    def check(self, records):
        """Gates on the timed results; returns a list of gate records."""
        lib = self.lib
        green = lib.fg.green
        rng = random.Random(f"kernels_warm-gates:{self.seed}")
        out = []
        closed = [r for r in records if r["ok"] and r["call"]["op"] == "closed"]
        for r in rng.sample(closed, min(6, len(closed))):
            c = r["call"]
            kind = green.GreenKind[c["kind"]]
            quad = green.green_points(kind, [c["x"]], c["t"], self.specs[c["spec"]])
            ok, gap = gates.closed_vs_quadrature([r["output"]], quad)
            out.append(dict(gate="closed_vs_quadrature", ok=ok, value=gap, rid=r["rid"]))
        for r in records:
            c = r["call"]
            if not r["ok"]:
                continue
            ok, n = gates.finite(r["output"])
            if not ok:
                out.append(dict(gate="finite", ok=False, value=n, rid=r["rid"]))
            if c["op"] == "hat" and c["kind"] in ("G", "G2"):
                kind = green.GreenKind[c["kind"]]
                sp = self.specs[c["spec"]]
                ok, gap = gates.mass_law(green.green_hat(kind, 0.0, c["t"], sp),
                                         green.green_mass(kind, c["t"], sp))
                out.append(dict(gate="mass_law", ok=ok, value=gap, rid=r["rid"]))
        return out


# ---------------------------------------------------------------------------
# fields_warm
# ---------------------------------------------------------------------------

class Fields:
    def __init__(self, lib, seed):
        self.lib = lib
        self.cases, self.warm, self.stream = gen.field_plan(seed)
        self.specs = {k: lib.spec(c["spec"]) for k, c in self.cases.items()}
        self.grids = {k: lib.fg.solver.SpaceTimeGrid(c["x"][0], c["x"][1], c["nx"],
                                                     c["times"])
                      for k, c in self.cases.items()}

    def call(self, d):
        """Run one solve, plus oracle_solve for source-free cases.

        Returns a list of (class, values, output, times, seconds)."""
        lib = self.lib
        solver, oracle = lib.fg.solver, lib.fg.oracle
        key = d["case"]
        case, sp, grid = self.cases[key], self.specs[key], self.grids[key]
        f, g, U = lib.source(d["f"]), lib.source(d["g"]), lib.source(d["U"])
        t0 = time.perf_counter()
        fld = solver.solve(sp, f, g, U, grid)
        t1 = time.perf_counter()
        n = grid.nx * len(grid.times)
        res = [(_op_class(d), n, fld.values, len(grid.times), t1 - t0)]
        if case["oracle"]:
            steps = int(round(grid.times[-1] / gen.ORACLE_DT))
            cfg = oracle.OracleConfig(gen.ORACLE_DT, steps)
            ref = oracle.oracle_solve(sp, f, grid, cfg)
            res.append((f"oracle:{key}", n, ref.values, 0,
                        time.perf_counter() - t1))
        return res

    def source_reference(self, key, U):
        """Exact per-mode source term mu m_S U_hat t^a E_{a,a+1}(-lam Psi t^a)."""
        lib, np = self.lib, self.lib.np
        from fracgreen.solver import _padded_wavenumbers
        sp, grid = self.specs[key], self.grids[key]
        ops = lib.fg.operators
        M, k = _padded_wavenumbers(grid)
        col = np.zeros(M, dtype=complex)
        col[:grid.nx] = lib.source(U).render(grid.x, grid.dx)
        uh = np.fft.fft(col)
        psi = ops.riesz_feller_symbol(sp.space_symbol(), k)
        if sp.source_mode == "riesz_feller":
            m_s, sign = ops.riesz_feller_symbol(sp.source_symbol(), k), -1.0
        else:
            m_s, sign = 1.0, 1.0
        a = sp.alpha
        rows = []
        for t in grid.times:
            ml = lib.fg.fracmath.mittag_leffler_array(a, a + 1.0,
                                                      -sp.lam * psi * t ** a)
            rows.append(np.fft.ifft(sign * sp.mu * m_s * uh * t ** a * ml)[:grid.nx])
        return np.asarray(rows)

    def check(self, records):
        out = []
        solved = {}
        for r in records:
            if not r["ok"]:
                continue
            ok, n = gates.finite(r["output"])
            if not ok:
                out.append(dict(gate="finite", ok=False, value=n, rid=r["rid"]))
                continue
            d, cls = r["call"], r["cls"]
            key = d["case"]
            if cls.startswith("solve:"):
                solved[r["index"]] = r["output"]
                if d["U"] is not None:
                    ref = self.source_reference(key, d["U"])
                    ok, gap = gates.source_term(r["output"], ref)
                    out.append(dict(gate="source_term", ok=ok, value=gap,
                                    rid=r["rid"]))
            elif cls.startswith("oracle:") and r["index"] in solved:
                ok, gap = gates.oracle_vs_solve(r["output"], solved[r["index"]])
                out.append(dict(gate="oracle_vs_solve", ok=ok, value=gap,
                                rid=r["rid"]))
        return out


WORKLOADS = {"kernels_warm": Kernels, "fields_warm": Fields}


def _results(w, item, t_call):
    """Normalise one call of either workload to result tuples."""
    if isinstance(w, Fields):
        return w.call(item)
    cls, n, out, nt = w.call(item)
    return [(cls, n, out, nt, time.perf_counter() - t_call)]


def timed_loop(w, seconds):
    """Closed loop for `seconds`; one record per timed operation."""
    records = []
    calls = []
    t_begin = time.perf_counter()
    deadline = t_begin + seconds
    for index, item in enumerate(w.stream):
        t_call = time.perf_counter()
        # whole rounds only, so every run sees the same mix of calls
        if item["round"] > 0 and calls[-1]["round"] != item["round"] \
                and t_call >= deadline:
            break
        calls.append(item)
        try:
            for cls, n, out, nt, sec in _results(w, item, t_call):
                records.append(dict(rid=len(records), index=index, call=item,
                                    cls=cls, values=n, times=nt, seconds=sec,
                                    ok=True, output=out))
        except Exception as exc:  # every library error is a counted failure
            records.append(dict(rid=len(records), index=index, call=item,
                                cls=_op_class(item),
                                values=0, times=0,
                                seconds=time.perf_counter() - t_call, ok=False,
                                output=None, error=f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t_begin
    return records, calls, wall


def _op_class(item):
    """Request class used in the per-class report lines."""
    if "case" in item:
        return f"solve:{item['case']}"
    if item["op"] == "points":
        return f"points:{item['spec']}:{item['kind']}"
    return f"{item['op']}:{item['kind']}"


def replay(w, calls):
    t0 = time.perf_counter()
    for item in calls:
        try:
            _results(w, item, time.perf_counter())
        except Exception:  # failures were already counted in the timed pass
            pass
    return time.perf_counter() - t0


def warm_up(w):
    errors = 0
    for item in w.warm:
        try:
            _results(w, item, time.perf_counter())
        except Exception:  # the same inputs fail (and count) in the timed pass
            errors += 1
    return errors


def run_worker(args):
    warnings.simplefilter("ignore")
    tracer = None
    if args.trace and args.role == "main":
        tracer = trace.Tracer()
        tracer.phase = "setup"
    lib = Lib()
    if tracer is not None:
        trace.install(tracer)
    w = WORKLOADS[args.workload](lib, args.seed)
    warm_errors = warm_up(w)
    print("READY", flush=True)
    if args.role == "setup":
        return {"import_s": lib.import_s}
    if tracer is not None:
        tracer.phase = "timed"
    cpu0 = time.process_time()
    records, calls, wall = timed_loop(w, args.seconds)
    cpu = time.process_time() - cpu0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"import_s": lib.import_s,
              "warm_errors": warm_errors, "timed_wall_s": wall, "cpu_s": cpu,
              "maxrss_kb": maxrss_kb}
    if tracer is not None:
        tracer.enabled = False
        result["trace"] = trace.summarize(tracer.spans)
        result["spans"] = len(tracer.spans)
    result["gates"] = w.check(records)
    if tracer is not None:
        tracer.uninstall()
        result["replay_wall_s"] = replay(w, calls)
    for r in records:
        r.pop("output")
        r["call"] = {k: v for k, v in r["call"].items() if k in ("op", "case", "kind", "spec")}
    result["records"] = records
    return result


# ---------------------------------------------------------------------------
# Mittag-Leffler region probe
# ---------------------------------------------------------------------------

def _best_rate(fn, z, repeats=3):
    """Points per second: the median of `repeats` timed calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(z)
        times.append(time.perf_counter() - t0)
    times.sort()
    return z.size / times[len(times) // 2]


def run_probe(args):
    """Points per second of mittag_leffler_array in five argument regions."""
    lib = Lib()
    np = lib.np
    ml = lib.fg.fracmath.mittag_leffler_array
    rng = np.random.default_rng(args.seed)

    def zs(n, rlo, rhi, phase=None):
        r = rng.uniform(rlo, rhi, n)
        ph = rng.uniform(0.8 * np.pi, np.pi, n) if phase is None else phase
        return r * np.exp(1j * ph)

    a = float(rng.uniform(0.65, 0.9))
    out = {"alpha": a}
    # one shared phase in the middle region: first call builds the ray
    # models (cold), later calls reuse them (warm)
    phase = float(rng.uniform(0.8 * np.pi, np.pi))
    z = zs(400, 5.0, 15.0, phase)
    t0 = time.perf_counter()
    ml(a, a, z)
    out["mid_shared_cold"] = z.size / (time.perf_counter() - t0)
    out["mid_shared_warm"] = _best_rate(lambda v: ml(a, a, v), zs(400, 5.0, 15.0, phase))
    ml(a, a, zs(8, 0.0, 5.0))
    out["small"] = _best_rate(lambda v: ml(a, a, v), zs(4000, 0.0, 5.0))
    ml(a, a, zs(8, 15.0, 200.0))
    out["large"] = _best_rate(lambda v: ml(a, a, v), zs(4000, 15.0, 200.0))
    out["mid_scattered"] = _best_rate(lambda v: ml(a, a, v), zs(40, 5.0, 15.0))
    ah = float(rng.uniform(1.1, 1.9))
    zh = zs(400, 0.0, 30.0)
    ml(ah, ah, zh)
    out["high_alpha"] = _best_rate(lambda v: ml(ah, ah, v), zh)
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "main"), default="main")
    p.add_argument("--probe", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    result = run_probe(args) if args.probe else run_worker(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=_jsonable)
    return 0


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if hasattr(v, "tolist"):
        return v.tolist()
    raise TypeError(f"not serialisable: {type(v)}")


if __name__ == "__main__":
    sys.exit(main())
