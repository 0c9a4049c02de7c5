"""Entry point of the fracgreen benchmark.

    python3 perfbench/run.py --workload cli_cold|kernels_warm|fields_warm|all
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  Load is one closed-loop caller (each
request waits for the previous one), and at most two busy processes or
threads exist at a time.

Workloads (inputs from perfbench/gen.py, one seed = one input set):
  cli_cold      every request is a fresh `fracgreen` CLI process;
  kernels_warm  one warmed process calling green_points, green_point_closed
                and green_hat;
  fields_warm   one warmed process calling solve and oracle_solve.

With --trace 0 the last stdout line carries the end-to-end metrics (names
in BENCHMARK.json); with --trace 1 it carries the per-layer metrics from
spans around fracgreen's public functions, the tracing overhead, and the
Mittag-Leffler region probe.  The lines before it give the workload's own
figures (cli_request_p50_s, kernel_call_p90_ms, oracle_p50_s, ...,
failed_fraction) by name and unit, with sample counts.

Each workload runs whole rounds of its request cycle, so a run lasts at
least --seconds and every run measures the same mix.  request_latency_s
and output_values_per_s are geometric means over the operations (_e2e).

The result line is {"correct", "attempted", "failed", "metrics"}.
`attempted` counts timed operations (CLI requests, kernel calls, solves
and oracle solves); `failed` counts those that raised, exited non-zero or
missed a correctness gate (perfbench/gates.py).  `correct` is false when
an output could not be checked at all (missing or unreadable output from
a request that reported success, or a timed-out request).
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cli_cold", "kernels_warm", "fields_warm")
# set-up is timed several times per run and reported as the median: a
# fresh interpreter import for cli_cold, import plus warm-up for the others
CLI_SETUPS = 3
WORKER_SETUPS = 2
REQUEST_TIMEOUT_S = 120.0

# Per-layer metric -> the end-to-end metric(s) it is predicted to move, and
# on which workload (kernels_warm is not in BENCHMARK.json; see gen.py).
PREDICTIONS = {
    "fracmath.mittag_leffler_array": "request_latency_s, output_values_per_s on "
                                     "fields_warm (and kernels_warm)",
    "fracmath.h_function": "request_latency_s on cli_cold (closed requests); "
                           "~0 on fields_warm",
    "fracmath.mpmath": "request_latency_s, output_values_per_s on cli_cold; setup_s "
                       "on fields_warm; ~0 in the timed warm passes",
    "fracmath.scipy_quad": "output_values_per_s on cli_cold; "
                           "request_latency_s on fields_warm (self-coupled case)",
    "fracmath.mittag_leffler": "scalar path, used by the ml subcommand only",
    "fracmath.ml.": "request_latency_s on fields_warm; output_values_per_s on cli_cold",
    "operators.": "request_latency_s on fields_warm",
    "green.green_points": "output_values_per_s on cli_cold (and kernels_warm)",
    "green.green_hat": "output_values_per_s on cli_cold; request_latency_s on "
                       "fields_warm",
    "green.green_point_closed": "request_latency_s on cli_cold",
    "solver.": "request_latency_s, output_values_per_s, peak_rss_mb on fields_warm",
    "oracle.": "oracle_p50_s on fields_warm (printed); no fracmath change should "
               "move these",
    "cli.": "request_latency_s and output_values_per_s on cli_cold",
    "proc.import_s": "setup_s on every workload",
    "trace.overhead_fraction": "none (tracing cost of this run)",
}


def _fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _check_checkout():
    if not os.path.isfile(os.path.join(SRC, "fracgreen", "__init__.py")):
        _fail_setup(f"no fracgreen sources under {SRC}; run from a checkout root")
    sys.path[:0] = [ROOT, SRC]
    import fracgreen
    if not os.path.abspath(fracgreen.__file__).startswith(SRC + os.sep):
        _fail_setup(f"imported fracgreen from {fracgreen.__file__}, not {SRC}")


def _child_env():
    env = dict(os.environ)
    env.pop("FRACGREEN_THREADS", None)  # the shipped default: unset
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def _quantile(values, q):
    """Linear-interpolation quantile (numpy's default)."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _beyond(values, q):
    cut = _quantile(values, q)
    return sum(1 for v in values if v > cut)


class Report:
    """Collects the human-readable lines and the final metrics."""

    def __init__(self, workload):
        self.workload = workload
        self.metrics = {}
        self.lines = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": float(value), "unit": unit}

    def note(self, name, value, unit, n=None, extra=""):
        count = f" (n={n}{extra})" if n is not None else ""
        self.lines.append(f"{self.workload}: {name} = {value:.6g} {unit}{count}")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

class CliRunner:
    def __init__(self, trace_on):
        self.trace_on = trace_on
        self.env = _child_env()
        self.child = os.path.join(HERE, "clichild.py")

    def spawn(self, argv, trace_out="-"):
        cmd = [sys.executable, self.child, trace_out, "--"] + argv
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            p = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                               timeout=REQUEST_TIMEOUT_S)
            code, err = p.returncode, p.stderr.decode("utf-8", "replace")
        except subprocess.TimeoutExpired:
            code, err = None, "timed out"
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        return code, err, wall, cpu

    def request(self, index, req, base, rounds):
        """Run one generated request; outputs go under base/r<index>."""
        d = os.path.join(base, f"r{index}")
        os.makedirs(d, exist_ok=True)
        paths = rounds.setdefault(req["round"], {})
        out = os.path.join(d, req["output"])
        argv = [paths.get(a[1:-1], a) if a.startswith("{") else a
                for a in req["argv"]] + ["-o", out]
        if req.get("manifest"):
            argv += ["--manifest", os.path.join(d, req["manifest"])]
        paths[req["output"]] = out
        tout = os.path.join(d, "trace.json") if self.trace_on else "-"
        code, err, wall, cpu = self.spawn(argv, tout)
        return dict(index=index, name=req["name"], command=req["command"],
                    code=code, stderr=err[-400:], seconds=wall, cpu_s=cpu,
                    out=out, dir=d, req=req,
                    trace=tout if self.trace_on else None)


def _check_cli_output(rec):
    """Parse a successful request's output; returns (rows, bytes, gates)."""
    from perfbench import gates
    req = rec["req"]
    with open(rec["out"], encoding="utf-8") as fh:
        text = fh.read()
    nbytes = len(text.encode("utf-8"))
    if req["command"] == "compare":
        doc = json.loads(text)
        ok, _ = gates.finite([doc["relative_l2"], doc["max_abs"]])
        ok = ok and doc["relative_l2"] <= gates.ORACLE_TOL
        return 0, nbytes, [dict(gate="oracle_vs_solve", ok=ok,
                                value=doc["relative_l2"], index=rec["index"])]
    arr, extra = gates.csv_rows(text, 4)
    want = req["nx"] * len(req["times"])
    ok, _ = gates.finite(arr[:, 2] + 1j * arr[:, 3])
    res = [dict(gate="csv", ok=ok and arr.shape[0] == want, value=arr.shape[0],
                index=rec["index"])]
    if req.get("manifest"):
        with open(os.path.join(rec["dir"], req["manifest"]), encoding="utf-8") as fh:
            man = json.load(fh)
        res.append(dict(gate="manifest", ok=all(c[1] for c in man["checks"]),
                        value=len(man["checks"]), index=rec["index"]))
    rec["rows"] = arr
    rec["methods"] = [e[0] if e else "" for e in extra]
    return arr.shape[0], nbytes, res


def _closed_rows_gate(recs, seed):
    """A seeded subset of closed-form rows against green_points."""
    import numpy as np
    from fracgreen import green
    from perfbench import gates
    from perfbench.inproc import Lib
    lib = Lib()
    rng = random.Random(f"cli_cold-gates:{seed}")
    candidates = [r for r in recs if r.get("methods") and "closed" in r["methods"]]
    out = []
    for rec in rng.sample(candidates, min(2, len(candidates))):
        rows = [i for i, m in enumerate(rec["methods"])
                if m == "closed" and rec["rows"][i, 1] != 0.0]
        pick = sorted(rng.sample(rows, min(4, len(rows))))
        sp = lib.spec(rec["req"]["spec"])
        kind = green.GreenKind[rec["req"]["kind"]]
        for i in pick:
            t, x, re = rec["rows"][i, :3]
            quad = green.green_points(kind, np.array([x]), float(t), sp)
            ok, gap = gates.closed_vs_quadrature([re], quad)
            out.append(dict(gate="closed_vs_quadrature", ok=ok, value=gap,
                            index=rec["index"]))
    return out


def run_cli_cold(args, tmp, rep):
    runner = CliRunner(bool(args.trace))
    setups = [runner.spawn([])[2] for _ in range(CLI_SETUPS)]
    from perfbench import gen
    records, rounds = [], {}
    base = os.path.join(tmp, "timed")
    t_begin = time.perf_counter()
    deadline = t_begin + args.seconds
    stream = gen.cli_stream(args.seed)
    for index, req in enumerate(stream):
        # whole rounds only, so every run sees the same mix of requests
        if req["round"] > 0 and records[-1]["req"]["round"] != req["round"] \
                and time.perf_counter() >= deadline:
            break
        records.append(runner.request(index, req, base, rounds))
    wall = time.perf_counter() - t_begin
    maxrss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    rows = nbytes = 0
    checked = []
    failures = {}
    for rec in records:
        rec["cls"], rec["values"], rec["ok"] = rec["name"], 0, False
        if rec["code"] is None:
            rep.correct = False
        if rec["code"] != 0:
            failures[rec["index"]] = f"exit {rec['code']}: {rec['stderr'].strip()[-160:]}"
            continue
        try:
            r, b, res = _check_cli_output(rec)
        except (OSError, ValueError, KeyError) as exc:
            rep.correct = False
            failures[rec["index"]] = f"unreadable output: {exc}"
            continue
        rec["values"], rec["ok"] = r, True
        rows += r
        nbytes += b
        checked += res
    checked += _closed_rows_gate(records, args.seed)
    for g in checked:
        if not g["ok"]:
            failures.setdefault(g["index"], f"gate {g['gate']} missed: {g['value']:.3g}")

    rep.attempted, rep.failed = len(records), len(failures)
    _failure_lines(rep, failures, {r["index"]: r["name"] for r in records})
    lat = [r["seconds"] for r in records]
    cpu = sum(r["cpu_s"] for r in records)
    if args.trace:
        return _cli_layers(args, tmp, rep, records, runner, rows, nbytes, cpu)
    _class_lines(rep, records)
    rep.note("cli_request_p50_s", statistics.median(lat), "s", len(lat))
    rep.note("cli_rows_per_s", rows / wall, "1/s", len(lat))
    rep.note("cli.cpu_per_wall", cpu / sum(lat), "ratio", len(lat))
    _e2e(rep, records, setups, maxrss_mb)


def _cli_layers(args, tmp, rep, records, runner, rows, nbytes, cpu):
    from perfbench import trace
    merged, imports, spans = {}, [], 0
    for rec in records:
        try:
            with open(rec["trace"], encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue  # the request died before writing its spans
        trace.merge(merged, doc["trace"])
        imports.append(doc["import_s"])
        spans += doc["spans"]
    # replay the first round untraced: tracing overhead, and whether
    # identical requests give identical bytes (one round keeps the traced
    # run inside its time limit)
    first = [rec for rec in records if rec["req"]["round"] == 0]
    base = os.path.join(tmp, "replay")
    rounds, mismatch, replay = {}, 0, 0.0
    runner.trace_on = False
    for rec in first:
        again = runner.request(rec["index"], rec["req"], base, rounds)
        replay += again["seconds"]
        if rec["code"] == 0 and again["code"] == 0 and rec["command"] != "compare":
            with open(rec["out"], "rb") as a, open(again["out"], "rb") as b:
                mismatch += a.read() != b.read()
    traced = sum(rec["seconds"] for rec in first)
    lat = sum(r["seconds"] for r in records)
    times = sum(len(r["req"]["times"]) for r in records)
    _layers(rep, merged.get("timed", {}), {}, requested_times=times)
    rep.metric("cli.run.self_s", _rec(merged.get("timed", {}), "cli.run")["self_s"], "s")
    rep.metric("cli.csv_rows", rows, "count")
    rep.metric("cli.csv_bytes", nbytes, "bytes")
    rep.metric("cli.cpu_per_wall", cpu / lat, "ratio")
    rep.metric("cli.output_mismatch", mismatch, "count")
    rep.metric("proc.import_s", statistics.median(imports) if imports else 0.0, "s")
    rep.metric("trace.overhead_fraction", (traced - replay) / replay, "ratio")
    rep.note("trace.spans", spans, "count", len(records))
    _probe(args, tmp, rep)
    _prediction_lines(rep)


# ---------------------------------------------------------------------------
# kernels_warm / fields_warm
# ---------------------------------------------------------------------------

def _spawn_worker(args, tmp, role, tag):
    out = os.path.join(tmp, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), "--workload",
           args.workload_name, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--role", role,
           "--out", out]
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    ready = None
    try:
        for line in p.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
        code = p.wait(timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        raise
    finally:
        p.stdout.close()
    if code != 0 or ready is None:
        raise RuntimeError(f"{args.workload_name} {role} worker exited {code}")
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["ready_s"] = ready
    return doc


def run_inproc(args, tmp, rep):
    setups = [_spawn_worker(args, tmp, "setup", f"setup{i}")["ready_s"]
              for i in range(WORKER_SETUPS - 1)]
    doc = _spawn_worker(args, tmp, "main", "main")
    setups.append(doc["ready_s"])
    records = doc["records"]
    failures = {}
    for r in records:
        if not r["ok"]:
            failures[r["rid"]] = r["error"][:160]
    for g in doc["gates"]:
        if not g["ok"]:
            failures.setdefault(g["rid"], f"gate {g['gate']} missed: {g['value']:.3g}")
    ops = len(records)
    rep.attempted, rep.failed = ops, len(failures)
    _failure_lines(rep, failures, {r["rid"]: r["cls"] for r in records})
    wall = doc["timed_wall_s"]
    if args.trace:
        trace_sum = doc["trace"]
        times = sum(r["times"] for r in records)
        _layers(rep, trace_sum.get("timed", {}), trace_sum.get("setup", {}),
                requested_times=times)
        rep.metric("cli.run.self_s", 0.0, "s")
        rep.metric("cli.csv_rows", 0, "count")
        rep.metric("cli.csv_bytes", 0, "bytes")
        rep.metric("cli.cpu_per_wall", doc["cpu_s"] / wall, "ratio")
        rep.metric("cli.output_mismatch", 0, "count")
        rep.metric("proc.import_s", doc["import_s"], "s")
        rep.metric("trace.overhead_fraction",
                   (wall - doc["replay_wall_s"]) / doc["replay_wall_s"], "ratio")
        rep.note("trace.spans", doc["spans"], "count", ops)
        _probe(args, tmp, rep)
        _prediction_lines(rep)
        return
    _class_lines(rep, records)
    values = sum(r["values"] for r in records if r["ok"])
    if args.workload_name == "kernels_warm":
        ms = [1e3 * r["seconds"] for r in records]
        rep.note("kernel_call_p50_ms", _quantile(ms, 0.5), "ms", len(ms))
        rep.note("kernel_call_p90_ms", _quantile(ms, 0.9), "ms", len(ms),
                 f", {_beyond(ms, 0.9)} beyond p90")
        rep.note("kernel_points_per_s", values / wall, "1/s", ops)
    else:
        for name, prefix in (("solve_p50_s", "solve:"), ("oracle_p50_s", "oracle:")):
            v = [r["seconds"] for r in records if r["cls"].startswith(prefix)]
            rep.note(name, statistics.median(v), "s", len(v))
        rep.note("field_values_per_s", values / wall, "1/s", ops)
    rep.note("cpu_per_wall", doc["cpu_s"] / wall, "ratio", ops)
    _e2e(rep, records, setups, doc["maxrss_kb"] / 1024.0)


# ---------------------------------------------------------------------------
# shared reporting
# ---------------------------------------------------------------------------

def _rec(summary, name):
    return summary.get(name, {"calls": 0, "count": 0, "self_s": 0.0, "total_s": 0.0})


_SPAN_FIELDS = (
    ("fracmath.mittag_leffler_array", ("calls", "points", "self_s")),
    ("fracmath.h_function", ("calls", "self_s")),
    ("fracmath.mpmath", ("calls", "self_s")),
    ("fracmath.scipy_quad", ("calls", "self_s")),
    ("fracmath.mittag_leffler", ("calls", "self_s")),
    ("operators.riesz_feller_symbol", ("calls", "self_s")),
    ("operators.gl_weights", ("self_s",)),
    ("green.green_points", ("calls", "points", "self_s")),
    ("green.green_hat", ("calls", "k_points", "self_s")),
    ("green.green_point_closed", ("calls", "self_s")),
    ("solver.solve", ("calls", "self_s")),
    ("solver.convolve_time_singular", ("calls", "self_s")),
    ("oracle.oracle_mode_evolve", ("self_s",)),
)
# metric field -> key of a trace.summarize() record
_SUMMARY_KEY = {"calls": "calls", "points": "count", "k_points": "count",
                "self_s": "self_s"}


def _layers(rep, timed, setup, requested_times):
    """Per-layer metrics from the timed and set-up phase span summaries."""
    for span, fields in _SPAN_FIELDS:
        r = _rec(timed, span)
        for f in fields:
            rep.metric(f"{span}.{f}", r[_SUMMARY_KEY[f]],
                       "s" if f == "self_s" else "count")
    hat = _rec(timed, "green.green_hat")
    rep.metric("green.green_hat.calls_per_time",
               hat["calls"] / requested_times if requested_times else 0.0, "ratio")
    solves = _rec(timed, "solver.solve")["calls"]
    rep.metric("solver.ml_points_per_solve",
               timed.get("ml_points_in_solve", 0) / solves if solves else 0.0, "count")
    evo = _rec(timed, "oracle.oracle_mode_evolve")
    rep.metric("oracle.mode_steps", evo["count"], "count")
    rep.metric("oracle.mode_steps_per_s",
               evo["count"] / evo["total_s"] if evo["total_s"] else 0.0, "1/s")
    mp = _rec(setup, "fracmath.mpmath")
    rep.metric("fracmath.mpmath.setup_calls", mp["calls"], "count")
    rep.metric("fracmath.mpmath.setup_self_s", mp["self_s"], "s")


PROBE_REGIONS = ("small", "large", "mid_shared_cold", "mid_shared_warm",
                 "mid_scattered", "high_alpha")


def _probe(args, tmp, rep):
    """Mittag-Leffler region probe in a fresh process."""
    out = os.path.join(tmp, "probe.json")
    cmd = [sys.executable, os.path.join(HERE, "inproc.py"), "--probe", "--seed",
           str(args.seed), "--out", out]
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True,
                   timeout=REQUEST_TIMEOUT_S)
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    for region in PROBE_REGIONS:
        rep.metric(f"fracmath.ml.{region}.points_per_s", doc[region], "1/s")


def _prediction_lines(rep):
    """Each per-layer value with the end-to-end metric it should move."""
    for name, value in sorted(rep.metrics.items()):
        pred = next((v for k, v in PREDICTIONS.items() if name.startswith(k)), "")
        rep.lines.append(f"{rep.workload}: {name} = {value['value']:.6g} "
                         f"{value['unit']}  -> {pred}")


def _class_lines(rep, records):
    by = {}
    for r in records:
        by.setdefault(r["cls"], []).append(r["seconds"])
    for name, v in sorted(by.items()):
        rep.note(f"p50_s[{name}]", statistics.median(v), "s", len(v),
                 f", mean {statistics.fmean(v):.6g}")


def _e2e(rep, records, setups, maxrss_mb):
    """The end-to-end metrics of BENCHMARK.json from the timed operations.

    Both timing metrics are geometric means over the successful timed
    operations (failed ones are counted in `failed` instead):
    request_latency_s of their wall times, output_values_per_s of their
    output values (CSV rows, kernel values, field values) per second of
    their own wall time.  Every operation of the fixed cycle counts, so
    one slow class does not set the number alone; a median over the calls
    would sit on the boundary between two classes, or between the two
    speeds of a shared host, and jump as the counts shift.
    """
    done = [r for r in records if r["ok"]]
    latency = statistics.geometric_mean([r["seconds"] for r in done])
    rates = [r["values"] / r["seconds"] for r in done if r["values"]]
    for name, value, unit, n in (
            ("setup_s", statistics.median(setups), "s", len(setups)),
            ("peak_rss_mb", maxrss_mb, "MB", 1),
            ("request_latency_s", latency, "s", len(done)),
            ("output_values_per_s", statistics.geometric_mean(rates), "1/s",
             len(rates))):
        rep.metric(name, value, unit)
        rep.note(name, value, unit, n)
    rep.note("failed_fraction", rep.failed / max(rep.attempted, 1), "ratio",
             rep.attempted)


def _failure_lines(rep, failures, labels):
    for index, why in sorted(failures.items()):
        rep.lines.append(f"{rep.workload}: failed op {index} "
                         f"({labels.get(index, '?')}): {why}")


def run_one(args, workload):
    import platform
    import mpmath
    import numpy
    import scipy
    rep = Report(workload)
    rep.lines.append(
        f"{workload}: seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} "
        f"mpmath={mpmath.__version__}")
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        args.workload_name = workload
        if workload == "cli_cold":
            run_cli_cold(args, tmp, rep)
        else:
            run_inproc(args, tmp, rep)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it
    return rep


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _check_checkout()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_one(args, w) for w in names]
    for rep in reports:
        for line in rep.lines:
            print(line)
    if len(reports) == 1:
        metrics = reports[0].metrics
    else:
        metrics = {f"{r.workload}.{k}": v for r in reports for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": all(r.correct for r in reports),
        "attempted": sum(r.attempted for r in reports),
        "failed": sum(r.failed for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
