"""End-to-end acceptance gate.

One test per criterion; each prints a single CRITERION n: PASS/FAIL line
(visible under pytest -s or in the captured output) and asserts the
stated tolerance and runtime budget.
"""

import json
import math
import sys
import time

import numpy as np

from _reference import oracle_richardson
from fracgreen.fracmath import mittag_leffler, mittag_leffler_array
from fracgreen.green import (GreenKind, ProblemSpec, green_hat,
                             green_point_closed, green_points)
from fracgreen.oracle import OracleConfig, oracle_solve
from fracgreen.solver import SourceDescriptor, SpaceTimeGrid, solve
from fracgreen import cli


def _report(n, ok, detail):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    if sys.stdout is not sys.__stdout__:
        # also reach the real terminal when pytest captures stdout
        print(line, file=sys.__stdout__)
    assert ok, line


def test_criterion_1_mittag_leffler_identities():
    t0 = time.time()
    worst = 0.0

    def rel(got, ref):
        return abs(got - ref) / max(abs(ref), 1e-300)

    zs = np.concatenate([np.linspace(-30.0, 5.0, 36),
                         np.linspace(-2.0, 2.0, 9) * 1j,
                         (1.0 + 1.0j) * np.linspace(-3.0, 3.0, 7)])
    for z in zs:
        worst = max(worst, rel(mittag_leffler(1.0, 1.0, z), np.exp(z)))
    for z in np.linspace(0.0, 12.0, 25):
        worst = max(worst,
                    rel(mittag_leffler(2.0, 1.0, -z * z), math.cos(z)))
    for alpha in (0.4, 0.7, 1.0, 1.3, 1.8):
        for beta in (0.5, 1.0, 1.5, 2.0):
            worst = max(worst, rel(mittag_leffler(alpha, beta, 0.0),
                                   1.0 / math.gamma(beta)))
            for z in (-8.0, -1.0, 0.5, 2.0, 1.0 + 2.0j, -3.0 - 1.0j):
                lhs = mittag_leffler(alpha, beta, z)
                rhs = z * mittag_leffler(alpha, alpha + beta, z) \
                    + 1.0 / math.gamma(beta)
                worst = max(worst, rel(lhs, rhs))
    dt = time.time() - t0
    _report(1, worst <= 1e-9 and dt < 5.0,
            f"max rel residual {worst:.2e}, {dt:.1f}s")


def test_criterion_2_heat_kernel_reduction():
    t0 = time.time()
    spec = ProblemSpec(alpha=1.0, beta=2.0)
    xs = np.linspace(-5.0, 5.0, 21)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        exact = np.exp(-xs ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        quad = green_points(GreenKind.G, xs, t, spec)
        worst = max(worst, float(np.max(np.abs(quad.real - exact))))
        off = xs != 0.0
        closed = green_point_closed(GreenKind.G, xs[off], t, spec)
        worst = max(worst, float(np.max(np.abs(closed - exact[off]))))
    dt = time.time() - t0
    _report(2, worst <= 1e-6 and dt < 10.0,
            f"max abs error {worst:.2e}, {dt:.1f}s")


def test_criterion_3_closed_vs_quadrature():
    t0 = time.time()
    xs = np.linspace(0.1, 5.0, 8)
    worst = 0.0
    for a, b, th in ((0.5, 1.5, 0.2), (0.8, 1.6, 0.0), (0.9, 1.8, -0.1)):
        spec = ProblemSpec(alpha=a, beta=b, theta=th)
        quad = green_points(GreenKind.G, xs, 1.0, spec)
        c = green_point_closed(GreenKind.G, xs, 1.0, spec)
        worst = max(worst, float(np.max(np.abs(c - quad.real) / np.abs(c))))
    dt = time.time() - t0
    _report(3, worst <= 1e-4 and dt < 60.0,
            f"max rel gap {worst:.2e}, {dt:.1f}s")


def test_criterion_4_mass_law():
    t0 = time.time()
    from numpy.polynomial.legendre import leggauss
    edges = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0, 60.0])
    gx, gw = leggauss(10)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wts = (half[:, None] * gw[None, :]).ravel()
    t = 1.0
    X = edges[-1]
    worst = 0.0
    for a in (0.6, 0.9, 1.3):
        target = t ** (a - 1.0) / math.gamma(a)
        for b in (1.2, 1.5, 1.8):
            for th in (-0.1, 0.0, 0.15):
                spec = ProblemSpec(alpha=a, beta=b, theta=th)
                total = 0.0
                tail = 0.0
                for sgn in (1.0, -1.0):
                    vals = green_points(GreenKind.G, sgn * pts, t, spec)
                    total += float(np.dot(wts, vals.real))
                    # algebraic tail from the |x|^(-1-beta) far field
                    amp = t ** (2.0 * a - 1.0) / math.gamma(2.0 * a) \
                        * math.gamma(1.0 + b) / math.pi \
                        * math.sin(math.pi * (b - sgn * th) / 2.0)
                    tail += amp * X ** (-b) / b
                worst = max(worst, abs(total + tail - target))
    dt = time.time() - t0
    _report(4, worst <= 1e-4 and dt < 30.0,
            f"max mass error {worst:.2e}, {dt:.1f}s")


def test_criterion_5_two_operator_fourier_identity():
    t0 = time.time()
    worst = 0.0
    k = np.linspace(-20.0, 20.0, 401)
    for b, g in ((1.5, 0.8), (2.0, 1.0), (1.2, 1.9)):
        spec = ProblemSpec(alpha=1.0, beta=b, gamma=g, lam=1.0, mu=1.0,
                           source_coupling="self")
        for t in (0.5, 1.0):
            gh = green_hat(GreenKind.G3, k, t, spec)
            ref = np.exp(-t * (np.abs(k) ** b + np.abs(k) ** g))
            worst = max(worst, float(np.max(np.abs(gh - ref))))
    dt = time.time() - t0
    _report(5, worst <= 1e-8 and dt < 1.0,
            f"max abs gap {worst:.2e}, {dt:.2f}s")


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    specs = (ProblemSpec(alpha=0.6, beta=1.4, theta=0.2),
             ProblemSpec(alpha=0.9, beta=1.8),
             ProblemSpec(alpha=1.5, beta=1.9))
    f = SourceDescriptor.gaussian(0.0, 1.0)
    z = SourceDescriptor.zero()
    worst_rel = 0.0
    orders = []
    for spec in specs:
        grid = SpaceTimeGrid(-40.0, 40.0, 256, (1.0,))
        ref = solve(spec, f, z, z, grid)
        errs = []
        for dt in (1.0 / 256, 1.0 / 512, 1.0 / 1024):
            cfg = OracleConfig(dt, int(round(1.0 / dt)))
            got = oracle_solve(spec, f, grid, cfg)
            errs.append(np.linalg.norm(got.values[-1] - ref.values[-1])
                        / np.linalg.norm(ref.values[-1]))
        worst_rel = max(worst_rel, errs[-1])
        orders.append(math.log2(errs[0] / errs[1]))
        orders.append(math.log2(errs[1] / errs[2]))
    dt = time.time() - t0
    ok = worst_rel <= 1e-2 and all(0.9 <= p <= 1.1 for p in orders) \
        and dt < 120.0
    _report(6, ok, f"rel L2 at dt=1/1024 {worst_rel:.2e}, "
            f"orders {min(orders):.2f}..{max(orders):.2f}, {dt:.1f}s")


def test_criterion_7_schrodinger_norm_preservation():
    t0 = time.time()
    m, hbar = 1.0, 1.0
    spec = ProblemSpec(alpha=1.0, beta=2.0, lam=1j * hbar / (2.0 * m))
    times = tuple(0.01 * (n + 1) for n in range(100))
    grid = SpaceTimeGrid(-40.0, 40.0, 512, times)
    f = SourceDescriptor.gaussian(0.0, 1.0)
    zz = SourceDescriptor.zero()
    fld = solve(spec, f, zz, zz, grid)
    norms = np.sqrt(np.sum(np.abs(fld.values) ** 2, axis=1) * grid.dx)
    drift = float(np.max(np.abs(norms - norms[0]) / norms[0]))
    dt = time.time() - t0
    _report(7, drift <= 1e-8 and dt < 5.0,
            f"norm drift {drift:.2e} over 100 steps, {dt:.1f}s")


def test_criterion_8_self_similarity_collapse():
    t0 = time.time()
    worst = 0.0
    for a, b, th in ((0.5, 1.5, 0.2), (0.8, 1.6, 0.0), (1.4, 1.7, 0.1)):
        spec = ProblemSpec(alpha=a, beta=b, theta=th)
        t1, t2 = 0.5, 2.0
        for x1 in (0.7, 2.0):
            # matched similarity variable: x / t^(alpha/beta) fixed
            x2 = x1 * (t2 / t1) ** (a / b)
            h1 = b * x1 * t1 ** (1.0 - a) \
                * green_point_closed(GreenKind.G, x1, t1, spec)
            h2 = b * x2 * t2 ** (1.0 - a) \
                * green_point_closed(GreenKind.G, x2, t2, spec)
            worst = max(worst, abs(h1 - h2))
    dt = time.time() - t0
    _report(8, worst <= 1e-6 and dt < 5.0,
            f"max collapse gap {worst:.2e}, {dt:.1f}s")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    t0 = time.time()
    ok = True
    notes = []
    args = ["solve", "--alpha", "0.8", "--beta", "1.6",
            "--x-range", "-20", "20", "--nx", "64", "--t", "0.5,1",
            "--f", "gaussian:0,1"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code = cli.run(args + ["-o", str(path)])
        ok &= code == 0
        outs.append(path.read_bytes())
    if outs[0] != outs[1]:
        ok = False
        notes.append("solve not byte-identical")

    cmp_out = tmp_path / "cmp.json"
    code = cli.run(["compare", str(tmp_path / "a.csv"),
                    str(tmp_path / "b.csv"), "-o", str(cmp_out)])
    doc = json.loads(cmp_out.read_text())
    if code != 0 or doc["relative_l2"] != 0.0 or doc["absolute_l2"] != 0.0:
        ok = False
        notes.append("self-residual not exactly 0")

    codes = {
        "success": cli.run(["validate", "--alpha", "0.5", "--beta", "1.5"]),
        "constraint": cli.run(["validate", "--alpha", "0.5", "--beta", "2",
                               "--theta", "0.1"]),
        "usage": cli.run(["no-such-command"]),
        "tolerance": cli.run(["compare", str(tmp_path / "a.csv"),
                              str(tmp_path / "b.csv"), "--tol", "-1"]),
    }
    expected = {"success": 0, "constraint": 2, "usage": 1, "tolerance": 3}
    for name, want in expected.items():
        if codes[name] != want:
            ok = False
            notes.append(f"{name} exit {codes[name]} != {want}")
    dt = time.time() - t0
    _report(9, ok, "; ".join(notes) if notes else
            f"byte-identical, residual 0, exit codes ok, {dt:.1f}s")


def test_criterion_10_oracle_for_every_term():
    # solve against the GL oracle extrapolated twice in dt, term by term:
    # criterion 6's specs for f, G2 for g, one source per source_mode, and
    # G3 with G4 for f and g on a self-coupled spec
    t0 = time.time()
    G, z = SourceDescriptor.gaussian(0.0, 1.0), SourceDescriptor.zero()
    cases = (
        (ProblemSpec(alpha=0.6, beta=1.4, theta=0.2), G, z, z),
        (ProblemSpec(alpha=0.9, beta=1.8), G, z, z),
        (ProblemSpec(alpha=1.5, beta=1.9), G, z, z),
        (ProblemSpec(alpha=1.5, beta=1.7, theta=0.1), z, G, z),
        (ProblemSpec(alpha=0.9, beta=1.6, mu=0.7, source_mode="identity"),
         z, z, G),
        (ProblemSpec(alpha=1.45, beta=1.8, gamma=1.2, phi=0.1, mu=0.6),
         z, z, G),
        (ProblemSpec(alpha=1.4, beta=1.6, gamma=1.2, theta=0.1, phi=0.05,
                     mu=0.7, source_coupling="self"),
         G, SourceDescriptor.gaussian(0.5, 1.5), z),
    )
    worst = 0.0
    for spec, f, g, U in cases:
        grid = SpaceTimeGrid(-40.0, 40.0, 128, (0.5, 1.0))
        ref = solve(spec, f, g, U, grid).values
        got = oracle_richardson(spec, f, grid, g, U)
        worst = max(worst, float(np.max(np.abs(got - ref))
                                 / np.max(np.abs(ref))))
    dt = time.time() - t0
    _report(10, worst <= 1e-6 and dt < 30.0,
            f"max rel gap to the extrapolated oracle {worst:.2e} over "
            f"{len(cases)} specs, {dt:.1f}s")
