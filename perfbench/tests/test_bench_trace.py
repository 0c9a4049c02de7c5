"""Span bookkeeping: self time on synthetic nests, and wrapping by name."""

import threading

import numpy as np
import pytest

from perfbench import trace


def _span(name, parent, t0, t1, count=0):
    s = trace.Span(name, parent, t0, count, "timed")
    s.t1 = t1
    return s


def test_self_time_of_a_nest():
    root = _span("root", None, 0.0, 10.0)
    a = _span("a", root, 1.0, 4.0)
    b = _span("b", root, 5.0, 9.0)
    c = _span("c", b, 6.0, 7.0)
    own = trace.self_times([root, a, b, c])
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(a)] == pytest.approx(3.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(c)] == pytest.approx(1.0)


def test_overlapping_children_from_two_threads_count_once():
    root = _span("cli.run", None, 0.0, 10.0)
    w1 = _span("lib", root, 1.0, 5.0)
    w2 = _span("lib", root, 3.0, 8.0)
    own = trace.self_times([root, w1, w2])
    assert own[id(root)] == pytest.approx(3.0)
    assert own[id(w1)] == pytest.approx(4.0)
    assert own[id(w2)] == pytest.approx(5.0)


def test_union_length_clips_to_the_parent():
    assert trace.union_length([(-1.0, 2.0), (1.0, 3.0), (9.0, 12.0)],
                              0.0, 10.0) == pytest.approx(4.0)


def test_summarize_counts_and_solve_attribution():
    solve = _span("solver.solve", None, 0.0, 4.0)
    ml = _span("fracmath.mittag_leffler_array", solve, 1.0, 2.0, count=50)
    ml2 = _span("fracmath.mittag_leffler_array", None, 5.0, 6.0, count=7)
    summary = trace.summarize([solve, ml, ml2])["timed"]
    rec = summary["fracmath.mittag_leffler_array"]
    assert rec["calls"] == 2 and rec["count"] == 57
    assert summary["solver.solve"]["self_s"] == pytest.approx(3.0)
    assert summary["ml_points_in_solve"] == 50


def test_worker_thread_spans_are_adopted_by_the_root():
    tr = trace.Tracer()
    work = tr.wrap("lib", lambda: sum(range(20000)))
    root = tr.open("cli.run")
    tr.root = root
    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    tr.close(root)
    libs = [s for s in tr.spans if s.name == "lib"]
    assert len(libs) == 2 and all(s.parent is root for s in libs)
    own = trace.self_times(tr.spans)
    assert 0.0 <= own[id(root)] <= root.t1 - root.t0


def test_install_wraps_every_binding_and_uninstall_restores():
    from fracgreen import fracmath, green
    original = fracmath.mittag_leffler_array
    tr = trace.Tracer()
    trace.install(tr)
    try:
        assert green.mittag_leffler_array is not original
        spec = green.ProblemSpec(alpha=1.0, beta=2.0)
        green.green_hat(green.GreenKind.G, np.linspace(-2.0, 2.0, 9), 1.0, spec)
    finally:
        tr.uninstall()
    assert green.mittag_leffler_array is original
    assert fracmath.mittag_leffler_array is original
    summary = trace.summarize(tr.spans)["timed"]
    assert summary["green.green_hat"]["calls"] == 1
    assert summary["green.green_hat"]["count"] == 9
    assert summary["fracmath.mittag_leffler_array"]["count"] == 9
    hat = summary["green.green_hat"]
    assert hat["self_s"] <= hat["total_s"]
