"""The seeded input generator: deterministic and inside the admissible domain."""

import cmath
import itertools
import math

from perfbench import gen


def _take(stream, n):
    return list(itertools.islice(stream, n))


def _plans(seed):
    specs, warm, stream = gen.kernel_plan(seed)
    cases, fwarm, fstream = gen.field_plan(seed)
    return (_take(gen.cli_stream(seed), 27), specs, warm, _take(stream, 36),
            cases, fwarm, _take(fstream, 15))


def test_same_seed_same_inputs():
    assert _plans(7) == _plans(7)


def test_different_seeds_differ():
    assert _plans(7) != _plans(8)
    # the mix of request classes is the same, only the draws differ
    a = [r["name"] for r in _take(gen.cli_stream(1), 18)]
    b = [r["name"] for r in _take(gen.cli_stream(2), 18)]
    assert a == b


def _admissible(s):
    b, g = s["beta"], s["gamma"]
    assert 0.0 < s["alpha"] <= 2.0 and 0.0 < b <= 2.0 and 0.0 < g <= 2.0
    assert abs(s["theta"]) <= min(b, 2.0 - b)
    assert abs(s["phi"]) <= min(g, 2.0 - g)
    lam = complex(s["lam"])
    for sign in (1.0, -1.0):
        assert (lam * cmath.exp(1j * sign * s["theta"] * math.pi / 2.0)).real > 0.0
    if s["source_coupling"] == "self":
        assert b != g
        mu = complex(s["mu"])
        for sign in (1.0, -1.0):
            assert (mu * cmath.exp(1j * sign * s["phi"] * math.pi / 2.0)).real > 0.0


def test_draws_stay_admissible():
    for seed in range(20):
        cli, specs, _, _, cases, _, _ = _plans(seed)
        for r in cli:
            if "spec" in r:
                _admissible(r["spec"])
        for s in specs.values():
            _admissible(s)
        for c in cases.values():
            _admissible(c["spec"])


def test_low_alpha_and_both_regimes_present():
    alphas = [r["spec"]["alpha"] for r in _take(gen.cli_stream(3), 9) if "spec" in r]
    assert min(alphas) <= 0.6 and max(alphas) > 1.0


def test_oracle_times_on_lattice():
    for seed in range(5):
        cases, _, _ = gen.field_plan(seed)
        for c in cases.values():
            if c["oracle"]:
                for t in c["times"]:
                    n = t / gen.ORACLE_DT
                    assert n == round(n) and t <= 0.5
