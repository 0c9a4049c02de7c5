"""Each correctness gate passes on good values and fires on perturbed ones."""

import math

import numpy as np
import pytest

from perfbench import gates


def test_closed_vs_quadrature():
    closed = np.array([0.31, 0.12, 0.02])
    assert gates.closed_vs_quadrature(closed, closed * (1 + 1e-6))[0]
    bad = closed.copy()
    bad[1] *= 1 + 3e-4
    ok, gap = gates.closed_vs_quadrature(closed, bad)
    assert not ok and gap == pytest.approx(3e-4, rel=1e-6)


def test_mass_law():
    m = math.gamma(0.7) ** -1
    assert gates.mass_law(complex(m), m)[0]
    assert not gates.mass_law(complex(m * (1 + 1e-9)), m)[0]


def test_source_term():
    ref = np.exp(-np.linspace(-3, 3, 16) ** 2)[None, :] * (1 + 0.5j)
    assert gates.source_term(ref + 1e-7, ref)[0]
    bad = ref.copy()
    bad[0, 8] += 2e-4
    assert not gates.source_term(bad, ref)[0]


def test_oracle_vs_solve():
    ref = np.vstack([np.ones(32), 2 * np.ones(32)]).astype(complex)
    assert gates.oracle_vs_solve(ref * (1 + 5e-3), ref)[0]
    bad = ref.copy()
    bad[1] *= 1.02
    assert not gates.oracle_vs_solve(bad, ref)[0]


def test_finite():
    assert gates.finite([1.0, 2.0j])[0]
    assert not gates.finite([1.0, float("nan")])[0]
    assert not gates.finite([])[0]


def test_csv_rows():
    arr, extra = gates.csv_rows("t,x,re,im,method\n1,2,3,4,closed\n", 4)
    assert arr.shape == (1, 4) and extra == [["closed"]]
    for bad in ("t,x,re,im\n1,2,3\n", "t,x,re,im\n", "k,re,im\n1,2,3\n", ""):
        with pytest.raises(ValueError):
            gates.csv_rows(bad, 4)
