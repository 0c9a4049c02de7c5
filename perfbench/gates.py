"""Correctness gates: pure checks on numbers the workloads produced.

Each gate returns (ok, measured value) so the caller can count a failure
and report by how much it missed.  Tolerances are the package's own
acceptance criteria:

- closed form against quadrature: 1e-4 relative (criterion 3);
- the oracle against solve: 1e-2 relative L2 at dt = 1/1024 (criterion 6);
- the source term against its exact per-mode reference: 1e-4 relative
  to the peak (the bound of the solver's source-term test);
- green_hat at k = 0 against green_mass: the two are the same number,
  so only rounding separates them.
"""

import math

import numpy as np

CLOSED_VS_QUAD_TOL = 1e-4
ORACLE_TOL = 1e-2
SOURCE_TERM_TOL = 1e-4
MASS_TOL = 1e-12


def finite(values):
    """All values finite (and at least one present)."""
    arr = np.asarray(values, dtype=complex)
    ok = arr.size > 0 and bool(np.all(np.isfinite(arr)))
    return ok, float(arr.size)


def closed_vs_quadrature(closed, quad, tol=CLOSED_VS_QUAD_TOL):
    """Worst relative gap between closed-form and quadrature values."""
    c = np.asarray(closed, dtype=float)
    q = np.real(np.asarray(quad, dtype=complex))
    if c.shape != q.shape or c.size == 0:
        return False, math.inf
    gap = float(np.max(np.abs(c - q) / np.maximum(np.abs(c), 1e-300)))
    return gap <= tol, gap


def mass_law(hat0, mass, tol=MASS_TOL):
    """green_hat(k = 0) against green_mass, relative."""
    h, m = complex(hat0), complex(mass)
    gap = abs(h - m) / max(abs(m), 1e-300)
    return gap <= tol, gap


def source_term(field, reference, tol=SOURCE_TERM_TOL):
    """Max-norm gap of a source-term field, relative to the reference peak."""
    f = np.asarray(field, dtype=complex)
    r = np.asarray(reference, dtype=complex)
    if f.shape != r.shape:
        return False, math.inf
    gap = float(np.max(np.abs(f - r)) / max(float(np.max(np.abs(r))), 1e-300))
    return gap <= tol, gap


def oracle_vs_solve(oracle, solved, tol=ORACLE_TOL):
    """Worst relative L2 gap over output times (rows) of two fields."""
    o = np.atleast_2d(np.asarray(oracle, dtype=complex))
    s = np.atleast_2d(np.asarray(solved, dtype=complex))
    if o.shape != s.shape:
        return False, math.inf
    gaps = [float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))
            for a, b in zip(o, s)]
    gap = max(gaps)
    return gap <= tol, gap


def csv_rows(text, width):
    """Parse a t,x,re,im CSV: the first `width` columns as numbers.

    Returns (array, the remaining cells of each row), or raises ValueError
    on a malformed file.
    """
    lines = text.splitlines()
    if not lines or lines[0].split(",")[:4] != ["t", "x", "re", "im"]:
        raise ValueError("missing t,x,re,im header")
    rows = []
    extra = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) < width:
            raise ValueError(f"short CSV row {line!r}")
        rows.append([float(v) for v in cells[:width]])
        extra.append(cells[width:])
    if not rows:
        raise ValueError("CSV has no data rows")
    return np.asarray(rows), extra
