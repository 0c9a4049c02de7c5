"""Frozen outputs: refactors that promise the same numbers are held to them.

The values were recorded from the implementation before the equation was
described once (one ProblemSpec check, one kernel table, one rate
symbol).  Each is compared at 1e-13 relative, far inside every
algorithm's own tolerance, so a change of route or of evaluation order
shows up here first.
"""

import warnings

import numpy as np
import pytest

from fracgreen.green import (GreenKind, ProblemSpec, green_hat,
                             green_point_closed, green_points)
from fracgreen.oracle import OracleConfig, oracle_solve
from fracgreen.solver import SourceDescriptor, SpaceTimeGrid, solve

FROZEN = {
    "hat-G--3.0": (0.010591836359388472, 0.008622978763072919),
    "hat-G-0.8": (0.3238675124599781, -0.08526141301642125),
    "hat-G-12.0": (0.00013503282125811795, -0.00010074295170512037),
    "hat-G1--3.0": (0.030757085350124138, 0.017864829053341434),
    "hat-G1-0.8": (0.264108379685852, -0.02658985727136304),
    "hat-G1-12.0": (0.0013523868204223693, -0.0007107792984701807),
    "hat-G2--3.0": (-0.5071406930322075, -0.10829078358512584),
    "hat-G2-0.8": (0.07238297052081612, -0.06752141437363673),
    "hat-G2-12.0": (0.015084445069519167, -0.0024524348782963474),
    "hat-G3--3.0": (0.006765316605093248, 0.004771462934466312),
    "hat-G3-0.8": (0.2034950475490979, -0.06318358996251433),
    "hat-G3-12.0": (0.00011158503496950449, -7.757057354893964e-05),
    "pts-G--1.5": (0.12176030995038585, 0.0),
    "pts-G-0.6": (0.1352456704112836, 0.0),
    "pts-G2--1.5": (0.4193019500907433, 0.0),
    "pts-G2-0.6": (-0.06985332233600919, 0.0),
    "closed-G--1.5": (0.1217603098318318, 0.0),
    "closed-G-0.6": (0.13524567029138687, 0.0),
    "closed-G2--1.5": (0.41930195004386245, 0.0),
    "closed-G2-0.6": (-0.0698533223829918, 0.0),
    "solve-rf": (0.1319672979327404, 3.115008030218912e-05),
    "solve-id": (0.12455126102459288, 3.686287221418971e-18),
    "oracle": (0.1886363073359938, -6.96471496915803e-10),
}

LOW = ProblemSpec(alpha=0.7, beta=1.5, theta=0.2, gamma=0.9, phi=0.1, mu=0.5)
HIGH = ProblemSpec(alpha=1.5, beta=1.6, theta=0.1, gamma=1.2, phi=-0.2,
                   mu=0.3)


@pytest.fixture(scope="module")
def outputs():
    vals = {}
    k = np.array([-3.0, 0.8, 12.0])
    for kind, spec in (("G", LOW), ("G1", LOW), ("G2", HIGH), ("G3", LOW)):
        for kk, v in zip(k, green_hat(GreenKind[kind], k, 0.9, spec)):
            vals[f"hat-{kind}-{kk}"] = v
    xs = np.array([-1.5, 0.6])
    for kind, spec in (("G", LOW), ("G2", HIGH)):
        for x, v in zip(xs, green_points(GreenKind[kind], xs, 1.1, spec)):
            vals[f"pts-{kind}-{x}"] = v
        for x, v in zip(xs, green_point_closed(GreenKind[kind], xs, 1.1,
                                               spec)):
            vals[f"closed-{kind}-{x}"] = v
    grid = SpaceTimeGrid(-20.0, 20.0, 64, (0.25, 1.0))
    zero = SourceDescriptor.zero()
    rf = ProblemSpec(alpha=1.45, beta=1.6, theta=0.1, gamma=1.2, phi=0.1,
                     mu=0.6)
    ident = ProblemSpec(alpha=0.8, beta=1.5, mu=0.8, source_mode="identity")
    with warnings.catch_warnings():
        # the Riesz-Feller case draws the resolution warning on this
        # coarse grid; only its values matter here
        warnings.simplefilter("ignore")
        vals["solve-rf"] = solve(rf, SourceDescriptor.gaussian(0.5, 1.0),
                                 zero, SourceDescriptor.box(-1.0, 2.0),
                                 grid).values[1, 33]
        vals["solve-id"] = solve(ident, zero, zero,
                                 SourceDescriptor.gaussian(0.0, 2.0),
                                 grid).values[1, 30]
    ogrid = SpaceTimeGrid(-20.0, 20.0, 64, (0.125, 0.25))
    vals["oracle"] = oracle_solve(LOW, SourceDescriptor.gaussian(0.0, 1.0),
                                  ogrid, OracleConfig(1 / 256, 64)
                                  ).values[1, 34]
    return vals


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_value(outputs, name):
    ref = complex(*FROZEN[name])
    assert abs(complex(outputs[name]) - ref) <= 1e-13 * abs(ref)
