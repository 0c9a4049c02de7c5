"""Unit tests for the command-line front end."""

import ast
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fracgreen import cli, fracmath
from fracgreen.fracmath import HAccuracyError, MLConvergenceError
from fracgreen.green import (FourierOnlyError, RegimeError,
                             SpecValidationError, ToleranceNotMetError)
from fracgreen.oracle import OracleInstabilityError


def run(args):
    return cli.run(list(args))


class TestMl:
    def test_prints_value(self, capsys):
        assert run(["ml", "--alpha", "1", "--beta", "1", "--z", "1"]) == 0
        out = capsys.readouterr().out.strip().split(",")
        assert float(out[0]) == pytest.approx(math.e, rel=1e-12)
        assert float(out[1]) == 0.0

    def test_complex_argument(self, capsys):
        assert run(["ml", "--alpha", "1", "--beta", "1",
                    "--z", "0,3.141592653589793"]) == 0
        out = capsys.readouterr().out.strip().split(",")
        assert float(out[0]) == pytest.approx(-1.0, rel=1e-10)

    def test_overflow_is_tolerance_error(self, capsys):
        # E_{1/2}(40) = exp(1600) erfc(-40) overflows a double; the exit-3
        # message is the only report, with no numpy RuntimeWarning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["ml", "--alpha", "0.5", "--z", "40"]) == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "alpha=0.5, beta=1.0, z=(40+0j)" in err

    def test_order_above_two_is_constraint_error(self, capsys):
        assert run(["ml", "--alpha", "3", "--z", "1"]) == 2
        assert "alpha = 3.0 outside (0, 2]" in capsys.readouterr().err


class TestSymbol:
    def test_tabulates(self, tmp_path):
        out = tmp_path / "sym.csv"
        assert run(["symbol", "--order", "1.5", "--skew", "0.3",
                    "--k-range", "-2", "2", "--nk", "5",
                    "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,re,im"
        assert len(lines) == 6
        k, re, im = (float(v) for v in lines[-1].split(","))
        assert k == 2.0
        assert math.hypot(re, im) == pytest.approx(2.0 ** 1.5, rel=1e-12)

    def test_bad_skew_is_constraint_error(self):
        assert run(["symbol", "--order", "2", "--skew", "0.5",
                    "--k-range", "0", "1"]) == 2

    @pytest.mark.parametrize("lo, hi", [("nan", "1"), ("1", "nan")])
    def test_non_finite_wavenumber_is_constraint_error(self, lo, hi,
                                                       tmp_path, capsys):
        # the first k that is not finite is named; no table is written
        out = tmp_path / "sym.csv"
        assert run(["symbol", "--order", "1.5", "--k-range", lo, hi,
                    "--nk", "3", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "k = (nan+0j) is not finite\n"
        assert not out.exists()


class TestGreen:
    def test_heat_kernel_row(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["green", "--kind", "G", "--alpha", "1", "--beta", "2",
                    "--theta", "0", "--lambda", "1", "--t", "1",
                    "--x-range", "-5", "5", "--nx", "11",
                    "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,re,im,method"
        row0 = [l for l in lines[1:] if l.split(",")[1] == "0"][0]
        assert float(row0.split(",")[2]) == pytest.approx(
            1.0 / math.sqrt(4.0 * math.pi), abs=1e-7)

    def test_closed_method(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run(["green", "--kind", "G", "--alpha", "0.5", "--beta",
                    "1.5", "--theta", "0.2", "--t", "1",
                    "--x-range", "0.5", "2", "--nx", "4",
                    "--method", "closed", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        assert all(l.endswith(",closed") for l in lines)

    @pytest.mark.parametrize("t", ["3", "0.2"])
    def test_order_near_zero_is_tolerance_error(self, tmp_path, capsys, t):
        # the H argument leaves the double range (under at t = 3, over at
        # t = 0.2): exit 3 with the point named, not a traceback or exit 2
        out = tmp_path / "g.csv"
        assert run(["green", "--alpha", "0.5", "--beta", "1e-10",
                    "--x-range", "0.5", "3", "--nx", "3", "--t", t,
                    "--method", "closed", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "outside the double range" in err
        assert f"x = 0.5, t = {t}" in err

    def test_closed_form_edge_is_tolerance_error(self, tmp_path, capsys):
        # alpha = beta = 2, theta = 0 lies on |theta| = 2 - alpha, where the
        # contour integrand does not decay: exit 3 naming the rate
        out = tmp_path / "g.csv"
        assert run(["green", "--alpha", "2", "--beta", "2",
                    "--x-range", "0.5", "2", "--nx", "3", "--t", "1",
                    "--method", "closed", "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "rate 0 " in err and "|theta_eff| = 2 - alpha" in err

    def test_auto_exits_3_where_both_methods_refuse(self, tmp_path, capsys):
        # at x = 1e-100 the closed form cannot bound its value and the rays
        # run out of the double range: auto falls back, and the rays' error
        # is the one reported
        out = tmp_path / "g.csv"
        assert run(["green", "--alpha", "0.3", "--beta", "0.3",
                    "--x-range", "1e-100", "2e-100", "--nx", "2",
                    "--t", "2", "-o", str(out)]) == 3
        assert "the ray at x = 1e-100 runs to" in capsys.readouterr().err
        assert not out.exists()
        # next to the edge |theta_eff| = 2 - alpha the contour decays too
        # slowly and the ray needs too many nodes
        assert run(["green", "--alpha", "1.5", "--beta", "1.5", "--theta",
                    "0.49999", "--x-range", "-1", "-1", "--nx", "1",
                    "--t", "1", "-o", str(out)]) == 3
        assert capsys.readouterr().err == (
            "the ray at x = -1 needs over 262144 nodes: 5.24e-06 rad of "
            "room either side is narrow next to |theta_eff| = 2 - alpha\n")
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi", [("0.5", "2"), ("-2", "-0.5")])
    def test_extremal_skew_closed_form(self, lo, hi, tmp_path):
        # theta = beta <= 1: rho = 0 for x > 0, where G is exactly 0, and
        # rho = 1 for x < 0
        out = tmp_path / "g.csv"
        assert run(["green", "--alpha", "0.7", "--beta", "0.6", "--theta",
                    "0.6", "--x-range", lo, hi, "--nx", "3", "--t", "1",
                    "--method", "closed", "-o", str(out)]) == 0
        values = [float(row.split(",")[2])
                  for row in out.read_text().splitlines()[1:]]
        assert len(values) == 3
        assert all(v == 0.0 for v in values) == (lo == "0.5")

    def test_auto_falls_back_to_the_rays_past_the_node_cap(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(fracmath, "_H_NODES", 2 ** 10)
        out = tmp_path / "g.csv"
        argv = ["green", "--alpha", "0.8", "--beta", "1.6", "--x-range",
                "2", "2", "--nx", "1", "--t", "1", "-o", str(out)]
        assert run(argv + ["--method", "closed"]) == 3
        assert capsys.readouterr().err == (
            "Mellin-Barnes trapezoid needs over 1024 nodes (2400 by step "
            "level 2) at z = 2\n")
        assert not out.exists()
        assert run(argv) == 0
        assert out.read_text().splitlines()[1].endswith(",quadrature")

    def test_x_zero_on_the_grid(self, tmp_path, capsys):
        # the closed form has a 1/|x| prefactor: auto answers the whole
        # time by quadrature, closed refuses
        args = ["green", "--kind", "G", "--alpha", "0.8", "--beta", "1.6",
                "--theta", "0.1", "--t", "1", "--x-range", "-2", "2",
                "--nx", "5"]
        out = tmp_path / "g.csv"
        assert run(args + ["--method", "auto", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        assert all(r.endswith(",quadrature") for r in rows)
        assert run(args + ["--method", "closed", "-o", str(out)]) == 2
        assert "x must be nonzero" in capsys.readouterr().err

    def test_multi_time_output_is_deterministic(self, tmp_path):
        args = ["green", "--kind", "G", "--alpha", "0.8", "--beta", "1.6",
                "--theta", "0.1", "--t", "0.5,1,2",
                "--x-range", "-3", "3", "--nx", "7", "--method", "quadrature"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        assert len(a.read_text().splitlines()) == 1 + 3 * 7
        assert a.read_bytes() == b.read_bytes()

    def test_growing_kernel_is_tolerance_error(self, capsys):
        # |theta| > 2 - alpha: G_hat grows with |k|, no real-space kernel
        assert run(["green", "--alpha", "1.8", "--beta", "1.2", "--theta",
                    "0.5", "--x-range", "-3", "5", "--nx", "5",
                    "--t", "0.9"]) == 3
        assert "inside alpha pi/2" in capsys.readouterr().err

    def test_nonpositive_time_is_constraint_error(self, capsys):
        assert run(["green", "--alpha", "0.5", "--beta", "1.5", "--t", "0",
                    "--x-range", "-1", "1", "--nx", "3"]) == 2
        assert "times must start above 0" in capsys.readouterr().err

    def test_non_finite_lambda_is_constraint_error(self, capsys):
        assert run(["green", "--alpha", "0.5", "--beta", "1.5", "--t", "1",
                    "--lambda", "nan", "--x-range", "-1", "1",
                    "--nx", "3"]) == 2
        assert "lam = (nan+0j) is not finite" in capsys.readouterr().err

    def test_invalid_theta_is_constraint_error(self):
        assert run(["green", "--alpha", "0.5", "--beta", "2",
                    "--theta", "0.1", "--t", "1",
                    "--x-range", "-1", "1", "--nx", "3"]) == 2


@st.composite
def _quadrature_requests(draw):
    """Flags of a `green --method quadrature` request on an admissible
    one-order spec; a symmetric range with odd nx holds x = 0."""
    kind = draw(st.sampled_from(["G", "G1", "G2"]))
    alpha = draw(st.floats(1.05, 1.9) if kind == "G2" else st.floats(0.3, 1.9))
    beta, gamma = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    theta = draw(st.floats(-0.9, 0.9)) * min(beta, 2.0 - beta)
    phi = draw(st.floats(-0.9, 0.9)) * min(gamma, 2.0 - gamma)
    lo = draw(st.floats(-6.0, -0.05))
    hi = draw(st.just(-lo) | st.floats(0.05, 6.0))
    return ["green", "--kind", kind, "--alpha", repr(alpha),
            "--beta", repr(beta), "--gamma", repr(gamma),
            f"--theta={theta!r}", f"--phi={phi!r}",
            "--x-range", repr(lo), repr(hi),
            "--nx", str(draw(st.integers(2, 5))),
            "--t", repr(draw(st.floats(0.3, 2.0))), "--method", "quadrature"]


class TestColdWarm:
    # each example starts a fresh interpreter (about 0.3 s), so it draws
    # 10 rather than the profile's 40; python_env is the same for all
    @settings(max_examples=10,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_quadrature_requests())
    def test_quadrature_csv_is_the_same_cold_and_warm(self, python_env,
                                                      args):
        # the values are a function of the request alone: a fresh process
        # and two calls in this warm one write the same bytes, or refuse
        # alike
        with tempfile.TemporaryDirectory() as tmp:
            cold, warm = os.path.join(tmp, "cold.csv"), os.path.join(tmp, "w")
            proc = subprocess.run(
                [sys.executable, "-m", "fracgreen.cli", *args, "-o", cold],
                env=python_env, capture_output=True, text=True)
            assert proc.returncode in (0, 3), proc.stderr
            codes = [run(args + ["-o", warm + f"{i}.csv"]) for i in (1, 2)]
            assert codes == [proc.returncode] * 2, proc.stderr
            if proc.returncode == 0:
                want = Path(cold).read_bytes()
                for i in (1, 2):
                    assert Path(warm + f"{i}.csv").read_bytes() == want


class TestSolveCompare:
    def _solve_args(self, path, manifest=None):
        args = ["solve", "--alpha", "0.8", "--beta", "1.6",
                "--x-range", "-20", "20", "--nx", "32", "--t", "1",
                "--f", "gaussian:0,1", "-o", str(path)]
        if manifest:
            args += ["--manifest", str(manifest)]
        return args

    def _solve_quietly(self, path, manifest=None):
        # the kernel alone reads 1.9e-2 at the largest wavenumber, the
        # field with the Gaussian's transform 1.6e-3: resolved, no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(self._solve_args(path, manifest)) == 0
        assert [str(w.message) for w in caught] == []

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._solve_quietly(a)
        self._solve_quietly(b)
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_echoes_inputs(self, tmp_path):
        csv, man = tmp_path / "f.csv", tmp_path / "f.json"
        self._solve_quietly(csv, man)
        doc = json.loads(man.read_text())
        assert doc["spec"]["alpha"] == 0.8
        assert doc["grid"]["nx"] == 32
        assert doc["checks"][0][1] is True
        assert doc["command"] == self._solve_args(csv, man)
        assert "version" in doc
        assert "quadrature" not in doc
        assert "regime" not in doc["spec"]
        assert "dt_oracle" not in doc["grid"]

    def test_zero_width_source_is_usage_error(self, tmp_path, capsys):
        args = self._solve_args(tmp_path / "f.csv") + ["--U", "gaussian:0,0"]
        assert run(args) == 1
        assert "width must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("datum", ["gaussian:nan,1", "gaussian:inf,1",
                                       "gaussian:0,inf"])
    def test_non_finite_gaussian_is_usage_error(self, datum, tmp_path,
                                                capsys):
        args = self._solve_args(tmp_path / "f.csv")
        args[args.index("--f") + 1] = datum
        assert run(args) == 1
        assert "center and width must be finite" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_delta_outside_the_window_is_constraint_error(self, tmp_path,
                                                          capsys):
        args = self._solve_args(tmp_path / "f.csv")
        args[args.index("--f") + 1] = "delta:100"
        assert run(args) == 2
        err = capsys.readouterr().err
        assert "delta center 100.0 lies outside the window [-20.0, 20.0)" \
            in err
        assert not (tmp_path / "f.csv").exists()

    def test_round_trip_zero_residual(self, tmp_path):
        csv = tmp_path / "f.csv"
        out = tmp_path / "cmp.json"
        self._solve_quietly(csv)
        assert run(["compare", str(csv), str(csv), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["relative_l2"] == 0.0

    @staticmethod
    def _fields_apart(tmp_path):
        # two one-point fields whose relative L2 gap is 3.6
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("t,x,re,im\n1,0,1,0\n")
        b.write_text("t,x,re,im\n1,0,4.6,0\n")
        return [str(a), str(b)]

    def test_tolerance_exit_code(self, tmp_path, capsys):
        assert run(["compare", *self._fields_apart(tmp_path),
                    "--tol", "0.01"]) == 3
        assert capsys.readouterr().err == (
            "relative_l2 3.600e+00 exceeds tolerance 1.000e-02\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_outside_its_range_is_usage_error(self, tol, tmp_path,
                                                        capsys):
        # nan and inf would pass every gap, -1 would fail every one
        assert run(["compare", *self._fields_apart(tmp_path),
                    "--tol", tol]) == 1
        assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    def test_mismatched_grids_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("t,x,re,im\n1,0,1,0\n")
        b = tmp_path / "b.csv"
        b.write_text("t,x,re,im\n1,0.5,1,0\n")
        assert run(["compare", str(a), str(b)]) == 2
        capsys.readouterr()
        b.write_text("k,re,im\n1,0,1\n")
        assert run(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == f"{b}: not a field CSV\n"
        b.write_text("t,x,re,im\n")
        assert run(["compare", str(a), str(b)]) == 2
        assert capsys.readouterr().err == f"{b}: empty field CSV\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_is_named(self, value, tmp_path, capsys):
        # a NaN would pass any --tol and write invalid JSON
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("t,x,re,im\n1,0,1,0\n1,0.5,1,0\n")
        bad.write_text(f"t,x,re,im\n1,0,1,0\n1,0.5,{value},0\n")
        out = tmp_path / "cmp.json"
        for pair in ((good, bad), (bad, good)):
            assert run(["compare", str(pair[0]), str(pair[1]), "--tol",
                        "0.01", "-o", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"{bad}, line 3: a value is not finite: 1,0.5,{value},0\n")
            assert not out.exists()

    # solve names its overflowing field before any warning or output
    def test_non_finite_field_is_tolerance_error(self, tmp_path, capsys):
        assert run(["solve", "--alpha", "0.1", "--beta", "1.6", "--x-range",
                    "-5", "5", "--nx", "16", "--t", "1e-10",
                    "--f", "gaussian:0,1e-300",
                    "-o", str(tmp_path / "f.csv")]) == 3
        assert capsys.readouterr().err == (
            "the field has non-finite values at t = 1e-10: it leaves the "
            "double range\n")
        assert not (tmp_path / "f.csv").exists()

    def test_oracle_subcommand(self, tmp_path):
        out = tmp_path / "o.csv"
        # nx 32 on this window is under-resolved for solve, and the oracle
        # judges its window as solve does
        with pytest.warns(UserWarning, match="under-resolved"):
            assert run(["oracle", "--alpha", "0.8", "--beta", "1.6",
                        "--x-range", "-20", "20", "--nx", "32", "--t", "0.5",
                        "--f", "gaussian:0,1", "--dt", "0.015625",
                        "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "t,x,re,im"

    @pytest.mark.parametrize("data", [
        ["--alpha", "1.5", "--beta", "1.7", "--f", "zero",
         "--g", "gaussian:0,1"],
        ["--alpha", "0.9", "--beta", "1.6", "--mu", "0.7", "--source-mode",
         "identity", "--f", "zero", "--U", "gaussian:0,1"],
        ["--alpha", "0.8", "--beta", "1.6", "--theta", "0.1",
         "--f", "gaussian:0,1"],
    ], ids=["g", "identity_U", "f"])
    def test_oracle_takes_the_data_of_solve(self, data, tmp_path):
        # --g and --U come from solve's parser; the oracle confirms solve
        common = data + ["--x-range", "-20", "20", "--nx", "64", "--t",
                         "0.5,1", "-o"]
        s, o = tmp_path / "s.csv", tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve"] + common + [str(s)]) == 0
            assert run(["oracle"] + common + [str(o), "--dt", "0.0078125"]) \
                == 0
        assert run(["compare", str(s), str(o), "--tol", "0.01",
                    "-o", str(tmp_path / "cmp.json")]) == 0

    @pytest.mark.parametrize("dt", ["nan", "inf", "0"])
    def test_oracle_bad_dt_is_named(self, dt, tmp_path, capsys):
        assert run(["oracle", "--alpha", "0.8", "--beta", "1.6",
                    "--x-range", "-20", "20", "--nx", "32", "--t", "0.5",
                    "--dt", dt, "-o", str(tmp_path / "o.csv")]) == 2
        assert "dt must be positive and finite" in capsys.readouterr().err

    def test_oracle_tiny_dt_is_refused_by_step_count(self, tmp_path, capsys):
        assert run(["oracle", "--alpha", "0.8", "--beta", "1.6",
                    "--x-range", "-20", "20", "--nx", "32", "--t", "0.5",
                    "--dt", "1e-300", "-o", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "dt = 1e-300 needs 5e+299 steps" in err
        assert not (tmp_path / "o.csv").exists()

    def test_oracle_dt_past_the_float_quotient_is_refused_by_step_count(
            self, tmp_path, capsys):
        # 0.5 / dt overflows to inf; the count comes from the exact ratio
        # (the double nearest 1e-320 is 9.99989e-321)
        assert run(["oracle", "--alpha", "0.8", "--beta", "1.6",
                    "--x-range", "-20", "20", "--nx", "32", "--t", "0.5",
                    "--dt", "1e-320", "-o", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "dt = 9.99989e-321 needs 5.00006e+319 steps" in err
        assert "bound of 16384" in err
        assert not (tmp_path / "o.csv").exists()

    def test_oracle_half_step_time_is_off_the_lattice(self, tmp_path,
                                                      capsys):
        # 0.5 / 0.2 is 2.5 in floats but just below it in the exact ratio;
        # the run and its last time take one step count, so 0.5 is named
        # as off the lattice, not as past the run
        assert run(["oracle", "--alpha", "0.8", "--beta", "1.6",
                    "--x-range", "-20", "20", "--nx", "32", "--t", "0.5",
                    "--dt", "0.2", "-o", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert "output time 0.5 is off the dt lattice" in err
        assert not (tmp_path / "o.csv").exists()


class TestValidate:
    def test_ok(self, capsys):
        assert run(["validate", "--alpha", "0.5", "--beta", "1.5",
                    "--theta", "0.2"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_constraint_violation_named(self, capsys):
        assert run(["validate", "--alpha", "0.5", "--beta", "2",
                    "--theta", "0.1"]) == 2
        assert "theta" in capsys.readouterr().err

    def test_schrodinger_preset(self, tmp_path):
        # lambda = i hbar/(2m); pure imaginary coefficient is accepted
        assert run(["validate", "--alpha", "1", "--beta", "2",
                    "--schrodinger", "1", "1"]) == 0

    @pytest.mark.parametrize("command", ["validate", "green"])
    def test_schrodinger_zero_mass_is_constraint_error(self, command,
                                                       capsys):
        grid = [] if command == "validate" else [
            "--x-range", "0.5", "2", "--nx", "3", "--t", "1"]
        assert run([command, "--alpha", "0.8", "--beta", "1.6",
                    "--schrodinger", "0", "1"] + grid) == 2
        assert capsys.readouterr().err == (
            "schrodinger mass M = 0 gives no lambda = i hbar / (2 M)\n")


class TestNegativeValues:
    """A value that starts with '-' is a value in every number form the
    CLI reads, exponent form and re,im pairs included."""

    @pytest.mark.parametrize("flag, value", [
        ("--theta", "-1e-1"), ("--lambda", "-1,0.5"), ("--mu", "-0.5,0.1"),
        ("--theta", "-.1E+0"), ("--lambda", "-1e0,-5e-1")])
    def test_validate_reads_the_value(self, flag, value, capsys):
        assert run(["validate", "--alpha", "0.8", "--beta", "1.6",
                    flag, value]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_ml_argument_in_exponent_form(self, capsys):
        lines = []
        for z in (["--z", "-1e-4"], ["--z=-1e-4"]):
            assert run(["ml", "--alpha", "0.8", "--beta", "1.8"] + z) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        # real at small |z|, and E_{0.8,1.8}(-1e-4) to 1e-14 (mpmath)
        re, im = map(float, lines[0].split(","))
        assert abs(re - 1.0736013289504227) <= 1e-14 and im == 0.0

    @pytest.mark.parametrize("lo", ["-2e0", "-2.0e+0", "-20E-1"])
    def test_range_bound_in_exponent_form(self, lo, tmp_path):
        outs = []
        for bound in (lo, "-2"):
            out = tmp_path / "sym.csv"
            assert run(["symbol", "--order", "1.5", "--k-range", bound, "1",
                        "--nk", "4", "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_option_names_stay_options(self, capsys):
        # a token that is not a number still reads as an option
        assert run(["ml", "--alpha", "0.8", "--z", "-x"]) == 1
        assert "expected one argument" in capsys.readouterr().err


_BAD_SPECS = {
    "alpha": ["--alpha", "2.5", "--beta", "1.5"],
    "theta": ["--alpha", "0.8", "--beta", "1.5", "--theta", "0.6"],
}


class TestInadmissibleSpec:
    @pytest.mark.parametrize("command", ["green", "solve", "oracle",
                                         "validate"])
    @pytest.mark.parametrize("name", sorted(_BAD_SPECS))
    def test_rejected_before_any_work(self, command, name, tmp_path, capsys):
        out = tmp_path / "out.csv"
        grid = [] if command == "validate" else [
            "--x-range", "-5", "5", "--nx", "16", "--t", "0.25",
            "-o", str(out)]
        assert run([command] + _BAD_SPECS[name] + grid) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_validate_prints_one_problem_per_line(self, capsys):
        assert run(["validate", "--alpha", "2.5", "--beta", "1.5",
                    "--theta", "0.6", "--gamma", "0"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[0] for line in lines] == [
            "alpha", "|theta|", "gamma"]


class TestPlumbing:
    def test_usage_error(self):
        assert run(["no-such"]) == 1
        assert run([]) == 1
        assert run(["validate", "--alpha", "0.8", "--beta", "1.6",
                    "--lambda", "1,2,3"]) == 1
        assert run(["solve", "--alpha", "0.8", "--beta", "1.6", "--x-range",
                    "-5", "5", "--nx", "16", "--t", "1", "--f", "foo:1"]) == 1
        assert run(["validate", "--alpha", "0.8", "--config"]) == 1

    def test_config_file_flags_lose_to_cli(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment line\nalpha=0.5\nbeta=2\ntheta=0.1\n")
        # config alone violates the theta bound -> exit 2
        assert run(["validate", "--config", str(cfg)]) == 2
        capsys.readouterr()
        # explicit flags override the config values -> valid
        assert run(["validate", "--config", str(cfg),
                    "--beta", "1.5", "--theta", "0.2"]) == 0

    def test_missing_config_file(self):
        assert run(["validate", "--config", "/nonexistent/x.cfg",
                    "--alpha", "1", "--beta", "2"]) == 1

    def test_config_file_not_utf8(self, tmp_path, capsys):
        # an unreadable config is a usage error; an unreadable CSV given
        # to compare stays a constraint error
        bad = tmp_path / "run.cfg"
        bad.write_bytes(b"alpha=0.8\nbeta=\xc0\n")
        assert run(["validate", "--config", str(bad), "--alpha", "0.8",
                    "--beta", "1.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{bad}: 'utf-8' codec can't decode byte 0xc0")
        assert run(["compare", str(bad), str(bad)]) == 2
        assert "can't decode byte 0xc0" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, code, out", [("0.8", 0, "ok\n"),
                                                  ("2.5", 2, "")],
                             ids=["admissible", "alpha_above_2"])
    def test_module_form(self, python_env, alpha, code, out):
        # python -m fracgreen.cli runs the same entry point as the script
        proc = subprocess.run(
            [sys.executable, "-m", "fracgreen.cli", "validate", "--alpha",
             alpha, "--beta", "1.5"], env=python_env, capture_output=True,
            text=True)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert ("alpha" in proc.stderr) == (code == 2)

    def test_import_loads_numpy_only(self, run_python):
        # scipy and mpmath load on first use, so a cold CLI process that
        # needs neither never pays for importing them; nor for decimal
        out = run_python("import sys, fracgreen.cli; print(sorted(m for m in "
                         "sys.modules if m.split('.')[0] in "
                         "('scipy', 'mpmath', 'decimal')))")
        assert out.strip() == "[]"

    def test_no_package_code_imports_scipy_or_mpmath(self):
        # every code path, not only the requests tried below: the one
        # import allowed is in the body of fracmath.quad, which the
        # benchmark's tracer wraps and which no package code calls
        found = []
        for path in sorted(Path(fracmath.__file__).parent.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = set()
            if path.name == "fracmath.py":
                quad, = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "quad"]
                allowed = set(map(id, ast.walk(quad)))
            for node in ast.walk(tree):
                if id(node) in allowed:
                    continue
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                elif (isinstance(node, ast.Call) and node.args
                      and isinstance(node.args[0], ast.Constant)
                      and getattr(node.func, "attr",
                                  getattr(node.func, "id", None))
                      in ("import_module", "__import__")):
                    names = [str(node.args[0].value)]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] in ("scipy", "mpmath")]
        assert found == []

    def test_runtime_needs_neither_scipy_nor_mpmath(self, run_python):
        # the same requests in two fresh interpreters, one of which cannot
        # import scipy or mpmath: every exit code is 0, no RuntimeWarning
        # is raised and every byte agrees
        requests = [
            ["green", "--alpha", "0.8", "--beta", "1.6", "--theta", "0.1",
             "--x-range", "0.5", "3", "--nx", "6", "--t", "1",
             "--method", "closed"],
            ["green", "--kind", "G2", "--alpha", "1.4", "--beta", "1.7",
             "--x-range", "-2", "2", "--nx", "4", "--t", "1",
             "--method", "closed"],
            # small |x| and x = 0: rays cut at the algebraic reach, and
            # the Mellin closed form
            ["green", "--alpha", "0.8", "--beta", "1.5", "--x-range",
             "-0.008", "0.008", "--nx", "5", "--t", "1",
             "--method", "quadrature"],
            # the closed form at clashing poles (beta 1.5) and at small H
            # arguments (beta 1.7)
            ["green", "--alpha", "0.8", "--beta", "1.5", "--theta", "0.1",
             "--x-range", "0.02", "0.5", "--nx", "5", "--t", "1",
             "--method", "closed"],
            ["green", "--alpha", "0.8", "--beta", "1.7", "--x-range",
             "0.001", "0.09", "--nx", "5", "--t", "1", "--method", "closed"],
            # the self-coupled G3 by quadrature on a grid holding x = 0
            ["green", "--kind", "G3", "--alpha", "0.8", "--beta", "1.6",
             "--gamma", "0.9", "--theta", "0.1", "--phi", "0.05", "--mu",
             "0.7", "--source-coupling", "self", "--x-range", "-6", "6",
             "--nx", "41", "--t", "1", "--method", "quadrature"],
            ["solve", "--alpha", "0.9", "--beta", "1.6", "--theta", "0.1",
             "--x-range", "-30", "30", "--nx", "64", "--t", "0.5,1",
             "--f", "gaussian:0,1"],
            ["solve", "--alpha", "1.5", "--beta", "1.7", "--x-range", "-12",
             "12", "--nx", "128", "--t", "1", "--f", "gaussian:0,1",
             "--g", "box:-1,1"],
            ["solve", "--alpha", "0.8", "--beta", "1.6", "--x-range", "-20",
             "20", "--nx", "32", "--t", "1", "--f", "gaussian:0,1",
             "--U", "box:-1,1", "--mu", "0.5"],
            ["oracle", "--alpha", "0.8", "--beta", "1.6", "--x-range", "-20",
             "20", "--nx", "32", "--t", "0.5", "--f", "gaussian:0,1",
             "--dt", "0.015625"],
            # a datum near the double range
            ["oracle", "--alpha", "0.1", "--beta", "1.6", "--x-range", "-5",
             "5", "--nx", "16", "--t", "0.5", "--f", "gaussian:0,1e-300",
             "--dt", "0.0625"],
        ]
        code = (
            "import contextlib, io, json, sys, warnings\n"
            "warnings.simplefilter('error', RuntimeWarning)\n"
            "class Block:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] in ('scipy', 'mpmath'):\n"
            "            raise ImportError(name + ' is blocked')\n"
            "if {block}:\n"
            "    sys.meta_path.insert(0, Block())\n"
            "from fracgreen import cli\n"
            "out = []\n"
            "for argv in {requests!r}:\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        rc = cli.run(argv)\n"
            "    out.append([rc, buf.getvalue()])\n"
            "print(json.dumps(out))\n")
        blocked = json.loads(run_python(code.format(block=True,
                                                    requests=requests)))
        free = json.loads(run_python(code.format(block=False,
                                                 requests=requests)))
        assert [rc for rc, _ in blocked] == [0] * len(requests)
        assert all(text.count("\n") > 4 for _, text in blocked)
        assert blocked == free


_ERROR_BASES = [
    (SpecValidationError, ValueError), (RegimeError, ValueError),
    (ToleranceNotMetError, ArithmeticError),
    (FourierOnlyError, ArithmeticError), (HAccuracyError, ArithmeticError),
    (MLConvergenceError, ArithmeticError),
    (OracleInstabilityError, ArithmeticError),
    # any other arithmetic failure exits 3 as well, with its message
    (ZeroDivisionError, ArithmeticError),
]


@pytest.mark.parametrize("cls, base", _ERROR_BASES,
                         ids=[cls.__name__ for cls, _ in _ERROR_BASES])
def test_each_error_kind_has_one_exit_code(cls, base, monkeypatch, capsys):
    # an input outside the domain exits 2, no number within tolerance 3
    assert issubclass(cls, base)

    def refuse(args):
        raise (cls(["the refusal"]) if cls is SpecValidationError
               else cls("the refusal"))

    monkeypatch.setattr(cli, "_cmd_ml", refuse)
    code = {ValueError: 2, ArithmeticError: 3}[base]
    assert run(["ml", "--alpha", "0.5", "--z", "0"]) == code
    assert capsys.readouterr().err == "the refusal\n"


@pytest.mark.parametrize("argv, code, text", [
    (["solve", "--t", "1e250", "--f", "gaussian:0,1"], 3,
     "t^1.5 overflows the double range at t = 1e+250, alpha = 1.5"),
    (["green", "--t", "1e300", "--method", "quadrature"], 3,
     "A = inf at t = 1e+300, alpha = 1.5 puts the kernel's scale"),
    # the oracle's dt^alpha is t^alpha at t = dt
    (["oracle", "--t", "1e300", "--dt", "1e299"], 3,
     "t^1.5 overflows the double range at t = 1e+299, alpha = 1.5"),
    (["solve", "--t", "1", "--f", "gaussian:0,1", "--x-range", "-1e308",
      "1e308"], 2, "the window width x_max - x_min overflows"),
    (["solve", "--t", "1", "--f", "gaussian:0,1", "--x-range", "0",
      "5e-324"], 2, "dx = (x_max - x_min) / nx = 0 puts the wavenumber "
                    "pi / dx outside the double range"),
    (["solve", "--alpha", "0.5", "--t", "1", "--f", "gaussian:0,1",
      "--x-range", "0", "1e-300"], 3,
     "-rate(k) t^alpha leaves the double range at t = 1, |k| = 5.02655e+301"),
    # the oracle's one step, at t = dt, takes the same check
    (["oracle", "--alpha", "0.5", "--t", "0.5", "--f", "gaussian:0,1",
      "--x-range", "0", "1e-300"], 3,
     "-rate(k) t^alpha leaves the double range at t = 0.000976562, "
     "|k| = 5.02655e+301"),
    # the closed form's t^(alpha - 1) is named as the rays' is
    (["green", "--alpha", "0.01", "--beta", "2", "--x-range", "1", "2",
      "--nx", "2", "--t", "1e-320", "--method", "closed"], 3,
     "t^-0.99 overflows the double range at t = 9.99989e-321, "
     "alpha = 0.01"),
], ids=["solve_t_alpha", "green_t_alpha", "oracle_dt_alpha",
        "solve_window_width", "solve_dx_zero", "solve_rate_overflows",
        "oracle_rate_overflows", "green_closed_t_power"])
def test_out_of_range_powers_and_widths_named(argv, code, text, tmp_path,
                                              capsys):
    out = tmp_path / "out.csv"
    assert run(argv[:1] + ["--alpha", "1.5", "--beta", "1.6", "--x-range",
                           "-10", "10", "--nx", "16", "-o", str(out)]
               + argv[1:]) == code
    err = capsys.readouterr().err
    assert text in err
    assert err.count("\n") == 1
    assert not out.exists()
