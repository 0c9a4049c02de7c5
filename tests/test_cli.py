"""Unit tests for the command-line front end."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fracgreen import cli


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


class TestSolveCompare:
    def _solve_args(self, path, manifest=None):
        args = ["solve", "--alpha", "0.8", "--beta", "1.6",
                "--x-range", "-20", "20", "--nx", "32", "--t", "1",
                "--f", "gaussian:0,1", "-o", str(path)]
        if manifest:
            args += ["--manifest", str(manifest)]
        return args

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(self._solve_args(a)) == 0
        assert run(self._solve_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_echoes_inputs(self, tmp_path):
        csv, man = tmp_path / "f.csv", tmp_path / "f.json"
        assert run(self._solve_args(csv, man)) == 0
        doc = json.loads(man.read_text())
        assert doc["spec"]["alpha"] == 0.8
        assert doc["grid"]["nx"] == 32
        assert doc["checks"][0][1] is True
        assert "version" in doc
        assert "quadrature" not in doc
        assert "regime" not in doc["spec"]
        assert "dt_oracle" not in doc["grid"]

    def test_zero_width_source_is_usage_error(self, tmp_path, capsys):
        args = self._solve_args(tmp_path / "f.csv") + ["--U", "gaussian:0,0"]
        assert run(args) == 1
        assert "width must be positive" in capsys.readouterr().err

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
        assert run(self._solve_args(csv)) == 0
        assert run(["compare", str(csv), str(csv), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["relative_l2"] == 0.0

    def test_tolerance_exit_code(self, tmp_path):
        csv = tmp_path / "f.csv"
        assert run(self._solve_args(csv)) == 0
        assert run(["compare", str(csv), str(csv), "--tol", "-1"]) == 3

    def test_mismatched_grids_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("t,x,re,im\n1,0,1,0\n")
        b = tmp_path / "b.csv"
        b.write_text("t,x,re,im\n1,0.5,1,0\n")
        assert run(["compare", str(a), str(b)]) == 2

    def test_oracle_subcommand(self, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["oracle", "--alpha", "0.8", "--beta", "1.6",
                    "--x-range", "-20", "20", "--nx", "32", "--t", "0.5",
                    "--f", "gaussian:0,1", "--dt", "0.015625",
                    "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "t,x,re,im"

    @pytest.mark.parametrize("dt", ["nan", "inf", "0"])
    def test_oracle_bad_dt_is_named(self, dt, tmp_path, capsys):
        assert run(["oracle", "--alpha", "0.8", "--beta", "1.6",
                    "--x-range", "-20", "20", "--nx", "32", "--t", "0.5",
                    "--dt", dt, "-o", str(tmp_path / "o.csv")]) == 2
        assert "dt must be positive and finite" in capsys.readouterr().err


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

    def test_config_file_flags_lose_to_cli(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\nbeta=2\ntheta=0.1\n")
        # config alone violates the theta bound -> exit 2
        assert run(["validate", "--config", str(cfg)]) == 2
        capsys.readouterr()
        # explicit flags override the config values -> valid
        assert run(["validate", "--config", str(cfg),
                    "--beta", "1.5", "--theta", "0.2"]) == 0

    def test_missing_config_file(self):
        assert run(["validate", "--config", "/nonexistent/x.cfg",
                    "--alpha", "1", "--beta", "2"]) == 1

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
        # needs neither never pays for importing them
        out = run_python("import sys, fracgreen.cli; print(sorted(m for m in "
                         "sys.modules if m.split('.')[0] in "
                         "('scipy', 'mpmath')))")
        assert out.strip() == "[]"

    def test_runtime_needs_neither_scipy_nor_mpmath(self, run_python):
        # the same requests in two fresh interpreters, one of which cannot
        # import scipy or mpmath: every exit code is 0 and every byte agrees
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
            ["solve", "--alpha", "0.8", "--beta", "1.6", "--x-range", "-20",
             "20", "--nx", "32", "--t", "1", "--f", "gaussian:0,1",
             "--U", "box:-1,1", "--mu", "0.5"],
            ["oracle", "--alpha", "0.8", "--beta", "1.6", "--x-range", "-20",
             "20", "--nx", "32", "--t", "0.5", "--f", "gaussian:0,1",
             "--dt", "0.015625"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
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
