"""Command-line front end: evaluate kernels, run solves, compare fields.

Subcommands: ml, symbol, green, solve, oracle, compare, validate.
Numeric output is CSV (17 significant digits, LF, UTF-8) so repeated
runs are byte-identical; each solve also writes a JSON manifest echoing
every input.  Exit codes: 0 success, 1 usage error, 2 constraint
violation (a ValueError), 3 numerical-tolerance failure (an
ArithmeticError).
"""

import argparse
import json
import math
import re
import sys

from . import __version__

# numpy and the library modules load in the subcommand that runs them, so
# a process that compares two CSVs imports neither

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_TOLERANCE = 3

_FMT = "%.17g"

# the names of green.GreenKind, which --kind takes without loading green
_KINDS = ("G", "G1", "G2", "G3", "G4")


def _fmt(v) -> str:
    return v if isinstance(v, str) else _FMT % float(v)


def _rows(*cols):
    """CSV lines of the zipped columns: numbers by _FMT, text as given."""
    return [",".join(map(_fmt, row)) for row in zip(*cols)]


def _floats(text: str):
    """The comma-separated floats of text, or None if one is not a float."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        return None


def _parse_complex(text: str) -> complex:
    """Parse 're' or 're,im' into a complex number."""
    parts = _floats(text)
    if parts is None or len(parts) > 2:
        raise argparse.ArgumentTypeError(f"expected re or re,im, got {text!r}")
    return complex(*parts)


# each source form: its usage text and the counts of numbers it takes;
# the names are those of SourceDescriptor's constructors
_SOURCES = {"zero": ("zero", (0,)), "delta": ("delta[:center]", (0, 1)),
            "gaussian": ("gaussian[:center[,width]]", (0, 1, 2)),
            "box": ("box:lo,hi", (2,))}


def _parse_source(text: str):
    """The form of a source, as (name, numbers).  Only the form is
    checked here; _cmd_field builds the descriptor, which checks the
    values."""
    name, sep, rest = text.partition(":")
    if name not in _SOURCES:
        forms = " | ".join(form for form, _ in _SOURCES.values())
        raise argparse.ArgumentTypeError(
            f"unknown source {name!r}, expected {forms}")
    form, counts = _SOURCES[name]
    args = _floats(rest) if sep else []
    if args is None or len(args) not in counts:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
    return name, tuple(args)


def _parse_times(text: str):
    times = _floats(text)
    if times is None:
        raise argparse.ArgumentTypeError(
            f"expected t or t1,t2,..., got {text!r}")
    return tuple(times)


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _add_spec_args(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=_parse_complex,
                   default=complex(1.0), help="coefficient, re or re,im")
    p.add_argument("--mu", type=_parse_complex, default=complex(0.0))
    p.add_argument("--schrodinger", nargs=2, type=float, default=None,
                   metavar=("M", "HBAR"),
                   help="set lambda = i hbar / (2 m)")
    p.add_argument("--source-mode", choices=("riesz_feller", "identity"),
                   default="riesz_feller")
    p.add_argument("--source-coupling", choices=("external", "self"),
                   default="external")


def _spec_from_args(args):
    from .green import ProblemSpec, SpecValidationError
    lam = args.lam
    if args.schrodinger is not None:
        m, hbar = args.schrodinger
        if m == 0.0:
            raise SpecValidationError(
                ["schrodinger mass M = 0 gives no lambda = i hbar / (2 M)"])
        lam = complex(0.0, hbar / (2.0 * m))
    return ProblemSpec(alpha=args.alpha, beta=args.beta, gamma=args.gamma,
                       theta=args.theta, phi=args.phi, lam=lam, mu=args.mu,
                       source_mode=args.source_mode,
                       source_coupling=args.source_coupling)


def _add_grid_args(p):
    p.add_argument("--x-range", nargs=2, type=float, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--t", type=_parse_times, required=True,
                   help="output times, comma separated")


def _add_field_args(p, f_default):
    """The options solve and oracle share; only f's default differs."""
    _add_spec_args(p)
    _add_grid_args(p)
    p.add_argument("--f", type=_parse_source, default=f_default)
    for name in ("--g", "--U"):
        p.add_argument(name, type=_parse_source, default="zero")
    p.add_argument("-o", "--output", default="-")


def _spec_echo(spec) -> dict:
    """The spec's fields, lam as "lambda" and a complex value as [re, im]."""
    return {"lambda" if name == "lam" else name:
            [v.real, v.imag] if isinstance(v, complex) else v
            for name, v in vars(spec).items()}


def _write_lines(path, lines):
    data = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(data)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)


def _write_manifest(path, command, spec, grid, checks):
    doc = {
        "command": command,
        "version": __version__,
        "spec": _spec_echo(spec),
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "nx": grid.nx,
                 "times": list(grid.times)},
        "checks": checks,
    }
    _write_lines(path, [json.dumps(doc, indent=2, sort_keys=True)])


def _read_field_csv(path):
    """A field CSV's (t, x, re, im) rows, each value finite, or ValueError."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:4] != ["t", "x", "re", "im"]:
            raise ValueError(f"{path}: not a field CSV")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if line:
                values = line.split(",")[:4]
                if len(values) < 4:
                    raise ValueError(f"{path}, line {lineno}: expected "
                                     f"t,x,re,im, got {line}")
                row = [float(v) for v in values]
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"{path}, line {lineno}: a value is "
                                     f"not finite: {line}")
                rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty field CSV")
    return rows


def _cmd_ml(args):
    from .fracmath import mittag_leffler
    v = mittag_leffler(args.alpha, args.beta, args.z)
    print(_fmt(v.real) + "," + _fmt(v.imag))
    return EXIT_OK


def _linspace(bounds, n, option):
    """np.linspace over bounds, which with their span must be finite."""
    import numpy as np
    lo, hi = bounds
    if not math.isfinite(hi - lo):  # numpy would warn and fill nan
        raise ValueError(f"{option} needs finite bounds and span, got "
                         f"{lo:g} to {hi:g}")
    return np.linspace(lo, hi, n)


def _cmd_symbol(args):
    import numpy as np
    from .operators import SymbolParams, riesz_feller_symbol
    p = SymbolParams(order=args.order, skew=args.skew)
    ks = _linspace(args.k_range, args.nk, "--k-range")
    with np.errstate(over="ignore", invalid="ignore"):  # inf, named below
        vals = riesz_feller_symbol(p, ks)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise OverflowError(f"|k|^{p.order:g} leaves the double range at "
                            f"k = {ks[bad[0]]:g}")
    _write_lines(args.output, ["k,re,im"] + _rows(ks, vals.real, vals.imag))
    return EXIT_OK


def _cmd_green(args):
    from .green import GreenKind, green_point_closed, green_points
    spec = _spec_from_args(args)
    kind = GreenKind[args.kind]
    xs = _linspace(args.x_range, args.nx, "--x-range")
    lines = ["t,x,re,im,method"]

    def eval_time(t):
        if args.method in ("auto", "closed"):
            try:
                return green_point_closed(kind, xs, t, spec), "closed"
            except (ValueError, ArithmeticError):
                if args.method == "closed":
                    raise
        return green_points(kind, xs, t, spec), "quadrature"

    for t in args.t:
        vals, method = eval_time(t)
        lines += _rows([t] * xs.size, xs, vals.real, vals.imag,
                       [method] * xs.size)
    _write_lines(args.output, lines)
    return EXIT_OK


def _cmd_field(args):
    """solve and oracle: the field of f, g and U on the grid, as CSV."""
    import numpy as np
    from .oracle import OracleConfig, _step, oracle_solve
    from .solver import SourceDescriptor, SpaceTimeGrid, solve
    spec = _spec_from_args(args)
    grid = SpaceTimeGrid(args.x_range[0], args.x_range[1], args.nx, args.t)
    f, g, U = (getattr(SourceDescriptor, name)(*values)
               for name, values in (args.f, args.g, args.U))
    if args.command == "solve":
        field = solve(spec, f, g, U, grid)
    else:
        # a dt not positive and finite takes 0 steps; OracleConfig names it
        n = _step(grid.times[-1], args.dt) if 0.0 < args.dt < math.inf else 0
        field = oracle_solve(spec, f, grid, OracleConfig(args.dt, n), g=g,
                             U=U)
    values = field.values
    _write_lines(args.output, ["t,x,re,im"] + _rows(
        np.repeat(grid.times, grid.nx), np.tile(grid.x, len(grid.times)),
        values.real.ravel(), values.imag.ravel()))
    if args.manifest:
        peak = float(np.max(np.abs(values)))
        checks = [["finite_values", bool(np.isfinite(peak)), peak]]
        _write_manifest(args.manifest, args.raw_argv, spec, grid, checks)
    return EXIT_OK


def _cmd_compare(args):
    """The residual norms of field b against field a, by the standard
    library alone.  math.hypot scales its sum, so squares past the double
    range do not overflow it; a norm that is itself past it is named."""
    a = _read_field_csv(args.field_a)
    b = _read_field_csv(args.field_b)
    # numpy's allclose rule, |a - b| <= 1e-8 + 1e-5 |b|, at each t and x
    if len(a) != len(b) or any(abs(u - v) > 1e-8 + 1e-5 * abs(v)
                               for ra, rb in zip(a, b)
                               for u, v in zip(ra[:2], rb[:2])):
        raise ValueError("field CSVs disagree on the (t, x) sample points")
    diff = [(ra[2] - rb[2], ra[3] - rb[3]) for ra, rb in zip(a, b)]
    num = math.hypot(*(v for d in diff for v in d))
    den = math.hypot(*(v for row in a for v in row[2:]))
    rel = 0.0 if num == 0.0 else num / max(den, 1e-300)
    doc = {"relative_l2": rel, "absolute_l2": num, "reference_l2": den,
           "max_abs": max(math.hypot(*d) for d in diff)}
    for name, value in sorted(doc.items()):
        if not math.isfinite(value):
            raise OverflowError(f"{name} leaves the double range")
    _write_lines(args.output, [json.dumps(doc, indent=2, sort_keys=True)])
    if args.tol is not None and rel > args.tol:
        print(f"relative_l2 {rel:.3e} exceeds tolerance {args.tol:.3e}",
              file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _cmd_validate(args):
    from .green import SpecValidationError
    try:
        _spec_from_args(args)
    except SpecValidationError as exc:
        for p in exc.problems:
            print(p, file=sys.stderr)
        return EXIT_CONSTRAINT
    print("ok")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, as are its subparsers, that reads a token of '-'
    then a digit (-1e-4, -1,0.5) or then inf or nan in any case (-inf,
    -Infinity, -nan) as a value, as float() does; argparse alone reads
    only the forms -1 and -.5 so.  No fracgreen option starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


def _build_parser():
    top = _Parser(
        prog="fracgreen",
        description="Green functions and solutions of space-time "
                    "fractional diffusion-wave equations")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ml", help="evaluate a Mittag-Leffler value")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--z", type=_parse_complex, required=True)
    p.set_defaults(func=_cmd_ml)

    p = sub.add_parser("symbol", help="tabulate the space-operator symbol")
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--skew", type=float, default=0.0)
    p.add_argument("--k-range", nargs=2, type=float, required=True)
    p.add_argument("--nk", type=int, default=101)
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("green", help="tabulate a Green kernel on an x-grid")
    p.add_argument("--kind", choices=_KINDS, default="G")
    _add_spec_args(p)
    _add_grid_args(p)
    p.add_argument("--method", choices=("auto", "closed", "quadrature"),
                   default="auto")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("solve", help="solve from initial data and a source")
    _add_field_args(p, "zero")
    p.add_argument("--manifest", default=None,
                   help="write a JSON run manifest to this path")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("oracle", help="reference solve by GL time stepping")
    _add_field_args(p, "delta")
    p.add_argument("--dt", type=float, default=1.0 / 1024.0)
    p.set_defaults(func=_cmd_field, manifest=None)

    p = sub.add_parser("compare", help="residual norms between two fields")
    p.add_argument("field_a")
    p.add_argument("field_b")
    p.add_argument("--tol", type=_parse_tol, default=None,
                   help="exit 3 when relative_l2 exceeds this (>= 0)")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("validate", help="check parameter constraints")
    _add_spec_args(p)
    p.set_defaults(func=_cmd_validate)

    return top


def _splice_config(argv):
    """Insert key=value pairs from --config FILE before user flags.

    Flags given on the command line come later and therefore win under
    argparse's last-occurrence rule.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise SystemExit(2)
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                tokens.append("--" + key.strip())
                if value.strip():
                    tokens.append(value.strip())
    except UnicodeDecodeError as exc:  # unreadable, as a missing file is
        raise OSError(f"{path}: {exc}") from None
    if not rest:
        return tokens
    return rest[:1] + tokens + rest[1:]


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _splice_config(argv)
        args = _build_parser().parse_args(argv)
        args.raw_argv = argv
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_USAGE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # an input outside the domain
        print(str(exc), file=sys.stderr)
        return EXIT_CONSTRAINT
    except ArithmeticError as exc:  # no number within tolerance
        print(str(exc), file=sys.stderr)
        return EXIT_TOLERANCE


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
