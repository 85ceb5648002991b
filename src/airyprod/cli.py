"""Command-line front end: point evaluation, bulk verification, tables.

Subcommands
-----------
eval    evaluate one product/identity at a point and print a record
verify  run an identity suite over a seeded pseudo-random grid
table   write a CSV/JSON table over a parameter grid
greens  evaluate the static-field Green's function at one configuration

Each subcommand, table target and eval name takes only the flags it
reads; any other flag is a usage error.  Exit codes: 0 success,
1 verification failures, 2 usage, domain and validation errors,
3 quadrature failures, 4 I/O errors.  Stdout carries only data
records; diagnostics go to stderr.  All numbers are printed with 17
significant digits (round-trip exact for doubles).
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys

import numpy as np

from . import __version__
from .checks import SUITES
from .errors import AiryprodError, ToleranceNotMet
from .greens import GreensParams, greens_closed, greens_free, greens_time_integral, scaled_vars
from .grids import real_grid
from .products import (
    Rotation,
    Route,
    aiai_real,
    difference_identity,
    product,
    u_pm,
    w_pm,
    w_pm_real,
)
from .quadrature import DEFAULT_TOL, TOL_RANGE

_ROT_NAMES = {"0": Rotation.NONE, "+": Rotation.PLUS, "-": Rotation.MINUS}


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _emit(pairs) -> None:
    sys.stdout.write(" ".join(f"{k}={v}" for k, v in pairs) + "\n")


def _vector(text: str):
    return tuple(float(p) for p in text.split(","))


def parse_complex(text: str) -> complex:
    """Parse 'RE', 'IMi', or 'RE+IMi' literals (e.g. '1.5-0.25i').

    The trailing-i form avoids the shell-quoting problems of
    parenthesized complex literals; Python's own 'j' form is accepted
    too.  Spaces are ignored.
    """
    s = text.replace(" ", "")
    if s.endswith(("i", "I")):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError:
        raise ValueError(f"not a complex literal: {text!r}") from None


def _tolerance(text: str) -> float:
    tol = float(text)
    if not TOL_RANGE[0] <= tol <= TOL_RANGE[1]:
        raise argparse.ArgumentTypeError("must lie in [%.0e, %.0e]" % TOL_RANGE)
    return tol


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

_REAL_NAMES = ("aiai-real", "w-real+", "w-real-")
_EVAL_NAMES = ("u+", "u-", "w+", "w-", "product", "diff+", "diff-", *_REAL_NAMES)
_ROUTES = ("direct", "contour")
_SIGNED = {"u": u_pm, "w": w_pm, "diff": difference_identity, "w-real": w_pm_real}


def _cmd_eval(ns) -> int:
    name, tol = ns.name, ns.tol
    if name in _REAL_NAMES:
        point = [("x", _g(ns.x)), ("x0", _g(ns.x0))]
        args = (ns.x, ns.x0, tol)
    else:
        point = [("z", f"{_g(ns.z.real)}{ns.z.imag:+.17g}i"),
                 ("z0", f"{_g(ns.z0.real)}{ns.z0.imag:+.17g}i")]
        args = (ns.z, ns.z0, Route(ns.route), tol)
    if name == "aiai-real":
        pv = aiai_real(*args)
    elif name == "product":
        pv = product(_ROT_NAMES[ns.rot1], _ROT_NAMES[ns.rot2], *args)
    else:  # u+-, w+-, diff+-, w-real+-
        pv = _SIGNED[name[:-1]](+1 if name[-1] == "+" else -1, *args)
    _emit([("name", name), *point,
           ("route", "real-axis" if name in _REAL_NAMES else ns.route),
           ("re", _g(pv.value.real)), ("im", _g(pv.value.imag)),
           ("abs_err", _g(pv.abs_err_est))])
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _cmd_verify(ns) -> int:
    suite, default_count = SUITES[ns.suite]
    cases = suite(ns.count if ns.count is not None else default_count, ns.seed, ns.tol)
    for i, (label, resid, bound) in enumerate(cases):
        _emit([("case", i), ("desc", f'"{label}"'), ("residual", _g(resid)),
               ("status", "pass" if resid <= bound else "FAIL")])
    failures = sum(not resid <= bound for _, resid, bound in cases)
    # np.max, unlike max, carries a NaN residual through to the summary
    worst = np.max([resid / bound for _, resid, bound in cases])
    _emit([("suite", ns.suite), ("cases", len(cases)), ("failures", failures),
           ("max_ratio", _g(worst)), ("status", "PASS" if failures == 0 else "FAIL")])
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def _write_table(ns, header, rows) -> int:
    if ns.format == "csv":
        with open(ns.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_g(v) for v in row])
    else:
        records = [dict(zip(header, (float(_g(v)) for v in row))) for row in rows]
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    _emit([("table", ns.target), ("rows", len(rows)), ("path", ns.out),
           ("format", ns.format)])
    return 0


def _cmd_table_product(ns) -> int:
    xs, x0s = real_grid(ns.count_x, ns.count_x0,
                        (ns.x_min, ns.x_max), (ns.x0_min, ns.x0_max))
    rot1, rot2 = _ROT_NAMES[ns.rot1], _ROT_NAMES[ns.rot2]
    route = Route(ns.route)
    rows = []
    for x, x0 in zip(xs, x0s):
        pv = product(rot1, rot2, x, x0, route, ns.tol)
        rows.append([x, x0, pv.value.real, pv.value.imag, pv.abs_err_est])
    return _write_table(ns, ["x", "x0", "re", "im", "abs_err"], rows)


def _cmd_table_greens(ns) -> int:
    field = ns.field
    if field <= 0.0:
        raise ValueError("table greens requires --field > 0")
    if not (ns.eta_min > 0.0 and ns.eta_max > 0.0):
        raise ValueError("table greens requires --eta-min > 0 and --eta-max > 0")
    rows = []
    for eta in np.linspace(ns.eta_min, ns.eta_max, ns.eta_count):
        d = 2.0 ** (2.0 / 3.0) * eta / field ** (1.0 / 3.0)
        energy = 0.5 * (field * d - ns.xi * (2.0 * field) ** (2.0 / 3.0))
        p = GreensParams.make(energy, (0.0, 0.0, field),
                              (0.0, 0.0, d), (0.0, 0.0, 0.0))
        g = greens_closed(p)
        rows.append([eta, ns.xi, field, energy, d, g.real, g.imag,
                     4e-13 * abs(g)])
    return _write_table(ns, ["eta", "xi", "field", "energy", "separation",
                             "re", "im", "abs_err"], rows)


# ----------------------------------------------------------------------
# greens point evaluation
# ----------------------------------------------------------------------

def _cmd_greens(ns) -> int:
    p = GreensParams.make(ns.energy, _vector(ns.field), _vector(ns.r),
                          _vector(ns.r_prime))
    method = ns.method
    if method == "closed" and p.field_strength == 0.0:
        method = "free"  # zero field routes to the free form
    if method == "closed":
        g = greens_closed(p)
        sv = scaled_vars(p)
        extra = [("xi", _g(sv.xi)), ("eta", _g(sv.eta))]
    elif method == "integral":
        g = greens_time_integral(p, ns.tol)
        extra = []
    else:
        g = greens_free(p)
        extra = []
    _emit([("method", method), ("energy", _g(p.energy_E)),
           ("separation", _g(p.separation)),
           ("re", _g(g.real)), ("im", _g(g.imag))] + extra)
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    tol_flag = argparse.ArgumentParser(add_help=False)
    tol_flag.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                          help="quadrature tolerance, in [%.0e, %.0e]" % TOL_RANGE)
    table_flags = argparse.ArgumentParser(add_help=False)
    table_flags.add_argument("--out", required=True, help="path of the table file")
    table_flags.add_argument("--format", choices=("csv", "json"), default="csv",
                             help="table file format")

    parser = argparse.ArgumentParser(
        prog="airyprod",
        description="Shifted Airy products, their contour representations, "
                    "and the static-field Green's function")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at a point")
    p_eval.set_defaults(func=_cmd_eval)
    names = p_eval.add_subparsers(dest="name", required=True)
    for name in _EVAL_NAMES:
        p_name = names.add_parser(name, parents=[tol_flag])
        p_name.set_defaults(leaf=p_name)
        if name in _REAL_NAMES:
            p_name.add_argument("--x", type=float, required=True, help="real argument")
            p_name.add_argument("--x0", type=float, required=True, help="real shift")
            continue
        p_name.add_argument("--z", type=parse_complex, required=True,
                            help="complex literal RE+IMi")
        p_name.add_argument("--z0", type=parse_complex, required=True,
                            help="complex literal RE+IMi")
        p_name.add_argument("--route", choices=_ROUTES, default="direct")
        if name == "product":
            p_name.add_argument("--rot1", choices=_ROT_NAMES, default="0")
            p_name.add_argument("--rot2", choices=_ROT_NAMES, default="0")

    p_verify = sub.add_parser("verify", parents=[tol_flag],
                              help="run an identity suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--count", type=_count,
                          help="number of cases (default: per suite)")
    p_verify.add_argument("--seed", type=int, default=20240901,
                          help="seed of the pseudo-random grid")
    p_verify.set_defaults(func=_cmd_verify, leaf=p_verify)

    p_table = sub.add_parser("table", help="write a table over a grid")
    targets = p_table.add_subparsers(dest="target", required=True)
    p_prod = targets.add_parser("product", parents=[table_flags, tol_flag],
                                help="a product over a real (x, x0) grid")
    p_prod.add_argument("--rot1", choices=_ROT_NAMES, default="0")
    p_prod.add_argument("--rot2", choices=_ROT_NAMES, default="0")
    p_prod.add_argument("--route", choices=_ROUTES, default="direct")
    p_prod.add_argument("--x-min", type=float, default=-2.0)
    p_prod.add_argument("--x-max", type=float, default=2.0)
    p_prod.add_argument("--count-x", type=_count, default=9)
    p_prod.add_argument("--x0-min", type=float, default=0.0)
    p_prod.add_argument("--x0-max", type=float, default=2.0)
    p_prod.add_argument("--count-x0", type=_count, default=5)
    p_prod.set_defaults(func=_cmd_table_product, leaf=p_prod)
    p_tgreens = targets.add_parser("greens", parents=[table_flags],
                                   help="the closed-form Green's function over eta")
    p_tgreens.add_argument("--xi", type=float, default=0.0)
    p_tgreens.add_argument("--field", type=float, default=0.1)
    p_tgreens.add_argument("--eta-min", type=float, default=0.1)
    p_tgreens.add_argument("--eta-max", type=float, default=5.0)
    p_tgreens.add_argument("--eta-count", type=_count, default=50)
    p_tgreens.set_defaults(func=_cmd_table_greens, leaf=p_tgreens)

    p_greens = sub.add_parser("greens", parents=[tol_flag],
                              help="evaluate the Green's function at a point")
    p_greens.add_argument("--energy", type=float, required=True)
    p_greens.add_argument("--field", required=True, help="FX,FY,FZ")
    p_greens.add_argument("--r", required=True, help="X,Y,Z")
    p_greens.add_argument("--r-prime", required=True, help="X,Y,Z")
    p_greens.add_argument("--method", choices=("closed", "integral", "free"),
                          default="closed")
    p_greens.set_defaults(func=_cmd_greens, leaf=p_greens)
    return parser


_NEGATIVE_LITERAL = re.compile(r"-[0-9.ijIJ]")


def _attach_negative_values(argv):
    """Write ``--z0 -1.1+0.3i`` as ``--z0=-1.1+0.3i``.

    argparse reads a separate value that starts with '-' as an option
    unless it is a plain negative number, so ``-1e-3``, ``-0.1,0,0`` or a
    negative complex literal would leave its option without a value.
    Every option here takes exactly one value.
    """
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_LITERAL.match(arg)):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns, extra = _build_parser().parse_known_args(_attach_negative_values(argv))
        if extra:  # reported with the usage of the command that was given them
            ns.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help/--version
        return exc.code
    try:
        return ns.func(ns)
    except ToleranceNotMet as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except (AiryprodError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
