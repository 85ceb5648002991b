"""Command-line front end: point evaluation, bulk verification, tables.

Subcommands
-----------
eval    evaluate one product/identity at a point and print a record
verify  run an identity suite over a seeded pseudo-random grid
table   write a CSV/JSON table over a parameter grid
greens  evaluate the static-field Green's function at one configuration

Exit codes: 0 success, 1 verification failures, 2 domain/validation
errors, 3 quadrature failures, 4 I/O errors.  Stdout carries only data
records; diagnostics go to stderr.  All numbers are printed with 17
significant digits (round-trip exact for doubles).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .config import RunConfig, parse_complex
from .contours import (
    ContourKind,
    ShiftedArgs,
    build_contour,
    classify_sector,
    laplace_integral,
)
from .errors import AiryprodError, EndpointSingularity, ToleranceNotMet
from .greens import (
    GreensParams,
    greens_closed,
    greens_free,
    greens_time_integral,
    operator_residual,
    scaled_vars,
)
from .grids import real_grid, shifted_grid
from .products import (
    Rotation,
    Route,
    aiai_real,
    difference_identity,
    ode_residual_reduced_batch,
    ode_residual_w_batch,
    product,
    u_pm,
    w_pm,
    w_pm_real,
)

_QUAD_ERRORS = (ToleranceNotMet, EndpointSingularity)
_DOMAIN_ERRORS = (AiryprodError, ValueError)  # checked after _QUAD_ERRORS

_ROT_NAMES = {"0": Rotation.NONE, "+": Rotation.PLUS, "-": Rotation.MINUS}


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _emit(pairs) -> None:
    sys.stdout.write(" ".join(f"{k}={v}" for k, v in pairs) + "\n")


def _vector(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated components, got {text!r}")
    return tuple(float(p) for p in parts)


def _load_run_config(ns) -> RunConfig:
    cfg = RunConfig.from_file(ns.config) if ns.config else RunConfig()
    if ns.tol is not None:
        cfg.quad_tol = ns.tol
    if ns.format is not None:
        cfg.format = ns.format
    if ns.seed is not None:
        cfg.seed = ns.seed
    cfg.validate()
    return cfg


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

_EVAL_NAMES = ("u+", "u-", "w+", "w-", "product", "diff+", "diff-",
               "aiai-real", "w-real+", "w-real-")


def _cmd_eval(ns) -> int:
    cfg = _load_run_config(ns)
    name = ns.name
    route = Route(ns.route)
    tol = cfg.quad_tol

    if name in ("aiai-real", "w-real+", "w-real-"):
        if ns.x is None or ns.x0 is None:
            raise ValueError(f"{name} requires --x and --x0")
        x, x0 = ns.x, ns.x0
        if name == "aiai-real":
            pv = aiai_real(x, x0, tol)
        else:
            pv = w_pm_real(+1 if name.endswith("+") else -1, x, x0, tol)
        _emit([("name", name), ("x", _g(x)), ("x0", _g(x0)),
               ("sector", classify_sector(complex(x0)).value),
               ("route", pv.route.value),
               ("re", _g(pv.value.real)), ("im", _g(pv.value.imag)),
               ("abs_err", _g(pv.abs_err_est))])
        return 0

    if ns.z is None or ns.z0 is None:
        raise ValueError(f"{name} requires --z and --z0")
    z, z0 = parse_complex(ns.z), parse_complex(ns.z0)
    if name == "product":
        pv = product(_ROT_NAMES[ns.rot1], _ROT_NAMES[ns.rot2], z, z0, route, tol)
    elif name in ("u+", "u-"):
        pv = u_pm(+1 if name == "u+" else -1, z, z0, route, tol)
    elif name in ("w+", "w-"):
        pv = w_pm(+1 if name == "w+" else -1, z, z0, route, tol)
    else:  # diff+-
        pv = difference_identity(+1 if name == "diff+" else -1, z, z0, route, tol)
    _emit([("name", name),
           ("z", f"{_g(z.real)}{z.imag:+.17g}i"),
           ("z0", f"{_g(z0.real)}{z0.imag:+.17g}i"),
           ("sector", classify_sector(z0).value),
           ("route", pv.route.value),
           ("re", _g(pv.value.real)), ("im", _g(pv.value.imag)),
           ("abs_err", _g(pv.abs_err_est))])
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _suite_ode(cfg: RunConfig, count: int):
    z, z0 = shifted_grid(count, cfg.seed)
    tol = 1e-10
    worst = ode_residual_w_batch(z, z0)
    zero = z0 == 0.0
    if zero.any():
        worst[zero] = np.maximum(worst[zero], ode_residual_reduced_batch(z[zero]))
    return [(f"z={zz:.6g} z0={zz0:.6g}", w, w <= tol)
            for zz, zz0, w in zip(z, z0, worst)], tol


def _suite_routes(cfg: RunConfig, count: int):
    z, z0 = shifted_grid(count, cfg.seed)
    tol = 1e-7
    cases = []
    for zz, zz0 in zip(z, z0):
        worst = 0.0
        for sign in (+1, -1):
            d = u_pm(sign, zz, zz0, Route.DIRECT)
            c = u_pm(sign, zz, zz0, Route.CONTOUR, cfg.quad_tol)
            worst = max(worst, abs(c.value - d.value) / max(1.0, abs(d.value)))
            d = w_pm(sign, zz, zz0, Route.DIRECT)
            c = w_pm(sign, zz, zz0, Route.CONTOUR, cfg.quad_tol)
            worst = max(worst, abs(c.value - d.value) / max(1.0, abs(d.value)))
        cases.append((f"z={zz:.6g} z0={zz0:.6g}", worst, worst <= tol))
    return cases, tol


def _suite_identities(cfg: RunConfig, count: int):
    z, z0 = shifted_grid(count, cfg.seed)
    tol = 1e-10
    third = cmath.exp(1j * math.pi / 3.0)
    cases = []
    for zz, zz0 in zip(z, z0):
        U = {s: u_pm(s, zz, zz0).value for s in (+1, -1)}
        W = {s: w_pm(s, zz, zz0).value for s in (+1, -1)}
        Wr = {s: w_pm(s, zz + zz0, -zz0).value for s in (+1, -1)}
        # residuals are scaled by the largest combining term: where the
        # combination cancels below eps * that scale, float64 holds no
        # further information about the identity
        scale = max(1.0, *(abs(v) for v in (*U.values(), *W.values(), *Wr.values())))
        worst = 0.0

        lhs = product(Rotation.NONE, Rotation.NONE, zz, zz0).value
        rhs = W[+1] / third + third * W[-1]
        worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
        for s in (+1, -1):
            lhs = product(Rotation(s), Rotation.NONE, zz, zz0).value
            rhs = U[-s] + third ** (-s) * (U[s] - W[-s])
            worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
            lhs = product(Rotation(s), Rotation(-s), zz, zz0).value
            rhs = third ** (-s) * U[-s] + third ** s * W[-s]
            worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
            # reflection of the shift through the product identity
            lhs = W[s]
            rhs = U[-s] + third ** (-s) * (U[s] - Wr[-s])
            worst = max(worst, abs(lhs - rhs) / max(scale, abs(lhs)))
            # translation symmetry of the rotated-pair basis
            worst = max(worst, abs(u_pm(s, zz + zz0, -zz0).value - U[s])
                        / max(1.0, abs(U[s])))
        cases.append((f"z={zz:.6g} z0={zz0:.6g}", worst, worst <= tol))
    return cases, tol


def _suite_contour_relation(cfg: RunConfig, count: int):
    z, z0 = shifted_grid(count, cfg.seed)
    cases = []
    tol_abs = 1e-10
    for zz, zz0 in zip(z, z0):
        args = ShiftedArgs.make(zz, zz0)
        vals, errs = {}, {}
        for kind in ContourKind:
            res = laplace_integral(build_contour(kind, args), args, cfg.quad_tol)
            vals[kind], errs[kind] = res.value, res.abs_err_est
        lhs = vals[ContourKind.O]
        rhs = (vals[ContourKind.R_MINUS] + vals[ContourKind.L_MINUS]
               - vals[ContourKind.L_PLUS] - vals[ContourKind.R_PLUS])
        budget = max(10.0 * sum(errs.values()), 1e-12 * max(1.0, abs(lhs)))
        resid = abs(lhs - rhs)
        cases.append((f"z={zz:.6g} z0={zz0:.6g} relation", resid, resid <= budget))
    rng = np.random.default_rng(cfg.seed + 1)
    for zz in rng.uniform(-2, 2, 5) + 1j * rng.uniform(-2, 2, 5):
        args = ShiftedArgs.make(zz, 0.0)
        res = laplace_integral(build_contour(ContourKind.O, args), args, cfg.quad_tol)
        cases.append((f"z={zz:.6g} loop-at-zero-shift", abs(res.value),
                      abs(res.value) <= tol_abs))
    return cases, tol_abs


def _suite_greens(cfg: RunConfig, count: int):
    rng = np.random.default_rng(cfg.seed)
    cases = []
    tol = 1e-6
    for _ in range(count):
        e = rng.uniform(-1.0, 1.0)
        f0 = 10.0 ** rng.uniform(-2.0, 0.0)
        eta = rng.uniform(0.1, 5.0)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        d = 2.0 ** (2.0 / 3.0) * eta / f0 ** (1.0 / 3.0)
        shift = rng.normal(size=3) * 0.5
        p = GreensParams.make(e, (0.0, 0.0, f0),
                              direction * d / 2 + shift, -direction * d / 2 + shift)
        gc = greens_closed(p)
        gi = greens_time_integral(p, max(cfg.quad_tol, 1e-9))
        rel = abs(gc - gi) / max(abs(gc), 1e-300)
        cases.append((f"E={e:.4g} F={f0:.4g} eta={eta:.4g}", rel, rel <= tol))
    p = GreensParams.make(0.5, (0.0, 0.0, 1e-4), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    rel = abs(greens_closed(p) - greens_free(p)) / abs(greens_free(p))
    cases.append(("weak-field-vs-free", rel, rel <= 1e-3))
    p = GreensParams.make(0.4, (0.0, 0.0, 0.3), (2.0, 0.5, 0.1), (0.0, 0.0, -0.5))
    resid = operator_residual(p)
    cases.append(("operator-residual", resid, resid <= 1e-4))
    return cases, tol


_SUITES = {
    "ode": (_suite_ode, 60),
    "routes": (_suite_routes, 16),
    "identities": (_suite_identities, 60),
    "contour-relation": (_suite_contour_relation, 16),
    "greens": (_suite_greens, 12),
}


def _cmd_verify(ns) -> int:
    cfg = _load_run_config(ns)
    fn, default_count = _SUITES[ns.suite]
    count = ns.count if ns.count is not None else default_count
    if count < 1:
        raise ValueError("--count must be >= 1")
    cases, tol = fn(cfg, count)
    failures = 0
    worst = 0.0
    for i, (label, resid, ok) in enumerate(cases):
        worst = max(worst, resid)
        if not ok:
            failures += 1
        _emit([("case", i), ("desc", f'"{label}"'), ("residual", _g(resid)),
               ("status", "pass" if ok else "FAIL")])
    _emit([("suite", ns.suite), ("cases", len(cases)), ("failures", failures),
           ("max_residual", _g(worst)), ("tol", _g(tol)),
           ("status", "PASS" if failures == 0 else "FAIL")])
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def _write_rows(path: str, header, rows, fmt: str) -> None:
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_g(v) for v in row])
    else:
        records = [dict(zip(header, (float(_g(v)) for v in row))) for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")


def _cmd_table(ns) -> int:
    cfg = _load_run_config(ns)
    if ns.count_x < 1 or ns.count_x0 < 1 or ns.eta_count < 1:
        raise ValueError("grid counts must be >= 1")
    if ns.target == "product":
        xs, x0s = real_grid(ns.count_x, ns.count_x0,
                            (ns.x_min, ns.x_max), (ns.x0_min, ns.x0_max))
        rot1, rot2 = _ROT_NAMES[ns.rot1], _ROT_NAMES[ns.rot2]
        route = Route(ns.route)
        header = ["x", "x0", "re", "im", "abs_err"]
        rows = []
        for x, x0 in zip(xs, x0s):
            pv = product(rot1, rot2, x, x0, route, cfg.quad_tol)
            rows.append([x, x0, pv.value.real, pv.value.imag, pv.abs_err_est])
    else:  # greens
        field = ns.field
        if field <= 0.0:
            raise ValueError("table greens requires --field > 0")
        etas = np.linspace(ns.eta_min, ns.eta_max, ns.eta_count)
        header = ["eta", "xi", "field", "energy", "separation", "re", "im", "abs_err"]
        rows = []
        for eta in etas:
            d = 2.0 ** (2.0 / 3.0) * eta / field ** (1.0 / 3.0)
            energy = 0.5 * (field * d - ns.xi * (2.0 * field) ** (2.0 / 3.0))
            p = GreensParams.make(energy, (0.0, 0.0, field),
                                  (0.0, 0.0, d), (0.0, 0.0, 0.0))
            g = greens_closed(p)
            rows.append([eta, ns.xi, field, energy, d, g.real, g.imag,
                         4e-13 * abs(g)])
    try:
        _write_rows(ns.out, header, rows, cfg.format)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _emit([("table", ns.target), ("rows", len(rows)), ("path", ns.out),
           ("format", cfg.format)])
    return 0


# ----------------------------------------------------------------------
# greens point evaluation
# ----------------------------------------------------------------------

def _cmd_greens(ns) -> int:
    cfg = _load_run_config(ns)
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
        g = greens_time_integral(p, max(cfg.quad_tol, 1e-9))
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--tol", type=float, help="quadrature tolerance")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--seed", type=int)

    parser = argparse.ArgumentParser(
        prog="airyprod",
        description="Shifted Airy products, their contour representations, "
                    "and the static-field Green's function")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="evaluate one function at a point")
    p_eval.add_argument("name", choices=_EVAL_NAMES)
    p_eval.add_argument("--z", help="complex literal RE+IMi")
    p_eval.add_argument("--z0", help="complex literal RE+IMi")
    p_eval.add_argument("--x", type=float, help="real argument (real-axis forms)")
    p_eval.add_argument("--x0", type=float, help="real shift (real-axis forms)")
    p_eval.add_argument("--route", choices=("direct", "contour"), default="direct")
    p_eval.add_argument("--rot1", choices=("0", "+", "-"), default="0")
    p_eval.add_argument("--rot2", choices=("0", "+", "-"), default="0")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run an identity suite")
    p_verify.add_argument("suite", choices=sorted(_SUITES))
    p_verify.add_argument("--count", type=int)
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("table", parents=[common],
                             help="write a table over a grid")
    p_table.add_argument("target", choices=("product", "greens"))
    p_table.add_argument("--out", required=True)
    p_table.add_argument("--rot1", choices=("0", "+", "-"), default="0")
    p_table.add_argument("--rot2", choices=("0", "+", "-"), default="0")
    p_table.add_argument("--route", choices=("direct", "contour"), default="direct")
    p_table.add_argument("--x-min", type=float, default=-2.0)
    p_table.add_argument("--x-max", type=float, default=2.0)
    p_table.add_argument("--count-x", type=int, default=9)
    p_table.add_argument("--x0-min", type=float, default=0.0)
    p_table.add_argument("--x0-max", type=float, default=2.0)
    p_table.add_argument("--count-x0", type=int, default=5)
    p_table.add_argument("--xi", type=float, default=0.0)
    p_table.add_argument("--field", type=float, default=0.1)
    p_table.add_argument("--eta-min", type=float, default=0.1)
    p_table.add_argument("--eta-max", type=float, default=5.0)
    p_table.add_argument("--eta-count", type=int, default=50)
    p_table.set_defaults(func=_cmd_table)

    p_greens = sub.add_parser("greens", parents=[common],
                              help="evaluate the Green's function at a point")
    p_greens.add_argument("--energy", type=float, required=True)
    p_greens.add_argument("--field", required=True, help="FX,FY,FZ")
    p_greens.add_argument("--r", required=True, help="X,Y,Z")
    p_greens.add_argument("--r-prime", required=True, help="X,Y,Z")
    p_greens.add_argument("--method", choices=("closed", "integral", "free"),
                          default="closed")
    p_greens.set_defaults(func=_cmd_greens)
    return parser


_COMPLEX_OPTIONS = ("--z", "--z0")
_NEGATIVE_LITERAL = re.compile(r"-[0-9.ijIJ]")


def _attach_complex_values(argv):
    """Write ``--z0 -1.1+0.3i`` as ``--z0=-1.1+0.3i``.

    argparse reads a separate value that starts with '-' as an option
    unless it is a plain negative number, so a negative complex literal
    would leave its option without a value.
    """
    out = []
    for arg in argv:
        if out and out[-1] in _COMPLEX_OPTIONS and _NEGATIVE_LITERAL.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    ns = parser.parse_args(_attach_complex_values(argv))
    try:
        return ns.func(ns)
    except _QUAD_ERRORS as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return 3
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
