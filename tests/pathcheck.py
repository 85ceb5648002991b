"""Helpers shared by the test modules: the pins of ``pins.json`` with
their one lookup and one comparison, path checks for the contour and
quadrature tests, the seed-7 float64-edge Green's-function
configurations, both path integrals as functions of their tolerance, and
small numeric helpers."""

import cmath
from functools import partial
import json
import math
from pathlib import Path

import numpy as np
import pytest

from airyprod import (ContourKind, GreensParams, airy_batch, build_contour,
                      greens_time_integral, laplace_integral)
from airyprod.errors import AiryprodError, ToleranceNotMet

OMEGA = cmath.exp(2j * math.pi / 3)


def scaled_diff(a, b):
    """|a - b| relative to max(1, |b|)."""
    return abs(a - b) / max(1.0, abs(b))


def connection_residuals(z):
    """|Ai(z) + w Ai(w z) + w* Ai(w* z)| over the largest of the three
    terms, w = e^{2 i pi/3}, at each point of the array z."""
    terms = (airy_batch(z)[0], OMEGA * airy_batch(OMEGA * z)[0],
             np.conj(OMEGA) * airy_batch(z / OMEGA)[0])
    return np.abs(sum(terms)) / np.maximum.reduce([np.abs(t) for t in terms])


def tracked(leg, t):
    """k and the tracked angle of ``leg`` at the points t, both read from
    its map: l = log(k^{-p} dk/dt) at p = 0 less l at p = 1 is log k on
    the leg's branch."""
    with np.errstate(all="ignore"):
        k, ell_0 = leg.map(np.asarray(t, dtype=float), 0.0)
        ell_1 = leg.map(np.asarray(t, dtype=float), 1.0)[1]
    return k, (ell_0 - ell_1).imag


def path_is_connected(legs, rtol=1e-9):
    """Check junction continuity of both position and tracked angle; a
    junction that leaves float64 is not continuous."""
    ends = [tracked(leg, [0.0, 1.0]) for leg in legs]
    for (k_prev, th_prev), (k_next, th_next) in zip(ends[:-1], ends[1:]):
        k_end, k_start = k_prev[1], k_next[0]
        scale = max(abs(k_end), abs(k_start), 1e-30)
        if not abs(k_end - k_start) <= rtol * scale:
            return False
        if not abs(th_prev[1] - th_next[0]) <= 1e-12:
            return False
    return True


def ends_finite(legs):
    """Whether every leg's map is finite at both ends."""
    return all(np.isfinite(tracked(leg, [0.0, 1.0])[0]).all() for leg in legs)


def r_inner(leg):
    """The radius at which a ``DecayLeg`` stops short of k = 0."""
    return leg.r_outer * math.exp(-leg.s_max)


def float_kernels():
    """The scope of ``pins.json`` that numpy's minor version and the SIMD
    targets of its float64 exp and log name.

    The targets name the loop set that numpy dispatches to (X86_V4, X86_V3
    or baseline), and the pinned bits follow more of its loops than these
    two: exp and log round differently under X86_V4 and X86_V3, and under
    the baseline loops complex multiply and complex absolute value do too
    (``z * z0``, ``np.abs(z)`` and ``checks.ode_worst`` on
    ``shifted_grid(60, 20240901)``, while ``airy_batch``'s Ai, Ai' and
    ``est_rel_err`` keep their bytes under all three)."""
    minor = np.__version__.rsplit(".", 1)[0]
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0
        return f"numpy {minor} loops unknown"
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return f"numpy {minor} exp {info['exp']['dd']['current']} log {info['log']['dd']['current']}"


# The pins: every value that tier-1 compares bit for bit, recorded by
# ``record_pins.py`` from the row functions the pin tests call.  Each is
# recorded in one scope: on every host (values of real +, -, * and
# sqrt, counts and outcomes), per numpy minor version (the printed path
# digests) or per ``float_kernels()`` key (values through numpy's exp,
# log and complex loops).
PINS = Path(__file__).with_name("pins.json")


def scopes():
    """The scopes whose pins hold on this host, widest first."""
    return ["every host", f"numpy {np.__version__.rsplit('.', 1)[0]}", float_kernels()]


def assert_pinned(name, got):
    """Assert that ``got`` equals pin ``name``, as ``pins.json`` records it
    for this host, bit for bit; a skip where none is recorded."""
    table = json.loads(PINS.read_text())
    for scope in scopes():
        if name in table.get(scope, {}):
            report = compare(table[scope][name], got, name)
            assert not any(report), report
            return
    pytest.skip(f"no {name} recorded for {float_kernels()}")


def integral_row(integral, *args):
    """The pin row of ``integral(*args)``: its value and ``abs_err_est`` as
    float.hex, nodes and stop, or the error it raises and its stop."""
    try:
        res = integral(*args)
    except AiryprodError as exc:
        stop = exc.result.stop if isinstance(exc, ToleranceNotMet) else None
        return {"raises": type(exc).__name__, "stop": stop}
    return {"value": [res.value.real.hex(), res.value.imag.hex()],
            "abs_err_est": res.abs_err_est.hex(), "nodes": res.nodes, "stop": res.stop}


def _value(row):
    return complex(*map(float.fromhex, row["value"]))


def compare(old, new, name):
    """What changed from ``old`` to ``new``, the values of pin ``name``, as
    three lists.  Refused, as (name, reason): an integral row (a dict with
    a ``stop``) whose outcome or stop changed, or whose value moved by more
    than its old plus new ``abs_err_est``.  Moved, as (name, that ratio):
    any other integral row that changed.  Changed, as (name, old, new):
    every other value that differs.  Dicts compare key by key."""
    report = refused, moved, changed = [], [], []
    if old == new:
        pass
    elif isinstance(old, dict) and "stop" in old:
        if "value" not in old or "value" not in (new or {}) or old["stop"] != new["stop"]:
            refused.append((name, f"outcome {old} became {new}"))
        else:
            move = abs(_value(new) - _value(old))
            total = float.fromhex(old["abs_err_est"]) + float.fromhex(new["abs_err_est"])
            ratio = move / total if total else math.inf if move else 0.0
            if ratio > 1.0:
                refused.append((name, f"moved {ratio:.3g} times its summed estimates"))
            else:
                moved.append((name, ratio))
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in dict.fromkeys([*old, *new]):
            for mine, theirs in zip(report, compare(old.get(key), new.get(key), f"{name}/{key}")):
                mine += theirs
    else:
        changed.append((name, old, new))
    return report


def path_integrals():
    """Both path integrals as functions of tol alone: I_L- at z = 1,
    z0 = 0, and the time integral at E = 0.5, F = 0.1 z^, r = x^, r' = 0."""
    path = build_contour(ContourKind.L_MINUS, 1.0, 0.0)
    p = GreensParams.make(0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0))
    return [partial(laplace_integral, path), partial(greens_time_integral, p)]


def float64_edges():
    """400 seeded configurations with E, F_z and x drawn as +-10^U(-320, 308),
    F = F_z z^, r = x x^ and r' = 0."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        e, f, x = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 308) for _ in range(3))
        yield GreensParams.make(e, (0, 0, f), (x, 0, 0), (0, 0, 0))
