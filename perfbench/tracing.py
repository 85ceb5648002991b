"""Spans recorded around calls into each airyprod layer, and the per-layer
metrics computed from them.

Tracing exists only in the traced run.  It times calls two ways, both
from the benchmark's own files:

* the public functions the workloads call go through a traced copy of
  the workload ``api`` namespace;
* the names the library modules imported from each other are rebound
  for the duration of the run and restored afterwards (``rebound``).

A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
index of the enclosing span (-1 for none) and ``op`` the index of the op
that caused it (-1 outside ops).  Spans stay in memory and are written
out once, at the end.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import cmath
import json
import math
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from airyprod import contours, greens, products
from airyprod.oracle import CROSSOVER_RADIUS
from airyprod.products import Route

_TWO_PI_3 = 2.0 * math.pi / 3.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``name`` may be a function of
        the call arguments, ``attrs`` one of (args, kwargs, result, error)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if attrs is not None:
                    span[5] = attrs(args, kwargs, result, error)

        return traced

    def write(self, path, meta):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _airy_attrs(args, kwargs, result, error):
    # branch of the reference evaluator, after conjugation into the
    # upper half-plane as the evaluator itself does
    z = complex(args[0])
    if z.imag < 0.0:
        z = z.conjugate()
    if abs(z) <= CROSSOVER_RADIUS:
        return "series"
    return "asym" if cmath.phase(z) <= _TWO_PI_3 else "conn"


def _batch_attrs(args, kwargs, result, error):
    z = np.asarray(args[0])
    return [int(z.size), int(np.count_nonzero(np.abs(z) <= CROSSOVER_RADIUS))]


def _quad_attrs(args, kwargs, result, error):
    res = result if error is None else getattr(error, "result", None)
    if res is None:
        return [0, False]
    return [int(res.nodes), bool(res.converged) and error is None]


#: (module, imported name, span name, attribute recorder) of every rebinding.
REBIND = (
    (products, "airy", "oracle.airy", _airy_attrs),
    (products, "airy_batch", "oracle.batch", _batch_attrs),
    (products, "build_contour", "contours.build_contour", None),
    (products, "laplace_integral", "contours.laplace_integral", _quad_attrs),
    (contours, "integrate_legs", "quadrature.integrate_legs", _quad_attrs),
    (greens, "_airy_raw_batch", "oracle.raw_batch", None),
    (greens, "integrate_legs", "quadrature.integrate_legs", _quad_attrs),
)
_ORIGINALS = {(mod.__name__, attr): getattr(mod, attr) for mod, attr, _, _ in REBIND}


@contextmanager
def rebound(tracer):
    """Rebind the imported names in ``REBIND`` to traced wrappers."""
    try:
        for mod, attr, name, attrs in REBIND:
            setattr(mod, attr, tracer.wrap(name, _ORIGINALS[mod.__name__, attr], attrs))
        yield
    finally:
        for mod, attr, _, _ in REBIND:
            setattr(mod, attr, _ORIGINALS[mod.__name__, attr])


def all_restored() -> bool:
    return all(getattr(mod, attr) is _ORIGINALS[mod.__name__, attr]
               for mod, attr, _, _ in REBIND)


def _product_span(args, kwargs):
    return "products.contour" if kwargs["route"] is Route.CONTOUR else "products.direct"


def traced_api(tracer, api):
    """Copy of the workload ``api`` with a span around every call."""
    names = {
        "u_pm": _product_span, "w_pm": _product_span, "product": _product_span,
        "difference_identity": _product_span,
        "ode_residual_w_batch": "products.batch",
        "ode_residual_reduced_batch": "products.batch",
        "greens_closed": "greens.greens_closed",
        "greens_time_integral": "greens.greens_time_integral",
        "shifted_grid": "grids.shifted_grid",
    }
    return SimpleNamespace(**{k: tracer.wrap(names[k], fn) for k, fn in vars(api).items()})


#: Every per-layer metric, with its unit, in the order they are printed.
LAYER_METRICS = (
    ("fail_frac", "ratio"),
    ("oracle.airy.calls", "count"),
    ("oracle.airy.series.us_p50", "us"),
    ("oracle.airy.asym.us_p50", "us"),
    ("oracle.airy.conn.us_p50", "us"),
    ("oracle.raw_batch.calls", "count"),
    ("oracle.raw_batch.us_p50", "us"),
    ("oracle.batch.calls", "count"),
    ("oracle.batch.points", "count"),
    ("oracle.batch.us_per_point", "us"),
    ("oracle.batch.series_share", "ratio"),
    ("oracle.self_s", "s"),
    ("contours.build_contour.calls", "count"),
    ("contours.build_contour.us_p50", "us"),
    ("contours.build_contour.us_p90", "us"),
    ("contours.build_contour.self_s", "s"),
    ("contours.laplace_integral.calls", "count"),
    ("contours.laplace_integral.us_p50", "us"),
    ("contours.laplace_integral.self_s", "s"),
    ("contours.nodes.p50", "count"),
    ("contours.nodes.p90", "count"),
    ("contours.failed", "count"),
    ("contours.wide.nodes.p90", "count"),
    ("quadrature.integrate_legs.calls", "count"),
    ("quadrature.integrate_legs.self_s", "s"),
    ("quadrature.nodes.total", "count"),
    ("quadrature.us_per_node", "us"),
    ("quadrature.converged_ratio", "ratio"),
    ("products.direct.calls", "count"),
    ("products.direct.us_p50", "us"),
    ("products.contour.calls", "count"),
    ("products.contour.us_p50", "us"),
    ("products.self_s", "s"),
    ("greens.greens_closed.calls", "count"),
    ("greens.greens_closed.us_p50", "us"),
    ("greens.greens_closed.self_s", "s"),
    ("greens.greens_time_integral.calls", "count"),
    ("greens.greens_time_integral.us_p50", "us"),
    ("greens.greens_time_integral.self_s", "s"),
    ("greens.time_integral.nodes.p50", "count"),
    ("grids.s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _q(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, probe_spans=()):
    """Per-layer metrics from the spans of one traced pass.

    A layer that the workload never calls reads 0.  ``probe_spans`` are
    the spans of the contour-sweep wide probe; they count only towards
    ``contours.failed`` (Laplace integrals that raised instead of
    converging) and ``contours.wide.nodes.p90``.
    """
    n = len(spans)
    dur = np.fromiter((s[2] - s[1] for s in spans), float, n)
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_t = dur - child
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(idx(name)))

    def us(name, q, pick=None):
        rows = [i for i in idx(name) if pick is None or pick(spans[i])]
        return _q(dur[rows] * 1e6, q)

    def self_s(*names):
        return float(sum(self_t[i] for name in names for i in idx(name)))

    def attr_col(name, col, pick=None):
        return [spans[i][5][col] for i in idx(name) if pick is None or pick(spans[i])]

    m = {}
    m["oracle.airy.calls"] = calls("oracle.airy")
    for branch in ("series", "asym", "conn"):
        m[f"oracle.airy.{branch}.us_p50"] = us("oracle.airy", 50,
                                               lambda s, b=branch: s[5] == b)
    m["oracle.raw_batch.calls"] = calls("oracle.raw_batch")
    m["oracle.raw_batch.us_p50"] = us("oracle.raw_batch", 50)
    points = float(sum(attr_col("oracle.batch", 0)))
    m["oracle.batch.calls"] = calls("oracle.batch")
    m["oracle.batch.points"] = points
    m["oracle.batch.us_per_point"] = (
        float(dur[idx("oracle.batch")].sum()) * 1e6 / points if points else 0.0)
    m["oracle.batch.series_share"] = (
        sum(attr_col("oracle.batch", 1)) / points if points else 0.0)
    m["oracle.self_s"] = self_s("oracle.airy", "oracle.batch", "oracle.raw_batch")

    m["contours.build_contour.calls"] = calls("contours.build_contour")
    m["contours.build_contour.us_p50"] = us("contours.build_contour", 50)
    m["contours.build_contour.us_p90"] = us("contours.build_contour", 90)
    m["contours.build_contour.self_s"] = self_s("contours.build_contour")
    m["contours.laplace_integral.calls"] = calls("contours.laplace_integral")
    m["contours.laplace_integral.us_p50"] = us("contours.laplace_integral", 50)
    m["contours.laplace_integral.self_s"] = self_s("contours.laplace_integral")
    nodes = attr_col("contours.laplace_integral", 0)
    m["contours.nodes.p50"] = _q(nodes, 50)
    m["contours.nodes.p90"] = _q(nodes, 90)
    probe = [s[5] for s in probe_spans if s[0] == "contours.laplace_integral"]
    m["contours.failed"] = float(
        sum(not ok for ok in attr_col("contours.laplace_integral", 1))
        + sum(not ok for _, ok in probe))
    m["contours.wide.nodes.p90"] = _q([nodes for nodes, _ in probe], 90)

    quad_nodes = attr_col("quadrature.integrate_legs", 0)
    m["quadrature.integrate_legs.calls"] = calls("quadrature.integrate_legs")
    m["quadrature.integrate_legs.self_s"] = self_s("quadrature.integrate_legs")
    m["quadrature.nodes.total"] = float(sum(quad_nodes))
    m["quadrature.us_per_node"] = (
        float(dur[idx("quadrature.integrate_legs")].sum()) * 1e6 / sum(quad_nodes)
        if sum(quad_nodes) else 0.0)
    conv = attr_col("quadrature.integrate_legs", 1)
    m["quadrature.converged_ratio"] = sum(conv) / len(conv) if conv else 0.0

    for route in ("direct", "contour"):
        m[f"products.{route}.calls"] = calls(f"products.{route}")
        m[f"products.{route}.us_p50"] = us(f"products.{route}", 50)
    m["products.self_s"] = self_s("products.direct", "products.contour", "products.batch")

    for fn in ("greens_closed", "greens_time_integral"):
        m[f"greens.{fn}.calls"] = calls(f"greens.{fn}")
        m[f"greens.{fn}.us_p50"] = us(f"greens.{fn}", 50)
        m[f"greens.{fn}.self_s"] = self_s(f"greens.{fn}")
    m["greens.time_integral.nodes.p50"] = _q(attr_col(
        "quadrature.integrate_legs", 0,
        lambda s: s[3] >= 0 and spans[s[3]][0] == "greens.greens_time_integral"), 50)
    m["grids.s"] = float(dur[idx("grids.shifted_grid")].sum())
    return m


#: ROADMAP "Baseline at this re-anchor" figures: (metric, low, high, text).
BASELINE = (
    ("oracle.airy.series.us_p50", 4900.0, 28000.0, "scalar airy 4.9-28 ms for |z| <= 9"),
    ("oracle.airy.asym.us_p50", 380.0, 380.0, "scalar airy 0.38 ms at |z| = 12"),
    ("oracle.batch.us_per_point", 28.0, 28.0, "airy_batch about 28 us per point"),
    ("contours.build_contour.us_p50", 1300.0, 1300.0, "build_contour about 1.3 ms cold"),
    ("contours.laplace_integral.us_p50", 600.0, 800.0, "laplace_integral 0.6-0.8 ms"),
    ("contours.nodes.p50", 585.0, 990.0, "laplace_integral median 585-990 nodes"),
    ("greens.greens_closed.us_p50", 12400.0, 12400.0, "greens_closed 12.4 ms"),
    ("greens.greens_time_integral.us_p50", 1000.0, 1000.0, "greens_time_integral 1.0 ms"),
)


def baseline_rows(metrics):
    """Lines setting each measured figure next to its baseline figure."""
    rows = []
    for name, low, high, text in BASELINE:
        got = metrics[name]
        if not got:
            continue
        flag = "  gap > 2x" if got < 0.5 * low or got > 2.0 * high else ""
        rows.append(f"baseline {name} = {got:.4g}  vs  {text}{flag}")
    return rows
