"""The library names the traced benchmark run depends on.

``perfbench/tracing.py`` rebinds module-level names of the library when
it traces a run (``REBIND``); its import fails if one of them is gone,
and a caller that stops calling through the module-level name silently
drops out of the trace.  This test reads ``perfbench/`` and changes
nothing in it.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from airyprod import ContourKind, contours, greens, products
from airyprod.errors import ToleranceNotMet
from airyprod.greens import GreensParams
from airyprod.products import Route

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing(monkeypatch):
    # no bytecode cache is written into perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_rebound_names_exist_and_are_restored(monkeypatch):
    tracing = _tracing(monkeypatch)
    for mod, attr, _, _ in tracing.REBIND:
        assert callable(getattr(mod, attr)), f"{mod.__name__}.{attr}"
    assert tracing.all_restored()


def test_every_rebound_name_is_called_through(monkeypatch):
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    params = GreensParams.make(0.5, (0, 0, 0.1), (1, 0, 0), (0, 0, 0))
    with tracing.rebound(tracer):
        products.u_pm(+1, 1.0, 0.5)
        products.u_pm(+1, 1.0, 0.5, route=Route.CONTOUR, tol=1e-8)
        products.ode_residual_w_batch(np.array([0.5 + 0.5j]), np.array([0.3]))
        greens.greens_closed(params)
        greens.greens_time_integral(params, 1e-8)
    assert tracing.all_restored()
    seen = {span[0] for span in tracer.spans}
    assert seen == {name for _, _, name, _ in tracing.REBIND}


def test_raised_miss_is_traced(monkeypatch):
    # a quadrature miss raises ToleranceNotMet from integrate_legs itself;
    # its span still records the node count and converged=False, read from
    # the exception's result
    tracing = _tracing(monkeypatch)
    tracer = tracing.Tracer()
    path = contours.build_contour(ContourKind.L_PLUS, 3.454227064669872 + 6.2517801904203925j, 0)
    with tracing.rebound(tracer), pytest.raises(ToleranceNotMet) as info:
        contours.laplace_integral(path, 1e-14)
    assert tracing.all_restored()
    miss = info.value.result
    assert miss.stop == "plateau"
    spans = [s for s in tracer.spans if s[0] == "quadrature.integrate_legs"]
    assert [s[5] for s in spans] == [[miss.nodes, False]]
