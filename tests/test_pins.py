"""The comparison of recorded and recomputed pins that the pin tests and
``record_pins.py`` share, on synthetic rows."""

import pytest

from pathcheck import compare

_ROW = {"value": [(1.0).hex(), (-2.0).hex()], "abs_err_est": (1e-12).hex(), "nodes": 540,
        "stop": "converged"}


def _moved(shift):
    return {**_ROW, "value": [(1.0 + shift).hex(), (-2.0).hex()], "nodes": 570}


def test_refused_rows_named():
    # a converged row that becomes a raise, a changed stop, and a move
    # past the old plus new abs_err_est of 2e-12
    new = {"raised": {"raises": "ToleranceNotMet", "stop": "plateau"},
           "restopped": {**_ROW, "stop": "plateau"}, "far": _moved(3e-12), "kept": _ROW}
    refused, moved, changed = compare(dict.fromkeys(new, _ROW), new, "rows")
    assert [name for name, _ in refused] == ["rows/raised", "rows/restopped", "rows/far"]
    assert moved == changed == []


def test_moves_within_estimates_and_changed_digests_reported():
    old = {"rows": {"near": _ROW, "kept": _ROW}, "digest": "ab", "count": 5}
    new = {"rows": {"near": _moved(1e-12), "kept": _ROW}, "digest": "cd", "count": 5}
    assert compare(old, new, "pins") == (
        [], [("pins/rows/near", pytest.approx(0.5, rel=1e-3))], [("pins/digest", "ab", "cd")])
