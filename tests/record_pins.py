"""Re-record ``tests/pins.json``, every value that tier-1 pins:

    PYTHONPATH=src python tests/record_pins.py

It recomputes every pin in one process per numpy SIMD loop set of the
``loops`` axis in ``.github/workflows/tests.yml`` (numpy reads the set
from ``NPY_DISABLE_CPU_FEATURES``), with the row functions that the pin
tests call, and compares the result with the recorded file by
``pathcheck.compare``, the comparison the tests assert with.  It
refuses, names the row, writes nothing and exits with 1 when an
integral's outcome or stop changed, when its value moved by more than
its old plus new ``abs_err_est``, or when a pin of a scope that several
loop sets reach (every host, one numpy minor version) differs between
them.  Otherwise it writes the file and prints the moved integral rows,
the largest move over the summed estimates, and every changed digest
and count.
"""

import json
import os
from pathlib import Path
import re
import subprocess
import sys
import traceback

from pathcheck import PINS, compare, scopes

_HERE = Path(__file__).resolve().parent
_MATRIX = _HERE.parent / ".github" / "workflows" / "tests.yml"


def rows():
    """Every pin's value under this process's numpy loops, by scope, and
    each row function that failed one of its own checks, with the error."""
    import test_airy
    import test_cli
    import test_greens
    import test_quadrature

    failed = []

    def row(function):
        try:
            return function()
        except Exception as exc:  # refused by the caller, which still compares the rest
            traceback.print_exc()
            failed.append((function.__name__, f"failed: {type(exc).__name__}"))
            return {}

    host, minor, kernels = scopes()
    families, time_paths = row(test_quadrature.time_paths) or ({}, {})
    return {
        host: {"series_values": row(test_airy.series_values),
               "series_digest": row(test_airy.series_digest),
               "panel_schedule": row(test_quadrature.panel_schedule),
               "time_path_families": families,
               "float64_edge_outcomes": row(test_greens.float64_edge_outcomes)},
        minor: {"time_paths": time_paths, "contour_paths": row(test_quadrature.contour_paths)},
        kernels: {"integrals": row(test_quadrature.integral_rows), **row(test_cli.cli_digests)},
    }, failed


def main():
    loop_sets = json.loads(re.search(r"^\s*loops: (\[.*\])$", _MATRIX.read_text(), re.M)[1])
    child = (f"import json, sys; sys.path.insert(0, {str(_HERE)!r}); import record_pins; "
             "print(json.dumps(record_pins.rows()))")
    new, refused = {}, []
    for loops in loop_sets:
        # RuntimeWarnings are errors here as in tier-1 (pyproject.toml)
        out = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", child],
                             stdout=subprocess.PIPE, text=True, check=True,
                             env={**os.environ, "NPY_DISABLE_CPU_FEATURES": loops})
        table, failed = json.loads(out.stdout.splitlines()[-1])
        refused += [(name, f"{error} under NPY_DISABLE_CPU_FEATURES={loops!r}")
                    for name, error in failed]
        for scope, pins in table.items():
            refused += [(name, f"differs under NPY_DISABLE_CPU_FEATURES={loops!r}")
                        for group in compare(new.setdefault(scope, pins), pins, scope)
                        for name, *_ in group]
    old = json.loads(PINS.read_text())
    new = {**old, **new}
    outcomes, moved, changed = compare(old, new, PINS.name)
    for name, reason in refused + outcomes:
        print(f"refused: {name}: {reason}")
    if refused or outcomes:
        sys.exit(f"{PINS} left unchanged")
    PINS.write_text(json.dumps(new, indent=1) + "\n")
    worst = max([ratio for _, ratio in moved], default=0.0)
    print(f"{len(moved)} integral rows moved, at most {worst:.3g} of their summed estimates")
    for name, ratio in moved:
        print(f"moved: {name}: {ratio:.3g}")
    print(f"{len(changed)} other pins changed")
    for name, was, now in changed:
        print(f"changed: {name}: {was} -> {now}")


if __name__ == "__main__":
    main()
