"""Smoke test of the benchmark itself.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

For every workload it makes a short untraced run and a short traced run
(a few ops each) and checks that

* every metric named in ``BENCHMARK.json`` is emitted, with its unit;
* the traced outputs match the untraced ones bit for bit, and every
  rebound library name is restored afterwards;
* a reference value corrupted by ten times the workload's tolerance
  makes the op fail, and the failure is counted in ``fail_frac``, so the
  output checks can fail.

Exits with status 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
from workloads import WORKLOADS

SEED = 7
SECONDS = 0.2
MIN_OPS = 3


def expect(ok, message):
    if not ok:
        sys.exit(f"selftest: {message}")


def check_units(result, declared, label):
    for entry in declared:
        got = result["metrics"].get(entry["name"])
        expect(got is not None, f"{label}: metric {entry['name']} not emitted")
        expect(got["unit"] == entry["unit"],
               f"{label}: {entry['name']} in {got['unit']}, declared {entry['unit']}")


def corrupt_first_reference(workload):
    """Shift the first reference value of every op by ten times the tolerance."""
    original = type(workload).deviations

    def deviations(op, out):
        rows = original(workload, op, out)
        got, want, scale = rows[0]
        rows[0] = (got, want + 10.0 * workload.tol * scale, scale)
        return rows

    workload.deviations = deviations


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, workload in WORKLOADS.items():
        _, result = run.untraced_result(workload, SEED, SECONDS, min_ops=MIN_OPS)
        check_units(result, spec["end_to_end"], name)
        expect(result["correct"] and result["failed"] == 0, f"{name}: clean run failed")
        expect(result["attempted"] >= MIN_OPS, f"{name}: only {result['attempted']} ops")

        meta, result, _ = run.traced_result(workload, SEED, SECONDS, min_ops=MIN_OPS)
        check_units(result, spec["per_layer"], f"{name} traced")
        expect(meta["identical"], f"{name}: traced outputs differ from untraced")
        expect(meta["restored"] and tracing.all_restored(),
               f"{name}: a rebound name was not restored")
        expect(result["correct"], f"{name}: clean traced run failed")

        corrupt_first_reference(workload)
        try:
            meta, result, _ = run.traced_result(workload, SEED, SECONDS, min_ops=MIN_OPS)
        finally:
            del workload.deviations
        expect(result["failed"] == result["attempted"] and not result["correct"],
               f"{name}: corrupted references were not all caught")
        expect(result["metrics"]["fail_frac"]["value"] == 1.0,
               f"{name}: corrupted references not counted in fail_frac")
        print(f"selftest {name}: ok ({result['attempted']} ops per run)", flush=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
