"""airyprod benchmark: one seeded workload per run, closed loop, one caller.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload contour-sweep --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

The library is imported from ``src/`` of the checkout the script sits
in; without it the run exits with status 1 and prints no result.

``--trace 0`` runs the workload untraced for ``--seconds`` of op time
(and at least ``MIN_OPS`` ops) and reports the end-to-end metrics:
``ops_per_s``, ``op_ms.p50``, ``op_ms.p90``, ``setup_s`` (the median of
``SETUP_PROBES`` fresh processes, each timed from launch until its
inputs are generated and its warm-up is done) and ``peak_rss_mb``.
Times are rescaled to nominal host speed (see ``hostspeed.py``); the
meta line also gives the wall-clock rate and median.

``--trace 1`` runs the same seeded ops with spans around every layer
call (see ``tracing.py``), then the same number of ops untraced in a
fresh process, and reports the per-layer metrics.  The traced outputs
must match the untraced ones bit for bit; ``trace.overhead_frac`` is the
traced op time over the untraced one, minus 1.  The spans are written to
``.perfbench/`` at the checkout root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An op fails
when it raises an ``AiryprodError`` or its outputs miss the workload's
check; a failure never aborts a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "airyprod" / "__init__.py").is_file():
    sys.exit(f"perfbench: no airyprod sources at {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import airyprod  # noqa: E402
from airyprod import products  # noqa: E402
from airyprod.errors import AiryprodError  # noqa: E402
from airyprod.products import Route  # noqa: E402

import tracing  # noqa: E402
from hostspeed import kernel_seconds, rescale  # noqa: E402
from workloads import (  # noqa: E402
    TIMED, WARMUP, WORKLOADS, ContourSweep, OpStream, failed_check, plain_api,
    wide_probe_points,
)

if Path(airyprod.__file__).resolve().parent != SRC / "airyprod":
    sys.exit(f"perfbench: imported airyprod from {airyprod.__file__}, not {SRC}")

MIN_OPS = 100          # so that op_ms.p90 has at least 10 samples beyond it
MAX_LOOP_S = 60.0      # hard stop for a run that cannot reach MIN_OPS
KERNEL_SHARE = 0.1     # calibration time after each op, as a share of the op's time
SETUP_PROBES = 5
SETUP_KERNEL_S = 0.05  # calibration time before and after each set-up probe
WIDE_PROBE_POINTS = 256
CHILD_TIMEOUT_S = 170.0

E2E_UNITS = (
    ("ops_per_s", "ops/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def run_one(workload, api, op):
    """One op: (outputs or error name, failed, seconds spent in the library)."""
    t0 = perf_counter()
    try:
        out = workload.run(api, op)
    except AiryprodError as exc:
        return type(exc).__name__, True, perf_counter() - t0
    elapsed = perf_counter() - t0
    return out, failed_check(workload, op, out), elapsed


def prepare(workload, seed, api):
    """Set-up: the first block of timed inputs, then warm-up on disjoint ones."""
    stream = OpStream(workload, api, seed, TIMED)
    stream[0]
    warm = OpStream(workload, plain_api(), seed, WARMUP)
    warm_keys = set()
    for i in range(workload.warmup_ops):
        warm_keys.update(workload.keys(warm[i]))
        run_one(workload, plain_api(), warm[i])
    return stream, warm_keys


def run_ops(workload, api, stream, warm_keys, seconds=None, n_ops=None,
            tracer=None, min_ops=MIN_OPS):
    """Closed loop over the seeded ops.

    Stops after ``n_ops`` ops when given, otherwise once ``seconds`` of op
    time and ``min_ops`` ops are done.  Raises when a timed (z, z0) repeats
    or was used in warm-up: a repeat would hit the contour tail cache.

    ``times`` are wall seconds per op; ``norm`` rescales each by the
    calibration kernel times measured just before and just after it (see
    ``hostspeed``).  The kernel runs for ``KERNEL_SHARE`` of the op's time,
    so its sample of the host's speed grows with the op it corrects.
    """
    seen = set()
    times, norm, failed = [], [], 0
    digest = hashlib.sha256()
    busy, i = 0.0, 0
    loop_start = perf_counter()
    kernel_before = kernel_seconds()
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif (busy >= seconds and i >= min_ops) or perf_counter() - loop_start > MAX_LOOP_S:
            break
        if tracer is not None:
            tracer.op = -1
        op = stream[i]
        keys = workload.keys(op)
        if not (seen.isdisjoint(keys) and warm_keys.isdisjoint(keys)):
            raise RuntimeError(f"perfbench: op {i} repeats an input already used")
        seen.update(keys)
        if tracer is not None:
            tracer.op = i
        out, bad, elapsed = run_one(workload, api, op)
        kernel_after = kernel_seconds(KERNEL_SHARE * elapsed)
        norm.append(rescale(elapsed, kernel_before, kernel_after))
        kernel_before = kernel_after
        times.append(elapsed)
        busy += elapsed
        failed += bad
        if isinstance(out, str):
            digest.update(out.encode())
        else:
            for value in out:
                digest.update(np.asarray(value).tobytes())
        i += 1
    if tracer is not None:
        tracer.op = -1
    return {"n": i, "times": times, "norm": norm, "busy_s": busy,
            "norm_s": sum(norm), "failed": failed, "digest": digest.hexdigest()}


def metadata(workload, seed, seconds, trace, n_ops):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                sha = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "ops": n_ops, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": sha}


def _self_command(*extra):
    return [sys.executable, str(Path(__file__).resolve()), *extra]


def setup_probe_seconds(workload_name, seed):
    """Launch-to-ready time of one fresh process doing the run's set-up.

    Rescaled like op times, by the kernel run for ``SETUP_KERNEL_S`` here
    just before the launch and in the probe just after it is ready.
    """
    cmd = _self_command("--workload", workload_name, "--seed", str(seed), "--setup-probe")
    kernel_before = kernel_seconds(SETUP_KERNEL_S)
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = perf_counter() - t0
        kernel_after = proc.stdout.readline()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or ready.strip() != "ready":
        raise RuntimeError(f"perfbench: set-up probe exited with status {code}")
    return rescale(elapsed, kernel_before, float(kernel_after))


def untraced_pass(workload_name, seed, n_ops):
    """The same ``n_ops`` ops untraced, in a fresh process (cold caches)."""
    cmd = _self_command("--workload", workload_name, "--seed", str(seed),
                        "--ops", str(n_ops))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def wide_probe(seed):
    """Spans of u_pm(+-1), w_pm(+-1) by contour at tol 1e-8 on wide (z, z0).

    Kept out of the op list: on |z| <= 12, |z0| <= 6 a fraction of a
    percent of these calls raise ToleranceNotMet, and each one that does
    counts in ``contours.failed``.
    """
    tracer = tracing.Tracer()
    z, z0 = wide_probe_points(seed, WIDE_PROBE_POINTS)
    with tracing.rebound(tracer):
        for zz, zz0 in zip(z.tolist(), z0.tolist()):
            for fn in (products.u_pm, products.w_pm):
                for sign in (+1, -1):
                    try:
                        fn(sign, zz, zz0, route=Route.CONTOUR, tol=1e-8)
                    except AiryprodError:
                        pass
    return tracer.spans


def _result(correct, attempted, failed, metrics, units):
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                        for name, unit in units}}


def untraced_result(workload, seed, seconds, min_ops=MIN_OPS):
    """(meta, result line) of an untraced run with its end-to-end metrics."""
    api = plain_api()
    stream, warm_keys = prepare(workload, seed, api)
    res = run_ops(workload, api, stream, warm_keys, seconds, min_ops=min_ops)
    ms = np.asarray(res["norm"]) * 1e3
    metrics = {
        "ops_per_s": res["n"] / res["norm_s"],
        "op_ms.p50": float(np.percentile(ms, 50)),
        "op_ms.p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(
            setup_probe_seconds(workload.name, seed) for _ in range(SETUP_PROBES)),
    }
    meta = metadata(workload.name, seed, seconds, 0, res["n"])
    meta.update(wall_ops_per_s=res["n"] / res["busy_s"],
                wall_op_ms_p50=float(np.percentile(res["times"], 50)) * 1e3)
    return meta, _result(res["failed"] == 0, res["n"], res["failed"], metrics, E2E_UNITS)


def traced_result(workload, seed, seconds, min_ops=MIN_OPS):
    """(meta, result line, tracer) of a traced run with its per-layer metrics."""
    tracer = tracing.Tracer()
    api = tracing.traced_api(tracer, plain_api())
    stream, warm_keys = prepare(workload, seed, api)
    with tracing.rebound(tracer):
        res = run_ops(workload, api, stream, warm_keys, seconds, tracer=tracer,
                      min_ops=min_ops)
    probe = wide_probe(seed) if isinstance(workload, ContourSweep) else []
    restored = tracing.all_restored()
    plain = untraced_pass(workload.name, seed, res["n"])
    identical = plain["digest"] == res["digest"]
    metrics = tracing.layer_metrics(tracer.spans, probe)
    metrics["fail_frac"] = res["failed"] / res["n"]
    metrics["trace.overhead_frac"] = res["norm_s"] / plain["norm_s"] - 1.0
    meta = metadata(workload.name, seed, seconds, 1, res["n"])
    meta.update(restored=restored, identical=identical, spans=len(tracer.spans))
    correct = res["failed"] == 0 and identical and restored
    result = _result(correct, res["n"], res["failed"], metrics, tracing.LAYER_METRICS)
    return meta, result, tracer


def run_all(seed, seconds, trace):
    """Every workload, each in a fresh process; their lines, then a combined one."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = _self_command("--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace))
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        prepare(workload, args.seed, plain_api())
        print("ready", flush=True)
        print(kernel_seconds(SETUP_KERNEL_S), flush=True)
        return
    if args.ops is not None:
        api = plain_api()
        stream, warm_keys = prepare(workload, args.seed, api)
        res = run_ops(workload, api, stream, warm_keys, n_ops=args.ops)
        print(json.dumps({"digest": res["digest"], "norm_s": res["norm_s"]}))
        return

    if args.trace:
        meta, result, tracer = traced_result(workload, args.seed, args.seconds)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl", meta)
        print(json.dumps({"meta": meta}))
        layer = {name: entry["value"] for name, entry in result["metrics"].items()}
        for row in tracing.baseline_rows(layer):
            print(row)
    else:
        meta, result = untraced_result(workload, args.seed, args.seconds)
        print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
