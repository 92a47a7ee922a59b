"""Benchmark the fleet: day time, durable ticks and served-query latency.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fleet_day --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``fleet_day``, ``durable_day`` and
``serve_miss``.  The run measures for ``--seconds``, checks the
program's outputs, and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing
off: ``p90_ms``, the 90th-percentile time of one operation (a fleet
day or one request), and ``setup_s``, the median set-up time over the
run's episodes.  The median operation time is not reported: on a
two-vCPU cloud VM shared with other tenants it moved with how much of
a run the neighbours kept the host busy, by up to 40% between runs,
while the 90th percentile sits in the busy phases every run has and
moved about 10%.

``--trace 1`` binds the program's tracer and reports the per-layer
metrics instead: self time per layer in ms per operation, plus the
layers' own counters.  A metric that does not apply to a workload
(checkpoint save time on a plain fleet day) reads 0.

The program is imported from ``src/`` beside this directory; without
it the run fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Spill chunks and checkpoint chains live here, inside the checkout.
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {"p90_ms": "ms", "setup_s": "s"}

#: Per-layer self-time metrics, in ms per operation.
DAY_LAYERS = (
    "generate_ms",
    "ingest_ms",
    "spill_ms",
    "analyze_ms",
    "steering_ms",
    "cloudviews_ms",
    "seagull_ms",
    "other_services_ms",
    "fabric_ms",
    "checkpoint_save_ms",
    "unattributed_ms",
)
PER_LAYER_UNITS = {
    **{name: "ms" for name in DAY_LAYERS},
    "checkpoint_load_ms": "ms",
    "checkpoint_kib_per_day": "KiB",
    "spills": "count",
    "chunk_loads": "count",
    "model_ms": "ms",
    "plane_ms": "ms",
    "batch_size": "count",
}


def _percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (statistics' default exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(run) -> dict[str, float]:
    return {
        "p90_ms": _percentile(run.op_seconds, 90) * 1e3,
        "setup_s": statistics.median(run.setup_seconds),
    }


def per_layer(run) -> dict[str, float]:
    n = len(run.op_seconds)
    seconds = run.trace.seconds
    counts = run.counts
    metrics = {name: seconds[name] / n * 1e3 for name in DAY_LAYERS}
    metrics["checkpoint_load_ms"] = (
        statistics.median(run.restore_seconds) * 1e3
        if run.restore_seconds
        else 0.0
    )
    metrics["checkpoint_kib_per_day"] = counts["checkpoint_bytes"] / 1024 / n
    for name in ("spills", "chunk_loads"):
        metrics[name] = counts[name]
    metrics["model_ms"] = seconds["model_ms"] / n * 1e3
    metrics["plane_ms"] = (
        (run.serve_seconds - seconds["model_ms"]) / n * 1e3
        if counts["requests"]
        else 0.0
    )
    metrics["batch_size"] = (
        counts["requests"] / counts["batches"] if counts["batches"] else 0.0
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repro.obs import ObservabilityRuntime
    from repro.parallel import shutdown_pool

    from layers import LayerTrace
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}"
            f" (choose from {', '.join(WORKLOADS)})"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = Path.cwd() / WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    trace = LayerTrace(ObservabilityRuntime()) if args.trace else None
    run = Run(seed=args.seed, workdir=workdir, trace=trace)
    run.deadline = time.perf_counter() + args.seconds
    try:
        WORKLOADS[args.workload](run)
    finally:
        if trace is not None:
            trace.close()
        shutdown_pool()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if not run.op_seconds:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    values = per_layer(run) if trace is not None else end_to_end(run)
    units = PER_LAYER_UNITS if trace is not None else END_TO_END_UNITS
    for problem in run.problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed={args.seed}:"
        f" {len(run.op_seconds)} ops, {len(run.setup_seconds)} set-ups,"
        f" {run.failed} failed",
        file=sys.stderr,
    )
    result = {
        "correct": not run.problems,
        "attempted": len(run.op_seconds),
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
