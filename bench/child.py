"""One measured process of the benchmark.

``run.py`` starts a fresh interpreter for every sample so that set-up time,
``getrusage`` CPU time and peak RSS belong to that sample alone. This script
imports the library, builds the workload's inputs (that is the set-up), runs
the operations it is asked for and prints one JSON line with what it saw.

    python3 bench/child.py --workload sweep_k2 --seed 0 --t0 <monotonic> \
        --workers 2 --out-dir .bench_out --ops 2
    python3 bench/child.py ... --trace

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (a system-wide clock on Linux), so set-up includes interpreter start.
A calibration loop is timed right after set-up and around every operation;
``run.py`` uses it to scale times to a reference machine speed.
With ``--trace`` the process runs the operation untraced at ``--workers``,
untraced at one worker, then traced at one worker, and reports per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time
import traceback

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS


CALIBRATION_ITERATIONS = 50_000


def calibration_s() -> float:
    """Time of a fixed pure-Python loop (float math, small reductions and
    float formatting, like the simulator and its CSV writer). It never calls
    the library, so it measures only how fast the machine runs at the moment,
    and it keeps nothing alive, so it does not raise peak RSS."""
    started = time.perf_counter()
    acc = 0.0
    chars = 0
    for i in range(CALIBRATION_ITERATIONS):
        x = math.sqrt(i + 1.0) + math.log(i + 2.0)
        acc += min((x * k) % 7.0 for k in range(1, 5))
        chars += len(repr(x))
    return time.perf_counter() - started


def _cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def timed_op(workload, workers: int, out_dir: str) -> dict:
    """Run one operation; a raised exception counts as a failed check.
    Worker processes are joined inside the operation, so their CPU time is
    in RUSAGE_CHILDREN by the time it returns."""
    calibration_before = calibration_s()
    cpu_self = _cpu_seconds(resource.RUSAGE_SELF)
    cpu_children = _cpu_seconds(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    try:
        outcome = workload.run(workers, out_dir)
        record = {"steps": outcome.steps, "ops": outcome.ops, "rows": outcome.rows,
                  "digest": outcome.digest, "problem": outcome.problem}
    except Exception as exc:  # the benchmark reports the failure and goes on
        traceback.print_exc()
        record = {"steps": workload.steps, "ops": workload.ops, "rows": 0,
                  "digest": "", "problem": f"raised {exc!r}"}
    record["wall"] = time.perf_counter() - started
    record["worker_cpu"] = _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
    record["cpu"] = _cpu_seconds(resource.RUSAGE_SELF) - cpu_self + record["worker_cpu"]
    record["calibration"] = (calibration_before + calibration_s()) / 2.0
    return record


def traced_run(workload, workers: int, out_dir: str, spans_path: str) -> dict:
    wide = timed_op(workload, workers, out_dir)
    narrow = timed_op(workload, 1, out_dir)
    tracer = Tracer()
    with tracer.installed():
        traced = timed_op(workload, 1, out_dir)
    layers = layer_metrics(tracer, traced["wall"])
    tracer.save(spans_path)

    layers["rows_written"] = (traced["rows"], "count")
    layers["harness.scaling_eff"] = (
        narrow["wall"] / (workers * wide["wall"]), "frac")
    layers["harness.dispatch_overhead_frac"] = (
        1.0 - wide["worker_cpu"] / (workers * wide["wall"]), "frac")
    layers["trace_overhead_frac"] = (traced["wall"] / narrow["wall"] - 1.0, "frac")
    return {"ops": [wide, narrow, traced], "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s, "calibration": calibration_s(), "numpy": np.__version__}
    with tempfile.TemporaryDirectory(dir=args.out_dir) as scratch:
        if args.trace:
            spans = os.path.join(args.out_dir, f"spans-{args.workload}.npz")
            report.update(traced_run(workload, args.workers, scratch, spans))
        else:
            report["ops"] = [timed_op(workload, args.workers, scratch) for _ in range(args.ops)]
    # ru_maxrss of RUSAGE_CHILDREN is the peak of the largest worker, not a
    # sum, so the tree's peak is bounded by the parent's peak plus one
    # largest-worker peak per pool worker. A single episode starts no workers.
    worker_peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + args.workers * worker_peak_kb
    report["peak_rss_mb"] = peak_kb / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
