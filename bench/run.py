"""Benchmark of the alloc-bandit simulator: one workload per call.

    python3 bench/run.py --workload sweep_k2 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

The load is a closed loop with one client: the harness is a batch
simulator, so each operation starts when the previous one has finished.
Every sample runs in a fresh interpreter (``child.py``) so that set-up time,
CPU time and peak RSS belong to it alone. Worker pools get ``nproc`` workers,
passed explicitly, so ``ALLOC_BANDIT_THREADS`` cannot change the load.

With ``--trace 0`` processes are started until ``--seconds`` have passed and
the end-to-end metrics are medians over their operations. On a shared host
CPU speed can drift by tens of percent over minutes; a fixed calibration
loop timed around every operation (``child.calibration_s``) tracks that
drift, so times are scaled to a reference calibration time and the unscaled
medians are printed among the facts. With ``--trace 1`` one process runs
the operation untraced and traced and reports per-layer metrics (see
``tracing.py``). Every operation's output is checked: its
digest must equal the one recorded in ``reference.json`` for that seed, or,
for an unrecorded seed, the digest of the run's first operation.

Prints machine facts, one line per metric with its unit (error_rate
included), and as its last line one JSON object with the keys correct,
attempted, failed and metrics; ``--workload all`` prints one such block per
workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("sweep_k2", "minimax_k32", "trace_export")
# Operations per process, so that one process takes 2-3 s.
OPS_PER_PROCESS = {"sweep_k2": 2, "minimax_k32": 2, "trace_export": 1}
MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; it prints no result."""


def _run_process(workload: str, seed: int, workers: int, extra: list) -> dict:
    env = dict(os.environ)
    env.pop("ALLOC_BANDIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), "--out-dir", OUT_DIR, *extra,
           "--t0", repr(time.monotonic())]
    # A session of its own, so that a process that hangs is killed together
    # with its pool workers.
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload} process took over {PROCESS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with code {proc.returncode}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload} process printed no report") from exc


def _commit():
    """The checked-out commit when the tree is a git work tree, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def _source_digest() -> str:
    """sha256 over the library sources, which identifies the code measured
    when there is no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def _count_failures(workload: str, seed: int, ops: list) -> tuple:
    """(attempted, failed, reference digest): an operation fails when it
    raised, failed its own check or wrote other bytes than the reference.
    Marks each operation with ``failed``."""
    reference = _reference()["digests"].get(workload, {}).get(str(seed))
    if reference is None:
        reference = next((op["digest"] for op in ops if not op["problem"]), None)
    attempted = failed = 0
    for op in ops:
        attempted += op["ops"]
        problem = op["problem"] or (op["digest"] != reference and
                                    f"digest {op['digest']} differs from {reference}")
        op["failed"] = bool(problem)
        if problem:
            failed += op["ops"]
            print(f"{workload}: output check failed: {problem}", file=sys.stderr)
    return attempted, failed, reference


def _end_to_end(ops: list, reports: list) -> tuple:
    """End-to-end medians, times scaled to the reference machine speed, and
    the same medians unscaled. An operation's times are multiplied by the
    reference calibration time over the calibration time measured around
    it; set-up time by the calibration measured right after set-up.
    Operations that failed are left out: one that raised early would read
    fast."""
    ops = [op for op in ops if not op["failed"]]
    if not ops:
        raise BenchError("every operation failed its output check")
    median = statistics.median
    ref = _reference()["calibration_s"]
    metrics = {
        "steps_per_s": (median(
            op["steps"] / op["wall"] * op["calibration"] / ref for op in ops), "1/s"),
        "cpu_us_per_step": (median(
            op["cpu"] / op["steps"] * 1e6 * ref / op["calibration"] for op in ops), "us"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in reports), "MB"),
        "setup_s": (median(r["setup_s"] * ref / r["calibration"] for r in reports), "s"),
    }
    raw = {
        "steps_per_s": median(op["steps"] / op["wall"] for op in ops),
        "cpu_us_per_step": median(op["cpu"] / op["steps"] * 1e6 for op in ops),
        "setup_s": median(r["setup_s"] for r in reports),
        "machine_speed": median(ref / op["calibration"] for op in ops),
    }
    return metrics, raw


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workers = len(os.sched_getaffinity(0))
    facts = {"workload": workload, "seed": seed, "nproc": workers,
             "python": sys.version.split()[0], "loadavg_1m": os.getloadavg()[0],
             "commit": _commit(), "src_sha256": _source_digest()}
    # Warm-up process: fills the bytecode and page caches, not measured.
    _run_process(workload, seed, workers, ["--ops", "0"])
    if trace:
        reports = [_run_process(workload, seed, workers, ["--trace"])]
    else:
        reports = []
        deadline = time.monotonic() + seconds
        while len(reports) < MIN_PROCESSES or time.monotonic() < deadline:
            reports.append(_run_process(
                workload, seed, workers, ["--ops", str(OPS_PER_PROCESS[workload])]))
    ops = [op for report in reports for op in report["ops"]]
    attempted, failed, digest = _count_failures(workload, seed, ops)
    facts.update(numpy=reports[0]["numpy"], processes=len(reports), samples=len(ops),
                 digest=digest)
    print(f"{workload} error_rate {failed / attempted:.6g} frac ({failed} of {attempted} failed)")

    if trace:
        metrics = reports[0]["layers"]
    else:
        metrics, raw = _end_to_end(ops, reports)
        facts["raw"] = raw
    print("facts " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "alloc_bandit")):
        print(f"error: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
