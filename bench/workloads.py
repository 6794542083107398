"""The benchmark's three workloads.

Each workload builds its inputs from a seed, runs one operation through the
library's public entry points and checks what that operation wrote. Calls go
through the module objects (``harness.run_experiment``, ``cli.main``) so the
trace wrappers in ``tracing.py`` see them.

Why each workload was chosen, and which layer metric each should move, is
recorded in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

from alloc_bandit import cli, harness

# Lower end of sup-regret / sqrt(nK) that any policy must reach on the
# hardest family.
MINIMAX_FLOOR = 1.0 / (16.0 * math.sqrt(2.0))


@dataclass(frozen=True)
class Outcome:
    """What one operation did: simulated steps, operations counted for the
    error rate (cells or CLI invocations), CSV data rows written, a digest of
    its output and a description of any failed check ("" when it passed)."""

    steps: int
    ops: int
    rows: int
    digest: str
    problem: str = ""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class SweepK2:
    """Horizon sweep on nus (0.4, 0.6) with weighted and unweighted
    self-initialising arms and a weighted known-bounds arm."""

    name = "sweep_k2"

    def __init__(self, seed: int):
        grid = (300, 1000, 3000, 10000)
        reps = 6
        self.config = harness.ExperimentConfig(
            experiment_id="bench_sweep_k2",
            nus=(0.4, 0.6),
            horizon=1,
            sweep="horizon",
            grid=grid,
            replications=reps,
            arms=(
                harness.ArmSpec(name="weighted"),
                harness.ArmSpec(name="unweighted", mode="unweighted"),
                harness.ArmSpec(name="known_bounds", lower_bounds=(0.2, 0.3)),
            ),
            base_seed=seed,
        )
        cells_per_point = len(self.config.arms) * reps
        self.steps = sum(grid) * cells_per_point
        self.ops = len(grid) * cells_per_point

    def run(self, workers: int, out_dir: str) -> Outcome:
        result = harness.run_experiment(self.config, workers=workers)
        path = os.path.join(out_dir, "sweep.csv")
        harness.emit_csv(result, path)
        with open(path, "rb") as handle:
            data = handle.read()
        rows = data.count(b"\n") - 1
        problem = ""
        expected_rows = len(self.config.grid) * len(self.config.arms)
        if rows != expected_rows:
            problem = f"aggregate CSV has {rows} rows, expected {expected_rows}"
        elif not all(math.isfinite(r.mean_regret) for r in result.rows):
            problem = "non-finite mean regret"
        return Outcome(self.steps, self.ops, rows, _sha256(data), problem)


class MinimaxK32:
    """Worst case over the K=32 hardest-instance family."""

    name = "minimax_k32"

    def __init__(self, seed: int):
        self.seed = seed
        self.n = 1000
        self.num_jobs = 32
        self.reps = 2
        self.steps = self.n * self.num_jobs * self.reps
        self.ops = self.num_jobs * self.reps

    def run(self, workers: int, out_dir: str) -> Outcome:
        result = harness.minimax_stress(
            self.n, self.num_jobs, self.reps, self.seed, workers=workers
        )
        digest = _sha256(repr(result.per_instance_mean).encode())
        problem = ""
        if not result.ratio >= MINIMAX_FLOOR:
            problem = f"sup-regret / sqrt(nK) = {result.ratio!r} < {MINIMAX_FLOOR!r}"
        return Outcome(self.steps, self.ops, 0, digest, problem)


class TraceExport:
    """``alloc-bandit run --snapshot-intervals`` for one self-initialising
    K=2 episode."""

    name = "trace_export"

    def __init__(self, seed: int):
        self.horizon = 100_000
        self.argv = [
            "run", "--nus", "0.4,0.6", "--horizon", str(self.horizon),
            "--seed", str(seed), "--snapshot-intervals",
        ]
        self.steps = self.horizon
        self.ops = 1

    def run(self, workers: int, out_dir: str) -> Outcome:
        # A single episode: there is no pool, so ``workers`` does not apply.
        path = os.path.join(out_dir, "trace.csv")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(self.argv + ["--out", path])
        if code != 0:
            return Outcome(self.steps, 1, 0, "", f"cli.main returned {code}")
        with open(path, "rb") as handle:
            data = handle.read()
        rows = data.count(b"\n") - 1
        problem = ""
        if rows != self.horizon:
            problem = f"trace CSV has {rows} rows, expected {self.horizon}"
        elif "final_regret=" not in printed.getvalue():
            problem = "cli.main printed no summary"
        return Outcome(self.steps, 1, rows, _sha256(data), problem)


WORKLOADS = {w.name: w for w in (SweepK2, MinimaxK32, TraceExport)}
