"""Monte-Carlo experiment harness: declarative sweeps, aggregation, CSV.

An experiment sweeps one parameter (a job difficulty, the horizon or the
hard job of the minimax family) over a grid, runs independent replications
per grid point and arm, and reports mean final cumulative pseudo-regret
with its standard error. Replication streams derive from (base seed,
point, arm, replication) through numpy SeedSequence spawn keys, so results
are identical regardless of worker count and grids can be extended without
perturbing existing points. ``minimax_stress`` runs the hard-job sweep and
keeps only its member means, their maximum over sqrt(nK) and health. A
sweep on more than one worker forks its workers directly (POSIX
``os.fork``): each runs every W-th cell and sends its results back over a
pipe, so nothing loads ``multiprocessing``.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import re
import signal
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .allocator import PolicyOptions, atomic_write_text, run_episode
from .initialization import run_modified
from .model import (
    ProblemInstance,
    _bounds,
    _count,
    _floats,
    _integer,
    _seed,
)

WORKERS_ENV = "ALLOC_BANDIT_THREADS"


@dataclass(frozen=True)
class ArmSpec:
    """One policy variant in an experiment. ``lower_bounds`` absent means
    the self-initializing runner; present means known-bound episodes."""

    name: str
    mode: str = "weighted"
    lower_bounds: Optional[tuple] = None
    delta_override: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"arm name must be a string, got {self.name!r}")
        try:
            # emit_csv writes the name as an unquoted CSV field.
            if any(c in self.name for c in ',"\r\n'):
                raise ValueError("name must not contain a comma, a double quote or a line break")
            if self.lower_bounds is not None:
                object.__setattr__(self, "lower_bounds", _bounds("lower_bounds", self.lower_bounds))
            PolicyOptions(mode=self.mode, delta_override=self.delta_override)
        except ValueError as exc:
            raise ValueError(f"arm {self.name!r}: {exc}") from None


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Declarative sweep description.

    ``sweep`` is ``"horizon"`` (grid entries are horizons; ``horizon`` is
    unused), ``"nu<j>"`` with a 1-based job index (grid entries replace that
    difficulty) or ``"hard_job"`` (grid entries are 1-based job indices whose
    difficulty is divided by 1 + sqrt(K/(8n)); needs 8n >= K >= 2). The
    last two require ``horizon``, which stays fixed.
    """

    experiment_id: str
    nus: tuple
    horizon: Optional[int] = None
    sweep: str
    grid: tuple
    replications: int = 300
    arms: tuple = (ArmSpec(name="weighted"),)
    base_seed: int = 0

    def __post_init__(self):
        # ProblemInstance owns the difficulty rules.
        object.__setattr__(self, "nus", ProblemInstance(self.nus, 1).nus)
        object.__setattr__(self, "grid", _floats("grid", self.grid))
        object.__setattr__(self, "arms", tuple(self.arms))
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        if not isinstance(self.experiment_id, str):
            raise ValueError(f"experiment_id must be a string, got {self.experiment_id!r}")
        object.__setattr__(self, "replications", _count("replications", self.replications))
        object.__setattr__(self, "base_seed", _seed("base_seed", self.base_seed))
        if not self.arms:
            raise ValueError("arms: need at least one arm")
        names = [arm.name for arm in self.arms]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"arms: duplicate arm name {name!r}")
        for arm in self.arms:
            if arm.lower_bounds is not None and len(arm.lower_bounds) != len(self.nus):
                raise ValueError(
                    f"arm {arm.name!r}: expected {len(self.nus)} lower bounds, "
                    f"got {len(arm.lower_bounds)}"
                )
        if self.sweep not in ("horizon", "hard_job"):
            idx = self._sweep_index()
            if not (1 <= idx <= len(self.nus)):
                raise ValueError(f"sweep index {idx} out of range for {len(self.nus)} jobs")
        # A difficulty or hard_job sweep needs the horizon; a horizon sweep ignores it.
        if self.horizon is not None or self.sweep != "horizon":
            object.__setattr__(self, "horizon", _count("horizon", self.horizon))
        if self.sweep == "hard_job":
            _hard_job_eps(self.horizon, len(self.nus))
        # ProblemInstance owns the instance rules; every grid point must pass them.
        for point, value in enumerate(self.grid):
            try:
                self.instance_at(point)
            except ValueError as exc:
                raise ValueError(f"grid[{point}] = {value!r}: {exc}") from None

    def _sweep_index(self) -> int:
        # int() alone would also take "nu+2", "nu 2" and non-ASCII digits.
        if not (isinstance(self.sweep, str) and re.fullmatch("nu[1-9][0-9]*", self.sweep)):
            raise ValueError(f"sweep must be 'horizon', 'hard_job' or 'nu<j>', got {self.sweep!r}")
        return int(self.sweep[2:])

    def instance_at(self, point: int) -> ProblemInstance:
        """Problem instance for one grid point (seed is shared; streams are
        split per replication at run time)."""
        value = self.grid[point]
        if self.sweep == "horizon":
            return ProblemInstance(self.nus, value, self.base_seed)
        nus = list(self.nus)
        if self.sweep != "hard_job":
            nus[self._sweep_index() - 1] = value
        elif not (value.is_integer() and 1 <= value <= len(nus)):
            raise ValueError(f"a hard_job grid entry must be a job index in 1..{len(nus)}")
        elif nus[int(value) - 1] is None:
            raise ValueError(f"job {int(value)} is unbounded (null), so it cannot be the hard job")
        else:
            nus[int(value) - 1] /= 1.0 + _hard_job_eps(self.horizon, len(nus))
        return ProblemInstance(tuple(nus), self.horizon, self.base_seed)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a JSON config; keys are the field names of this class and,
        per arm, of ArmSpec. Unknown, repeated and missing required keys are
        rejected."""
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        _check_fields(doc, cls, "config")
        if "arms" in doc:
            if not isinstance(doc["arms"], list):
                raise ValueError(f"arms must be a list of arm objects, got {doc['arms']!r}")
            for arm in doc["arms"]:
                _check_fields(arm, ArmSpec, "arm")
            doc["arms"] = [ArmSpec(**arm) for arm in doc["arms"]]
        return cls(**doc)


def _hard_job_eps(n: int, num_jobs: int) -> float:
    """eps = sqrt(K/(8n)) of the minimax family on K jobs over n steps."""
    if not (num_jobs >= 2 and 8 * n >= num_jobs):
        raise ValueError(f"need 8n >= K >= 2, got n={n}, K={num_jobs}")
    return math.sqrt(num_jobs / (8.0 * n))


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object's pairs as a
    dict, rejecting a key that appears twice (``json`` keeps the last)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate JSON key {key!r}")
        doc[key] = value
    return doc


def _check_fields(doc, cls, where: str) -> None:
    """Reject a JSON document that is not an object, has a key that is not
    a field name of the dataclass ``cls`` or lacks a field that has no
    default."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    names = [f.name for f in fields(cls)]
    for key in doc:
        if key not in names:
            raise ValueError(f"unknown {where} key {key!r}; expected one of {sorted(names)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in doc:
            raise ValueError(f"{where} is missing required key {f.name!r}")


@dataclass(frozen=True)
class PointStats:
    grid_value: float
    arm: str
    mean_regret: float
    stderr: float
    reps: int


@dataclass
class ExperimentResult:
    """Aggregated sweep output plus per-replication finals for resampling.

    ``health[(point, arm name)]`` is ``(coverage_failures, weight_capped,
    collapsed)`` summed over that pair's replications: the number of jobs
    whose final interval misses the job's true reciprocal difficulty, whose
    estimator hit the weight cap, and whose interval collapsed.
    """

    rows: list
    finals: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)


def _stream_seed(base_seed: int, point: int, arm: int, rep: int) -> int:
    """64-bit stream index for one replication cell."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(point, arm, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def _cell_record(trace, instance: ProblemInstance) -> tuple:
    """``(final_regret, coverage_failures, weight_capped, collapsed)`` of one
    cell; the counts are over the jobs that have an estimator. A coverage
    failure is a final interval that misses the job's true reciprocal
    difficulty (0 for an unbounded job)."""
    failures = capped = collapsed = 0
    for state, recip in zip(trace.estimators, instance.recips):
        if state is None:
            continue
        failures += state.lower_recip < recip or state.upper_recip > recip
        capped += state.weight_capped
        collapsed += state.collapsed
    return trace.final_regret, failures, capped, collapsed


def _run_cell(args) -> tuple:
    instance, arm, point, arm_index, rep = args
    options = PolicyOptions(
        mode=arm.mode,
        delta_override=arm.delta_override,
        record="final",
        seed=_stream_seed(instance.base_seed, point, arm_index, rep),
    )
    if arm.lower_bounds is None:
        trace = run_modified(instance, options)
    else:
        trace = run_episode(instance, arm.lower_bounds, options)
    return _cell_record(trace, instance)


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Worker count: explicit integer (``model._integer``), else
    ALLOC_BANDIT_THREADS in ASCII digits, else auto (0 = CPU count)."""
    if explicit is None:
        raw = os.environ.get(WORKERS_ENV, "0")
        if not re.fullmatch("[0-9]+", raw):
            raise ValueError(f"{WORKERS_ENV} must be a count in ASCII digits, got {raw!r}")
        explicit = int(raw)
    explicit = _integer("worker count", explicit)
    if explicit < 0:
        raise ValueError(f"worker count must be >= 0, got {explicit}")
    if explicit == 0:
        return os.cpu_count() or 1
    return explicit


def _map_cells(cell, tasks: list, workers: Optional[int]) -> list:
    """``[cell(task) for task in tasks]``, results in task order. With more
    than one worker (at most one per task) the tasks run in forked
    processes: worker i runs ``tasks[i::workers]``, inheriting the inputs
    through the fork, and sends its results back as one pickle over its own
    pipe. The parent reads the pipes in worker order. A cell's exception is
    re-raised with its type and message, or as a ``RuntimeError`` carrying
    the worker's traceback when it cannot be pickled; a worker that exits
    without sending its results raises a ``RuntimeError`` naming its exit
    status. On every path the parent kills any worker still running and
    reaps them all."""
    workers = min(resolve_workers(workers), len(tasks))
    if workers <= 1:
        return [cell(task) for task in tasks]
    results = [None] * len(tasks)
    running = []  # (pid, read end of its pipe) of each worker not yet read
    try:
        for i in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _work(cell, tasks[i::workers], write_end)
            os.close(write_end)
            running.append((pid, open(read_end, "rb")))
        for i in range(workers):
            pid, pipe = running[0]
            blob = pipe.read()
            del running[0]
            pipe.close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status or not blob:
                raise RuntimeError(
                    f"sweep worker {i} exited with status {status} before sending its results"
                )
            sent, payload, text = pickle.loads(blob)
            if not sent:
                if payload is None:
                    raise RuntimeError(f"a sweep cell raised an unpicklable exception:\n{text}")
                raise payload from RuntimeError(f"in sweep worker {i}:\n{text}")
            results[i::workers] = payload
        return results
    finally:
        for pid, pipe in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _work(cell, tasks: list, write_end: int) -> None:
    """Body of a forked worker: send ``(True, results, None)``, or ``(False,
    exception, traceback text)`` with the exception None when it does not
    survive pickling, as one pickle to ``write_end``. It leaves through
    ``os._exit``, so it never returns into the parent's code or flushes the
    parent's stdio buffers."""
    status = 1
    try:
        try:
            blob = pickle.dumps((True, [cell(task) for task in tasks], None))
        except Exception as exc:
            import traceback  # only a failing worker needs it

            text = traceback.format_exc()
            try:
                blob = pickle.dumps((False, exc, text))
                pickle.loads(blob)
            except Exception:
                blob = pickle.dumps((False, None, text))
        with open(write_end, "wb") as pipe:
            pipe.write(blob)
        status = 0
    finally:
        os._exit(status)


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> ExperimentResult:
    """Run the full sweep, one instance per grid point, and aggregate
    (deterministic given base seed, independent of worker count)."""
    reps = config.replications
    tasks = [
        (instance, arm, point, arm_index, rep)
        for point, instance in enumerate(map(config.instance_at, range(len(config.grid))))
        for arm_index, arm in enumerate(config.arms)
        for rep in range(reps)
    ]
    outcomes = _map_cells(_run_cell, tasks, workers)
    result = ExperimentResult(rows=[])
    for start in range(0, len(tasks), reps):
        _, arm, point, _, _ = tasks[start]
        regrets, *counts = zip(*outcomes[start : start + reps])
        finals = np.asarray(regrets)
        mean = float(np.mean(finals))
        stderr = float(np.std(finals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        result.rows.append(PointStats(config.grid[point], arm.name, mean, stderr, reps))
        result.finals[(point, arm.name)] = finals
        result.health[(point, arm.name)] = tuple(map(sum, counts))
    return result


def emit_csv(result: ExperimentResult, path: str) -> None:
    """Aggregate CSV: grid_value, arm, mean_regret, stderr, reps. LF line
    endings, '.' decimal separator, shortest round-trip floats; identical
    results re-emit byte-identically."""
    lines = ["grid_value,arm,mean_regret,stderr,reps"]
    for row in result.rows:
        lines.append(
            f"{row.grid_value!r},{row.arm},{row.mean_regret!r},{row.stderr!r},{row.reps}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class MinimaxStressResult:
    per_instance_mean: tuple
    ratio: float
    health: tuple

    @property
    def sup_regret(self) -> float:
        return max(self.per_instance_mean)


def minimax_stress(
    n: int,
    num_jobs: int,
    reps: int,
    base_seed: int = 0,
    workers: Optional[int] = None,
) -> MinimaxStressResult:
    """Empirical worst case over the minimax family, run as a ``"hard_job"``
    sweep over K jobs at difficulty 2: each member's mean regret, their
    maximum over sqrt(nK) as ``ratio`` (floor 1/(16 sqrt 2)) and ``health``,
    the ``ExperimentResult`` counts summed over members and replications."""
    reps = _count("reps", reps)
    n, num_jobs = _integer("n", n), _integer("num_jobs", num_jobs)
    _hard_job_eps(n, num_jobs)  # first: the config reports K < 1 as empty nus, a bad seed before it
    config = ExperimentConfig(
        experiment_id="minimax", nus=(2.0,) * num_jobs, horizon=n, sweep="hard_job",
        grid=range(1, num_jobs + 1), replications=reps, base_seed=base_seed,
    )
    result = run_experiment(config, workers)
    means = tuple(row.mean_regret for row in result.rows)
    health = tuple(map(sum, zip(*result.health.values())))
    return MinimaxStressResult(means, max(means) / math.sqrt(n * num_jobs), health)


# Not called here; kept so that bench/tracing.py can wrap this binding by name.
_minimax_cell = _run_cell
