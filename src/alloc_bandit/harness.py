"""Monte-Carlo experiment harness: declarative sweeps, aggregation, CSV.

An experiment sweeps one parameter (a job difficulty or the horizon) over
a grid, runs a number of independent replications per grid point for each
configured arm, and reports mean final cumulative pseudo-regret with its
standard error. Replication streams derive from (base seed, point, arm,
replication) through numpy SeedSequence spawn keys, so results are
identical regardless of worker count and grids can be extended without
perturbing existing points. The process pool is imported when a sweep
first starts one, so importing this module does not load
``multiprocessing``.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .allocator import PolicyOptions, atomic_write_text, run_episode
from .initialization import run_modified
from .model import (
    ProblemInstance,
    _bounds,
    _check_keys,
    _count,
    _floats,
    _integer,
    _seed,
    _unique_keys,
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

    ``sweep`` is either ``"horizon"`` (grid entries are horizons; ``horizon``
    is unused) or ``"nu<j>"`` with a 1-based job index (grid entries replace
    that difficulty; ``horizon`` is required and stays fixed).
    """

    experiment_id: str
    nus: tuple
    horizon: Optional[int] = None
    sweep: str
    grid: tuple
    replications: int = 300
    arms: tuple = (ArmSpec(name="weighted"),)
    base_seed: int = 0
    output_path: Optional[str] = None

    def __post_init__(self):
        # ProblemInstance owns the difficulty rules.
        object.__setattr__(self, "nus", ProblemInstance(self.nus, 1).nus)
        object.__setattr__(self, "grid", _floats("grid", self.grid))
        object.__setattr__(self, "arms", tuple(self.arms))
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        if not isinstance(self.experiment_id, str):
            raise ValueError(f"experiment_id must be a string, got {self.experiment_id!r}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValueError(f"output_path must be a string, got {self.output_path!r}")
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
        if self.sweep != "horizon":
            idx = self._sweep_index()
            if not (1 <= idx <= len(self.nus)):
                raise ValueError(f"sweep index {idx} out of range for {len(self.nus)} jobs")
        # A difficulty sweep needs the horizon; a horizon sweep ignores it.
        if self.horizon is not None or self.sweep != "horizon":
            object.__setattr__(self, "horizon", _count("horizon", self.horizon))
        # ProblemInstance owns the instance rules; every grid point must pass them.
        for point, value in enumerate(self.grid):
            try:
                self.instance_at(point)
            except ValueError as exc:
                raise ValueError(f"grid[{point}] = {value!r}: {exc}") from None

    def _sweep_index(self) -> int:
        # int() alone would also take "nu+2", "nu 2" and non-ASCII digits.
        if not (isinstance(self.sweep, str) and re.fullmatch("nu[1-9][0-9]*", self.sweep)):
            raise ValueError(f"sweep must be 'horizon' or 'nu<j>', got {self.sweep!r}")
        return int(self.sweep[2:])

    def instance_at(self, point: int) -> ProblemInstance:
        """Problem instance for one grid point (seed is shared; streams are
        split per replication at run time)."""
        value = self.grid[point]
        if self.sweep == "horizon":
            return ProblemInstance(self.nus, value, self.base_seed)
        nus = list(self.nus)
        nus[self._sweep_index() - 1] = value
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


def _check_fields(doc, cls, where: str) -> None:
    """``_check_keys`` for a dataclass: keys are its field names, and a
    field without a default is required."""
    names = [f.name for f in fields(cls)]
    required = [f.name for f in fields(cls) if f.default is MISSING]
    _check_keys(doc, where, names, required)


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
    config, point, arm_index, rep = args
    arm = config.arms[arm_index]
    instance = config.instance_at(point)
    options = PolicyOptions(
        mode=arm.mode,
        delta_override=arm.delta_override,
        record="final",
        seed=_stream_seed(config.base_seed, point, arm_index, rep),
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
    """``[cell(task) for task in tasks]``, in a process pool when there is
    more than one worker and more than one task; results keep task order.
    The pool has at most one worker per task, since it may start all of
    them at the first submit. The pool machinery (``multiprocessing``) is
    imported here, when a pool is first started, so a single episode or a
    one-worker sweep never loads it."""
    workers = min(resolve_workers(workers), len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(cell, tasks, chunksize=1))
    return [cell(task) for task in tasks]


def _replicate(cell, groups: list, reps: int, workers: Optional[int]) -> list:
    """Run ``cell((*group, rep))`` for every group and replication through
    ``_map_cells``. Per group, in order, returns ``(finals, health)``: the
    final regrets as an array and the health counts summed."""
    tasks = [(*group, rep) for group in groups for rep in range(reps)]
    outcomes = _map_cells(cell, tasks, workers)
    out = []
    for start in range(0, len(outcomes), reps):
        regrets, *counts = zip(*outcomes[start : start + reps])
        out.append((np.asarray(regrets), tuple(map(sum, counts))))
    return out


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> ExperimentResult:
    """Run the full sweep and aggregate (deterministic given base seed,
    independent of worker count and completion order)."""
    groups = [
        (config, point, arm_index)
        for point in range(len(config.grid))
        for arm_index in range(len(config.arms))
    ]
    reps = config.replications
    result = ExperimentResult(rows=[])
    aggregated = _replicate(_run_cell, groups, reps, workers)
    for (_, point, arm_index), (finals, health) in zip(groups, aggregated):
        arm = config.arms[arm_index]
        mean = float(np.mean(finals))
        stderr = float(np.std(finals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        result.rows.append(PointStats(config.grid[point], arm.name, mean, stderr, reps))
        result.finals[(point, arm.name)] = finals
        result.health[(point, arm.name)] = health
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


def minimax_family(n: int, num_jobs: int, base_seed: int = 0) -> list:
    """Hardest-to-distinguish instance family: in member k every job has
    difficulty 2 except job k at 2/(1+eps), eps = sqrt(K/(8n))."""
    n = _integer("n", n)
    num_jobs = _integer("num_jobs", num_jobs)
    if not (num_jobs >= 2 and 8 * n >= num_jobs):
        raise ValueError(f"need 8n >= K >= 2, got n={n}, K={num_jobs}")
    eps = math.sqrt(num_jobs / (8.0 * n))
    family = []
    for k in range(num_jobs):
        nus = [2.0] * num_jobs
        nus[k] = 2.0 / (1.0 + eps)
        family.append(ProblemInstance(tuple(nus), n, base_seed))
    return family


@dataclass(frozen=True)
class MinimaxStressResult:
    per_instance_mean: tuple
    n: int
    num_jobs: int
    reps: int
    health: tuple

    @property
    def sup_regret(self) -> float:
        return max(self.per_instance_mean)

    @property
    def sqrt_nk(self) -> float:
        return math.sqrt(self.n * self.num_jobs)

    @property
    def ratio(self) -> float:
        return self.sup_regret / self.sqrt_nk


def minimax_stress(
    n: int,
    num_jobs: int,
    reps: int,
    base_seed: int = 0,
    workers: Optional[int] = None,
) -> MinimaxStressResult:
    """Empirical worst case over the minimax family: the self-initializing
    policy's mean regret, maximized over family members, and its ratio to
    sqrt(nK). ``health`` is ``(coverage_failures, weight_capped, collapsed)``
    summed over all members and replications, as in ``ExperimentResult``."""
    reps = _count("reps", reps)
    family = minimax_family(n, num_jobs, base_seed)
    groups = [(instance, idx, base_seed) for idx, instance in enumerate(family)]
    outcomes = _replicate(_minimax_cell, groups, reps, workers)
    means = tuple(float(np.mean(finals)) for finals, _ in outcomes)
    health = tuple(map(sum, zip(*(counts for _, counts in outcomes))))
    return MinimaxStressResult(means, family[0].horizon, len(family), reps, health)


def _minimax_cell(args) -> tuple:
    instance, idx, base_seed, rep = args
    options = PolicyOptions(record="final", seed=_stream_seed(base_seed, idx, 0, rep))
    return _cell_record(run_modified(instance, options), instance)
