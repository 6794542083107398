"""Monte-Carlo experiment harness: declarative sweeps, aggregation, CSV.

An experiment sweeps one parameter (a job difficulty or the horizon) over
a grid, runs a number of independent replications per grid point for each
configured arm, and reports mean final cumulative pseudo-regret with its
standard error. Replication streams derive from (base seed, point, arm,
replication) through numpy SeedSequence spawn keys, so results are
identical regardless of worker count and grids can be extended without
perturbing existing points.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .allocator import PolicyOptions, atomic_write_text, run_episode
from .initialization import run_modified
from .model import ProblemInstance

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
        if self.lower_bounds is not None:
            object.__setattr__(self, "lower_bounds", tuple(float(v) for v in self.lower_bounds))
        try:
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
        object.__setattr__(self, "nus", tuple(self.nus))
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "arms", tuple(self.arms))
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        if not self.nus:
            raise ValueError("nus must hold at least one difficulty")
        for i, nu in enumerate(self.nus):
            if nu is not None and not (nu > 0 and math.isfinite(nu)):
                raise ValueError(f"nus[{i}] must be positive and finite (or null), got {nu!r}")
        for name in ("replications", "horizon", "base_seed"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _integer(name, value))
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
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
        if self.sweep == "horizon":
            for value in self.grid:
                if not (value.is_integer() and value >= 1):
                    raise ValueError(
                        f"horizon grid entries must be integers >= 1, got {value!r}"
                    )
        else:
            idx = self._sweep_index()
            if not (1 <= idx <= len(self.nus)):
                raise ValueError(f"sweep index {idx} out of range for {len(self.nus)} jobs")
            for value in self.grid:
                if not (value > 0 and math.isfinite(value)):
                    raise ValueError(
                        f"difficulty grid entries must be positive and finite, got {value!r}"
                    )
            if self.horizon is None or self.horizon < 1:
                raise ValueError(f"horizon must be >= 1 for a difficulty sweep, got {self.horizon}")

    def _sweep_index(self) -> int:
        if not self.sweep.startswith("nu"):
            raise ValueError(f"sweep must be 'horizon' or 'nu<j>', got {self.sweep!r}")
        try:
            return int(self.sweep[2:])
        except ValueError as exc:
            raise ValueError(f"sweep must be 'horizon' or 'nu<j>', got {self.sweep!r}") from exc

    def instance_at(self, point: int) -> ProblemInstance:
        """Problem instance for one grid point (seed is shared; streams are
        split per replication at run time)."""
        value = self.grid[point]
        if self.sweep == "horizon":
            return ProblemInstance(self.nus, int(value), self.base_seed)
        nus = list(self.nus)
        nus[self._sweep_index() - 1] = value
        return ProblemInstance(tuple(nus), self.horizon, self.base_seed)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a JSON config; keys are the field names of this class and,
        per arm, of ArmSpec. Unknown and missing required keys are rejected."""
        doc = json.loads(text)
        _check_keys(doc, cls, "config")
        if "arms" in doc:
            if not isinstance(doc["arms"], list):
                raise ValueError(f"arms must be a list of arm objects, got {doc['arms']!r}")
            for arm in doc["arms"]:
                _check_keys(arm, ArmSpec, "arm")
            doc["arms"] = [ArmSpec(**arm) for arm in doc["arms"]]
        return cls(**doc)


def _check_keys(doc, cls, where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    known = [f.name for f in fields(cls)]
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {where} key {key!r}; expected one of {sorted(known)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in doc:
            raise ValueError(f"{where} is missing required key {f.name!r}")


def _integer(name: str, value) -> int:
    """``value`` as an int: whole floats (2.0) convert, 2.5 and non-numbers
    (bools and strings included) are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PointStats:
    grid_value: float
    arm: str
    mean_regret: float
    stderr: float
    reps: int


@dataclass
class ExperimentResult:
    """Aggregated sweep output plus per-replication finals for resampling."""

    config: ExperimentConfig
    rows: list
    finals: dict = field(default_factory=dict)

    def finals_for(self, point: int, arm: str) -> np.ndarray:
        return self.finals[(point, arm)]


def _stream_seed(base_seed: int, point: int, arm: int, rep: int) -> int:
    """64-bit stream index for one replication cell."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(point, arm, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_cell(args) -> float:
    config, point, arm_index, rep = args
    arm = config.arms[arm_index]
    instance = config.instance_at(point)
    options = PolicyOptions(
        mode=arm.mode,
        delta_override=arm.delta_override,
        seed=_stream_seed(config.base_seed, point, arm_index, rep),
    )
    if arm.lower_bounds is None:
        trace = run_modified(instance, options)
    else:
        trace = run_episode(instance, arm.lower_bounds, options)
    return trace.final_regret


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ALLOC_BANDIT_THREADS, else
    auto (0 also means auto = CPU count)."""
    if explicit is None:
        raw = os.environ.get(WORKERS_ENV, "0")
        try:
            explicit = int(raw)
        except ValueError as exc:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if explicit < 0:
        raise ValueError(f"worker count must be >= 0, got {explicit}")
    if explicit == 0:
        return os.cpu_count() or 1
    return explicit


def _map_cells(cell, tasks: list, workers: Optional[int]) -> list:
    """``[cell(task) for task in tasks]``, in a process pool when there is
    more than one worker and more than one task; results keep task order."""
    workers = resolve_workers(workers)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(cell, tasks, chunksize=1))
    return [cell(task) for task in tasks]


def run_experiment(config: ExperimentConfig, workers: Optional[int] = None) -> ExperimentResult:
    """Run the full sweep and aggregate (deterministic given base seed,
    independent of worker count and completion order)."""
    tasks = [
        (config, point, arm_index, rep)
        for point in range(len(config.grid))
        for arm_index in range(len(config.arms))
        for rep in range(config.replications)
    ]
    outcomes = _map_cells(_run_cell, tasks, workers)

    result = ExperimentResult(config=config, rows=[])
    cursor = 0
    reps = config.replications
    for point in range(len(config.grid)):
        for arm_index, arm in enumerate(config.arms):
            finals = np.asarray(outcomes[cursor : cursor + reps])
            cursor += reps
            mean = float(np.mean(finals))
            stderr = float(np.std(finals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
            result.rows.append(
                PointStats(
                    grid_value=config.grid[point],
                    arm=arm.name,
                    mean_regret=mean,
                    stderr=stderr,
                    reps=reps,
                )
            )
            result.finals[(point, arm.name)] = finals
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
    sup_regret: float
    ratio: float
    per_instance_mean: tuple
    n: int
    num_jobs: int
    reps: int

    @property
    def sqrt_nk(self) -> float:
        return math.sqrt(self.n * self.num_jobs)


def minimax_stress(
    n: int,
    num_jobs: int,
    reps: int,
    base_seed: int = 0,
    workers: Optional[int] = None,
) -> MinimaxStressResult:
    """Empirical worst case over the minimax family: the self-initializing
    policy's mean regret, maximized over family members, and its ratio to
    sqrt(nK)."""
    family = minimax_family(n, num_jobs, base_seed)
    tasks = [
        (family[idx], idx, rep, base_seed)
        for idx in range(len(family))
        for rep in range(reps)
    ]
    outcomes = _map_cells(_minimax_cell, tasks, workers)
    means = []
    cursor = 0
    for _ in family:
        finals = outcomes[cursor : cursor + reps]
        cursor += reps
        means.append(float(np.mean(finals)))
    sup = max(means)
    return MinimaxStressResult(
        sup_regret=sup,
        ratio=sup / math.sqrt(n * num_jobs),
        per_instance_mean=tuple(means),
        n=n,
        num_jobs=num_jobs,
        reps=reps,
    )


def _minimax_cell(args) -> float:
    instance, idx, rep, base_seed = args
    options = PolicyOptions(seed=_stream_seed(base_seed, idx, 0, rep))
    return run_modified(instance, options).final_regret


def bootstrap_ci(
    values: Sequence[float],
    n_boot: int = 10_000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple:
    """Percentile bootstrap interval for the mean."""
    arr = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(arr), size=(n_boot, len(arr)))
    means = arr[idx].mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)
