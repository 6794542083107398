"""Halving initialisation and the self-initializing combined runner.

A halving probe needs no prior knowledge: at its local step t it allocates
2^-t and stops at the first failure, returning nu_lower0 = 2^-t, which is
a valid lower bound because failures are only possible below the cut-off.
The looseness eta = min(1, nu) / nu_lower0 has expectation at most 4.

Run in parallel with offsets (job k's probe starts at global step k), the
probes' combined consumption at global step t is
sum_k 1{t >= k} 2^(k-t-1) <= min(1, 2^(K-t)), so the main policy always
keeps a positive share of the budget and regains all of it exponentially
fast. The combined runner gives the main policy whatever the probes do not
actually consume and lets it allocate only to jobs whose probe finished;
estimator updates use only main-policy allocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .allocator import MAX_HALVING_STEPS, PolicyOptions, RunTrace, _simulate
# Not called here; kept so that bench/tracing.py can wrap this binding by name.
from .allocator import _allocate_raw  # noqa: F401
from .model import ProblemInstance, optimal_profile, split_rng


@dataclass(frozen=True)
class InitRecord:
    """Outcome of one halving probe: the job it served, how many steps it
    ran, the lower bound it produced (2^-steps_used) and what it consumed
    at each of its local steps. ``capped`` marks a probe stopped by the
    64-iteration guard instead of an observed failure."""

    job: int
    steps_used: int
    nu_lower0: float
    consumption: tuple
    capped: bool = False

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "steps_used": self.steps_used,
            "nu_lower0": self.nu_lower0,
            "consumption": list(self.consumption),
            "capped": self.capped,
        }


def halving_init(nu: Optional[float], rng: np.random.Generator) -> InitRecord:
    """Probe a single job: allocate 2^-t until the first failure.

    ``nu`` is the true difficulty (None for unbounded). Each local step
    consumes one uniform draw from ``rng``. The record's ``job`` is 0.
    """
    if nu is not None and not nu > 0:
        raise ValueError(f"difficulty must be positive or None, got {nu}")
    recip = 0.0 if nu is None else 1.0 / nu
    consumption = []
    for t in range(1, MAX_HALVING_STEPS + 1):
        m = 2.0**-t
        consumption.append(m)
        if not rng.random() < m * recip:
            return InitRecord(0, t, m, tuple(consumption))
    return InitRecord(0, MAX_HALVING_STEPS, 2.0**-MAX_HALVING_STEPS, tuple(consumption), capped=True)


def sample_eta(nu: Optional[float], nu_lower0: float) -> float:
    """Looseness of an initial lower bound: min(1, nu) / nu_lower0."""
    if not nu_lower0 > 0:
        raise ValueError(f"lower bound must be positive, got {nu_lower0}")
    top = 1.0 if nu is None else min(1.0, nu)
    return top / nu_lower0


def run_modified(instance: ProblemInstance, options: PolicyOptions = PolicyOptions()) -> RunTrace:
    """Self-initializing episode: offset halving probes plus the optimistic
    policy on whatever budget the probes leave.

    Per global step t: active probes (job k's starts at step k) consume
    their scheduled 2^(k-t-1); the main policy allocates the remaining
    budget among jobs whose probe has finished; one outcome is sampled per
    job from its total allocation; probe outcomes feed only the probe,
    main-policy outcomes feed only the estimators. Pseudo-regret is charged
    against the true optimum from step 1, initialisation included.
    """
    profile = optimal_profile(instance)
    rng = split_rng(instance.base_seed, options.seed)
    trace, probe_ends = _simulate(instance, options, profile, rng, None)
    records = []
    for job, end in enumerate(probe_ends):
        if end is not None:
            steps, capped = end
            consumption = tuple(2.0**-i for i in range(1, steps + 1))
            records.append(InitRecord(job, steps, 2.0**-steps, consumption, capped).to_dict())
    trace.metadata["init_records"] = records
    return trace
