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

from typing import Optional

import numpy as np

from .allocator import MAX_HALVING_STEPS, PolicyOptions, RunTrace, _simulate
# Not called here; kept so that bench/tracing.py can wrap this binding by name.
from .allocator import _allocate_raw  # noqa: F401
from .model import ProblemInstance, _positive, optimal_profile, split_rng


def halving_init(nu: Optional[float], rng: np.random.Generator) -> tuple:
    """Probe a single job: allocate 2^-t until the first failure.

    ``nu`` is the true difficulty (None for unbounded). Each local step
    consumes one uniform draw from ``rng``. Returns ``(steps_used, capped)``:
    the probe's lower bound is 2^-steps_used, and ``capped`` marks a probe
    stopped by the 64-step guard instead of an observed failure.
    """
    recip = 0.0 if nu is None else 1.0 / _positive("difficulty", nu)
    for t in range(1, MAX_HALVING_STEPS + 1):
        if not rng.random() < 2.0**-t * recip:
            return t, False
    return MAX_HALVING_STEPS, True


def run_modified(instance: ProblemInstance, options: PolicyOptions = PolicyOptions()) -> RunTrace:
    """Self-initializing episode: offset halving probes plus the optimistic
    policy on whatever budget the probes leave.

    Per global step t: active probes (job k's starts at step k) consume
    their scheduled 2^(k-t-1); the main policy allocates the remaining
    budget among jobs whose probe has finished; one outcome is sampled per
    job from its total allocation; probe outcomes feed only the probe,
    main-policy outcomes feed only the estimators. Pseudo-regret is charged
    against rho* (``optimal_profile``) from step 1, initialisation
    included. Each finished probe's record, ``{"job", "steps_used",
    "capped"}``, is in ``metadata["init_records"]`` (see ``_simulate``);
    job k's bound is 2^-steps_used.
    """
    rho_star = optimal_profile(instance)
    rng = split_rng(instance.base_seed, options.seed)
    return _simulate(instance, options, rho_star, rng, None)
