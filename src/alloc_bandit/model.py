"""Environment model for the linear resource-allocation problem.

A fixed set of K recurring jobs shares a unit budget of resources each
step. Job k, given resources M_k, completes independently with probability
``min(1, M_k / nu_k)`` where nu_k is the job's unknown difficulty cut-off. The budget is replenished every step.

All reciprocal arithmetic uses the convention that an unbounded difficulty
(a job that can never be completed) has reciprocal 0, so no infinities
appear in the numerics. In the JSON encoding an unbounded difficulty is a
``null`` entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

BUDGET_TOL = 1e-9


def split_rng(base_seed: int, *branch: int) -> np.random.Generator:
    """Derive an independent generator for a (seed, branch...) coordinate.

    Uses numpy's SeedSequence spawn keys, so streams for distinct branch
    tuples are statistically independent and the derivation is stable:
    adding new branches never perturbs existing ones.
    """
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=branch))


@dataclass(frozen=True)
class ProblemInstance:
    """Hidden environment: job difficulties, horizon and base RNG seed.

    ``nus`` entries are positive reals; ``None`` marks an unbounded
    difficulty (the job never completes, reciprocal 0). Difficulties need
    not be sorted; the optimal-allocation oracle sorts internally.
    """

    nus: tuple
    horizon: int
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nus", tuple(self.nus))
        if len(self.nus) < 1:
            raise ValueError("need at least one job")
        for nu in self.nus:
            if nu is None:
                continue
            if not (nu > 0 and math.isfinite(nu)):
                raise ValueError(f"difficulty must be positive and finite or None, got {nu}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not (0 <= self.base_seed < 2**64):
            raise ValueError(f"base_seed must be a 64-bit unsigned integer, got {self.base_seed}")

    @property
    def num_jobs(self) -> int:
        return len(self.nus)

    @property
    def recips(self) -> tuple:
        """Reciprocal difficulties 1/nu_k, with 0 encoding unbounded."""
        return tuple(0.0 if nu is None else 1.0 / nu for nu in self.nus)

    def to_json(self) -> str:
        return json.dumps(
            {"nus": list(self.nus), "horizon": self.horizon, "seed": self.base_seed}
        )

    @classmethod
    def from_json(cls, text: str) -> "ProblemInstance":
        doc = json.loads(text)
        return cls(nus=tuple(doc["nus"]), horizon=int(doc["horizon"]), base_seed=int(doc.get("seed", 0)))

    def digest(self) -> str:
        """Short stable identifier for trace metadata."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Allocation:
    """Per-job resources for one step, a point in the unit-budget simplex."""

    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))
        for v in self.m:
            if v < 0:
                raise ValueError(f"allocations must be non-negative, got {v}")
        if sum(self.m) > 1.0 + BUDGET_TOL:
            raise ValueError(f"allocation exceeds the unit budget: sum={sum(self.m)}")


@dataclass(frozen=True)
class OptimalProfile:
    """Optimal allocation and derived quantities for a known instance.

    ``ell`` is the number of jobs fully allocated by the optimal policy
    (in increasing difficulty), ``s_star`` the residual budget handed to
    the next-easiest job, and ``rho_star`` the optimal expected number of
    completions per step. ``sort_order[r]`` maps sorted rank r (0-based,
    easiest first) to the original job index. ``gap(j, k)`` returns
    1/nu_j - 1/nu_k over 1-based sorted ranks.
    """

    m_star: Allocation
    ell: int
    s_star: float
    rho_star: float
    sort_order: tuple
    sorted_recips: tuple = field(repr=False)

    def gap(self, j: int, k: int) -> float:
        """Difficulty separation between sorted ranks j and k (1-based)."""
        if not (1 <= j <= len(self.sorted_recips) and 1 <= k <= len(self.sorted_recips)):
            raise IndexError(f"ranks must be in 1..{len(self.sorted_recips)}, got ({j}, {k})")
        return self.sorted_recips[j - 1] - self.sorted_recips[k - 1]


def optimal_profile(instance: ProblemInstance) -> OptimalProfile:
    """Best fixed allocation: fill jobs in increasing difficulty.

    In sorted order each job receives min(remaining budget, nu); the first
    job that cannot be fully covered absorbs the whole remainder and all
    later jobs receive nothing. Ties are broken by original job index
    (stable sort); unbounded difficulties sort last.
    """
    K = instance.num_jobs
    recips = instance.recips
    order = sorted(range(K), key=lambda k: (-recips[k], k))
    m_sorted = []
    remaining = 1.0
    ell = 0
    for rank, k in enumerate(order):
        nu = instance.nus[k]
        if nu is not None and nu <= remaining:
            m_sorted.append(nu)
            remaining -= nu
            if remaining < 0.0:
                remaining = 0.0
            ell = rank + 1
        else:
            m_sorted.append(remaining)
            remaining = 0.0
    s_star = m_sorted[ell] if ell < K else 0.0
    sorted_recips = tuple(recips[k] for k in order)
    rho_star = float(ell) + (s_star * sorted_recips[ell] if ell < K else 0.0)
    m = [0.0] * K
    for rank, k in enumerate(order):
        m[k] = m_sorted[rank]
    return OptimalProfile(
        m_star=Allocation(tuple(m)),
        ell=ell,
        s_star=s_star,
        rho_star=rho_star,
        sort_order=tuple(order),
        sorted_recips=sorted_recips,
    )
