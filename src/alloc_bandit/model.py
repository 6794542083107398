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
import numbers
from dataclasses import dataclass

import numpy as np


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
    not be sorted; the optimal-allocation oracle sorts internally. A whole
    float horizon or seed (4.0) converts to an int; anything else that is
    not an integer is rejected.
    """

    nus: tuple
    horizon: int
    base_seed: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "nus", tuple(self.nus))
        except TypeError:
            raise ValueError(f"nus must be a list of difficulties, got {self.nus!r}") from None
        if not self.nus:
            raise ValueError("nus must hold at least one difficulty")
        for i, nu in enumerate(self.nus):
            if nu is None:
                continue
            real = isinstance(nu, numbers.Real) and not isinstance(nu, bool)
            if not (real and nu > 0 and math.isfinite(nu)):
                raise ValueError(f"nus[{i}] must be positive and finite (or None), got {nu!r}")
        horizon = _integer("horizon", self.horizon)
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon!r}")
        base_seed = _integer("base_seed", self.base_seed)
        if not 0 <= base_seed < 2**64:
            raise ValueError(f"base_seed must lie in [0, 2**64), got {self.base_seed!r}")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "base_seed", base_seed)

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
    def from_json(cls, text: str, horizon=None, seed=None) -> "ProblemInstance":
        """Parse ``{"nus": [...], "horizon": n, "seed": s}``; ``seed`` may be
        left out (0). Unknown and missing keys are rejected. ``horizon`` and
        ``seed``, when not None, replace the document's values."""
        doc = json.loads(text)
        _check_keys(doc, "instance", ("nus", "horizon", "seed"), ("nus", "horizon"))
        return cls(
            nus=doc["nus"],
            horizon=doc["horizon"] if horizon is None else horizon,
            base_seed=doc.get("seed", 0) if seed is None else seed,
        )

    def digest(self) -> str:
        """Short stable identifier for trace metadata."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def _integer(name: str, value) -> int:
    """``value`` as an int: whole floats (2.0) convert, 2.5 and non-numbers
    (bools and strings included) are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _floats(name: str, values) -> tuple:
    """``values`` as a tuple of floats; anything but a list of numbers is
    rejected with an error naming the field."""
    if not isinstance(values, str):
        try:
            return tuple(float(v) for v in values)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a list of numbers, got {values!r}")


def _check_keys(doc, where: str, known, required) -> None:
    """Reject a JSON document that is not an object, has a key outside
    ``known`` or lacks one of ``required``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown {where} key {key!r}; expected one of {sorted(known)}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{where} is missing required key {key!r}")


@dataclass(frozen=True)
class OptimalProfile:
    """Optimal allocation and derived quantities for a known instance.

    ``m_star`` is the per-job optimal allocation, ``ell`` the number of
    jobs fully allocated by the optimal policy (in increasing difficulty),
    ``s_star`` the residual budget handed to the next-easiest job, and
    ``rho_star`` the optimal expected number of completions per step.
    ``sort_order[r]`` maps sorted rank r (0-based, easiest first) to the
    original job index.
    """

    m_star: tuple
    ell: int
    s_star: float
    rho_star: float
    sort_order: tuple


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
    rho_star = float(ell) + (s_star * recips[order[ell]] if ell < K else 0.0)
    m = [0.0] * K
    for rank, k in enumerate(order):
        m[k] = m_sorted[rank]
    return OptimalProfile(
        m_star=tuple(float(v) for v in m),
        ell=ell,
        s_star=s_star,
        rho_star=rho_star,
        sort_order=tuple(order),
    )
