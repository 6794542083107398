"""Environment model for the linear resource-allocation problem.

A fixed set of K recurring jobs shares a unit budget of resources each
step. Job k, given resources M_k, completes independently with probability
``min(1, M_k / nu_k)`` where nu_k is the job's unknown difficulty cut-off. The budget is replenished every step.

All reciprocal arithmetic treats an unbounded difficulty (``null`` in JSON;
a job that never completes) as reciprocal 0, and ``_positive`` holds every
other difficulty and lower bound to a positive value with a finite reciprocal
(5e-324 and 10**400 fail), so no infinities appear in the numerics.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

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

    ``nus`` entries pass ``_positive`` and are kept as given; ``None`` marks
    an unbounded difficulty (the job never completes, reciprocal 0). They
    need not be sorted; the optimal-allocation oracle sorts internally. A whole
    float horizon or seed (4.0) converts to an int; anything else that is
    not an integer is rejected.
    """

    nus: tuple
    horizon: int
    base_seed: int = 0

    def __post_init__(self):
        try:
            if isinstance(self.nus, (str, dict)):  # would iterate characters or keys
                raise TypeError
            object.__setattr__(self, "nus", tuple(self.nus))
        except TypeError:
            raise ValueError(f"nus must be a list of difficulties, got {self.nus!r}") from None
        if not self.nus:
            raise ValueError("nus must hold at least one difficulty")
        for i, nu in enumerate(self.nus):
            if nu is not None:
                _positive(f"nus[{i}]", nu)
        object.__setattr__(self, "horizon", _count("horizon", self.horizon))
        object.__setattr__(self, "base_seed", _seed("base_seed", self.base_seed))

    @property
    def num_jobs(self) -> int:
        return len(self.nus)

    @property
    def recips(self) -> tuple:
        """Reciprocal difficulties 1/nu_k, with 0 encoding unbounded."""
        return tuple(0.0 if nu is None else 1.0 / nu for nu in self.nus)

    @classmethod
    def from_json(cls, text: str, horizon=None, seed=None) -> "ProblemInstance":
        """Parse ``{"nus": [...], "horizon": n, "seed": s}``; ``seed`` may be
        left out (0). Unknown, repeated and missing keys are rejected.
        ``horizon`` and ``seed``, when not None, replace the document's
        values."""
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        _check_keys(doc, "instance", ("nus", "horizon", "seed"), ("nus", "horizon"))
        return cls(
            nus=doc["nus"],
            horizon=doc["horizon"] if horizon is None else horizon,
            base_seed=doc.get("seed", 0) if seed is None else seed,
        )


def _integer(name: str, value) -> int:
    """``value`` as an int: whole floats (2.0) convert, 2.5 and non-numbers
    (bools and strings included) are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _count(name: str, value) -> int:
    """``value`` as an integer count of at least 1."""
    count = _integer(name, value)
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return count


def _seed(name: str, value) -> int:
    """``value`` as a seed: an integer in [0, 2**64)."""
    seed = _integer(name, value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must lie in [0, 2**64), got {value!r}")
    return seed


def _real(value) -> bool:
    """A real number a float can hold: not a bool, not 10**400."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _positive(name: str, value) -> float:
    """``value`` as a finite float > 0 whose reciprocal is finite, else an error."""
    v = float(value) if _real(value) else math.nan
    if not (v > 0.0 and math.isfinite(v) and math.isfinite(1.0 / v)):
        raise ValueError(f"{name} must be positive and finite with a finite reciprocal, got {value!r}")
    return v


def _floats(name: str, values) -> tuple:
    """``values`` as a tuple of floats; anything but a list of real numbers
    (a string, or one holding a string or a bool) is rejected with an error
    naming the field."""
    try:
        items = None if isinstance(values, str) else tuple(values)
    except TypeError:
        items = None
    if items is None or not all(map(_real, items)):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(map(float, items))


def _bounds(name: str, values) -> tuple:
    """Lower bounds: ``_floats``, then ``_positive`` on each entry as ``name[i]``."""
    bounds = _floats(name, values)
    for i, bound in enumerate(bounds):
        _positive(f"{name}[{i}]", bound)
    return bounds


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object's pairs as a
    dict, rejecting a key that appears twice (``json`` keeps the last)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate JSON key {key!r}")
        doc[key] = value
    return doc


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


def _allocate_raw(order: Sequence[tuple], budget: float) -> list:
    """Greedy fill over a fill order: a sequence of ``(nu, k)``, easiest
    job first, ties toward the lowest index. The step kernel fills over
    optimistic lower bounds, ``optimal_profile`` over the true difficulties.

    Each job in turn receives ``min(nu, remaining budget)`` until the
    budget is spent. Returns ``[(k, take), ...]`` for the jobs reached, in
    fill order; jobs not reached receive nothing.
    """
    fill = []
    remaining = budget
    for nu, k in order:
        if remaining <= 0.0:
            break
        take = nu if nu < remaining else remaining
        fill.append((k, take))
        remaining -= take
    return fill


def optimal_profile(instance: ProblemInstance) -> float:
    """The optimal expected number of completions per step, rho*: the
    reward of the policy's greedy fill applied to the true difficulties.

    Jobs are filled in increasing difficulty, each receiving min(nu,
    remaining budget), so the first ell jobs are fully covered, the next
    one absorbs the remainder s* and all later jobs receive nothing; rho* is
    ell + s* / nu of that next job. Ties are broken by original job index
    (stable sort); unbounded difficulties sort last.
    """
    K = instance.num_jobs
    recips = instance.recips
    order = sorted(range(K), key=lambda k: (-recips[k], k))
    nus = [math.inf if nu is None else nu for nu in instance.nus]
    fill = _allocate_raw([(nus[k], k) for k in order], 1.0)
    ell = sum(take == nus[k] for k, take in fill)  # a prefix: jobs fully covered
    if ell == len(fill):  # no job covered in part
        return float(ell)
    k, s_star = fill[ell]
    return float(ell) + float(s_star) * recips[k]
