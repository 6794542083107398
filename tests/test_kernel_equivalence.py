"""The sparse step kernel against the dense oracle, byte for byte.

``allocator._simulate`` fills, samples and updates only the jobs that
receive resources; ``reference.simulate_dense`` does all K every step. Both
episode runners are run once on each kernel (the oracle swapped in for
``_simulate`` where each runner looks it up) and must agree on the trace
CSV text, the metadata (probe records included) and every estimator's
snapshot and diagnostic flags.

Instances are random: K in {1, 2, 3, 8, 32}, difficulties drawn partly
from a short list so that ties are common, some unbounded jobs, known lower
bounds that are sometimes violated, and horizons of 1, n < K, a few hundred
steps, just past the 1024-step draw-block refill and exactly two blocks.
"""

import json

import numpy as np
import pytest

from alloc_bandit import allocator, initialization
from alloc_bandit.allocator import PolicyOptions, run_episode
from alloc_bandit.initialization import run_modified
from alloc_bandit.model import ProblemInstance
from reference import simulate_dense

TIE_POOL = (0.05, 0.25, 0.5, 0.5, 0.9, 2.0)
HORIZON_KINDS = ("n1", "n_lt_k", "mid", "refill", "two_blocks")


def random_case(K: int, horizon_kind: str):
    g = np.random.default_rng([K, HORIZON_KINDS.index(horizon_kind)])
    nus = []
    for _ in range(K):
        u = g.random()
        if u < 0.15:
            nus.append(None)
        elif u < 0.6:
            nus.append(float(g.choice(TIE_POOL)))
        else:
            nus.append(float(g.uniform(0.02, 3.0)))
    lower_bounds = []
    for nu in nus:
        if nu is None:
            lower_bounds.append(float(g.uniform(0.05, 1.0)))
        elif g.random() < 0.1:
            lower_bounds.append(nu * float(g.uniform(1.0, 2.0)))
        else:
            lower_bounds.append(nu * float(g.uniform(0.2, 1.0)))
    horizon = {
        "n1": 1,
        "n_lt_k": max(1, K - 1 - int(g.integers(0, K))),
        "mid": int(g.integers(50, 400)),
        "refill": int(g.integers(1025, 1100)),
        "two_blocks": 2 * allocator._DRAW_BLOCK,
    }[horizon_kind]
    extra = {"seed": int(g.integers(0, 2**32))}
    if g.random() < 0.3:
        extra["delta_override"] = 0.3
    instance = ProblemInstance(tuple(nus), horizon, int(g.integers(0, 2**32)))
    return instance, tuple(lower_bounds), extra


CASES = [
    (K, kind)
    for K in (1, 2, 3, 8, 32)
    for kind in HORIZON_KINDS
    if not (K == 1 and kind == "n_lt_k")
]


def artifacts(trace) -> tuple:
    states = [
        None if s is None else (s.snapshot(), s.weighted, s.weight_capped, s.collapsed)
        for s in trace.estimators
    ]
    return "".join(trace._csv_blocks()), json.dumps(trace.metadata, sort_keys=True), states


def run_all(instance, lower_bounds, extra) -> list:
    out = []
    for mode in ("weighted", "unweighted"):
        for intervals in (False, True):
            options = PolicyOptions(mode=mode, record="intervals" if intervals else "steps", **extra)
            out.append(artifacts(run_episode(instance, lower_bounds, options)))
            out.append(artifacts(run_modified(instance, options)))
    return out


@pytest.mark.parametrize("K,kind", CASES, ids=[f"k{K}-{kind}" for K, kind in CASES])
def test_sparse_kernel_matches_dense_oracle(K, kind, monkeypatch):
    instance, lower_bounds, extra = random_case(K, kind)
    sparse = run_all(instance, lower_bounds, extra)
    monkeypatch.setattr(allocator, "_simulate", simulate_dense)
    monkeypatch.setattr(initialization, "_simulate", simulate_dense)
    dense = run_all(instance, lower_bounds, extra)
    assert len(sparse) == len(dense) == 8
    for got, want in zip(sparse, dense):
        assert got == want


def test_cases_cover_the_degenerate_instances():
    instances = [random_case(*case)[0] for case in CASES]
    assert any(None in inst.nus for inst in instances)
    assert any(len(set(inst.nus)) < inst.num_jobs for inst in instances)
    assert any(inst.horizon < inst.num_jobs for inst in instances)
    assert any(inst.horizon > allocator._DRAW_BLOCK for inst in instances)
    assert any(inst.horizon == 2 * allocator._DRAW_BLOCK for inst in instances)
