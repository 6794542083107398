"""The sparse step kernel against the dense oracle, byte for byte.

``allocator._simulate`` fills, samples and updates only the jobs that
receive resources; ``reference.simulate_dense`` does all K every step. Both
episode runners are run once on each kernel (the oracle swapped in for
``_simulate`` where each runner looks it up) and must agree on the trace
CSV text, the metadata (probe records included) and every estimator slot
(``reference.kernel_slots``), diagnostic flags included.

Instances are random: K in {1, 2, 3, 8, 32}, difficulties drawn partly
from a short list so that ties are common, some unbounded jobs, known lower
bounds that are sometimes violated, and horizons of 1, n < K, a few hundred
steps, just past the 1024-step draw-block refill and exactly two blocks.

The interval history, which the sparse kernel writes only where a bound
moves, is also checked on drawn degenerate instances, with examples that
collapse an interval, hit the weight cap, finish a probe at step 0 and
leave a probe unstarted (n < K).
"""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alloc_bandit import allocator, initialization
from alloc_bandit.allocator import MODES, PolicyOptions, run_episode
from alloc_bandit.initialization import run_modified
from alloc_bandit.model import ProblemInstance, optimal_profile, split_rng
from reference import kernel_slots, simulate_dense
from test_degenerate import degenerate_instances

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
        None if s is None else kernel_slots(s)
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


@given(degenerate_instances(), st.integers(0, 2**32 - 1), st.just(()))
@example((ProblemInstance((0.16, 0.05), 54, 40), (1.0, 0.76)), 0, ("collapsed",))
@example((ProblemInstance((2.7, 0.02), 154, 99), (0.75, 0.79)), 0, ("weight_capped",))
@example((ProblemInstance((None, 0.5), 30, 5), (0.5, 0.25)), 1, ("probe_done_at_step_0",))
@example((ProblemInstance((0.3, None, 0.7), 2, 6), (0.1, 0.5, 0.3)), 2, ("probe_unstarted",))
def test_sparse_interval_writes_match_dense_oracle(case, seed, expect):
    instance, lower_bounds = case
    rho_star = optimal_profile(instance)
    fired = set()
    for mode in MODES:
        options = PolicyOptions(mode=mode, record="intervals", seed=seed)
        for bounds in (lower_bounds, None):
            sparse, dense = (
                simulate(instance, options, rho_star, split_rng(instance.base_seed, seed), bounds)
                for simulate in (allocator._simulate, simulate_dense)
            )
            assert artifacts(sparse) == artifacts(dense)
            for s in sparse.estimators:
                fired.update(flag for flag in ("collapsed", "weight_capped")
                             if s is not None and getattr(s, flag))
            if bounds is None:
                records = sparse.metadata["init_records"]
                if any(r["job"] == 0 and r["steps_used"] == 1 for r in records):
                    fired.add("probe_done_at_step_0")
                if None in sparse.estimators:
                    fired.add("probe_unstarted")
    assert set(expect) <= fired
