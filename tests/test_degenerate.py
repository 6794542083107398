"""Budget, outcome and regret properties of both runners on degenerate
instances: K from 1 to 8, every job unbounded, every difficulty above the
budget, tied difficulties, and horizons both shorter and longer than K (so
some halving probes never start)."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from alloc_bandit.allocator import MODES, PolicyOptions, run_episode
from alloc_bandit.initialization import run_modified
from alloc_bandit.model import ProblemInstance

TIES = (0.25, 0.5, 1.0)


@st.composite
def degenerate_instances(draw):
    K = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("unbounded", "above_one", "mixed")))
    if kind == "unbounded":
        nus = [None] * K
    elif kind == "above_one":
        nus = draw(st.lists(st.floats(1.0, 10.0, exclude_min=True), min_size=K, max_size=K))
    else:
        nu = st.one_of(st.none(), st.sampled_from(TIES), st.floats(0.01, 3.0))
        nus = draw(st.lists(nu, min_size=K, max_size=K))
    if K > 1 and draw(st.booleans()):
        horizon = draw(st.integers(1, K - 1))
    else:
        horizon = draw(st.integers(K, 200))
    fractions = draw(st.lists(st.floats(0.05, 1.0), min_size=K, max_size=K))
    lower_bounds = tuple(f if nu is None else f * nu for nu, f in zip(nus, fractions))
    seed = draw(st.integers(0, 2**32 - 1))
    return ProblemInstance(tuple(nus), horizon, seed), lower_bounds


def check_trace(trace, unbounded: bool) -> None:
    M = trace.allocations
    assert np.all(M >= 0.0)
    assert np.all(M.sum(axis=1) <= 1.0 + 1e-12)
    assert np.all(trace.observations[M == 0.0] == 0)
    assert np.all(trace.regrets >= -1e-12)
    if unbounded:
        assert np.all(trace.regrets == 0.0)
        assert trace.final_regret == 0.0


@given(degenerate_instances(), st.sampled_from(MODES), st.integers(0, 2**32 - 1))
@example((ProblemInstance((None,) * 8, 5, 1), (0.5,) * 8), "weighted", 0)
@example((ProblemInstance((None,) * 3, 40, 2), (0.2, 0.5, 1.0)), "unweighted", 3)
@example((ProblemInstance((1.5, 2.0, 4.0), 2, 3), (1.0, 1.0, 2.0)), "weighted", 7)
@example((ProblemInstance((2.0,) * 8, 60, 4), (1.0,) * 8), "unweighted", 1)
def test_budget_outcomes_and_regret_on_degenerate_instances(case, mode, seed):
    instance, lower_bounds = case
    unbounded = all(nu is None for nu in instance.nus)
    options = PolicyOptions(mode=mode, seed=seed)
    check_trace(run_episode(instance, lower_bounds, options), unbounded)
    check_trace(run_modified(instance, options), unbounded)
