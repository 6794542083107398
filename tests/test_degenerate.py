"""Budget, outcome and regret properties of both runners on degenerate
instances: K from 1 to 8, every job unbounded, every difficulty above the
budget, tied difficulties, and horizons both shorter and longer than K (so
some halving probes never start).

The estimator checks nothing, so its update contract is checked here, on
the trace: a job that had an estimator before step t is given at most its
lower bound from step t-1, and every outcome is 0 or 1.

On the same instances every final estimator state must equal the one
``reference.replay`` rebuilds from the trace, slot for slot: the kernel
updates a job exactly on the main policy's allocations to it, in step
order, with the oracle's arithmetic."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from alloc_bandit.allocator import MODES, PolicyOptions, run_episode
from alloc_bandit.estimator import EstimatorState
from alloc_bandit.initialization import run_modified
from alloc_bandit.model import ProblemInstance
from reference import kernel_slots, replay

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


def check_trace(trace, unbounded: bool, initial_lower_bounds=None) -> None:
    M = trace.allocations
    assert np.all(M >= 0.0)
    assert np.all(trace.observations <= 1)
    # Lower bounds in force before each step, as reciprocals; 0 marks a job
    # without an estimator (still probing) whose allocation is not bounded.
    first = np.zeros(M.shape[1])
    if initial_lower_bounds is not None:
        first = 1.0 / np.asarray(initial_lower_bounds)
    before = np.vstack([first, trace.lower_recips[:-1]])
    has = before > 0.0
    assert np.all(M[has] <= (1.0 / before[has]) * (1.0 + 1e-12))
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
    options = PolicyOptions(mode=mode, record="intervals", seed=seed)
    check_trace(run_episode(instance, lower_bounds, options), unbounded, lower_bounds)
    check_trace(run_modified(instance, options), unbounded)


@given(degenerate_instances(), st.sampled_from(MODES), st.integers(0, 2**32 - 1))
@example((ProblemInstance((0.16, 0.05), 54, 40), (1.0, 0.76)), "weighted", 0)  # collapses
@example((ProblemInstance((2.7, 0.02), 154, 99), (0.75, 0.79)), "weighted", 0)  # caps a weight
@example((ProblemInstance((1e-25, 0.5), 120, 6), (1e-26, 0.25)), "unweighted", 0)  # capped probe
@example((ProblemInstance((0.3, None, 0.7), 2, 6), (0.1, 0.5, 0.3)), "weighted", 2)  # n < K
def test_final_states_equal_their_replay(case, mode, seed):
    instance, lower_bounds = case
    options = PolicyOptions(mode=mode, record="steps", seed=seed)
    for trace, bounds in (
        (run_episode(instance, lower_bounds, options), lower_bounds),
        (run_modified(instance, options), None),
    ):
        oracles = replay(trace, options, bounds)
        for state, oracle in zip(trace.estimators, oracles, strict=True):
            if state is None or oracle is None:
                assert state is oracle  # a probe that never finished
            else:
                assert kernel_slots(state) == kernel_slots(oracle)


def test_replay_compares_every_kernel_slot():
    # One ulp or one flag off in any of the nine slots breaks the equality.
    instance = ProblemInstance((0.4, 0.6), 80, 3)
    options = PolicyOptions()
    trace = run_episode(instance, (0.2, 0.3), options)
    state, oracle = trace.estimators[0], replay(trace, options, (0.2, 0.3))[0]
    assert len(EstimatorState.__slots__) == 9
    assert len(kernel_slots(state)) == 9
    assert kernel_slots(state) == kernel_slots(oracle)
    for name in EstimatorState.__slots__:
        value = getattr(state, name)
        nudged = (not value) if isinstance(value, bool) else math.nextafter(value, math.inf)
        setattr(state, name, nudged)
        assert kernel_slots(state) != kernel_slots(oracle), name
        setattr(state, name, value)
