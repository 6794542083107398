"""Recording levels of the step kernel.

An episode makes the same decisions at every level; only what it keeps
differs. ``"final"`` keeps the final regret and the estimators, and must
give the same final regret (bit for bit), metadata (probe records
included) and estimator states as ``"steps"``, as ``"intervals"`` and as
the dense oracle ``reference.simulate_dense``. At ``"steps"`` and
``"intervals"`` the stored final regret is the last entry of the
cumulative regret column, bit for bit.

Instances are the golden cases of ``test_kernel_golden`` plus drawn ones:
K up to 32, n = 1, n < K, unbounded jobs, tied difficulties and violated
known bounds.
"""

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alloc_bandit import allocator, initialization
from alloc_bandit.allocator import MODES, PolicyOptions, run_episode
from alloc_bandit.initialization import run_modified
from alloc_bandit.model import ProblemInstance
from reference import simulate_dense
from test_kernel_golden import CASES

LEVELS = ("final", "steps", "intervals")
RUNNERS = ("episode", "modified")
PER_STEP = ("allocations", "observations", "regrets", "cum_regrets", "lower_recips", "upper_recips")
TIES = (0.25, 0.5, 0.5, 1.0)


def run(runner, instance, lower_bounds, options):
    if runner == "episode":
        return run_episode(instance, lower_bounds, options)
    return run_modified(instance, options)


def run_dense(runner, instance, lower_bounds, options):
    with mock.patch.object(allocator, "_simulate", simulate_dense), \
            mock.patch.object(initialization, "_simulate", simulate_dense):
        return run(runner, instance, lower_bounds, options)


def states(trace) -> list:
    return [
        None if s is None else (s.snapshot(), s.weight_capped, s.collapsed)
        for s in trace.estimators
    ]


def check_levels(instance, lower_bounds, extra) -> None:
    for runner in RUNNERS:
        for mode in MODES:
            traces = {
                level: run(runner, instance, lower_bounds,
                           PolicyOptions(mode=mode, record=level, **extra))
                for level in LEVELS
            }
            oracle = run_dense(runner, instance, lower_bounds,
                               PolicyOptions(mode=mode, record="final", **extra))
            final = traces["final"]
            assert type(final.final_regret) is float
            assert all(getattr(final, name) is None for name in PER_STEP)
            if runner == "modified":
                assert "init_records" in final.metadata
            for other in (traces["steps"], traces["intervals"], oracle):
                assert final.final_regret.hex() == other.final_regret.hex()
                assert final.metadata == other.metadata
                assert states(final) == states(other)
            for level in ("steps", "intervals"):
                trace = traces[level]
                assert trace.final_regret.hex() == float(trace.cum_regrets[-1]).hex()


@pytest.mark.parametrize("name", sorted(CASES))
def test_levels_agree_on_golden_cases(name):
    nus, horizon, base_seed, lower_bounds, extra = CASES[name]
    check_levels(ProblemInstance(nus, horizon, base_seed), lower_bounds, extra)


@st.composite
def cases(draw):
    K = draw(st.integers(1, 32))
    nu = st.one_of(st.none(), st.sampled_from(TIES), st.floats(0.02, 3.0))
    nus = tuple(draw(st.lists(nu, min_size=K, max_size=K)))
    horizon = draw(st.one_of(st.just(1), st.integers(1, max(1, K - 1)), st.integers(K, 200)))
    # Fractions above 1 give known bounds above the true difficulty.
    fractions = draw(st.lists(st.floats(0.05, 1.5), min_size=K, max_size=K))
    lower_bounds = tuple(f if v is None else f * v for v, f in zip(nus, fractions))
    extra = {"seed": draw(st.integers(0, 2**32 - 1))}
    if draw(st.booleans()):
        extra["delta_override"] = draw(st.floats(0.01, 0.9))
    instance = ProblemInstance(nus, horizon, draw(st.integers(0, 2**32 - 1)))
    return instance, lower_bounds, extra


@given(cases())
@example((ProblemInstance((0.3,) * 32, 1, 1), (0.1,) * 32, {"seed": 2}))
@example((ProblemInstance(tuple(0.02 * (k + 1) for k in range(32)), 7, 3), (0.01,) * 32, {}))
@example((ProblemInstance((None, None, None), 60, 4), (0.5, 0.5, 0.5), {}))
@example((ProblemInstance((0.5, 0.5, 0.5, 0.5), 150, 5), (0.25,) * 4, {"seed": 6}))
def test_levels_agree_on_drawn_cases(case):
    check_levels(*case)


def test_unknown_level_is_rejected():
    for bad in ("bogus", "", True, None):
        with pytest.raises(ValueError, match="record must be one of"):
            PolicyOptions(record=bad)


def test_final_trace_writes_no_csv(tmp_path):
    trace = run_episode(ProblemInstance((0.4, 0.6), 50, 1), (0.2, 0.3), PolicyOptions(record="final"))
    with pytest.raises(ValueError, match="'final'"):
        trace.to_csv(str(tmp_path / "trace.csv"))
    assert list(tmp_path.iterdir()) == []
