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

The per-step arrays have fixed types and shapes (the CSV writer indexes a
text table with the outcomes, which a bool array would turn into a mask),
and recording them costs memory in proportion to what is returned: what
an episode allocates beyond them does not grow with the horizon, at
``"final"`` or at ``"intervals"``. The block-wise fill-forward behind
every recorded column equals the whole-column oracle
``reference.carry_forward`` bit for bit.
"""

import tracemalloc
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alloc_bandit import allocator, initialization
from alloc_bandit.allocator import MODES, PolicyOptions, run_episode
from alloc_bandit.initialization import run_modified
from alloc_bandit.model import ProblemInstance
from reference import carry_forward, simulate_dense
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


def shared_instance(K: int, horizon: int) -> tuple:
    """K jobs with difficulties from 0.3 up to 0.6, so a few jobs share each
    fill, and known bounds at half the difficulty."""
    nus = tuple(0.3 * (1 + k / K) for k in range(K))
    return ProblemInstance(nus, horizon, 7), tuple(v / 2 for v in nus)


@pytest.mark.parametrize("level", ["steps", "intervals"])
@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("K", [1, 2, 32])
def test_per_step_array_types(K, runner, level):
    n = 300
    instance, lower_bounds = shared_instance(K, n)
    trace = run(runner, instance, lower_bounds, PolicyOptions(record=level))
    expected = {
        "allocations": (np.float64, (n, K)),
        "observations": (np.uint8, (n, K)),
        "regrets": (np.float64, (n,)),
        "cum_regrets": (np.float64, (n,)),
    }
    if level == "intervals":
        expected["lower_recips"] = (np.float64, (n, K))
        expected["upper_recips"] = (np.float64, (n, K))
    for name in PER_STEP:
        array = getattr(trace, name)
        if name not in expected:
            assert array is None, name
            continue
        assert (array.dtype, array.shape) == expected[name], name


@pytest.mark.parametrize("level", ["steps", "intervals"])
@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("K,n", [(2, 20_000), (8, 20_000), (32, 5_000)])
def test_recording_memory_follows_the_returned_arrays(K, n, runner, level):
    instance, lower_bounds = shared_instance(K, n)
    options = PolicyOptions(record=level)
    # A short untraced run first, so that one-time costs (imports, caches)
    # stay out of the peak.
    run(runner, *shared_instance(K, 100), options)
    tracemalloc.start()
    try:
        trace = run(runner, instance, lower_bounds, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(getattr(trace, name).nbytes for name in PER_STEP
                   if getattr(trace, name) is not None)
    assert peak <= 1.25 * returned, (peak, returned)


def traced_excess(runner, instance, lower_bounds, options) -> int:
    """Peak bytes allocated by one episode, less the per-step arrays it
    returns (none at ``"final"``)."""
    tracemalloc.start()
    try:
        trace = run(runner, instance, lower_bounds, options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(getattr(trace, name).nbytes for name in PER_STEP
                      if getattr(trace, name) is not None)


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("K", [2, 32])
def test_final_keeps_no_per_step_buffer(K, runner):
    options = PolicyOptions(record="final")
    run(runner, *shared_instance(K, 100), options)
    short = traced_excess(runner, *shared_instance(K, 2 * allocator._DRAW_BLOCK), options)
    long = traced_excess(runner, *shared_instance(K, 20 * allocator._DRAW_BLOCK), options)
    assert long - short <= 16 * 1024, (short, long)


def one_job_per_fill(K: int, horizon: int) -> tuple:
    """K jobs of difficulty 2 with known bounds 1: each fill gives the whole
    budget to one job, so a long episode stays quick under tracemalloc."""
    return ProblemInstance((2.0,) * K, horizon, 7), (1.0,) * K


@pytest.mark.parametrize("K", [2, 32])
def test_recording_excess_does_not_grow_with_the_horizon(K):
    # The post-loop work covers every column, however few jobs are funded.
    options = PolicyOptions(record="intervals")
    run_episode(*one_job_per_fill(K, 100), options)
    short = traced_excess("episode", *one_job_per_fill(K, 4 * allocator._CSV_BLOCK), options)
    long = traced_excess("episode", *one_job_per_fill(K, 40 * allocator._CSV_BLOCK), options)
    assert abs(long - short) < 64 * 1024, (short, long)


BLOCK = allocator._CSV_BLOCK
# Recorded values are never NaN; these are the ones whose bits a careless
# copy could change.
VALUES = np.array([0.0, -0.0, 5e-324, 1 / 3, 1e16, np.inf, -np.inf])


@given(
    n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]),
    K=st.sampled_from([1, 2, 32]),
    density=st.sampled_from([0.0, 0.001, 0.05, 0.5, 1.0]),
    block_starts=st.booleans(),
    gaps=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_carry_forward_matches_whole_columns(n, K, density, block_starts, gaps, seed):
    rng = np.random.default_rng(seed)
    written = rng.random((n, K)) < density
    if block_starts:
        # A write on the first row of every block, and on the row after it.
        written[::BLOCK] = True
        written[1::BLOCK] = True
    if gaps:
        # A run of unwritten rows across every block boundary.
        for edge in range(BLOCK, n, BLOCK):
            written[edge - 3 : edge + 5] = False
    written[0] = True
    values = np.where(rng.random((n, K)) < 0.2, VALUES[rng.integers(len(VALUES), size=(n, K))],
                      rng.standard_normal((n, K)))
    hist = array("d", np.where(written, values, np.nan).ravel().tolist())
    expected = carry_forward(array("d", hist), n, K)
    got = allocator._carry_forward(hist, n, K)
    assert got.shape == (n, K)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.shares_memory(got, np.frombuffer(hist))
