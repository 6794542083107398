import json
import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloc_bandit.allocator import PolicyOptions, run_episode
from alloc_bandit.estimator import EstimatorState, confidence_radius_f
from alloc_bandit.model import ProblemInstance, split_rng
import reference
from reference import OracleState, WeightOverflowError, kernel_slots, weight


def radius_oracle(r_max, v2, delta, dps=50):
    """Independent high-precision evaluation of the closed form."""
    with mp.workdps(dps):
        r1 = mp.mpf(r_max) + 1
        v1 = mp.mpf(v2) + 1
        delta0 = mp.mpf(delta) / (3 * r1**2 * v1**2)
        log_term = mp.log(2 / delta0)
        value = r1 / 3 * log_term + mp.sqrt(2 * v1 * log_term + (r1 / 3) ** 2 * log_term**2)
        return float(value)


class TestConfidenceRadius:
    def test_against_high_precision_oracle(self):
        got = confidence_radius_f(1.0, 1.0, 0.01)
        assert got == pytest.approx(radius_oracle(1, 1, 0.01), rel=1e-12)
        assert got == pytest.approx(14.718068457060424, rel=1e-12)
        # components of the closed form at this point
        assert math.log(2 / (0.01 / 48)) == pytest.approx(9.169518377, rel=1e-9)

    @given(
        st.floats(0.0, 1e6),
        st.floats(0.0, 1e9),
        st.floats(1e-12, 0.999),
    )
    def test_matches_oracle_everywhere(self, r, v2, delta):
        assert confidence_radius_f(r, v2, delta) == pytest.approx(
            radius_oracle(r, v2, delta), rel=1e-9
        )

    def test_monotone_in_variance_and_range(self):
        assert confidence_radius_f(1, 2, 0.01) > confidence_radius_f(1, 1, 0.01)
        assert confidence_radius_f(2, 1, 0.01) > confidence_radius_f(1, 1, 0.01)

    def test_pure_under_serialization(self):
        args = json.loads(json.dumps({"r": 3.7, "v2": 19.25, "delta": 2.5e-9}))
        assert confidence_radius_f(args["r"], args["v2"], args["delta"]) == confidence_radius_f(
            3.7, 19.25, 2.5e-9
        )


class TestWeight:
    def test_infinite_upper_bound_gives_one(self):
        state = EstimatorState(0.5, 0.01)
        assert weight(state, 0.123) == 1.0
        assert weight(state, 0.0) == 1.0

    def test_direct_substitution(self):
        state = EstimatorState(1.0, 0.01)
        state.upper_recip = 1.0
        assert weight(state, 0.5) == pytest.approx(2.0)

    def test_hand_arithmetic(self):
        state = EstimatorState(0.5, 0.01)
        state.upper_recip = 2.0
        assert weight(state, 0.45) == pytest.approx(10.0, rel=1e-12)

    def test_overflow_raises(self):
        state = EstimatorState(0.5, 0.01)
        state.upper_recip = 2.0
        with pytest.raises(WeightOverflowError):
            weight(state, 0.5)
        with pytest.raises(ValueError):
            weight(state, -0.1)


class TestUpdate:
    def test_one_step_worked_example(self):
        state = EstimatorState(0.5, 0.01)
        assert state.update(0.5, 1) is None
        assert state.sum_wx == 1.0
        assert state.sum_wm == 0.5
        assert state.r_max == 1.0
        # recip estimate 2, variance proxy 0.5 * 2 = 1, radius f(1,1,0.01)/0.5
        radius = radius_oracle(1, 1, 0.01) / 0.5
        assert radius == pytest.approx(29.436136914120847, rel=1e-12)
        assert state.lower_recip == 2.0  # min(2, 2 + radius)
        assert state.upper_recip == 0.0  # max(0, 2 - radius) clamped at 0
        # The oracle counts the update, and it allocated the whole bound.
        oracle = reference.update(OracleState(0.5, 0.01), 0.5, 1)
        assert (oracle.t, oracle.full_alloc_steps) == (1, 1)
        assert kernel_slots(oracle) == kernel_slots(state)

    def test_zero_outcome_leaves_sum_wx(self):
        state = EstimatorState(0.5, 0.01)
        state.update(0.25, 0)
        assert state.sum_wx == 0.0
        assert state.sum_wm == 0.25

    def test_full_allocation_detected_within_tolerance(self):
        # T_k(t) is the analysis's count, kept by the oracle state only.
        state = OracleState(0.5, 0.01)
        reference.update(state, 0.5 * (1 - 1e-13), 1)
        assert state.full_alloc_steps == 1
        reference.update(state, 0.25, 1)
        assert state.full_alloc_steps == 1
        assert state.t == 2

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_weight_cap_flag(self, weighted):
        # m * upper_recip = 1 caps the weight; unweighted mode takes mu = 0
        # whatever the upper bound, so its weight stays exactly 1.
        state = EstimatorState(0.5, 0.01, weighted=weighted)
        state.lower_recip = 2.0
        state.upper_recip = 2.0
        state.update(0.5, 1)
        assert state.weight_capped == weighted
        assert state.r_max == (1e12 if weighted else 1.0)
        assert state.sum_wm == (5e11 if weighted else 0.5)

    def test_unweighted_mode_reduces_to_plain_ratio(self):
        rng = split_rng(11)
        state = EstimatorState(0.3, 1e-4, weighted=False)
        ms, xs = [], []
        for _ in range(200):
            m = min(1.0 / state.lower_recip, 0.3)
            x = int(rng.random() < m / 0.7)
            state.update(m, x)
            ms.append(m)
            xs.append(x)
        assert state.sum_wx == pytest.approx(sum(xs))
        assert state.sum_wm == pytest.approx(sum(ms))
        assert state.r_max == 1.0
        # constant allocations: the ratio is the sample mean of X/M
        const = EstimatorState(0.3, 1e-4, weighted=False)
        mean = 0.0
        for i, x in enumerate(xs):
            const.update(0.3, x)
            mean += x / 0.3
        assert const.sum_wx / const.sum_wm == pytest.approx(mean / len(xs), rel=1e-12)


@st.composite
def update_runs(draw):
    nu_lower0 = draw(st.floats(0.05, 1.0))
    nu = draw(st.floats(nu_lower0, 4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    steps = draw(st.integers(1, 120))
    fractions = draw(
        st.lists(st.floats(0.05, 1.0), min_size=steps, max_size=steps)
    )
    return nu_lower0, nu, seed, fractions


class TestTrajectoryInvariants:
    @given(update_runs())
    def test_interval_monotone_on_consistent_data(self, run):
        nu_lower0, nu, seed, fractions = run
        rng = split_rng(seed)
        state = EstimatorState(nu_lower0, 1e-6)
        prev_width = state.lower_recip - state.upper_recip
        prev_lower, prev_upper = state.lower_recip, state.upper_recip
        for frac in fractions:
            m = frac / state.lower_recip
            x = int(rng.random() < min(1.0, m / nu))
            state.update(m, x)
            width = state.lower_recip - state.upper_recip
            assert width >= 0.0
            assert width <= prev_width + 1e-15
            assert state.lower_recip <= prev_lower
            assert state.upper_recip >= prev_upper
            prev_width = width
            prev_lower, prev_upper = state.lower_recip, state.upper_recip
        assert not state.collapsed
        assert state.sum_wm > 0.0

    @given(update_runs(), st.data())
    def test_width_nonnegative_even_on_adversarial_outcomes(self, run, data):
        nu_lower0, _, _, fractions = run
        state = EstimatorState(nu_lower0, 0.5)
        for i, frac in enumerate(fractions):
            m = frac / state.lower_recip
            if m <= 0.0:
                break
            x = data.draw(st.integers(0, 1), label=f"x{i}")
            state.update(m, x)
            assert state.lower_recip - state.upper_recip >= 0.0


@st.composite
def update_sequences(draw):
    """A state's start and a run of updates. Each step allocates a fraction
    of the current lower bound (1.0: the whole bound) with an arbitrary
    outcome, repeated up to 64 times, so runs reach the tight intervals
    where the radius decides the bounds. Runs where every allocation
    succeeds push the estimate above the lower bound, so at a loose delta
    they collapse; the closing full allocation then caps the weight."""
    weighted = draw(st.booleans())
    nu_lower0 = draw(st.floats(0.01, 1.0))
    delta = draw(st.sampled_from([0.5, 1e-3]) | st.floats(1e-12, 0.999))
    outcome = st.just(1) if draw(st.booleans()) else st.integers(0, 1)
    fraction = st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0)
    runs = draw(st.lists(st.tuples(fraction, outcome, st.integers(1, 64)), min_size=1, max_size=30))
    steps = [(frac, x) for frac, x, repeat in runs for _ in range(repeat)] + [(1.0, 1)]
    return weighted, nu_lower0, delta, steps


def assert_updates_match_reference(weighted, nu_lower0, delta, steps) -> EstimatorState:
    """Apply ``steps`` through the library's update and through
    ``reference.update``; after every update every kernel slot, flags
    included, must agree bit for bit."""
    state = EstimatorState(nu_lower0, delta, weighted=weighted)
    oracle = OracleState(nu_lower0, delta, weighted=weighted)
    for i, (frac, x) in enumerate(steps):
        m = frac / state.lower_recip
        state.update(m, x)
        reference.update(oracle, m, x)
        assert kernel_slots(state) == kernel_slots(oracle), f"update {i}: m={m!r}, x={x}"
    assert oracle.t == len(steps)
    return state


class TestInlineRadius:
    """``EstimatorState.update`` computes ``confidence_radius_f`` inline;
    the reference update calls it, and the two must not drift apart."""

    @settings(max_examples=200)
    @given(update_sequences())
    def test_bit_identical_to_reference(self, run):
        assert_updates_match_reference(*run)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_collapse_then_weight_cap(self, weighted):
        # A bound of 0.9 above a difficulty of at most 0.45: every
        # allocation of half the bound succeeds, the estimate passes the
        # lower bound and with delta = 0.5 the interval collapses; the
        # whole bound is then within 1e-12 of 1/U.
        steps = [(0.5, 1)] * 200 + [(1.0, 1), (1.0, 0), (0.5, 1)]
        state = assert_updates_match_reference(weighted, 0.9, 0.5, steps)
        assert state.collapsed
        assert state.weight_capped == weighted

    def test_weight_cap_within_tolerance(self):
        # m within 1e-12 of 1/U caps the weight without a collapse.
        state = EstimatorState(0.5, 0.01)
        oracle = OracleState(0.5, 0.01)
        for s in (state, oracle):
            s.lower_recip = 2.0
            s.upper_recip = 2.0 * (1.0 - 5e-13)
        state.update(0.5, 1)
        reference.update(oracle, 0.5, 1)
        assert state.weight_capped and not state.collapsed
        assert kernel_slots(state) == kernel_slots(oracle)


# Snapshot key -> OracleState slot; every slot has a key.
SNAPSHOT_SLOTS = {
    "L": "lower_recip",
    "U": "upper_recip",
    "sum_wx": "sum_wx",
    "sum_wm": "sum_wm",
    "r_max": "r_max",
    "t": "t",
    "delta": "delta",
    "T": "full_alloc_steps",
    "weighted": "weighted",
    "weight_capped": "weight_capped",
    "collapsed": "collapsed",
}


def assert_snapshot_exact(state: OracleState) -> None:
    """The parsed snapshot holds every slot with its type, floats bit for bit."""
    doc = json.loads(reference.snapshot(state))
    assert set(doc) == set(SNAPSHOT_SLOTS)
    for key, slot in SNAPSHOT_SLOTS.items():
        want = getattr(state, slot)
        assert type(doc[key]) is type(want), key
        if isinstance(want, float):
            assert doc[key].hex() == want.hex(), key
        else:
            assert doc[key] == want, key


class TestSnapshot:
    """``reference.snapshot`` of the oracle state, which the golden digests
    hash in place of the kernel state."""

    def test_round_trip_bit_exact(self):
        rng = split_rng(5)
        state = OracleState(0.3, 2.5e-9)
        for _ in range(500):
            m = min(1.0 / state.lower_recip, 0.55)
            reference.update(state, m, int(rng.random() < m / 0.7))
        assert state.full_alloc_steps > 0
        assert_snapshot_exact(state)

    def test_collapsed_flag_survives(self):
        # Known bounds above the true difficulties void coverage; with a
        # loose delta job 2's interval collapses.
        instance = ProblemInstance((0.3, 0.5), 300, 0)
        options = PolicyOptions(delta_override=0.5)
        trace = run_episode(instance, (0.6, 0.9), options)
        state = reference.replay(trace, options, (0.6, 0.9))[1]
        assert state.collapsed
        assert kernel_slots(state) == kernel_slots(trace.estimators[1])
        assert_snapshot_exact(state)

    def test_unweighted_and_capped_states_survive(self):
        state = OracleState(0.3, 1e-4, weighted=False)
        reference.update(state, 0.3, 1)
        assert_snapshot_exact(state)
        capped = OracleState(0.5, 0.01)
        capped.lower_recip = capped.upper_recip = 2.0
        reference.update(capped, 0.5, 1)
        assert capped.weight_capped
        assert_snapshot_exact(capped)

    def test_schema_keys(self):
        doc = json.loads(reference.snapshot(OracleState(0.5, 0.01)))
        assert list(doc) == [
            "L", "U", "sum_wx", "sum_wm", "r_max", "t", "delta", "T",
            "weighted", "weight_capped", "collapsed",
        ]
        assert sorted(SNAPSHOT_SLOTS.values()) == sorted(OracleState.__slots__)
        # The kernel keeps what the policy reads; the oracle adds the counts.
        assert set(OracleState.__slots__) - set(EstimatorState.__slots__) == {
            "t", "full_alloc_steps",
        }


def test_coverage_smoke():
    # light version of the acceptance coverage check
    nu, nu_lower0, delta, n = 0.7, 0.3, 1e-3, 100
    exits = 0
    for rep in range(200):
        rng = split_rng(1000 + rep)
        state = EstimatorState(nu_lower0, delta)
        recip_true = 1.0 / nu
        for _ in range(n):
            m = min(1.0 / state.lower_recip, 1.0)
            state.update(m, int(rng.random() < min(1.0, m / nu)))
            if not state.upper_recip <= recip_true <= state.lower_recip:
                exits += 1
                break
    assert exits == 0
