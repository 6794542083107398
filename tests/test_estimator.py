import json
import math

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alloc_bandit.allocator import PolicyOptions, run_episode
from alloc_bandit.estimator import EstimatorState, confidence_radius_f
from alloc_bandit.model import ProblemInstance, split_rng
from reference import WeightOverflowError, weight


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
        state.update(0.5, 1)
        assert state.sum_wx == 1.0
        assert state.sum_wm == 0.5
        assert state.r_max == 1.0
        assert state.t == 1
        # recip estimate 2, variance proxy 0.5 * 2 = 1, radius f(1,1,0.01)/0.5
        radius = radius_oracle(1, 1, 0.01) / 0.5
        assert radius == pytest.approx(29.436136914120847, rel=1e-12)
        assert state.lower_recip == 2.0  # min(2, 2 + radius)
        assert state.upper_recip == 0.0  # max(0, 2 - radius) clamped at 0
        assert state.full_alloc_steps == 1

    def test_zero_outcome_leaves_sum_wx(self):
        state = EstimatorState(0.5, 0.01)
        state.update(0.25, 0)
        assert state.sum_wx == 0.0
        assert state.sum_wm == 0.25

    def test_full_allocation_detected_within_tolerance(self):
        state = EstimatorState(0.5, 0.01)
        state.update(0.5 * (1 - 1e-13), 1)
        assert state.full_alloc_steps == 1
        state.update(0.25, 1)
        assert state.full_alloc_steps == 1

    def test_weight_cap_flag(self):
        state = EstimatorState(0.5, 0.01)
        state.lower_recip = 2.0
        state.upper_recip = 2.0
        state.update(0.5, 1)
        assert state.weight_capped
        assert state.r_max == 1e12

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


# Snapshot key -> EstimatorState slot; every slot has a key.
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


def assert_snapshot_exact(state: EstimatorState) -> None:
    """The parsed snapshot holds every slot with its type, floats bit for bit."""
    doc = json.loads(state.snapshot())
    assert set(doc) == set(SNAPSHOT_SLOTS)
    for key, slot in SNAPSHOT_SLOTS.items():
        want = getattr(state, slot)
        assert type(doc[key]) is type(want), key
        if isinstance(want, float):
            assert doc[key].hex() == want.hex(), key
        else:
            assert doc[key] == want, key


class TestSnapshot:
    def test_round_trip_bit_exact(self):
        rng = split_rng(5)
        state = EstimatorState(0.3, 2.5e-9)
        for _ in range(500):
            m = min(1.0 / state.lower_recip, 0.55)
            state.update(m, int(rng.random() < m / 0.7))
        assert_snapshot_exact(state)

    def test_collapsed_flag_survives(self):
        # Known bounds above the true difficulties void coverage; with a
        # loose delta job 2's interval collapses.
        instance = ProblemInstance((0.3, 0.5), 300, 0)
        trace = run_episode(instance, (0.6, 0.9), PolicyOptions(delta_override=0.5))
        state = trace.estimators[1]
        assert state.collapsed
        assert_snapshot_exact(state)

    def test_unweighted_and_capped_states_survive(self):
        state = EstimatorState(0.3, 1e-4, weighted=False)
        state.update(0.3, 1)
        assert_snapshot_exact(state)
        capped = EstimatorState(0.5, 0.01)
        capped.lower_recip = capped.upper_recip = 2.0
        capped.update(0.5, 1)
        assert capped.weight_capped
        assert_snapshot_exact(capped)

    def test_schema_keys(self):
        doc = json.loads(EstimatorState(0.5, 0.01).snapshot())
        assert set(doc) == {
            "L", "U", "sum_wx", "sum_wm", "r_max", "t", "delta", "T",
            "weighted", "weight_capped", "collapsed",
        }
        assert sorted(SNAPSHOT_SLOTS.values()) == sorted(EstimatorState.__slots__)


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
