import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from alloc_bandit.allocator import PolicyOptions, _allocate_raw, default_delta, run_episode
from alloc_bandit.model import ProblemInstance, optimal_profile, split_rng
from alloc_bandit.estimator import EstimatorState
from alloc_bandit.initialization import run_modified
from reference import allocate, instantaneous_regret, optimal_fill, replay, sample_step


def recips_of(nu_lowers):
    return [1.0 / v if v > 0 else 0.0 for v in nu_lowers]


class TestAllocate:
    def test_fits_budget_easiest_first(self):
        assert allocate(recips_of([0.4, 0.6])).m == (0.4, 0.6)

    def test_tie_breaks_to_lowest_index(self):
        m = allocate(recips_of([0.7, 0.7])).m
        assert m[0] == 0.7
        assert m[1] == pytest.approx(0.3)

    def test_greedy_hand_trace(self):
        # job 2 is believed easiest: gets 0.5, job 1 takes the remainder
        assert allocate(recips_of([2.0, 0.5])).m == (0.5, 0.5)

    def test_excluded_jobs_get_nothing(self):
        m = allocate([0.0, 2.0, 0.0]).m
        assert m == (0.0, 0.5, 0.0)

    def test_budget_exhausts(self):
        m = allocate(recips_of([0.9, 0.8, 0.7])).m
        assert m == (0.0, pytest.approx(0.3), 0.7)
        assert sum(m) <= 1.0 + 1e-9

    @given(
        st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5),
        st.lists(st.floats(3.001, 10.0), min_size=1, max_size=3),
    )
    def test_prefix_stable_under_appended_harder_jobs(self, base, extra):
        first = allocate(recips_of(base)).m
        second = allocate(recips_of(base + extra)).m
        for k in range(len(base)):
            assert second[k] == first[k]

    @given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6))
    def test_never_exceeds_bound_or_budget(self, nu_lowers):
        m = allocate(recips_of(nu_lowers)).m
        assert sum(m) <= 1.0 + 1e-9
        for mk, bound in zip(m, nu_lowers):
            assert mk <= bound + 1e-15


class TestFillOrder:
    """``_allocate_raw`` over a sorted fill order of (nu_lower, k)."""

    def test_no_budget_fills_nothing(self):
        order = [(0.2, 1), (0.5, 0)]
        assert _allocate_raw(order, 0.0) == []
        assert _allocate_raw(order, -0.25) == []

    def test_spent_budget_reaches_no_further_job(self):
        # the second job takes exactly what is left; the remaining budget
        # is then 0 and the third job gets no (k, 0.0) entry
        assert _allocate_raw([(0.5, 2), (0.5, 0), (0.5, 1)], 1.0) == [(2, 0.5), (0, 0.5)]
        fill = _allocate_raw([(0.3, 2), (0.5, 0), (0.9, 1), (1.5, 3)], 1.0)
        assert [k for k, _ in fill] == [2, 0, 1]
        assert fill[2][1] == pytest.approx(0.2)
        assert sum(take for _, take in fill) <= 1.0

    def test_ties_break_toward_lower_index(self):
        order = sorted([(0.7, 3), (0.7, 1)])
        fill = _allocate_raw(order, 1.0)
        assert fill[0] == (1, 0.7)
        assert fill[1][0] == 3 and fill[1][1] == pytest.approx(0.3)

    def test_order_running_out_leaves_budget_unused(self):
        assert _allocate_raw([(0.2, 0), (0.3, 1)], 1.0) == [(0, 0.2), (1, 0.3)]
        assert _allocate_raw([], 1.0) == []

    @given(
        st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=8),
        st.floats(1e-3, 2.0),
    )
    def test_takes_are_a_prefix_within_bounds(self, nu_lowers, budget):
        order = sorted((v, k) for k, v in enumerate(nu_lowers))
        fill = _allocate_raw(order, budget)
        assert [k for k, _ in fill] == [k for _, k in order[: len(fill)]]
        for (k, take), (nu_low, _) in zip(fill, order):
            assert 0.0 < take <= nu_low
        assert sum(take for _, take in fill) <= budget * (1 + 1e-12)


class TestRunEpisode:
    def test_known_difficulty_has_zero_regret(self):
        inst = ProblemInstance((0.5,), 300, 3)
        trace = run_episode(inst, [0.5])
        assert np.all(trace.allocations == 0.5)
        assert np.all(trace.observations == 1)
        assert np.all(np.abs(trace.regrets) <= 1e-12)

    def test_deterministic_given_seed(self):
        inst = ProblemInstance((0.4, 0.6), 500, 11)
        opts = PolicyOptions(record="intervals", seed=4)
        a = run_episode(inst, [0.2, 0.3], opts)
        b = run_episode(inst, [0.2, 0.3], opts)
        assert np.array_equal(a.allocations, b.allocations)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.cum_regrets, b.cum_regrets)
        assert np.array_equal(a.lower_recips, b.lower_recips)

    def test_matches_step_by_step_reference_loop(self):
        # the runner's blocked uniform draws must consume the stream
        # exactly like per-step sampling (2050 steps spans block refills)
        inst = ProblemInstance((0.4, 0.6), 2050, 21)
        opts = PolicyOptions(seed=9)
        trace = run_episode(inst, [0.2, 0.3], opts)

        rng = split_rng(inst.base_seed, opts.seed)
        delta = default_delta(inst.horizon, inst.num_jobs)
        states = [EstimatorState(lb, delta) for lb in (0.2, 0.3)]
        rho_star = optimal_profile(inst)
        for t in range(inst.horizon):
            m = allocate([s.lower_recip for s in states]).m
            obs = sample_step(inst, m, rng)
            assert np.array_equal(trace.allocations[t], m)
            assert tuple(trace.observations[t]) == obs.x
            for k in range(2):
                if m[k] > 0:
                    states[k].update(m[k], obs.x[k])
            assert trace.regrets[t] == instantaneous_regret(rho_star, m, inst)

    def test_allocation_never_exceeds_lower_bound(self):
        inst = ProblemInstance((0.4, 0.6, 2.5), 400, 8)
        trace = run_episode(inst, [0.1, 0.2, 0.5], PolicyOptions(record="intervals"))
        lower_prev = np.array([1 / 0.1, 1 / 0.2, 1 / 0.5])
        for t in range(inst.horizon):
            nu_lower_prev = 1.0 / lower_prev
            assert np.all(trace.allocations[t] <= nu_lower_prev * (1 + 1e-12))
            lower_prev = trace.lower_recips[t]

    def test_full_allocation_count_dominates_ell(self):
        # on runs whose intervals stay valid, at least ell jobs are fully
        # allocated at every step; the replayed T_k(t) counts those steps
        inst = ProblemInstance((0.3, 0.5, 0.9), 500, 5)
        _, ell = optimal_fill(inst)
        options = PolicyOptions(record="intervals")
        trace = run_episode(inst, [0.15, 0.25, 0.45], options)
        recips = np.asarray(inst.recips)
        assert np.all(trace.lower_recips >= recips - 1e-12)  # coverage held
        nu_lower_prev = np.array([0.15, 0.25, 0.45])
        counts = np.zeros(3, dtype=int)
        for t in range(inst.horizon):
            full = np.abs(trace.allocations[t] - nu_lower_prev) <= 1e-12 * nu_lower_prev
            assert np.sum(full) >= ell
            counts += full
            nu_lower_prev = 1.0 / trace.lower_recips[t]
        replayed = replay(trace, options, [0.15, 0.25, 0.45])
        assert [s.full_alloc_steps for s in replayed] == counts.tolist()

    def test_cumulative_regret_non_decreasing(self):
        inst = ProblemInstance((0.4, 0.6), 300, 2)
        trace = run_episode(inst, [0.2, 0.3])
        assert np.all(np.diff(trace.cum_regrets) >= -1e-12)
        assert len(trace.regrets) == inst.horizon

    def test_bad_inputs(self):
        inst = ProblemInstance((0.4, 0.6), 10, 0)
        with pytest.raises(ValueError):
            run_episode(inst, [0.2])
        with pytest.raises(ValueError):
            run_episode(inst, [0.2, 0.0])
        # 1/1e-320 is inf, so the fill would give the job nothing.
        with pytest.raises(ValueError, match=r"initial_lower_bounds\[0\] must be positive and finite"):
            run_episode(inst, [1e-320, 0.3])
        with pytest.raises(ValueError):
            PolicyOptions(mode="other")
        with pytest.raises(ValueError):
            PolicyOptions(delta_override=1.5)

    def test_delta_override_domain(self):
        # The one check of delta: the estimator and confidence_radius_f trust it.
        for delta in (0.0, 1.0, math.nan):
            message = f"delta_override must lie in (0, 1), got {delta}"
            with pytest.raises(ValueError, match=re.escape(message)):
                PolicyOptions(delta_override=delta)

    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "seed must be an integer, got True"),
            ("3", "seed must be an integer, got '3'"),
            (2.5, "seed must be an integer, got 2.5"),
            (-1, "seed must lie in [0, 2**64), got -1"),
            (2**64, f"seed must lie in [0, 2**64), got {2**64}"),
        ],
        ids=["bool", "str", "fraction", "negative", "2**64"],
    )
    def test_seed_domain(self, seed, message):
        # Checked where it enters, with the field named, not in split_rng.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PolicyOptions(seed=seed)

    def test_whole_float_seed_stored_as_int(self):
        options = PolicyOptions(seed=3.0)
        assert type(options.seed) is int and options.seed == 3
        trace = run_episode(ProblemInstance((0.4, 0.6), 5, 0), (0.2, 0.3), options)
        assert trace.metadata == run_episode(
            ProblemInstance((0.4, 0.6), 5, 0), (0.2, 0.3), PolicyOptions(seed=3)
        ).metadata

    @pytest.mark.parametrize(
        "bounds", [(0.2, None), (0.2, "x"), 0.2, "0.2,0.3", ["0.2", 0.3], [0.2, True]]
    )
    def test_non_numeric_lower_bounds_rejected(self, bounds):
        inst = ProblemInstance((0.4, 0.6), 10, 0)
        with pytest.raises(ValueError, match="initial_lower_bounds must be a list of numbers"):
            run_episode(inst, bounds)

    def test_metadata_records_the_bounds_and_no_probes(self):
        # Only what the episode decided: the inputs stay with the caller.
        trace = run_episode(ProblemInstance((0.4, 0.6), 10, 0), np.array([0.2, 0.3]))
        assert trace.metadata == {"delta": default_delta(10, 2)}

    @pytest.mark.parametrize("mode", ["weighted", "unweighted"])
    def test_one_job_one_step_runs(self, mode):
        # n K = 1 would give delta = 1, outside (0, 1); the level is floored
        assert 0.0 < default_delta(1, 1) < 1.0
        assert default_delta(1, 2) == 0.25
        options = PolicyOptions(mode=mode)
        for seed in range(20):
            for nu, lb in ((0.5, 0.25), (5.0, 1.0)):
                inst = ProblemInstance((nu,), 1, seed)
                for trace in (run_episode(inst, [lb], options), run_modified(inst, options)):
                    assert trace.metadata["delta"] == 0.25
                    assert len(trace.regrets) == 1

    def test_sublinear_regret_monte_carlo(self):
        inst_template = (0.4, 0.6)
        n = 20_000
        finals = []
        for rep in range(10):
            inst = ProblemInstance(inst_template, n, 77)
            finals.append(run_episode(inst, [0.2, 0.3], PolicyOptions(seed=rep)).final_regret)
        mean = float(np.mean(finals))
        assert mean / n < 0.25  # far below linear growth
        assert mean / math.log(n) ** 2 < 200


class TestTraceCsv:
    def test_rows_and_round_trip(self, tmp_path):
        inst = ProblemInstance((0.4, 0.6), 25, 1)
        trace = run_episode(inst, [0.2, 0.3], PolicyOptions(record="intervals"))
        path = tmp_path / "trace.csv"
        trace.to_csv(str(path))
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 25
        assert list(rows[0]) == [
            "t", "M_1", "M_2", "X_1", "X_2", "r_t", "cumregret", "L_1", "L_2", "U_1", "U_2",
        ]
        for t, row in enumerate(rows):
            assert int(row["t"]) == t + 1
            assert float(row["M_1"]) == trace.allocations[t, 0]
            assert float(row["cumregret"]) == trace.cum_regrets[t]

    def test_reemission_byte_identical(self, tmp_path):
        inst = ProblemInstance((0.4, 0.6), 40, 9)
        trace = run_episode(inst, [0.2, 0.3])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.to_csv(str(p1))
        trace.to_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        assert b"\r" not in p1.read_bytes()
