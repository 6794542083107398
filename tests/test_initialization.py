import math

import numpy as np
import pytest

from alloc_bandit.allocator import PolicyOptions
from alloc_bandit.initialization import (
    MAX_HALVING_STEPS,
    halving_init,
    run_modified,
    sample_eta,
)
from alloc_bandit.model import ProblemInstance, optimal_profile, split_rng


class ScriptedRng:
    """Minimal stand-in for a Generator: plays back scripted uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestHalvingInit:
    def test_forced_outcome_sequence(self):
        # successes need u < p; with nu = 0.3 steps 1..2 give p >= 0.25/0.3
        rng = ScriptedRng([0.0, 0.0, 0.99])
        record = halving_init(0.3, rng)
        assert record.steps_used == 3
        assert record.nu_lower0 == 0.125
        assert record.consumption == (0.5, 0.25, 0.125)
        assert not record.capped

    def test_unbounded_difficulty_stops_immediately(self):
        record = halving_init(None, split_rng(0))
        assert record.steps_used == 1
        assert record.nu_lower0 == 0.5

    def test_stop_time_distribution(self):
        # p_t = (1 - beta(2^-t / nu)) * prod_{s<t} beta(2^-s / nu)
        nu = 0.3
        rng = split_rng(314)
        stops = np.array([halving_init(nu, rng).steps_used for _ in range(20_000)])
        assert np.all(stops >= 2)  # t=1 cannot fail: 0.5 >= nu
        p2 = 1 - 0.25 / 0.3
        p3 = (0.25 / 0.3) * (1 - 0.125 / 0.3)
        for t, p in ((2, p2), (3, p3)):
            phat = float(np.mean(stops == t))
            se = math.sqrt(p * (1 - p) / len(stops))
            assert abs(phat - p) < 4 * se + 1e-9

    def test_lower_bound_always_below_truth(self):
        rng = split_rng(9)
        for nu in (0.05, 0.3, 0.7, 1.5, 5.0):
            for _ in range(2000):
                record = halving_init(nu, rng)
                assert record.nu_lower0 < nu

    def test_iteration_cap(self):
        record = halving_init(1e-30, split_rng(0))
        assert record.capped
        assert record.steps_used == MAX_HALVING_STEPS
        assert record.nu_lower0 == 2.0**-64
        assert len(record.consumption) == 64

    def test_mean_eta_bounded(self):
        rng = split_rng(77)
        for nu in (0.3, 1.5):
            etas = np.array(
                [sample_eta(nu, halving_init(nu, rng).nu_lower0) for _ in range(20_000)]
            )
            se = float(etas.std(ddof=1) / math.sqrt(len(etas)))
            assert float(etas.mean()) <= 4.0 + 3 * se

    def test_duration_grows_affinely_in_log_difficulty(self):
        rng = split_rng(123)
        js = np.arange(1, 11)
        means = []
        for j in js:
            nu = 2.0 ** -int(j)
            means.append(np.mean([halving_init(nu, rng).steps_used for _ in range(2000)]))
        corr = np.corrcoef(js, means)[0, 1]
        assert corr > 0.99

    def test_invalid_difficulty(self):
        with pytest.raises(ValueError):
            halving_init(0.0, split_rng(0))


class TestSampleEta:
    def test_trivial_values(self):
        assert sample_eta(0.5, 0.125) == 4.0
        assert sample_eta(1.5, 0.5) == 2.0
        assert sample_eta(None, 0.5) == 2.0

    def test_requires_positive_bound(self):
        with pytest.raises(ValueError):
            sample_eta(0.5, 0.0)


def probe_consumption_by_step(trace):
    """Reconstruct per-step, per-job probe consumption from InitRecords."""
    n, K = trace.allocations.shape
    consumption = np.zeros((n, K))
    for rec in trace.metadata["init_records"]:
        k = rec["job"]
        for local, amount in enumerate(rec["consumption"], start=1):
            t = k + local  # job k's probe starts at global step k+1 (1-based)
            if t <= n:
                consumption[t - 1, k] = amount
    return consumption


class TestRunModified:
    def test_first_step_is_probe_only(self):
        inst = ProblemInstance((1.5, 2.0, 1.0), 50, 3)
        trace = run_modified(inst)
        assert trace.allocations[0].tolist() == [0.5, 0.0, 0.0]

    def test_probe_schedule_and_offsets(self):
        inst = ProblemInstance((0.4, 0.6), 3000, 17)
        trace = run_modified(inst)
        records = trace.metadata["init_records"]
        assert len(records) == 2
        for rec in records:
            assert rec["consumption"] == [2.0**-t for t in range(1, rec["steps_used"] + 1)]
            assert rec["nu_lower0"] == rec["consumption"][-1]
            assert rec["nu_lower0"] < inst.nus[rec["job"]]
        # during its probe a job receives exactly the scheduled amount
        for rec in records:
            k = rec["job"]
            for local in range(1, rec["steps_used"] + 1):
                assert trace.allocations[k + local - 1, k] == 2.0**-local

    def test_budget_never_exceeded(self):
        for seed in range(5):
            inst = ProblemInstance((0.4, 0.9, 2.0), 400, seed)
            trace = run_modified(inst)
            totals = trace.allocations.sum(axis=1)
            assert np.all(totals <= 1.0 + 1e-9)

    def test_full_budget_available_after_probes_finish(self):
        inst = ProblemInstance((0.4, 0.9), 3000, 5)
        trace = run_modified(inst)
        records = trace.metadata["init_records"]
        assert len(records) == 2
        last_probe_step = max(r["job"] + r["steps_used"] for r in records)
        consumption = probe_consumption_by_step(trace)
        assert np.all(consumption[last_probe_step:] == 0.0)
        # once the optimistic bounds sum past the budget, all of it is spent
        assert trace.allocations[-1].sum() == pytest.approx(1.0, abs=1e-9)

    def test_estimators_see_only_policy_allocations(self):
        inst = ProblemInstance((0.4, 0.6), 500, 21)
        trace = run_modified(inst)
        consumption = probe_consumption_by_step(trace)
        main = trace.allocations - consumption
        for k, state in enumerate(trace.estimators):
            expected_updates = int(np.count_nonzero(main[:, k] > 0))
            assert state.t == expected_updates
            assert state.sum_wm <= main[:, k].sum() * state.r_max + 1e-9

    def test_regret_charged_against_true_optimum_from_step_one(self):
        inst = ProblemInstance((0.4, 0.6), 100, 2)
        profile = optimal_profile(inst)
        trace = run_modified(inst)
        recips = np.asarray(inst.recips)
        expected = profile.rho_star - np.minimum(1.0, trace.allocations * recips).sum(axis=1)
        assert np.allclose(trace.regrets, expected, atol=1e-12)
        assert trace.regrets[0] == pytest.approx(profile.rho_star - min(1.0, 0.5 / 0.4))

    def test_deterministic(self):
        inst = ProblemInstance((0.4, 0.6), 800, 33)
        opts = PolicyOptions(seed=2, record_intervals=True)
        a = run_modified(inst, opts)
        b = run_modified(inst, opts)
        assert np.array_equal(a.allocations, b.allocations)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.lower_recips, b.lower_recips)
        assert a.metadata["init_records"] == b.metadata["init_records"]

    def test_short_horizon_leaves_probes_unfinished(self):
        inst = ProblemInstance((None, 0.5), 1, 0)
        trace = run_modified(inst)
        assert trace.allocations[0].tolist() == [0.5, 0.0]
        # unbounded job's probe fails immediately and returns a bound
        assert [r["job"] for r in trace.metadata["init_records"]] == [0]
