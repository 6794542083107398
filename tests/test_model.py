import hashlib
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alloc_bandit.model import ProblemInstance, optimal_profile, split_rng
from reference import (
    Allocation,
    brute_force_optimal,
    instantaneous_regret,
    sample_step,
)

nus_lists = st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4)


def make_instance(nus, horizon=10, seed=0):
    return ProblemInstance(tuple(nus), horizon, seed)


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_instance([])
        with pytest.raises(ValueError):
            make_instance([-1.0])
        with pytest.raises(ValueError):
            make_instance([0.0])
        with pytest.raises(ValueError):
            ProblemInstance((0.5,), 0)

    @pytest.mark.parametrize("horizon", [99.7, True, "3", None, float("inf")])
    def test_horizon_must_be_an_integer(self, horizon):
        with pytest.raises(ValueError, match=f"horizon must be an integer, got {horizon!r}"):
            ProblemInstance((0.4,), horizon)

    def test_whole_float_horizon_and_seed_convert(self):
        inst = ProblemInstance((0.4,), 4.0, 7.0)
        assert (inst.horizon, inst.base_seed) == (4, 7)
        assert type(inst.horizon) is int and type(inst.base_seed) is int
        assert inst.to_json() == ProblemInstance((0.4,), 4, 7).to_json()

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "0"])
    def test_base_seed_range(self, seed):
        with pytest.raises(ValueError, match="base_seed must"):
            ProblemInstance((0.4,), 10, seed)
        assert ProblemInstance((0.4,), 10, 2**64 - 1).base_seed == 2**64 - 1

    @pytest.mark.parametrize("nu", [
        -0.4, 0.0, float("inf"), float("nan"), "0.4", True, 5e-324,
        pytest.param(10**400, id="10**400"),
    ])
    def test_bad_difficulty_named_by_index(self, nu):
        with pytest.raises(ValueError, match=rf"nus\[1\] must be positive and finite"):
            ProblemInstance((0.4, nu, 0.6), 10)

    def test_unbounded_reciprocal_zero(self):
        inst = make_instance([0.5, None])
        assert inst.recips == (2.0, 0.0)

    def test_json_round_trip(self):
        inst = ProblemInstance((0.4, None, 2.0), 1000, 12345)
        again = ProblemInstance.from_json(inst.to_json())
        assert again == inst
        doc = json.loads(inst.to_json())
        assert doc == {"nus": [0.4, None, 2.0], "horizon": 1000, "seed": 12345}

    def test_json_digest_bytes_unchanged(self):
        inst = ProblemInstance((0.4, None, 2.0), 1000, 12345)
        assert inst.to_json() == '{"nus": [0.4, null, 2.0], "horizon": 1000, "seed": 12345}'
        assert ProblemInstance.from_json('{"nus": [0.4], "horizon": 5}').base_seed == 0

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"nus": [0.4, 0.6], "horizon": 99, "seed": 2, "horizn": 5}, "unknown instance key 'horizn'"),
            ({"nus": [0.4, 0.6], "seed": 2}, "instance is missing required key 'horizon'"),
            ({"horizon": 99}, "instance is missing required key 'nus'"),
            ({"nus": [0.4, 0.6], "horizon": 99.7}, "horizon must be an integer, got 99.7"),
            ({"nus": [0.4, 0.6], "horizon": 99, "seed": 2.9}, "base_seed must be an integer, got 2.9"),
            ({"nus": [0.4, 0.6], "horizon": 99, "seed": -1}, "base_seed must lie in [0, 2**64), got -1"),
            ({"nus": 0.4, "horizon": 99}, "nus must be a list of difficulties, got 0.4"),
            ([0.4, 0.6], "instance must be a JSON object"),
        ],
    )
    def test_from_json_rejects_bad_documents(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ProblemInstance.from_json(json.dumps(doc))


def profile_cases(count):
    """Instances for the optimal_profile digest, drawn from split_rng(7) at
    K in {1, 2, 3, 8, 32}: generic difficulties, exact ties, 1-ulp near-ties,
    pairs that sum to the budget exactly or within an ulp of it, integer
    difficulties and unbounded jobs."""
    rng = split_rng(7)
    exact = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
    for i in range(count):
        K = int(rng.choice((1, 2, 3, 8, 32)))
        nus = [float(v) for v in rng.uniform(0.01, 1.5, K)]
        kind = i % 6
        if kind == 1:
            pool = [float(v) for v in rng.uniform(0.05, 1.2, 2)]
            nus = [pool[j] for j in rng.integers(0, 2, K)]
        elif kind == 2:
            base = float(rng.uniform(0.05, 0.7))
            near = (math.nextafter(base, 0.0), base, math.nextafter(base, 2.0))
            nus = [near[j] for j in rng.integers(0, 3, K)]
        elif kind == 3:
            nus = [exact[j] for j in rng.integers(0, len(exact), K)]
        elif kind == 4:
            nus = [int(v) for v in rng.integers(1, 4, K)]
            if K > 1:
                nus[0] = float(rng.uniform(0.05, 0.95))
                nus[1] = [math.nextafter(1.0 - nus[0], 0.0), 1.0 - nus[0],
                          math.nextafter(1.0 - nus[0], 2.0)][int(rng.integers(0, 3))]
        elif kind == 5:
            nus = [None if u < 0.3 else nu for u, nu in zip(rng.random(K), nus)]
        yield ProblemInstance(tuple(nus), 10)


class TestOptimalProfile:
    def test_budget_covers_all(self):
        prof = optimal_profile(make_instance([0.4, 0.6]))
        assert prof.m_star == (0.4, 0.6)
        assert prof.ell == 2
        assert prof.rho_star == 2.0

    def test_single_over_budget_job(self):
        prof = optimal_profile(make_instance([2.0]))
        assert prof.m_star == (1.0,)
        assert prof.ell == 0
        assert prof.rho_star == pytest.approx(0.5)

    def test_three_jobs_with_overflow(self):
        inst = make_instance([0.4, 0.9, 2.0])
        prof = optimal_profile(inst)
        assert prof.m_star == (0.4, 0.6, 0.0)
        assert prof.ell == 1
        assert prof.rho_star == pytest.approx(1.0 + 0.6 / 0.9)
        # cross-check the closed form against the grid-search oracle
        _, reward = brute_force_optimal(inst, 0.001)
        assert abs(prof.rho_star - reward) <= 3 * 0.001 / min(0.4, 1.0)

    def test_unsorted_input(self):
        prof = optimal_profile(make_instance([0.9, 0.4, 2.0]))
        assert prof.m_star == (0.6, 0.4, 0.0)
        assert prof.ell == 1

    def test_unbounded_job_gets_leftover_but_no_reward(self):
        prof = optimal_profile(make_instance([0.4, None]))
        assert prof.m_star == (0.4, 0.6)
        assert prof.ell == 1
        assert prof.rho_star == 1.0

    @given(nus_lists)
    def test_budget_exhausted_whenever_useful(self, nus):
        prof = optimal_profile(make_instance(nus))
        total = sum(prof.m_star)
        assert total <= 1.0 + 1e-9
        ell = prof.ell
        ordered = sorted(nus)
        if ell < len(nus) and sum(ordered[:ell]) < 1.0:
            assert total == pytest.approx(1.0, abs=1e-9)

    @given(nus_lists, st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, nus, rand):
        # ties make the assignment among equal jobs order-dependent
        if len(set(nus)) != len(nus):
            return
        perm = list(range(len(nus)))
        rand.shuffle(perm)
        base = optimal_profile(make_instance(nus))
        shuffled = optimal_profile(make_instance([nus[p] for p in perm]))
        assert shuffled.ell == base.ell
        assert shuffled.rho_star == pytest.approx(base.rho_star, abs=1e-12)
        for i, p in enumerate(perm):
            assert shuffled.m_star[i] == pytest.approx(base.m_star[p], abs=1e-12)

    def test_digest_over_random_instances(self):
        # Pins every field bit for bit, so a rewrite of the fill must give
        # the same allocation, tie-breaking and rounding on all of them.
        h = hashlib.sha256()
        for inst in profile_cases(2000):
            prof = optimal_profile(inst)
            fields = [",".join(map(float.hex, prof.m_star)), float.hex(prof.rho_star), str(prof.ell)]
            h.update(("|".join(fields) + "\n").encode())
        assert h.hexdigest() == "f67486270b64658862c002e32d5d187e3a101be05044920f80e41d8e9c610879"


class TestBruteForce:
    def test_matches_closed_form_two_jobs(self):
        alloc, reward = brute_force_optimal(make_instance([0.4, 0.6]), 0.01)
        assert reward == pytest.approx(2.0, abs=1e-9)
        assert alloc.m[0] == pytest.approx(0.4, abs=1e-9)

    def test_single_job(self):
        alloc, reward = brute_force_optimal(make_instance([2.0]), 0.01)
        assert alloc.m == (pytest.approx(1.0),)
        assert reward == pytest.approx(0.5, abs=1e-9)

    def test_refuses_large_k(self):
        with pytest.raises(ValueError):
            brute_force_optimal(make_instance([1.0] * 5), 0.01)
        with pytest.raises(ValueError):
            brute_force_optimal(make_instance([1.0]), 0.2)

    def test_four_jobs_runs(self):
        inst = make_instance([0.3, 0.5, 0.9, 1.5])
        prof = optimal_profile(inst)
        _, reward = brute_force_optimal(inst, 0.05)
        assert abs(prof.rho_star - reward) <= 4 * 0.05 / min(0.3, 1.0)


class TestSampleStep:
    def test_deterministic_outcomes(self):
        inst = make_instance([0.5, 0.5])
        rng = split_rng(0)
        obs = sample_step(inst, Allocation((0.0, 0.5)), rng)
        assert obs.x[0] == 0  # zero allocation never succeeds
        assert obs.x[1] == 1  # full allocation always succeeds

    def test_consumes_k_draws_in_index_order(self):
        inst = make_instance([0.5, 0.8, None])
        a = split_rng(7)
        b = split_rng(7)
        obs = sample_step(inst, Allocation((0.2, 0.3, 0.5)), a)
        u = b.random(3)
        expected = tuple(int(u[k] < (0.2, 0.3, 0.5)[k] * inst.recips[k]) for k in range(3))
        assert obs.x == expected

    def test_fixed_seed_reproducible(self):
        inst = make_instance([0.3, 0.9])
        runs = []
        for _ in range(2):
            rng = split_rng(99, 5)
            runs.append([sample_step(inst, Allocation((0.2, 0.4)), rng).x for _ in range(50)])
        assert runs[0] == runs[1]

    def test_monte_carlo_matches_success_probability(self):
        inst = ProblemInstance((0.5,), 10, 0)
        rng = split_rng(2024)
        alloc = Allocation((0.25,))
        n = 10**6
        hits = sum(sample_step(inst, alloc, rng).x[0] for _ in range(n))
        assert abs(hits / n - 0.5) < 0.002

    def test_budget_violation_rejected(self):
        inst = make_instance([0.5, 0.5])
        with pytest.raises(ValueError):
            sample_step(inst, (0.9, 0.9), split_rng(0))


class TestRegret:
    def test_optimal_allocation_has_zero_regret(self):
        inst = make_instance([0.4, 0.6])
        prof = optimal_profile(inst)
        assert instantaneous_regret(prof, prof.m_star, inst) == pytest.approx(0.0, abs=1e-12)

    def test_forced_arithmetic(self):
        inst = make_instance([0.4, 0.6])
        prof = optimal_profile(inst)
        r = instantaneous_regret(prof, (0.4, 0.4), inst)
        assert r == pytest.approx(2.0 - (1.0 + 0.4 / 0.6), rel=1e-12)

    def test_empty_allocation(self):
        inst = make_instance([2.0])
        prof = optimal_profile(inst)
        assert instantaneous_regret(prof, (0.0,), inst) == pytest.approx(0.5)

    @given(nus_lists, st.data())
    def test_never_negative(self, nus, data):
        inst = make_instance(nus)
        prof = optimal_profile(inst)
        raw = data.draw(
            st.lists(
                st.floats(0.0, 1.0),
                min_size=len(nus),
                max_size=len(nus),
            )
        )
        total = sum(raw)
        m = [v / total for v in raw] if total > 1.0 else raw
        assert instantaneous_regret(prof, m, inst) >= -1e-12
