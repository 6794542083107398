"""End-to-end acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and
prints one PASS/FAIL line. Quantitative bands on the experiment
reproductions are intentionally loose: the self-initializing algorithm's
regret varies with the random initial bounds, so only orderings, ratios
and wide brackets are pinned.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from alloc_bandit.allocator import PolicyOptions, run_episode
from alloc_bandit.harness import (
    ArmSpec,
    ExperimentConfig,
    minimax_stress,
    run_experiment,
)
from alloc_bandit.initialization import halving_init, run_modified
from alloc_bandit.model import ProblemInstance, optimal_profile, split_rng
from reference import bootstrap_ci, brute_force_optimal, kernel_slots, replay

# Most of the suite's wall time; `pytest -m "not slow"` leaves this module out.
pytestmark = pytest.mark.slow

RTOL = 1e-9


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: closed-form optimal allocation vs grid-search oracle


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    rng = split_rng(10001)
    grid_step = 0.005
    max_err = 0.0
    for i in range(200):
        K = int(rng.integers(1, 4))
        nus = tuple(float(v) for v in rng.uniform(0.05, 5.0, size=K))
        inst = ProblemInstance(nus, 10, 0)
        _, oracle_reward = brute_force_optimal(inst, grid_step)
        reward = optimal_profile(inst)
        bound = K * grid_step / min(min(nus), 1.0)
        err = abs(reward - oracle_reward)
        max_err = max(max_err, err)
        assert err <= bound, f"instance {i}: {nus} err={err} bound={bound}"
        assert reward >= oracle_reward - 1e-12  # closed form can only win
    elapsed = time.monotonic() - started
    report(
        1,
        elapsed < 60.0,
        f"200 instances, max |closed-form - grid| = {max_err:.3e}, {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------------------
# criteria 2 and 3 share one batch of coverage runs per confidence level

COV_NU = 0.7
COV_LOWER0 = 0.3
COV_N = 500
COV_REPS = 2000
COV_ALPHAS = (0.1, 0.3)


def run_coverage_batch(delta: float) -> dict:
    """Coverage exits plus per-step width/weight checks for one delta."""
    eta = min(1.0, COV_NU) / COV_LOWER0
    delta_tilde = delta / (48 * eta**4 * float(COV_N) ** 6)
    c1 = 27 * math.log(2 / delta_tilde)
    c2 = 6 * math.log(2 / delta_tilde)
    recip_true = 1.0 / COV_NU
    tvec = np.arange(1, COV_N + 1)

    exits = 0
    violations = []
    inst = ProblemInstance((COV_NU,), COV_N, 20001)
    options_base = dict(delta_override=delta, record="intervals")
    for rep in range(COV_REPS):
        options = PolicyOptions(seed=rep, **options_base)
        trace = run_episode(inst, [COV_LOWER0], options)
        L = np.concatenate(([1.0 / COV_LOWER0], trace.lower_recips[:, 0]))
        U = np.concatenate(([0.0], trace.upper_recips[:, 0]))
        M = trace.allocations[:, 0]
        if np.any(L < recip_true) or np.any(U > recip_true):
            exits += 1
            continue  # width guarantees assume the interval stayed valid

        eps_prev = (L - U)[:-1]
        eps_post = (L - U)[1:]
        w = 1.0 / (1.0 - M * U[:-1])
        r_running = np.maximum.accumulate(w)
        nu_lower_prev = 1.0 / L[:-1]
        full = np.abs(M - nu_lower_prev) <= 1e-12 * nu_lower_prev
        t_count = np.cumsum(full)

        checks = {
            # w_t M_t <= 1/eps_{t-1}, with equality on fully allocated steps
            "weighted_mass_cap": np.all(w * M <= (1 + RTOL) / eps_prev),
            "weighted_mass_tight_when_full": np.all(
                np.abs(w[full] * M[full] * eps_prev[full] - 1.0) <= 1e-9
            ),
            # 1 <= R_t <= 1/(nu_lower0 eps_{t-1})
            "weight_range": np.all(r_running >= 1.0 - 1e-12)
            and np.all(r_running <= (1 + RTOL) / (COV_LOWER0 * eps_prev)),
            # eps_t >= 1/(t min(1, nu))
            "width_floor": np.all(
                eps_post >= (1 - RTOL) / (tvec * min(1.0, COV_NU))
            ),
            # 1 - nu_lower_t / nu <= nu_lower_t eps_t
            "lower_bound_gap": np.all(
                1.0 - (1.0 / L[1:]) / COV_NU <= (1.0 / L[1:]) * eps_post + 1e-12
            ),
            # eps_t <= c1 / (nu_lower0 (T(t)+1))
            "fast_width": np.all(
                eps_post <= (1 + RTOL) * c1 / (COV_LOWER0 * (t_count + 1))
            ),
        }
        for alpha in COV_ALPHAS:
            u_count = np.cumsum(M >= alpha)
            mask = u_count >= 1
            checks[f"slow_width_{alpha}"] = np.all(
                eps_post[mask]
                <= (1 + RTOL) * np.sqrt(c2 / (alpha * COV_LOWER0 * u_count[mask]))
            )
        # the estimator must equal its replay from the trace, and the
        # replay's full-allocation count must agree with the trace
        oracle = replay(trace, options, [COV_LOWER0])[0]
        checks["replay"] = kernel_slots(trace.estimators[0]) == kernel_slots(oracle) and (
            oracle.full_alloc_steps == int(t_count[-1])
        )
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            violations.append((rep, bad))
    return {"exits": exits, "violations": violations}


@pytest.fixture(scope="module")
def coverage_batches():
    started = time.monotonic()
    batches = {delta: run_coverage_batch(delta) for delta in (0.01, 1e-4)}
    batches["elapsed"] = time.monotonic() - started
    return batches


def test_criterion_2_confidence_coverage(coverage_batches):
    details = []
    ok = True
    for delta in (0.01, 1e-4):
        freq = coverage_batches[delta]["exits"] / COV_REPS
        bound = COV_N * delta + 3 * math.sqrt(COV_N * delta / COV_REPS)
        ok &= freq <= bound
        details.append(f"delta={delta:g}: exit_freq={freq:.4g} <= {bound:.4g}")
    elapsed = coverage_batches["elapsed"]
    ok &= elapsed < 120.0
    report(2, ok, "; ".join(details) + f" ({COV_REPS} reps each, {elapsed:.0f}s < 120s)")


def test_criterion_3_width_rate_invariants(coverage_batches):
    batches = [coverage_batches[delta] for delta in (0.01, 1e-4)]
    total_violations = sum(len(b["violations"]) for b in batches)
    valid_runs = sum(COV_REPS - b["exits"] for b in batches)
    sample = [v for b in batches for v in b["violations"]][:3]
    report(
        3,
        total_violations == 0,
        f"{valid_runs} coverage-valid runs x {COV_N} steps, "
        f"violations={total_violations}{' ' + repr(sample) if sample else ''}",
    )


# --------------------------------------------------------------------------
# criterion 4: regret / log^2 n plateau on the fully-coverable instance


def test_criterion_4_log_squared_plateau():
    started = time.monotonic()
    result = run_experiment(
        ExperimentConfig(
            experiment_id="horizon-plateau",
            nus=(0.4, 0.6),
            horizon=1,
            sweep="horizon",
            grid=(10**4, 10**5),
            replications=100,
            arms=(ArmSpec(name="weighted"),),
            base_seed=424242,
        )
    )
    normalized = {
        int(r.grid_value): r.mean_regret / math.log(r.grid_value) ** 2
        for r in result.rows
    }
    elapsed = time.monotonic() - started
    in_band = all(15.0 <= v <= 90.0 for v in normalized.values())
    spread = max(normalized.values()) / min(normalized.values()) - 1.0
    report(
        4,
        in_band and spread < 0.35 and elapsed < 600.0,
        f"R_n/log^2 n = {normalized} (band [15, 90]), spread={spread:.1%} < 35%, "
        f"{elapsed:.0f}s < 600s",
    )


# --------------------------------------------------------------------------
# criterion 5: regret drops once the second job stops being coverable


def test_criterion_5_critical_point_drop():
    result = run_experiment(
        ExperimentConfig(
            experiment_id="critical-point",
            nus=(0.4, 0.6),
            horizon=10**5,
            sweep="nu2",
            grid=(0.55, 0.95),
            replications=100,
            arms=(ArmSpec(name="weighted"),),
            base_seed=515151,
        )
    )
    below = result.finals[(0, "weighted")]
    above = result.finals[(1, "weighted")]
    ci_below = bootstrap_ci(below, seed=1)
    ci_above = bootstrap_ci(above, seed=2)
    ok = float(np.mean(above)) < float(np.mean(below)) and ci_above[1] < ci_below[0]
    report(
        5,
        ok,
        f"mean regret nu2=0.95: {np.mean(above):.0f} CI {tuple(round(v) for v in ci_above)} "
        f"< nu2=0.55: {np.mean(below):.0f} CI {tuple(round(v) for v in ci_below)}",
    )


# --------------------------------------------------------------------------
# criterion 6: the weighted estimator beats the unweighted baseline


def test_criterion_6_weighted_beats_unweighted():
    result = run_experiment(
        ExperimentConfig(
            experiment_id="estimator-comparison",
            nus=(0.4, 0.6),
            horizon=1,
            sweep="horizon",
            grid=(10**5,),
            replications=100,
            arms=(
                ArmSpec(name="weighted"),
                ArmSpec(name="unweighted", mode="unweighted"),
            ),
            base_seed=626262,
        )
    )
    weighted = result.finals[(0, "weighted")]
    unweighted = result.finals[(0, "unweighted")]
    ci_w = bootstrap_ci(weighted, seed=3)
    ci_u = bootstrap_ci(unweighted, seed=4)
    ratio = float(np.mean(weighted)) / float(np.mean(unweighted))
    ok = ratio <= 0.8 and ci_w[1] < ci_u[0]
    report(
        6,
        ok,
        f"mean regret weighted {np.mean(weighted):.0f} / unweighted "
        f"{np.mean(unweighted):.0f} = {ratio:.2f} <= 0.8, CIs "
        f"{tuple(round(v) for v in ci_w)} vs {tuple(round(v) for v in ci_u)}",
    )


# --------------------------------------------------------------------------
# criterion 7: regret decreases as the difficulty gap widens


def test_criterion_7_gap_dependence():
    result = run_experiment(
        ExperimentConfig(
            experiment_id="gap-sweep",
            nus=(2.0, 3.0),
            horizon=10**4,
            sweep="nu2",
            grid=(3.0, 10.0),
            replications=100,
            arms=(ArmSpec(name="weighted"),),
            base_seed=717171,
        )
    )
    narrow = float(np.mean(result.finals[(0, "weighted")]))
    wide = float(np.mean(result.finals[(1, "weighted")]))
    report(
        7,
        wide < narrow,
        f"mean regret nu2=10: {wide:.1f} < nu2=3: {narrow:.1f}",
    )


# --------------------------------------------------------------------------
# criterion 8: halving-probe looseness has mean at most 4


def test_criterion_8_expected_eta():
    reps = 10**5
    details = []
    ok = True
    for nu in (0.05, 0.1, 0.3, 0.7, 1.5, 5.0):
        rng = split_rng(808080, int(nu * 1000))
        etas = np.empty(reps)
        for rep in range(reps):
            steps_used, _ = halving_init(nu, rng)
            assert 2.0**-steps_used < nu
            etas[rep] = min(1.0, nu) * 2.0**steps_used
        mean = float(etas.mean())
        se = float(etas.std(ddof=1) / math.sqrt(reps))
        ok &= mean <= 4.0 + 3 * se
        details.append(f"nu={nu:g}: {mean:.3f}<= 4+3*{se:.4f}")
    # The same lemma for the step kernel's offset probes, all six jobs in
    # one self-initializing episode per seed: every probe finishes within
    # the horizon (job k's starts at step k+1, the guard stops it after 64).
    nus = (0.05, 0.1, 0.3, 0.7, 1.5, 5.0)
    instance = ProblemInstance(nus, 70, 808080)
    episodes = 10**4
    etas = np.empty((episodes, len(nus)))
    for seed in range(episodes):
        trace = run_modified(instance, PolicyOptions(record="final", seed=seed))
        records = trace.metadata["init_records"]
        assert [r["job"] for r in records] == list(range(len(nus)))
        for r in records:
            assert 2.0 ** -r["steps_used"] < nus[r["job"]]
            etas[seed, r["job"]] = min(1.0, nus[r["job"]]) * 2.0 ** r["steps_used"]
    kernel = []
    for k, nu in enumerate(nus):
        mean = float(etas[:, k].mean())
        se = float(etas[:, k].std(ddof=1) / math.sqrt(episodes))
        ok &= mean <= 4.0 + 3 * se
        kernel.append(f"nu={nu:g}: {mean:.3f}<= 4+3*{se:.4f}")
    report(8, ok, "; ".join(details) + " | kernel probes, K=6: " + "; ".join(kernel))


# --------------------------------------------------------------------------
# criterion 9: empirical worst case respects the universal lower bound


def test_criterion_9_minimax_consistency():
    lower = 1.0 / (16.0 * math.sqrt(2.0))
    ratios = {}
    ok = True
    for n in (10**3, 10**4):
        res = minimax_stress(n, 2, reps=100, base_seed=919191)
        ratios[n] = res.ratio
        ok &= res.ratio >= lower
    stability = max(ratios.values()) / min(ratios.values())
    ok &= stability <= 4.0
    report(
        9,
        ok,
        f"sup-regret / sqrt(nK): {ratios} >= {lower:.4f}, "
        f"cross-horizon factor {stability:.2f} <= 4",
    )


# --------------------------------------------------------------------------
# criterion 10: byte-identical CLI artifacts across runs and thread counts


def cli(*args, threads="1", cwd=None):
    env = dict(os.environ, ALLOC_BANDIT_THREADS=threads)
    return subprocess.run(
        [sys.executable, "-m", "alloc_bandit", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_criterion_10_cli_determinism(tmp_path):
    run_args = (
        "run", "--nus", "0.4,0.6", "--horizon", "2000", "--seed", "5",
        "--lower-bounds", "0.2,0.3",
    )
    traces = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        result = cli(*run_args, "--out", str(out))
        assert result.returncode == 0, result.stderr
        traces.append(out.read_bytes())

    config = tmp_path / "exp.json"
    config.write_text(
        json.dumps(
            {
                "experiment_id": "det",
                "nus": [0.4, 0.6],
                "sweep": "horizon",
                "grid": [500, 1000],
                "replications": 8,
                "base_seed": 31,
            }
        )
    )
    csvs = {}
    for threads in ("1", "4"):
        for attempt in ("a", "b"):
            out = tmp_path / f"exp_{threads}_{attempt}.csv"
            result = cli(
                "experiment", "--config", str(config), "--out", str(out),
                threads=threads,
            )
            assert result.returncode == 0, result.stderr
            csvs[(threads, attempt)] = out.read_bytes()

    minimax_args = ("minimax", "--horizon", "500", "--k", "4", "--reps", "6", "--seed", "3")
    minimax = set()
    for threads in ("1", "1", "4", "4"):
        result = cli(*minimax_args, threads=threads)
        assert result.returncode == 0, result.stderr
        minimax.add((result.stdout, result.stderr))

    ok = (
        traces[0] == traces[1]
        and len(set(csvs.values())) == 1
        and len(minimax) == 1
    )
    report(
        10,
        ok,
        "trace CSV identical across reruns; experiment CSV and minimax stdout and "
        "stderr identical across reruns and thread counts {1, 4}",
    )
