import json
import math
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from alloc_bandit import harness
from alloc_bandit.allocator import PolicyOptions, run_episode
from alloc_bandit.harness import (
    ArmSpec,
    ExperimentConfig,
    _stream_seed,
    emit_csv,
    minimax_stress,
    resolve_workers,
    run_experiment,
)
from alloc_bandit.model import optimal_profile
from reference import bootstrap_ci


def small_config(**overrides):
    base = dict(
        experiment_id="smoke",
        nus=(0.4, 0.6),
        horizon=200,
        sweep="nu2",
        grid=(0.6, 0.9),
        replications=4,
        arms=(ArmSpec(name="weighted"),),
        base_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_json_round_trip(self):
        doc = {
            "experiment_id": "br",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [1000, 10000],
            "replications": 50,
            "base_seed": 7,
            "arms": [
                {"name": "weighted", "mode": "weighted"},
                {"name": "unweighted", "mode": "unweighted"},
                {"name": "known", "mode": "weighted", "lower_bounds": [0.2, 0.3]},
            ],
            "output_path": "out.csv",
        }
        config = ExperimentConfig.from_json(json.dumps(doc))
        assert config.experiment_id == "br"
        assert config.grid == (1000.0, 10000.0)
        assert config.arms[2].lower_bounds == (0.2, 0.3)
        assert config.instance_at(1).horizon == 10000

    def test_difficulty_sweep_builds_instances(self):
        config = small_config()
        inst = config.instance_at(1)
        assert inst.nus == (0.4, 0.9)
        assert inst.horizon == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(grid=())
        with pytest.raises(ValueError):
            small_config(replications=0)
        with pytest.raises(ValueError):
            small_config(sweep="nu3")
        with pytest.raises(ValueError):
            small_config(sweep="nuX")
        # Only "nu" and a positive ASCII integer: no sign, space, leading
        # zero or other digits, all of which int() would take.
        for sweep in ("nu+2", "nu 2", "nu2 ", "nu\u0662", "nu02", "nu0", "nu-1", "nu"):
            with pytest.raises(ValueError) as info:
                small_config(sweep=sweep)
            assert str(info.value) == (
                f"sweep must be 'horizon', 'hard_job' or 'nu<j>', got {sweep!r}")
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(json.dumps({
                "experiment_id": "x", "nus": [0.5], "sweep": "nu1", "grid": [0.5],
            }))


    def test_unknown_keys_rejected_by_name(self):
        doc = {
            "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon",
            "grid": [100], "replication": 2,
        }
        with pytest.raises(ValueError, match="'replication'"):
            ExperimentConfig.from_json(json.dumps(doc))
        doc = {
            "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100],
            "arms": [{"name": "a", "lower_bound": [0.2, 0.3]}],
        }
        with pytest.raises(ValueError, match="'lower_bound'"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_duplicate_arm_names_rejected(self):
        with pytest.raises(ValueError, match="'a'"):
            small_config(arms=(ArmSpec(name="a"), ArmSpec(name="a", mode="unweighted")))
        doc = {
            "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100],
            "arms": [{"name": "a"}, {"name": "b"}, {"name": "a"}],
        }
        with pytest.raises(ValueError, match="duplicate arm name 'a'"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("entry", [30.6, 0, -5, float("inf"), float("nan")])
    def test_horizon_grid_entries_must_be_positive_integers(self, entry):
        with pytest.raises(ValueError, match=f"got {float(entry)!r}"):
            small_config(sweep="horizon", grid=(20, entry))
        if math.isfinite(entry):
            doc = {
                "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon",
                "grid": [20, entry],
            }
            with pytest.raises(ValueError, match=f"got {float(entry)!r}"):
                ExperimentConfig.from_json(json.dumps(doc))

    def test_integral_horizon_grid_accepted(self):
        config = small_config(sweep="horizon", grid=(20, 30.0))
        assert [config.instance_at(i).horizon for i in range(2)] == [20, 30]
        # a difficulty sweep's grid holds difficulties, not horizons
        assert small_config(grid=(0.6, 0.95)).grid == (0.6, 0.95)

    @pytest.mark.parametrize("bounds", [(0.2,), (0.2, 0.3, 0.1)])
    def test_lower_bounds_length_must_match_jobs(self, bounds):
        arms = (ArmSpec(name="weighted"), ArmSpec(name="known", lower_bounds=bounds))
        with pytest.raises(ValueError, match=f"arm 'known': expected 2 lower bounds, got {len(bounds)}"):
            small_config(arms=arms)
        doc = {
            "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100],
            "arms": [{"name": "weighted"}, {"name": "known", "lower_bounds": list(bounds)}],
        }
        with pytest.raises(ValueError, match="arm 'known'"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("mode", ["weigthed", "", "Weighted"])
    def test_arm_mode_must_be_a_mode(self, mode):
        with pytest.raises(ValueError, match=f"arm 'a': mode must be one of .*got {mode!r}"):
            ArmSpec("a", mode=mode)
        doc = {
            "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100],
            "arms": [{"name": "a", "mode": mode}],
        }
        with pytest.raises(ValueError, match="arm 'a': mode"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_arm_delta_override_must_lie_in_unit_interval(self, delta):
        with pytest.raises(ValueError, match="arm 'a': delta_override must lie in"):
            ArmSpec("a", delta_override=delta)
        if math.isfinite(delta):
            doc = {
                "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100],
                "arms": [{"name": "a", "delta_override": delta}],
            }
            with pytest.raises(ValueError, match="arm 'a': delta_override"):
                ExperimentConfig.from_json(json.dumps(doc))

    def test_valid_arm_options_accepted(self):
        arm = ArmSpec("a", mode="unweighted", delta_override=0.05)
        assert small_config(arms=(arm,)).arms == (arm,)

    def test_from_json_defaults_come_from_the_dataclasses(self):
        doc = {"experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100]}
        config = ExperimentConfig.from_json(json.dumps(doc))
        assert config == ExperimentConfig(
            experiment_id="x", nus=(0.4, 0.6), sweep="horizon", grid=(100,)
        )
        assert config.replications == 300 and config.base_seed == 0
        assert config.arms == (ArmSpec(name="weighted"),)
        doc["arms"] = [{"name": "a"}]
        assert ExperimentConfig.from_json(json.dumps(doc)).arms == (ArmSpec(name="a"),)

    @pytest.mark.parametrize("key", ["experiment_id", "nus", "sweep", "grid"])
    def test_missing_required_key_named(self, key):
        doc = {"experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100]}
        del doc[key]
        with pytest.raises(ValueError, match=f"config is missing required key {key!r}"):
            ExperimentConfig.from_json(json.dumps(doc))
        doc = {
            "experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100],
            "arms": [{"mode": "unweighted"}],
        }
        with pytest.raises(ValueError, match="arm is missing required key 'name'"):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_difficulty_sweep_needs_a_horizon(self):
        doc = {"experiment_id": "x", "nus": [0.4, 0.6], "sweep": "nu2", "grid": [0.5]}
        with pytest.raises(ValueError, match="horizon must be an integer, got None"):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"arms": []}, "arms: need at least one arm"),
            ({"arms": None}, "arms must be a list"),
            ({"arms": [{"name": "a", "lower_bounds": []}]}, "arm 'a': expected 2 lower bounds, got 0"),
            ({"arms": ["weighted"]}, "arm must be a JSON object"),
            ({"replications": 2.5}, "replications must be an integer, got 2.5"),
            ({"replications": "3"}, "replications must be an integer, got '3'"),
            ({"replications": True}, "replications must be an integer, got True"),
            ({"horizon": 99.7}, "horizon must be an integer, got 99.7"),
            ({"base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
            ({"nus": []}, "nus must hold at least one difficulty"),
        ],
    )
    def test_bad_values_rejected_not_defaulted(self, overrides, message):
        doc = {"experiment_id": "x", "nus": [0.4, 0.6], "sweep": "nu2", "grid": [0.5],
               "horizon": 100}
        doc.update(overrides)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected_at_construction(self, seed):
        message = f"base_seed must lie in [0, 2**64), got {seed}"
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(base_seed=seed)
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(sweep="horizon", grid=(20, 30), base_seed=seed)
        doc = {"experiment_id": "x", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [100],
               "base_seed": seed}
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(json.dumps(doc))

    def test_whole_float_counts_accepted(self):
        config = small_config(replications=4.0, horizon=200.0, base_seed=7.0)
        assert (config.replications, config.horizon, config.base_seed) == (4, 200, 7)
        assert all(type(v) is int for v in (config.replications, config.horizon, config.base_seed))

    @pytest.mark.parametrize("nu", [-0.4, 0.0, float("inf"), float("nan")])
    def test_nus_must_be_positive_and_finite(self, nu):
        with pytest.raises(ValueError, match=rf"nus\[0\] must be positive and finite .*got {nu!r}"):
            small_config(nus=(nu, 0.6))
        if math.isfinite(nu):
            doc = {
                "experiment_id": "x", "nus": [0.5, nu], "sweep": "horizon", "grid": [100],
            }
            with pytest.raises(ValueError, match=r"nus\[1\]"):
                ExperimentConfig.from_json(json.dumps(doc))

    def test_unbounded_nu_accepted(self):
        config = small_config(nus=(None, 0.6))
        assert config.instance_at(0).nus == (None, 0.6)

    @pytest.mark.parametrize("value", [-0.5, 0.0, float("inf")])
    def test_difficulty_grid_entries_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match=re.escape(f"grid[1] = {value!r}: nus[1] must be positive")):
            small_config(grid=(0.6, value))


class TestRunExperiment:
    def test_degenerate_single_cell_equals_episode(self):
        config = small_config(
            grid=(0.6,),
            replications=1,
            arms=(ArmSpec(name="known", lower_bounds=(0.2, 0.3)),),
        )
        result = run_experiment(config, workers=1)
        inst = config.instance_at(0)
        options = PolicyOptions(seed=_stream_seed(config.base_seed, 0, 0, 0))
        expected = run_episode(inst, [0.2, 0.3], options).final_regret
        assert result.rows[0].mean_regret == expected
        assert result.rows[0].stderr == 0.0
        assert result.rows[0].reps == 1

    def test_deterministic_across_worker_counts(self):
        config = small_config()
        serial = run_experiment(config, workers=1)
        parallel = run_experiment(config, workers=2)
        assert [r for r in serial.rows] == [r for r in parallel.rows]
        for key in serial.finals:
            assert np.array_equal(serial.finals[key], parallel.finals[key])

    @pytest.mark.parametrize("workers,env", [(64, "1"), (None, "64")])
    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch, workers, env):
        config = small_config(grid=(0.6,), replications=3)
        serial = run_experiment(config, workers=1)
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", env)
        pooled = run_experiment(config, workers=workers)
        assert pooled.rows == serial.rows
        assert np.array_equal(pooled.finals[(0, "weighted")], serial.finals[(0, "weighted")])
        # Three cells: three workers, none of them this process.
        pids = harness._map_cells(lambda task: os.getpid(), [0, 1, 2], workers)
        assert len(set(pids)) == 3
        assert os.getpid() not in pids

    def test_row_order_and_stats(self):
        config = small_config(arms=(ArmSpec(name="a"), ArmSpec(name="b", mode="unweighted")))
        result = run_experiment(config, workers=1)
        assert [(r.grid_value, r.arm) for r in result.rows] == [
            (0.6, "a"), (0.6, "b"), (0.9, "a"), (0.9, "b"),
        ]
        for row in result.rows:
            finals = result.finals[(result.rows.index(row) // 2, row.arm)]
            assert row.mean_regret == pytest.approx(float(np.mean(finals)))
            assert row.stderr == pytest.approx(
                float(np.std(finals, ddof=1) / math.sqrt(len(finals)))
            )


class TestMapCells:
    """Forked workers: results in task order, failures raised in the
    parent, and no worker left behind, running or unreaped."""

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_in_task_order_with_an_uneven_split(self):
        assert harness._map_cells(lambda task: task * task, list(range(7)), 3) == [
            task * task for task in range(7)
        ]

    def test_a_cell_error_is_raised_with_its_type_and_message(self):
        def cell(task):
            if task == 4:
                raise KeyError(f"bad task {task}")
            return task

        with pytest.raises(KeyError, match="bad task 4"):
            harness._map_cells(cell, list(range(7)), 3)

    def test_an_unpicklable_error_carries_the_worker_traceback(self):
        class Local(Exception):
            pass

        def cell(task):
            raise Local("from a local class")

        with pytest.raises(RuntimeError, match="(?s)unpicklable.*Local: from a local class"):
            harness._map_cells(cell, [0, 1], 2)

    @pytest.mark.parametrize("fail,error,message", [
        ("raise", ValueError, "first cell"),
        ("exit", RuntimeError, "sweep worker 0 exited with status 3 before sending its results"),
    ])
    def test_a_failure_kills_the_workers_still_running(self, fail, error, message):
        # Worker 0 fails at once; worker 1 would sleep for a minute.
        def cell(task):
            if task == 1:
                time.sleep(60)
            elif fail == "exit":
                os._exit(3)
            raise ValueError("first cell")

        started = time.monotonic()
        with pytest.raises(error, match=message):
            harness._map_cells(cell, [0, 1], 2)
        assert time.monotonic() - started < 30

    def test_workers_never_flush_the_parents_stdio(self):
        # A pipe makes stdout block-buffered, so "x" is still in the
        # buffer when the workers fork; it must be written once.
        script = ("import sys; from alloc_bandit import harness; sys.stdout.write('x'); "
                  "harness._map_cells(abs, [1, 2, 3], 3)")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=root, check=True)
        assert done.stdout == "x"

    def test_an_interrupt_in_the_parent_kills_every_worker(self):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        started = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                harness._map_cells(lambda task: time.sleep(60), [0, 1], 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30


class TestResolveWorkers:
    """The worker-count rule alone; no pool is started."""

    @pytest.mark.parametrize("raw,expected", [("1", 1), ("3", 3), ("16", 16), ("007", 7)])
    def test_env_takes_ascii_digits(self, monkeypatch, raw, expected):
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", raw)
        assert resolve_workers() == expected

    @pytest.mark.parametrize("raw", ["0", None])
    def test_zero_or_unset_env_is_cpu_count(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("ALLOC_BANDIT_THREADS", raising=False)
        else:
            monkeypatch.setenv("ALLOC_BANDIT_THREADS", raw)
        assert resolve_workers() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["1_6", "\u0663", "+2", "-1", " 2", "2 ", "2\n", "2.0", "0x2", ""])
    def test_env_rejects_anything_but_ascii_digits(self, monkeypatch, raw):
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", raw)
        with pytest.raises(ValueError, match="ALLOC_BANDIT_THREADS"):
            resolve_workers()

    def test_explicit_count_overrides_env(self, monkeypatch):
        monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1_6")
        assert resolve_workers(3) == 3
        assert resolve_workers(2.0) == 2
        assert type(resolve_workers(2.0)) is int

    @pytest.mark.parametrize("explicit", [2.5, True, "2", -1])
    def test_explicit_count_must_be_a_non_negative_integer(self, explicit):
        with pytest.raises(ValueError, match="worker count"):
            resolve_workers(explicit)


class TestEmitCsv:
    def test_empty_result_is_header_only(self, tmp_path):
        from alloc_bandit.harness import ExperimentResult

        result = ExperimentResult(rows=[])
        path = tmp_path / "empty.csv"
        emit_csv(result, str(path))
        assert path.read_text() == "grid_value,arm,mean_regret,stderr,reps\n"

    def test_one_point_one_arm_two_lines(self, tmp_path):
        config = small_config(grid=(0.6,), replications=2)
        result = run_experiment(config, workers=1)
        path = tmp_path / "one.csv"
        emit_csv(result, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        value, arm, mean, stderr, reps = lines[1].split(",")
        assert float(value) == 0.6
        assert arm == "weighted"
        assert float(mean) == result.rows[0].mean_regret  # round-trips exactly
        assert float(stderr) == result.rows[0].stderr
        assert int(reps) == 2

    def test_reemission_byte_identical(self, tmp_path):
        config = small_config()
        result = run_experiment(config, workers=1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(result, str(p1))
        emit_csv(result, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def minimax_family(n, K):
    """The minimax family's members, as the grid points of a hard_job sweep."""
    config = ExperimentConfig(
        experiment_id="family", nus=(2.0,) * K, horizon=n, sweep="hard_job",
        grid=range(1, K + 1), replications=1,
    )
    return [config.instance_at(point) for point in range(K)]


class TestMinimax:
    def test_family_construction(self):
        family = minimax_family(800, 2)
        eps = math.sqrt(2 / (8 * 800))
        assert eps == pytest.approx(0.0176776695, rel=1e-8)
        assert family[0].nus[0] == pytest.approx(2 / (1 + eps), rel=1e-12)
        assert family[0].nus[0] == pytest.approx(1.965259, rel=1e-6)
        assert family[0].nus[0] == 2.0 / (1.0 + math.sqrt(2 / (8.0 * 800)))  # the same float
        assert family[0].nus[1] == 2.0
        assert family[1].nus == (2.0, family[1].nus[1])
        for k, inst in enumerate(family):
            below = [j for j, nu in enumerate(inst.nus) if nu < 2.0]
            assert below == [k]

    def test_family_optimal_reward(self):
        # optimal play on member k earns (1+eps)/2 per step
        n, K = 500, 3
        eps = math.sqrt(K / (8 * n))
        for inst in minimax_family(n, K):
            assert optimal_profile(inst) == pytest.approx((1 + eps) / 2, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError, match=r"^need 8n >= K >= 2, got n=100, K=1$"):
            minimax_family(100, 1)
        with pytest.raises(ValueError, match=r"^need 8n >= K >= 2, got n=1, K=100$"):
            minimax_family(1, 100)
        assert len(minimax_family(1, 8)) == 8  # 8n = K is allowed

    def test_stress_smoke_deterministic(self):
        a = minimax_stress(300, 2, reps=5, base_seed=3, workers=1)
        b = minimax_stress(300, 2, reps=5, base_seed=3, workers=2)
        assert a.sup_regret == b.sup_regret
        assert a.sup_regret > 0
        assert a.ratio == pytest.approx(a.sup_regret / math.sqrt(600))
        assert len(a.per_instance_mean) == 2


class TestBootstrap:
    def test_interval_brackets_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 2.0, size=400)
        lo, hi = bootstrap_ci(values, n_boot=2000, seed=1)
        assert lo < float(np.mean(values)) < hi
        assert hi - lo < 1.0

    def test_deterministic(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert bootstrap_ci(values, seed=5) == bootstrap_ci(values, seed=5)
