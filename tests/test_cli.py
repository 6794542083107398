import json
import os
import subprocess
import sys

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def invoke(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env.setdefault("ALLOC_BANDIT_THREADS", "1")
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "alloc_bandit", *args],
        capture_output=True,
        text=True,
        env=full_env,
        cwd=cwd or PKG_ROOT,
    )


class TestRunCommand:
    def test_known_bounds_writes_full_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = invoke(
            "run", "--nus", "0.4,0.6", "--horizon", "1000", "--seed", "7",
            "--lower-bounds", "0.2,0.3", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert "final_regret=" in result.stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 1001  # header + one row per step
        assert lines[0] == "t,M_1,M_2,X_1,X_2,r_t,cumregret"

    def test_self_initializing_run(self, tmp_path):
        out = tmp_path / "trace.csv"
        result = invoke(
            "run", "--nus", "0.4,0.6", "--horizon", "200", "--seed", "3",
            "--out", str(out), "--snapshot-intervals",
        )
        assert result.returncode == 0, result.stderr
        header = out.read_text().splitlines()[0]
        assert header.endswith("L_1,L_2,U_1,U_2")

    def test_instance_config_file(self, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text(json.dumps({"nus": [0.5, None], "horizon": 50, "seed": 2}))
        result = invoke("run", "--config", str(config))
        assert result.returncode == 0, result.stderr
        assert "n=50 K=2" in result.stdout

    def test_nus_and_config_mutually_exclusive(self, tmp_path):
        config = tmp_path / "instance.json"
        config.write_text(json.dumps({"nus": [0.5], "horizon": 5, "seed": 0}))
        result = invoke("run", "--nus", "0.5", "--config", str(config))
        assert result.returncode != 0
        assert result.stderr

    def test_missing_horizon_fails(self):
        result = invoke("run", "--nus", "0.4,0.6")
        assert result.returncode != 0
        assert "horizon" in result.stderr

    def test_bad_numeric_flag_names_flag(self):
        result = invoke("run", "--nus", "0.4,abc", "--horizon", "10")
        assert result.returncode != 0
        assert "--nus" in result.stderr

    def test_identical_invocations_identical_outputs(self, tmp_path):
        args = ["run", "--nus", "0.4,0.6", "--horizon", "300", "--seed", "11",
                "--lower-bounds", "0.2,0.3"]
        a = invoke(*args, "--out", str(tmp_path / "a.csv"))
        b = invoke(*args, "--out", str(tmp_path / "b.csv"))
        assert a.returncode == b.returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a.stdout.replace("a.csv", "") == b.stdout.replace("b.csv", "")

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        result = invoke(
            "run", "--nus", "0.4,-0.6", "--horizon", "10", "--out", str(out)
        )
        assert result.returncode != 0
        assert not out.exists()


class TestExperimentCommand:
    def test_config_driven_sweep(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [100, 200],
            "replications": 3,
            "base_seed": 5,
        }))
        out = tmp_path / "exp.csv"
        result = invoke("experiment", "--config", str(config), "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "grid_value,arm,mean_regret,stderr,reps"
        assert len(lines) == 3
        assert "experiment mini" in result.stdout

    def test_reps_override(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [50],
            "replications": 100,
            "base_seed": 5,
        }))
        out = tmp_path / "exp.csv"
        result = invoke("experiment", "--config", str(config), "--out", str(out), "--reps", "2")
        assert result.returncode == 0, result.stderr
        assert out.read_text().splitlines()[1].endswith(",2")

    def test_unknown_config_key_is_an_error(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [50],
            "replication": 2,
        }))
        result = invoke("experiment", "--config", str(config))
        assert result.returncode == 1
        assert "'replication'" in result.stderr

    def test_bad_config_value_is_an_error(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "experiment_id": "mini",
            "nus": [0.4, 0.6],
            "sweep": "horizon",
            "grid": [50],
            "replications": 2.5,
        }))
        result = invoke("experiment", "--config", str(config))
        assert result.returncode == 1
        assert "replications must be an integer, got 2.5" in result.stderr
        config.write_text(json.dumps({"experiment_id": "mini", "nus": [0.4, 0.6], "grid": [50]}))
        result = invoke("experiment", "--config", str(config))
        assert result.returncode == 1
        assert "missing required key 'sweep'" in result.stderr

    def test_missing_config_file(self, tmp_path):
        result = invoke("experiment", "--config", str(tmp_path / "nope.json"))
        assert result.returncode != 0
        assert result.stderr


class TestMinimaxCommand:
    def test_prints_sup_and_ratio(self):
        result = invoke("minimax", "--horizon", "200", "--k", "2", "--reps", "3", "--seed", "1")
        assert result.returncode == 0, result.stderr
        assert "sup_regret=" in result.stdout
        assert "ratio=" in result.stdout

    def test_deterministic(self):
        args = ("minimax", "--horizon", "150", "--k", "2", "--reps", "2", "--seed", "9")
        assert invoke(*args).stdout == invoke(*args).stdout


class TestInitStatsCommand:
    def test_summary_and_csv(self, tmp_path):
        out = tmp_path / "init.csv"
        result = invoke(
            "init-stats", "--nu", "0.3", "--reps", "500", "--seed", "4", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        assert "mean_eta=" in result.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "rep,steps,nu_lower0,eta"
        assert len(lines) == 501
        for line in lines[1:]:
            _, _, nu_lower0, eta = line.split(",")
            # float() rejects numpy scalar reprs such as "np.float64(3.2)"
            assert float(eta) == min(1.0, 0.3) / float(nu_lower0), line

    def test_unbounded_difficulty(self):
        result = invoke("init-stats", "--nu", "inf", "--reps", "200", "--seed", "0")
        assert result.returncode == 0, result.stderr
        # probes on an impossible job stop at the first step with bound 1/2
        assert "mean_eta=2 " in result.stdout

    def test_rejects_non_positive(self):
        result = invoke("init-stats", "--nu", "-1", "--reps", "10")
        assert result.returncode != 0


class TestUsage:
    def test_no_subcommand(self):
        result = invoke()
        assert result.returncode != 0
        assert result.stderr

    def test_unknown_subcommand(self):
        result = invoke("frobnicate")
        assert result.returncode != 0


def test_experiment_output_independent_of_thread_count(tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "experiment_id": "det",
        "nus": [0.4, 0.6],
        "sweep": "horizon",
        "grid": [80],
        "replications": 4,
        "base_seed": 12,
    }))
    outputs = {}
    for threads in ("1", "4"):
        out = tmp_path / f"out_{threads}.csv"
        result = invoke(
            "experiment", "--config", str(config), "--out", str(out),
            env={"ALLOC_BANDIT_THREADS": threads},
        )
        assert result.returncode == 0, result.stderr
        outputs[threads] = out.read_bytes()
    assert outputs["1"] == outputs["4"]
