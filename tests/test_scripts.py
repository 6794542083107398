"""Smoke tests for the reproduction scripts under ``scripts/``."""

import importlib.util
import math
import os
import sys

import pytest

from alloc_bandit.harness import ExperimentConfig

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


suite = load_script("run_experiment_suite")


def test_every_config_has_an_experiment():
    names = sorted(f[: -len(".json")] for f in os.listdir(suite.CONFIG_DIR) if f.endswith(".json"))
    assert names == sorted(suite.EXPERIMENTS)


@pytest.mark.parametrize("scale", [1.0, 0.1])
@pytest.mark.parametrize("name", suite.EXPERIMENTS)
def test_suite_configs_load(name, scale):
    config = suite.load_config(name, scale)
    assert isinstance(config, ExperimentConfig)
    assert config.replications == (300 if scale == 1.0 else 30)
    if config.sweep == "horizon":
        horizons = [config.instance_at(p).horizon for p in range(len(config.grid))]
        assert all(type(n) is int for n in horizons)
        if scale < 1.0:
            assert max(horizons) <= 10**5


@pytest.mark.parametrize(
    "args", [["--k", "1", "--reps", "2"], ["--k", "2", "--reps", "0"]], ids=["k1", "reps0"]
)
def test_minimax_stress_rejects_bad_arguments(args, monkeypatch, capsys):
    stress = load_script("run_minimax_stress")
    monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
    monkeypatch.setattr(sys, "argv", ["run_minimax_stress.py", "--horizons", "50", *args])
    assert stress.main() == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", ["1_00", "+2", " 2", "2\n", "\u0662"])
@pytest.mark.parametrize("flag", ["--horizons", "--k", "--reps", "--seed"])
def test_minimax_stress_integer_flags_take_ascii_digits_only(flag, raw, monkeypatch, capsys):
    # int() would take each of these; alloc-bandit minimax refuses them, and so does the script.
    stress = load_script("run_minimax_stress")
    monkeypatch.setattr(sys, "argv", ["run_minimax_stress.py", flag, raw])
    with pytest.raises(SystemExit) as exc:
        stress.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"error: argument {flag}: expected an integer in ASCII digits, got {raw!r}\n")
    assert captured.out == ""


def test_minimax_stress_main(monkeypatch, capsys):
    stress = load_script("run_minimax_stress")
    monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
    monkeypatch.setattr(
        sys, "argv", ["run_minimax_stress.py", "--horizons", "50", "--k", "2", "--reps", "2"]
    )
    assert stress.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "universal floor on sup-regret / sqrt(nK): 0.0442"
    assert len(lines) == 2
    assert lines[1].startswith("n=      50 K=2: sup_regret=")
    assert "ratio=" in lines[1] and "per-instance=" in lines[1]


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "2"])
def test_experiment_suite_rejects_a_scale_outside_the_unit_interval(scale, monkeypatch, capsys, tmp_path):
    out_dir = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", [
        "run_experiment_suite.py", "--scale", scale, "--only", "horizon_plateau",
        "--out-dir", str(out_dir),
    ])
    with pytest.raises(SystemExit) as exc:
        suite.main()
    assert exc.value.code == 2
    assert f"argument --scale: expected a fraction in (0, 1], got '{scale}'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_experiment_suite_main(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
    monkeypatch.setattr(sys, "argv", [
        "run_experiment_suite.py", "--scale", "0.01", "--only", "horizon_plateau",
        "--out-dir", str(tmp_path),
    ])
    assert suite.main() == 0
    lines = capsys.readouterr().out.splitlines()
    csv_path = tmp_path / "horizon_plateau.csv"
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "grid_value,arm,mean_regret,stderr,reps"
    assert len(rows) == 6
    assert len(lines) == 6
    assert lines[0].startswith("horizon-plateau: 5 points, 3 reps, regret span ")
    assert lines[0].endswith(f" -> {csv_path}")
    for row, line in zip(rows[1:], lines[1:]):
        grid_value, arm, mean_regret, _, reps = row.split(",")
        n = int(float(grid_value))
        assert (arm, reps) == ("weighted", "3")
        assert line == f"  n={n:>8}: R_n/log^2 n = {float(mean_regret) / math.log(n) ** 2:.1f}"
