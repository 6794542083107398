"""Smoke tests for the reproduction scripts under ``scripts/``."""

import importlib.util
import math
import os
import re
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
    if scale == 1.0:
        with open(os.path.join(suite.CONFIG_DIR, f"{name}.json")) as handle:
            assert config == ExperimentConfig.from_json(handle.read())
    assert config.replications == (300 if scale == 1.0 else 30)
    if config.sweep == "horizon":
        horizons = [config.instance_at(p).horizon for p in range(len(config.grid))]
        assert all(type(n) is int for n in horizons)
        if scale < 1.0:
            assert max(horizons) <= 10**5


def write_config(directory, text: str) -> None:
    (directory / "probe.json").write_text(
        '{"experiment_id": "probe", "nus": [0.4, 0.6], "sweep": "horizon", '
        '"grid": [100, 200000]' + text + "}")


def test_scaled_config_keeps_the_default_replications(monkeypatch, tmp_path):
    # Scaling a parsed config needs no replications key in the file.
    monkeypatch.setattr(suite, "CONFIG_DIR", str(tmp_path))
    write_config(tmp_path, "")
    config = suite.load_config("probe", 0.1)
    assert (config.replications, config.grid) == (30, (100.0,))


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("text,message", [
    (', "replications": 2.5', "replications must be an integer, got 2.5"),
    (', "replications": 3, "replications": 4', "duplicate JSON key 'replications'"),
], ids=["fractional-reps", "repeated-key"])
def test_a_bad_config_is_rejected_at_every_scale(monkeypatch, tmp_path, text, message, scale):
    monkeypatch.setattr(suite, "CONFIG_DIR", str(tmp_path))
    write_config(tmp_path, text)
    with pytest.raises(ValueError, match=re.escape(message)):
        suite.load_config("probe", scale)


def test_every_config_is_checked_before_the_first_sweep(monkeypatch, capsys, tmp_path):
    # A bad config named last must not wait for the sweeps before it.
    with open(os.path.join(suite.CONFIG_DIR, "gap_sweep.json")) as handle:
        (tmp_path / "gap_sweep.json").write_text(handle.read())
    (tmp_path / "estimator_comparison.json").write_text('{"experiment_id": 1}')
    out_dir = tmp_path / "out"
    monkeypatch.setattr(suite, "CONFIG_DIR", str(tmp_path))
    monkeypatch.setattr(suite, "run_experiment", lambda config: pytest.fail("a sweep ran"))
    monkeypatch.setattr(sys, "argv", [
        "run_experiment_suite.py", "--only", "gap_sweep", "estimator_comparison",
        "--out-dir", str(out_dir),
    ])
    with pytest.raises(ValueError, match="missing required key"):
        suite.main()
    assert capsys.readouterr().out == ""
    assert not out_dir.exists()


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


def test_experiment_suite_only_needs_a_name(monkeypatch, capsys, tmp_path):
    # With nargs="*" a bare --only parses to [], which selects every experiment.
    out_dir = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_experiment_suite.py", "--only", "--out-dir", str(out_dir)])
    monkeypatch.setattr(suite, "run_experiment", lambda config: pytest.fail("a sweep ran"))
    with pytest.raises(SystemExit) as exc:
        suite.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --only: expected at least one argument" in captured.err
    assert captured.out == ""
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
