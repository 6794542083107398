"""Smoke tests for the reproduction scripts under ``scripts/``."""

import importlib.util
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
def test_suite_configs_load(name, scale, tmp_path):
    config = suite.load_config(name, scale, str(tmp_path))
    assert isinstance(config, ExperimentConfig)
    assert config.output_path == os.path.join(str(tmp_path), f"{name}.csv")
    assert config.replications == (300 if scale == 1.0 else 30)
    if config.sweep == "horizon":
        horizons = [config.instance_at(p).horizon for p in range(len(config.grid))]
        assert all(type(n) is int for n in horizons)
        if scale < 1.0:
            assert max(horizons) <= 10**5


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
