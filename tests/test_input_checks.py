"""Bad inputs that once escaped as tracebacks or ran silently (a count of
0 gave nan): each is now an error that names the field, raised before any
cell runs."""

import json
import math
import re

import pytest

from alloc_bandit.harness import ArmSpec, ExperimentConfig
from test_cli import invoke

BASE = {"experiment_id": "mini", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [50],
        "replications": 2}


@pytest.mark.parametrize("key,value,message", [
    ("nus", 0.4, "nus must be a list of difficulties, got 0.4"),
    ("sweep", 5, "sweep must be 'horizon' or 'nu<j>', got 5"),
    ("grid", 5, "grid must be a list of numbers, got 5"),
    ("grid", "300", "grid must be a list of numbers, got '300'"),
    ("grid", ["300"], "grid must be a list of numbers, got ['300']"),
    ("grid", [True], "grid must be a list of numbers, got [True]"),
    ("output_path", 5, "output_path must be a string, got 5"),
    ("experiment_id", 5, "experiment_id must be a string, got 5"),
])
def test_experiment_config_of_wrong_type_is_an_error(tmp_path, key, value, message):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**BASE, key: value}))
    result = invoke("experiment", "--config", str(path))
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"


def test_arm_delta_of_wrong_type_is_an_error(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**BASE, "arms": [{"name": "w", "delta_override": "0.1"}]}))
    result = invoke("experiment", "--config", str(path))
    assert result.returncode == 1
    assert result.stderr == "error: arm 'w': delta_override must lie in (0, 1), got 0.1\n"


@pytest.mark.parametrize("bound", [-0.2, 0.0, math.inf, math.nan])
def test_arm_lower_bounds_are_checked_when_the_config_is_built(bound):
    pattern = r"arm 'k': lower_bounds\[0\] must be positive and finite"
    with pytest.raises(ValueError, match=pattern):
        ExperimentConfig(
            experiment_id="x", nus=(0.4, 0.6), sweep="horizon", grid=(50,),
            arms=(ArmSpec("k", lower_bounds=(bound, 0.3)),),
        )
    doc = {**BASE, "arms": [{"name": "k", "lower_bounds": [bound, 0.3]}]}
    with pytest.raises(ValueError, match=pattern):
        ExperimentConfig.from_json(json.dumps(doc))


@pytest.mark.parametrize("bounds", [0.5, [None, 0.3], ["x", 0.3], ["0.2", 0.3], [0.2, True]])
def test_arm_lower_bounds_must_be_numbers(bounds):
    doc = {**BASE, "arms": [{"name": "k", "lower_bounds": bounds}]}
    with pytest.raises(ValueError, match=r"arm 'k': lower_bounds must be a list of numbers"):
        ExperimentConfig.from_json(json.dumps(doc))


@pytest.mark.parametrize("name", [5, None, ["a"]])
def test_arm_name_must_be_a_string(tmp_path, name):
    message = f"arm name must be a string, got {name!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ArmSpec(name)
    doc = {**BASE, "arms": [{"name": name}]}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_json(json.dumps(doc))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    result = invoke("experiment", "--config", str(path))
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_init_stats_rejects_reps_below_one(reps):
    result = invoke("init-stats", "--nu", "0.5", "--reps", reps)
    assert result.returncode == 1
    assert result.stderr == f"error: --reps must be >= 1, got {reps}\n"
    assert result.stdout == ""


def test_minimax_rejects_reps_below_one():
    result = invoke("minimax", "--horizon", "100", "--k", "2", "--reps", "0")
    assert result.returncode == 1
    assert result.stderr == "error: reps must be >= 1, got 0\n"
    assert result.stdout == ""
