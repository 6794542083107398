"""Bad inputs that once escaped as tracebacks or ran silently (a count of
0 gave nan): each is now an error that names the field, raised before any
cell runs."""

import json
import math
import re

import pytest

from alloc_bandit import cli
from alloc_bandit.harness import ArmSpec, ExperimentConfig, minimax_stress
from test_cli import invoke

BASE = {"experiment_id": "mini", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [50],
        "replications": 2}


@pytest.mark.parametrize("key,value,message", [
    ("nus", 0.4, "nus must be a list of difficulties, got 0.4"),
    ("sweep", 5, "sweep must be 'horizon', 'hard_job' or 'nu<j>', got 5"),
    ("grid", 5, "grid must be a list of numbers, got 5"),
    ("grid", "300", "grid must be a list of numbers, got '300'"),
    ("grid", ["300"], "grid must be a list of numbers, got ['300']"),
    ("grid", [True], "grid must be a list of numbers, got [True]"),
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


@pytest.mark.parametrize("bound", [-0.2, 0.0, math.inf, math.nan, 1e-320])
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


@pytest.mark.parametrize("name", ["w,1", 'say "w"', "a\rb", "a\nb"])
def test_arm_name_must_fit_in_an_unquoted_csv_field(name):
    message = f"arm {name!r}: name must not contain a comma, a double quote or a line break"
    with pytest.raises(ValueError, match=re.escape(message)):
        ArmSpec(name)
    doc = {**BASE, "arms": [{"name": name}]}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_json(json.dumps(doc))


def test_experiment_rejects_an_arm_name_with_a_comma(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**BASE, "arms": [{"name": "w,1"}, {"name": "a\nb"}]}))
    out = tmp_path / "agg.csv"
    result = invoke("experiment", "--config", str(path), "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == (
        "error: arm 'w,1': name must not contain a comma, a double quote or a line break\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_init_stats_rejects_reps_below_one(reps):
    result = invoke("init-stats", "--nu", "0.5", "--reps", reps)
    assert result.returncode == 1
    assert result.stderr == f"error: --reps must be >= 1, got {reps}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_init_stats_seed_obeys_the_instance_seed_rule(seed):
    result = invoke("init-stats", "--nu", "0.5", "--reps", "5", "--seed", seed)
    assert result.returncode == 1
    assert result.stderr == f"error: base_seed must lie in [0, 2**64), got {seed}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("args,message", [
    (("--nus", "5e-324,0.6", "--horizon", "5"),
     "nus[0] must be positive and finite with a finite reciprocal, got 5e-324"),
    (("--nus", "0.4", "--horizon", "5", "--lower-bounds", "1e-320"),
     "initial_lower_bounds[0] must be positive and finite with a finite reciprocal, got 1e-320"),
], ids=["difficulty", "lower-bound"])
def test_run_rejects_a_number_whose_reciprocal_is_inf(tmp_path, args, message):
    out = tmp_path / "t.csv"
    result = invoke("run", *args, "--out", str(out))
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


# inf and null as lower bounds: tests/test_cli.py::test_unbounded_lower_bound_is_an_error.
@pytest.mark.parametrize("bounds,shown", [
    ("0.2,1e-320", "1e-320"), ("0.2,-1", "-1.0"), ("0.2,nan", "nan"),
])
def test_run_names_the_lower_bound_that_fails(bounds, shown):
    result = invoke("run", "--nus", "0.4,0.6", "--horizon", "5", "--lower-bounds", bounds)
    assert result.returncode == 1
    assert result.stderr == (
        "error: initial_lower_bounds[1] must be positive and finite with a finite reciprocal, "
        f"got {shown}\n"
    )


def test_run_lower_bounds_are_plain_numbers():
    result = invoke("run", "--nus", "0.4,0.6", "--horizon", "5", "--lower-bounds", "0.2,None")
    assert result.returncode == 2
    assert result.stderr.endswith(
        "error: argument --lower-bounds: expected a comma-separated list of numbers, "
        "got '0.2,None'\n"
    )


def test_run_nus_null_still_means_unbounded():
    result = invoke("run", "--nus", "0.4,null", "--horizon", "5", "--lower-bounds", "0.2,0.5")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("run: n=5 K=2 ")


def test_an_integer_too_large_for_a_float_is_an_error(tmp_path):
    # As a difficulty: tests/test_model.py::TestInstance::test_bad_difficulty_named_by_index.
    huge = 10**400
    experiment = tmp_path / "exp.json"
    experiment.write_text(json.dumps({**BASE, "grid": [50, huge]}))
    result = invoke("experiment", "--config", str(experiment))
    assert result.returncode == 1
    assert result.stderr == f"error: grid must be a list of numbers, got [50, {huge}]\n"


@pytest.mark.parametrize("k,reps,message", [
    ("2", "0", "reps must be >= 1, got 0"),
    ("1", "2", "need 8n >= K >= 2, got n=100, K=1"),
], ids=["reps0", "k1"])
def test_minimax_rejects_reps_below_one(k, reps, message):
    result = invoke("minimax", "--horizon", "100", "--k", k, "--reps", reps)
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("args,message", [
    ((10, 2, 2.5), "reps must be an integer, got 2.5"),
    ((10, 2, True), "reps must be an integer, got True"),
    ((10, 2.5, 1), "num_jobs must be an integer, got 2.5"),
    ((10.5, 2, 1), "n must be an integer, got 10.5"),
])
def test_minimax_counts_must_be_integers(args, message):
    with pytest.raises(ValueError) as info:
        minimax_stress(*args, workers=1)
    assert str(info.value) == message


def test_minimax_whole_float_counts_are_stored_as_ints():
    # The result holds no counts; whole floats must run exactly the integer family.
    assert minimax_stress(10.0, 2.0, 1.0, workers=1) == minimax_stress(10, 2, 1, workers=1)


@pytest.mark.parametrize("args,message", [
    ((100, 0, 1), "need 8n >= K >= 2, got n=100, K=0"),
    ((100, -3, 1), "need 8n >= K >= 2, got n=100, K=-3"),
    ((0, 2, 1), "need 8n >= K >= 2, got n=0, K=2"),
    ((1, 100, 1, -1), "need 8n >= K >= 2, got n=1, K=100"),  # the family's rule before the seed's
    ((10, 2, 1, -1), "base_seed must lie in [0, 2**64), got -1"),
])
def test_minimax_family_rule_is_checked_first(args, message):
    with pytest.raises(ValueError) as info:
        minimax_stress(*args, workers=1)
    assert str(info.value) == message


HARD_JOB = {"experiment_id": "hard", "nus": [2.0, 2.0, 2.0], "horizon": 50, "sweep": "hard_job",
            "grid": [1, 2, 3], "replications": 2}


@pytest.mark.parametrize("overrides,message", [
    ({"grid": [1, 0]}, "grid[1] = 0.0: a hard_job grid entry must be a job index in 1..3"),
    ({"grid": [4]}, "grid[0] = 4.0: a hard_job grid entry must be a job index in 1..3"),
    ({"grid": [1.5]}, "grid[0] = 1.5: a hard_job grid entry must be a job index in 1..3"),
    ({"nus": [2.0, None, 2.0], "grid": [1, 2]},
     "grid[1] = 2.0: job 2 is unbounded (null), so it cannot be the hard job"),
    ({"nus": [2.0], "grid": [1]}, "need 8n >= K >= 2, got n=50, K=1"),
    ({"horizon": 1, "nus": [2.0] * 9, "grid": [1]}, "need 8n >= K >= 2, got n=1, K=9"),
    ({"horizon": None}, "horizon must be an integer, got None"),
], ids=["zero", "past-K", "fraction", "unbounded", "K1", "8n-below-K", "no-horizon"])
def test_hard_job_config_errors(tmp_path, overrides, message):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**HARD_JOB, **overrides}))
    result = invoke("experiment", "--config", str(path))
    assert result.returncode == 1
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("overrides,message", [
    ({"base_seed": -1}, "base_seed must lie in [0, 2**64), got -1"),
    ({"base_seed": 2**64}, f"base_seed must lie in [0, 2**64), got {2**64}"),
    ({"horizon": 0}, "horizon must be >= 1, got 0"),
    ({"replications": 0}, "replications must be >= 1, got 0"),
])
def test_horizon_sweep_names_the_field_not_the_grid(overrides, message):
    # A horizon sweep's grid holds horizons; a bad seed or count is not the grid's fault.
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_json(json.dumps({**BASE, "grid": [300], **overrides}))
    assert str(info.value) == message


@pytest.mark.parametrize("args,flag,raw", [
    (("--nus", "0.4,,0.6"), "--nus", "0.4,,0.6"),
    (("--nus", ",0.4", "--lower-bounds", "0.2,"), "--nus", ",0.4"),
    (("--nus", "0.4", "--lower-bounds", "0.2,"), "--lower-bounds", "0.2,"),
], ids=["nus-inner", "nus-leading", "lower-bounds-trailing"])
def test_run_rejects_an_empty_list_entry(capsys, args, flag, raw):
    # An empty entry used to be dropped, so the run went ahead with fewer jobs.
    assert cli.main(["run", *args, "--horizon", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"error: argument {flag}: expected a comma-separated list of numbers "
        f"with no empty entry, got {raw!r}\n"
    )
    assert captured.out == ""


def with_keys(doc: dict, extra: str) -> str:
    """``doc`` as JSON text with the raw members ``extra`` appended."""
    return json.dumps(doc)[:-1] + ", " + extra + "}"


@pytest.mark.parametrize("text,key", [
    (with_keys(BASE, '"replications": 3'), "replications"),
    (with_keys(BASE, '"arms": [{"name": "w", "mode": "weighted", "mode": "unweighted"}]'), "mode"),
], ids=["config", "arm"])
def test_a_repeated_json_key_is_an_error(tmp_path, capsys, monkeypatch, text, key):
    monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
    path = tmp_path / "doc.json"
    path.write_text(text)
    # --reps replaces the parsed count, so it cannot mask a bad file.
    for extra in [[], ["--reps", "6"]]:
        assert cli.main(["experiment", "--config", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: duplicate JSON key {key!r}\n"
        assert captured.out == ""


@pytest.mark.parametrize("nus", ["04", {"a": 0.4}], ids=["string", "object"])
@pytest.mark.parametrize("command", ["experiment"])
def test_nus_that_is_not_a_list_is_named(tmp_path, capsys, monkeypatch, command, nus):
    # Iterated, a string gives its characters and an object its keys.
    monkeypatch.setenv("ALLOC_BANDIT_THREADS", "1")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**BASE, "nus": nus}))
    assert cli.main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: nus must be a list of difficulties, got {nus!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("raw", ["abc", "", "0.3x"], ids=["word", "empty", "suffix"])
def test_init_stats_nu_is_a_usage_error(capsys, raw):
    assert cli.main(["init-stats", "--nu", raw, "--reps", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(
        f"error: argument --nu: expected a number, or inf for unbounded, got {raw!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("raw", ["-1", "0", "nan"])
def test_init_stats_non_positive_nu_still_exits_1(capsys, raw):
    assert cli.main(["init-stats", f"--nu={raw}", "--reps", "5"]) == 1
    assert capsys.readouterr().err.startswith("error: difficulty must be positive")
