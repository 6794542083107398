"""Estimator health of experiment cells.

Each cell reports, over the jobs that have an estimator, how many final
intervals miss the job's true reciprocal difficulty (a coverage failure),
how many estimators hit the weight cap and how many intervals collapsed.
``run_experiment`` sums them per (point, arm) into
``ExperimentResult.health``; ``alloc-bandit experiment`` prints their
totals as one stderr line and leaves stdout and the CSV as they were.
"""

import json

from alloc_bandit.allocator import RunTrace
from alloc_bandit.estimator import EstimatorState
from alloc_bandit.harness import (
    ArmSpec,
    ExperimentConfig,
    _cell_record,
    emit_csv,
    run_experiment,
)
from alloc_bandit.model import ProblemInstance
from test_cli import invoke

CONFIG = {
    "experiment_id": "health",
    "nus": [0.3, 0.5],
    "sweep": "horizon",
    "grid": [300],
    "replications": 3,
    "arms": [
        # Known bounds above the true difficulties at a loose delta: the
        # intervals cannot cover and collapse.
        {"name": "violated", "lower_bounds": [0.6, 0.9], "delta_override": 0.5},
        {"name": "known", "lower_bounds": [0.15, 0.25]},
        {"name": "self"},
    ],
}


def state(lower_recip, upper_recip, capped=False, collapsed=False):
    s = EstimatorState(1.0, 0.1)
    s.lower_recip, s.upper_recip = lower_recip, upper_recip
    s.weight_capped, s.collapsed = capped, collapsed
    return s


def test_cell_record_counts_per_job():
    instance = ProblemInstance((0.5, None, 0.25, 0.4, None), 10)
    estimators = [
        state(2.5, 1.5),  # recip 2 inside [1.5, 2.5]
        state(1.0, 0.0, capped=True),  # unbounded: recip 0 inside [0, 1]
        state(3.0, 2.0, collapsed=True),  # recip 4 above the interval
        None,  # probe still running
        state(1.0, 0.1, capped=True),  # unbounded: recip 0 below the interval
    ]
    trace = RunTrace(estimators=estimators, metadata={}, final_regret=1.5)
    assert _cell_record(trace, instance) == (1.5, 2, 2, 1)


def test_violated_bounds_show_in_health():
    config = ExperimentConfig.from_json(json.dumps(CONFIG))
    result = run_experiment(config, workers=1)
    assert set(result.health) == set(result.finals)
    failures, capped, collapsed = result.health[(0, "violated")]
    assert failures > 0 and collapsed > 0
    assert result.health[(0, "known")] == (0, 0, 0)
    assert result.health[(0, "self")] == (0, 0, 0)
    assert run_experiment(config, workers=2).health == result.health


def test_cli_prints_one_health_line(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(CONFIG))
    out = tmp_path / "agg.csv"
    result = invoke("experiment", "--config", str(path), "--out", str(out))
    assert result.returncode == 0, result.stderr
    expected = run_experiment(ExperimentConfig.from_json(json.dumps(CONFIG)), workers=1)
    totals = [sum(col) for col in zip(*expected.health.values())]
    assert result.stderr.splitlines() == [
        "health: 9 cells, coverage_failures={} weight_capped={} collapsed={}".format(*totals)
    ]
    assert "coverage_failures" not in result.stdout
    emit_csv(expected, str(tmp_path / "expected.csv"))
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()
