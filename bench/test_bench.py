"""Checks on the benchmark itself: for one seed its counts repeat exactly and
traced and untraced runs agree; a second seed changes the outputs but not
the amount of work; output checks feed the failure count.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
from tracing import Tracer, _patch_points, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNTS = (
    "estimator.update_calls",
    "allocator.fill_calls",
    "initialization.probe_steps",
    "harness.cells",
    "allocator.write_bytes",
)


_TRACED = {}


def traced(name, seed, attempt, tmp_path_factory):
    """One traced run of the workload as the benchmark measures it, at one
    worker; each (name, seed, attempt) runs once per test session."""
    key = (name, seed, attempt)
    if key not in _TRACED:
        out_dir = tmp_path_factory.mktemp(f"{name}-{seed}-{attempt}")
        tracer = Tracer()
        with tracer.installed():
            outcome = WORKLOADS[name](seed).run(1, str(out_dir))
        metrics = layer_metrics(tracer, 1.0)
        _TRACED[key] = outcome, {k: metrics[k][0] for k in COUNTS}
    return _TRACED[key]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_match_untraced(name, tmp_path, tmp_path_factory):
    first, counts = traced(name, 3, 0, tmp_path_factory)
    again, counts_again = traced(name, 3, 1, tmp_path_factory)
    untraced = WORKLOADS[name](3).run(2, str(tmp_path))
    assert first.problem == ""
    assert first.digest == bench_run._reference()["digests"][name]["3"]
    assert counts == counts_again
    # Outcome equality covers steps, operations, rows written and digest.
    assert first == again == untraced
    assert counts["estimator.update_calls"] > 0 and counts["allocator.fill_calls"] > 0
    if name != "trace_export":
        assert counts["harness.cells"] == first.ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_changes_outputs_not_work(name, tmp_path_factory):
    a, counts_a = traced(name, 3, 0, tmp_path_factory)
    b, counts_b = traced(name, 4, 0, tmp_path_factory)
    assert a.digest != b.digest
    assert (a.steps, a.ops, a.rows, counts_a["harness.cells"]) == (
        b.steps, b.ops, b.rows, counts_b["harness.cells"])


def test_tracer_restores_every_original():
    before = [vars(owner)[attr] for owner, attr, _, _ in _patch_points()]
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert all(vars(owner)[attr] is not fn
                       for (owner, attr, _, _), fn in zip(_patch_points(), before))
            raise RuntimeError
    after = [vars(owner)[attr] for owner, attr, _, _ in _patch_points()]
    assert all(a is b for a, b in zip(after, before))


def test_changed_output_counts_as_failed(capsys):
    timing = {"steps": 1000, "cpu": 0.01, "calibration": 0.18}
    ops = [
        {"ops": 5, "problem": "", "digest": "aa", "wall": 0.01, **timing},
        {"ops": 5, "problem": "", "digest": "bb", "wall": 0.01, **timing},
        # Raised early: read as a timing it would be ten times as fast.
        {"ops": 5, "problem": "raised ValueError()", "digest": "", "wall": 0.001, **timing},
    ]
    assert bench_run._count_failures("unrecorded", 0, ops) == (15, 10, "aa")
    assert [op["failed"] for op in ops] == [False, True, True]
    reports = [{"peak_rss_mb": 30.0, "setup_s": 0.2, "calibration": 0.18}]
    metrics, _ = bench_run._end_to_end(ops, reports)
    assert metrics["steps_per_s"][0] == pytest.approx(
        1000 / 0.01 * 0.18 / bench_run._reference()["calibration_s"])
    with pytest.raises(bench_run.BenchError):
        bench_run._end_to_end(ops[1:], reports)
    with open(os.path.join(HERE, "reference.json")) as handle:
        recorded = json.load(handle)["digests"]["sweep_k2"]["0"]
    assert bench_run._count_failures("sweep_k2", 0, ops[:1]) == (5, 5, recorded)


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_k2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
