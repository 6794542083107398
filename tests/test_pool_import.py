"""The process-pool machinery (``multiprocessing``) is imported only when a
sweep starts a pool: a single episode, ``init-stats`` and a one-worker
sweep never load it. Each case runs ``cli.main`` in a fresh interpreter,
since this test process may already have imported it."""

import json
import os
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

SCRIPT = """
import sys
from alloc_bandit import cli
status = cli.main(sys.argv[1:])
print(status, *sorted(set(%r) & set(sys.modules)))
""" % (POOL_MODULES,)


def pool_modules_after(argv, threads):
    """(exit status, pool modules loaded) after ``cli.main(argv)``."""
    env = {**os.environ, "ALLOC_BANDIT_THREADS": threads}
    result = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                            capture_output=True, text=True, env=env, cwd=PKG_ROOT)
    assert result.returncode == 0, result.stderr
    status, *loaded = result.stdout.splitlines()[-1].split()
    return int(status), tuple(loaded)


def experiment_argv(tmp_path):
    """A sweep of two cells: one grid point, two replications."""
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "experiment_id": "pool", "nus": [0.4, 0.6], "sweep": "horizon", "grid": [50],
        "replications": 2,
    }))
    return ["experiment", "--config", str(config), "--out", str(tmp_path / "agg.csv")]


@pytest.mark.parametrize("case", ["run", "init-stats", "experiment"])
def test_single_process_paths_never_load_the_pool(tmp_path, case):
    argv = {
        "run": ["run", "--nus", "0.4,0.6", "--horizon", "200", "--snapshot-intervals",
                "--out", str(tmp_path / "trace.csv")],
        "init-stats": ["init-stats", "--nu", "0.5", "--reps", "50"],
        "experiment": experiment_argv(tmp_path),
    }[case]
    # The environment caps the sweep at one worker; run and init-stats ignore it.
    assert pool_modules_after(argv, threads="1") == (0, ())


def test_a_two_worker_sweep_loads_the_pool(tmp_path):
    argv = experiment_argv(tmp_path)
    assert pool_modules_after(argv, threads="2") == (0, POOL_MODULES)
