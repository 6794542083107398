"""No path loads process-pool machinery (``multiprocessing`` or
``concurrent.futures.process``): a sweep on several workers forks them
directly, and a single episode, ``init-stats`` and a one-worker sweep start
no worker at all. Each case runs ``cli.main`` in a fresh interpreter, since
this test process may already have imported those modules."""

import json
import os
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_MODULES = ("concurrent.futures.process", "multiprocessing")

# ru_maxrss of RUSAGE_CHILDREN stays 0 until a child process has been reaped.
SCRIPT = """
import resource, sys
from alloc_bandit import cli
status = cli.main(sys.argv[1:])
forked = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0
print(status, forked, *sorted(set(%r) & set(sys.modules)))
""" % (POOL_MODULES,)


def after_main(argv, threads):
    """(exit status, whether a worker was forked, pool modules loaded)
    after ``cli.main(argv)``."""
    env = {**os.environ, "ALLOC_BANDIT_THREADS": threads}
    result = subprocess.run([sys.executable, "-c", SCRIPT, *argv],
                            capture_output=True, text=True, env=env, cwd=PKG_ROOT)
    assert result.returncode == 0, result.stderr
    status, forked, *loaded = result.stdout.splitlines()[-1].split()
    return int(status), forked == "True", tuple(loaded)


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
    assert after_main(argv, threads="1") == (0, False, ())


def test_a_two_worker_sweep_loads_no_pool(tmp_path):
    argv = experiment_argv(tmp_path)
    assert after_main(argv, threads="2") == (0, True, ())
