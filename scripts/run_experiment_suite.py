#!/usr/bin/env python3
"""Run the four reference experiments and write plot-ready CSVs.

gap_sweep sweeps the second job's difficulty past the budget (bandit-like
dependence on the difficulty gap), horizon_plateau tracks R_n / log^2 n
over the horizon on a fully coverable instance, critical_point sweeps the
second difficulty through the point where it stops being coverable, and
estimator_comparison pits the weighted estimator against the unweighted
baseline. Full scale (300 replications, horizons to 1e6) is about 1.02e9
K = 2 steps (5.1e7 + 4.33e8 + 4.5e8 + 8.64e7 in the order above); its wall
time has not been measured. --scale, a fraction in (0, 1], keeps max(1,
int(reps * scale)) replications and horizons up to 1e5 of each parsed
config for a desk-scale pass; the config rules hold at every scale.
"""

import argparse
import dataclasses
import math
import os
import time

from alloc_bandit.harness import ExperimentConfig, emit_csv, run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
EXPERIMENTS = ("gap_sweep", "horizon_plateau", "critical_point", "estimator_comparison")


def load_config(name: str, scale: float) -> ExperimentConfig:
    with open(os.path.join(CONFIG_DIR, f"{name}.json")) as handle:
        config = ExperimentConfig.from_json(handle.read())
    if scale < 1.0:
        grid = [g for g in config.grid if config.sweep != "horizon" or g <= 1e5]
        reps = max(1, int(config.replications * scale))
        config = dataclasses.replace(config, replications=reps, grid=grid)
    return config


def scale_fraction(text: str) -> float:
    """``--scale`` as a float in (0, 1]; anything else (nan, inf, 0, -1, 2)
    is a usage error rather than a silent full or one-rep run."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1], got {text!r}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="results", help="directory for CSVs")
    parser.add_argument(
        "--scale",
        type=scale_fraction,
        default=1.0,
        help="fraction of the reference replication count (e.g. 0.1 for a quick pass)",
    )
    parser.add_argument("--only", choices=EXPERIMENTS, nargs="+", help="subset to run")
    args = parser.parse_args()

    # Every config is checked before the first sweep starts.
    configs = {name: load_config(name, args.scale) for name in args.only or EXPERIMENTS}
    os.makedirs(args.out_dir, exist_ok=True)
    for name, config in configs.items():
        out = os.path.join(args.out_dir, f"{name}.csv")
        started = time.time()
        result = run_experiment(config)
        emit_csv(result, out)
        span = max(r.mean_regret for r in result.rows) - min(r.mean_regret for r in result.rows)
        print(
            f"{config.experiment_id}: {len(config.grid)} points, "
            f"{config.replications} reps, regret span {span:.1f}, "
            f"{time.time() - started:.0f}s -> {out}"
        )
        if name == "horizon_plateau":
            for row in result.rows:
                n = int(row.grid_value)
                print(f"  n={n:>8}: R_n/log^2 n = {row.mean_regret / math.log(n) ** 2:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
