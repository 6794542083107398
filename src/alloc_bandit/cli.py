"""Command-line front end.

Subcommands: ``run`` (single episode, trace CSV), ``experiment``
(declarative sweep from a JSON config, aggregate CSV), ``minimax``
(worst-case stress over the hardest instance family) and ``init-stats``
(halving-probe statistics). Human-readable summaries go to stdout,
machine artifacts only to files, errors to stderr with a nonzero exit.
``experiment`` and ``minimax`` also print one estimator-health line to
stderr, so the stdout summary and the CSV stay as they were.
The ALLOC_BANDIT_THREADS environment variable caps worker parallelism
(ASCII digits; 0 = auto).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .allocator import PolicyOptions, atomic_write_text, run_episode
from .harness import (
    ExperimentConfig,
    emit_csv,
    minimax_stress,
    run_experiment,
)
from .initialization import halving_init, run_modified, sample_eta
from .model import ProblemInstance, _count, _seed, split_rng


def _difficulty(raw: str):
    """A number, or None (unbounded) for ``null``, ``none`` or ``inf``."""
    raw = raw.strip()
    return None if raw.lower() in ("null", "none", "inf") else float(raw)


def _parse_float_list(raw: str, item=_difficulty) -> tuple:
    out = [item(part) for part in raw.split(",") if part.strip()]
    if not out:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return tuple(out)


def _parse_numbers(raw: str) -> tuple:
    """Plain numbers (lower bounds): ``inf`` is a number, ``null`` an error."""
    return _parse_float_list(raw, float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alloc-bandit",
        description="Sequential resource allocation with optimistic confidence intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one episode and write its trace CSV")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--nus", type=_parse_float_list, help="difficulties, e.g. 0.4,0.6 (null = unbounded)")
    src.add_argument("--config", help="instance JSON file {nus, horizon, seed}")
    run_p.add_argument("--horizon", type=int, help="number of steps")
    run_p.add_argument("--seed", type=int, help="environment seed (default 0 or the config's)")
    run_p.add_argument("--mode", choices=("weighted", "unweighted"), default="weighted")
    run_p.add_argument(
        "--lower-bounds",
        type=_parse_numbers,
        help="known initial lower bounds; omit to self-initialize",
    )
    run_p.add_argument("--snapshot-intervals", action="store_true", help="record per-step intervals")
    run_p.add_argument("--out", help="trace CSV path")

    exp_p = sub.add_parser("experiment", help="run a sweep described by a JSON config")
    exp_p.add_argument("--config", required=True, help="experiment JSON config")
    exp_p.add_argument("--out", help="aggregate CSV path (overrides config output_path)")
    exp_p.add_argument("--reps", type=int, help="override replication count")

    mm_p = sub.add_parser("minimax", help="stress test on the hardest instance family")
    mm_p.add_argument("--horizon", type=int, required=True)
    mm_p.add_argument("--k", type=int, required=True, help="number of jobs")
    mm_p.add_argument("--reps", type=int, default=100)
    mm_p.add_argument("--seed", type=int, default=0)

    init_p = sub.add_parser("init-stats", help="halving-probe Monte-Carlo statistics")
    init_p.add_argument("--nu", type=str, required=True, help="difficulty (or 'inf' for unbounded)")
    init_p.add_argument("--reps", type=int, default=100_000)
    init_p.add_argument("--seed", type=int, default=0)
    init_p.add_argument("--out", help="optional per-replication CSV path")
    return parser


def _cmd_run(args) -> int:
    if args.config is not None:
        with open(args.config) as handle:
            instance = ProblemInstance.from_json(handle.read(), args.horizon, args.seed)
    else:
        instance = ProblemInstance(args.nus, args.horizon, args.seed if args.seed is not None else 0)
    # Without --out only the final regret is printed, so nothing per-step is kept.
    if not args.out:
        record = "final"
    elif args.snapshot_intervals:
        record = "intervals"
    else:
        record = "steps"
    options = PolicyOptions(mode=args.mode, record=record)
    if args.lower_bounds is None:
        trace = run_modified(instance, options)
    else:
        trace = run_episode(instance, args.lower_bounds, options)
    if args.out:
        trace.to_csv(args.out)
    print(
        f"run: n={instance.horizon} K={instance.num_jobs} mode={args.mode} "
        f"final_regret={trace.final_regret:.6g}"
        + (f" wrote={args.out}" if args.out else "")
    )
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as handle:
        config = ExperimentConfig.from_json(handle.read())
    if args.reps is not None:
        config = dataclasses.replace(config, replications=args.reps)
    result = run_experiment(config)
    out = args.out or config.output_path
    if out:
        emit_csv(result, out)
    overall = sum(r.mean_regret for r in result.rows) / len(result.rows)
    print(
        f"experiment {config.experiment_id}: {len(config.grid)} points x "
        f"{len(config.arms)} arms x {config.replications} reps, "
        f"mean final regret {overall:.6g}" + (f" wrote={out}" if out else "")
    )
    cells = len(config.grid) * len(config.arms) * config.replications
    _print_health(cells, map(sum, zip(*result.health.values())))
    return 0


def _print_health(cells: int, counts) -> None:
    """Print to stderr the health ``counts`` summed over ``cells`` cells."""
    failures, capped, collapsed = counts
    print(
        f"health: {cells} cells, "
        f"coverage_failures={failures} weight_capped={capped} collapsed={collapsed}",
        file=sys.stderr,
    )


def _cmd_minimax(args) -> int:
    result = minimax_stress(args.horizon, args.k, args.reps, args.seed)
    print(
        f"minimax: n={result.n} K={result.num_jobs} reps={result.reps} "
        f"sup_regret={result.sup_regret:.6g} sqrt_nK={result.sqrt_nk:.6g} "
        f"ratio={result.ratio:.6g}"
    )
    _print_health(result.num_jobs * result.reps, result.health)
    return 0


def _cmd_init_stats(args) -> int:
    _count("--reps", args.reps)
    nu = _difficulty(args.nu)
    rng = split_rng(_seed("base_seed", args.seed))
    etas = np.empty(args.reps)
    steps = np.empty(args.reps, dtype=np.int64)
    rows = []
    for rep in range(args.reps):
        steps_used, _ = halving_init(nu, rng)
        nu_lower0 = 2.0**-steps_used
        eta = sample_eta(nu, nu_lower0)
        etas[rep] = eta
        steps[rep] = steps_used
        if args.out:
            rows.append(f"{rep},{steps_used},{nu_lower0!r},{eta!r}")
    mean_eta = float(etas.mean())
    se_eta = float(etas.std(ddof=1) / math.sqrt(args.reps)) if args.reps > 1 else 0.0
    if args.out:
        atomic_write_text(args.out, "\n".join(["rep,steps,nu_lower0,eta"] + rows) + "\n")
    print(
        f"init-stats: nu={args.nu} reps={args.reps} mean_eta={mean_eta:.6g} "
        f"se_eta={se_eta:.6g} mean_steps={float(steps.mean()):.6g}"
        + (f" wrote={args.out}" if args.out else "")
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.nus is not None and args.horizon is None:
            parser.error("--horizon is required with --nus")
        if args.command == "run" and args.snapshot_intervals and not args.out:
            parser.error("--out is required with --snapshot-intervals")
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "minimax": _cmd_minimax,
        "init-stats": _cmd_init_stats,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
