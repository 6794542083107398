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
import errno
import math
import os
import re
import sys

import numpy as np

from .allocator import PolicyOptions, atomic_write_text, run_episode
from .harness import (
    ExperimentConfig,
    emit_csv,
    minimax_stress,
    run_experiment,
)
from .initialization import halving_init, run_modified
from .model import ProblemInstance, _count, _seed, split_rng


def _difficulty(raw: str):
    """A number, or None (unbounded) for ``null``, ``none`` or ``inf``."""
    raw = raw.strip()
    return None if raw.lower() in ("null", "none", "inf") else float(raw)


def _difficulty_text(raw: str) -> str:
    """``raw`` as typed, once ``_difficulty`` parses it: the summary echoes
    the difficulty as it was given."""
    try:
        _difficulty(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, or inf for unbounded, got {raw!r}") from None
    return raw


def _parse_float_list(raw: str, item=_difficulty,
                      form="numbers, with null for an unbounded job") -> tuple:
    parts = raw.split(",")
    if not all(part.strip() for part in parts):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers with no empty entry, got {raw!r}")
    try:
        return tuple(map(item, parts))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of {form}, got {raw!r}") from None


def _integer_text(raw: str) -> int:
    """An integer flag: ASCII digits with an optional leading ``-``, as
    ALLOC_BANDIT_THREADS takes them; ``int`` would also take ``1_000``,
    ``+5``, padding and other scripts' digits. The range is checked where
    the value is used."""
    if not re.fullmatch("-?[0-9]+", raw):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {raw!r}")
    return int(raw)


def _out_path(raw: str) -> str:
    """An ``--out`` path; an empty one would write nothing, silently."""
    if not raw:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return raw


def _check_out(path: str) -> None:
    """Raise before the run the OSError that writing ``path`` would raise after it."""
    try:  # the trailing separator makes a non-directory fail (ENOTDIR), as the write does
        os.stat(os.path.join(os.path.dirname(os.path.abspath(path)), ""))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _parse_numbers(raw: str) -> tuple:
    """Plain numbers (lower bounds): ``inf`` is a number, ``null`` an error."""
    return _parse_float_list(raw, float, "numbers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alloc-bandit",
        description="Sequential resource allocation with optimistic confidence intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one episode and write its trace CSV")
    run_p.set_defaults(handler=_cmd_run)
    run_p.add_argument(
        "--nus", type=_parse_float_list, required=True,
        help="difficulties, e.g. 0.4,0.6 (null = unbounded)")
    run_p.add_argument("--horizon", type=_integer_text, required=True, help="number of steps")
    run_p.add_argument("--seed", type=_integer_text, default=0, help="environment seed (default 0)")
    run_p.add_argument("--mode", choices=("weighted", "unweighted"), default="weighted")
    run_p.add_argument(
        "--lower-bounds",
        type=_parse_numbers,
        help="known initial lower bounds; omit to self-initialize",
    )
    run_p.add_argument("--snapshot-intervals", action="store_true", help="record per-step intervals")
    run_p.add_argument("--out", type=_out_path, help="trace CSV path")

    exp_p = sub.add_parser("experiment", help="run a sweep described by a JSON config")
    exp_p.set_defaults(handler=_cmd_experiment)
    exp_p.add_argument("--config", required=True, help="experiment JSON config")
    exp_p.add_argument("--out", type=_out_path, help="aggregate CSV path; omit to print the summary only")
    exp_p.add_argument("--reps", type=_integer_text, help="override replication count")

    mm_p = sub.add_parser("minimax", help="stress test on the hardest instance family")
    mm_p.set_defaults(handler=_cmd_minimax)
    mm_p.add_argument("--horizon", type=_integer_text, required=True)
    mm_p.add_argument("--k", type=_integer_text, required=True, help="number of jobs")
    mm_p.add_argument("--reps", type=_integer_text, default=100)
    mm_p.add_argument("--seed", type=_integer_text, default=0)

    init_p = sub.add_parser("init-stats", help="halving-probe Monte-Carlo statistics")
    init_p.set_defaults(handler=_cmd_init_stats)
    init_p.add_argument(
        "--nu", type=_difficulty_text, required=True, help="difficulty (or 'inf' for unbounded)")
    init_p.add_argument("--reps", type=_integer_text, default=100_000)
    init_p.add_argument("--seed", type=_integer_text, default=0)
    init_p.add_argument("--out", type=_out_path, help="optional per-replication CSV path")
    return parser


def _cmd_run(args) -> int:
    instance = ProblemInstance(args.nus, args.horizon, args.seed)
    # Without --out only the final regret is printed, so nothing per-step is kept.
    record = "final" if not args.out else "intervals" if args.snapshot_intervals else "steps"
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
    if args.out:
        emit_csv(result, args.out)
    overall = sum(r.mean_regret for r in result.rows) / len(result.rows)
    print(
        f"experiment {config.experiment_id}: {len(config.grid)} points x "
        f"{len(config.arms)} arms x {config.replications} reps, "
        f"mean final regret {overall:.6g}" + (f" wrote={args.out}" if args.out else "")
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
        f"minimax: n={args.horizon} K={args.k} reps={args.reps} "
        f"sup_regret={result.sup_regret:.6g} sqrt_nK={math.sqrt(args.horizon * args.k):.6g} "
        f"ratio={result.ratio:.6g}"
    )
    _print_health(args.k * args.reps, result.health)
    return 0


def _cmd_init_stats(args) -> int:
    _count("--reps", args.reps)
    nu = _difficulty(args.nu)
    top = 1.0 if nu is None else min(1.0, nu)  # eta = min(1, nu) / nu_lower0
    rng = split_rng(_seed("base_seed", args.seed))
    etas = np.empty(args.reps)
    steps = np.empty(args.reps, dtype=np.int64)
    rows = []
    for rep in range(args.reps):
        steps_used, _ = halving_init(nu, rng)
        nu_lower0 = 2.0**-steps_used
        etas[rep] = eta = top / nu_lower0
        steps[rep] = steps_used
        if args.out:
            rows.append(f"{rep},{steps_used},{nu_lower0!r},{eta!r}")
    se_eta = float(etas.std(ddof=1) / math.sqrt(args.reps)) if args.reps > 1 else 0.0
    if args.out:
        atomic_write_text(args.out, "\n".join(["rep,steps,nu_lower0,eta"] + rows) + "\n")
    print(
        f"init-stats: nu={args.nu} reps={args.reps} mean_eta={float(etas.mean()):.6g} "
        f"se_eta={se_eta:.6g} mean_steps={float(steps.mean()):.6g}"
        + (f" wrote={args.out}" if args.out else "")
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.snapshot_intervals and not args.out:
            parser.error("--out is required with --snapshot-intervals")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
