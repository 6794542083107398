#!/usr/bin/env python3
"""Stress the self-initializing policy on the hardest instance family and
report sup-regret against the universal sqrt(nK)/(16 sqrt 2) floor.
Arguments the family rejects (say --k 1 or --reps 0) print ``error: ...``
to stderr and exit 1, as ``alloc-bandit minimax`` does."""

import argparse
import math
import sys

from alloc_bandit.harness import minimax_stress


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizons", type=int, nargs="+", default=[1000, 10000])
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    floor = 1.0 / (16.0 * math.sqrt(2.0))
    print(f"universal floor on sup-regret / sqrt(nK): {floor:.4f}")
    for n in args.horizons:
        try:
            res = minimax_stress(n, args.k, args.reps, args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(
            f"n={n:>8} K={args.k}: sup_regret={res.sup_regret:10.2f} "
            f"ratio={res.ratio:.4f} per-instance={['%.1f' % m for m in res.per_instance_mean]}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
