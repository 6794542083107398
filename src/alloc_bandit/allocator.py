"""Optimistic allocation policy and episode runner.

Each step the policy acts as if every job is as easy as its confidence
interval allows: jobs are filled greedily in increasing order of their
current optimistic lower bounds, each receiving
``min(nu_lower, remaining budget)``. Estimators are then updated with the
realized (allocation, outcome) pairs. The unweighted baseline runs the
identical code path with every sample weight pinned to 1, so comparisons
isolate the estimator.

The episode loop keeps that fill order as a sorted list of
``(nu_lower, k)`` across steps. Only the first few jobs in it receive
resources, so a step fills, samples and updates just those jobs (plus any
running halving probes) and re-sorts only the jobs whose lower bound moved;
everyone else's allocation and outcome stay 0 in the trace.
"""

from __future__ import annotations

import math
import os
import tempfile
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .estimator import EstimatorState
from .model import (
    Allocation,
    OptimalProfile,
    ProblemInstance,
    optimal_profile,
    split_rng,
)

MODES = ("weighted", "unweighted")

# Uniform draws are pre-generated in blocks of this many steps; the stream
# order (step-major, job-minor) is identical to per-step sampling.
_DRAW_BLOCK = 1024

# Trace CSV rows are formatted this many at a time.
_CSV_BLOCK = 4096

# 2^-64 is the smallest probe allocation; beyond that the schedule is
# meaningless at double precision.
MAX_HALVING_STEPS = 64


@dataclass(frozen=True)
class PolicyOptions:
    """Knobs for one episode: estimator mode, confidence override, interval
    recording, and the stream index used to derive the episode RNG."""

    mode: str = "weighted"
    delta_override: Optional[float] = None
    record_intervals: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.delta_override is not None and not (0.0 < self.delta_override < 1.0):
            raise ValueError(f"delta_override must lie in (0, 1), got {self.delta_override}")


@dataclass
class RunTrace:
    """Full record of one episode.

    ``allocations[t]`` is the realized per-job allocation at step t+1
    (including any initializer consumption for the self-initializing
    runner), ``observations[t]`` the outcomes, ``regrets[t]`` the per-step
    pseudo-regret and ``cum_regrets`` its running sum. ``lower_recips`` /
    ``upper_recips`` hold post-update interval snapshots when recorded
    (0.0 marks a job whose estimator does not exist yet).
    """

    allocations: np.ndarray
    observations: np.ndarray
    regrets: np.ndarray
    cum_regrets: np.ndarray
    estimators: list
    metadata: dict
    lower_recips: Optional[np.ndarray] = None
    upper_recips: Optional[np.ndarray] = None

    @property
    def final_regret(self) -> float:
        return float(self.cum_regrets[-1])

    def to_csv(self, path: str) -> None:
        """Write one row per step: t, M_k, X_k, r_t, cumregret[, L_k, U_k].

        Written atomically (temp file + rename); floats use shortest
        round-trip decimals so re-emission is byte-identical.
        """
        atomic_write_text(path, self._csv_text())

    def _csv_text(self) -> str:
        """The CSV as one string, built ``_CSV_BLOCK`` rows at a time.

        Per block the float columns are stacked and ``repr`` runs once per
        distinct bit pattern (so -0.0, nan and inf print as ``repr`` prints
        them); the cell strings are then gathered back into place.
        """
        n, K = self.allocations.shape
        cols = ["t"]
        cols += [f"M_{k + 1}" for k in range(K)]
        cols += [f"X_{k + 1}" for k in range(K)]
        cols += ["r_t", "cumregret"]
        float_cols = [self.allocations, self.regrets[:, None], self.cum_regrets[:, None]]
        if self.lower_recips is not None:
            cols += [f"L_{k + 1}" for k in range(K)]
            cols += [f"U_{k + 1}" for k in range(K)]
            float_cols += [self.lower_recips, self.upper_recips]
        bits_table = np.array(["0", "1"], dtype=object)
        blocks = [",".join(cols) + "\n"]
        for start in range(0, n, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, n)
            floats = np.concatenate([c[start:stop] for c in float_cols], axis=1, dtype=np.float64)
            patterns, inverse = np.unique(floats.view(np.uint64), return_inverse=True)
            texts = np.array(list(map(repr, patterns.view(np.float64).tolist())), dtype=object)
            cells = np.empty((stop - start, len(cols)), dtype=object)
            cells[:, 0] = list(map(str, range(start + 1, stop + 1)))
            # Column order: t, M (K), X (K), then r_t, cumregret, L, U.
            gathered = texts[inverse.reshape(floats.shape)]
            cells[:, 1 : 1 + K] = gathered[:, :K]
            cells[:, 1 + K : 1 + 2 * K] = bits_table[self.observations[start:stop]]
            cells[:, 1 + 2 * K :] = gathered[:, K:]
            blocks.append("\n".join(map(",".join, cells.tolist())) + "\n")
        return "".join(blocks)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory and rename into place,
    so failures never leave partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _allocate_raw(order: Sequence[tuple], budget: float) -> list:
    """Greedy fill over a fill order: a sorted sequence of
    ``(nu_lower, k)``, easiest job first, ties toward the lowest index.

    Each job in turn receives ``min(nu_lower, remaining budget)`` until the
    budget is spent. Returns ``[(k, take), ...]`` for the jobs reached, in
    fill order; jobs not reached receive nothing.
    """
    fill = []
    remaining = budget
    for nu_low, k in order:
        if remaining <= 0.0:
            break
        take = nu_low if nu_low < remaining else remaining
        fill.append((k, take))
        remaining -= take
        if remaining < 0.0:
            remaining = 0.0
    return fill


def allocate(lower_recips: Sequence[float], budget: float = 1.0) -> Allocation:
    """Optimistic allocation for the given reciprocal lower bounds. A job
    with lower_recip 0 has no bound yet: it receives 0 and consumes no
    budget."""
    m = [0.0] * len(lower_recips)
    order = sorted((1.0 / L, k) for k, L in enumerate(lower_recips) if L > 0.0)
    for k, take in _allocate_raw(order, budget):
        m[k] = take
    return Allocation(tuple(m))


def default_delta(horizon: int, num_jobs: int) -> float:
    """Per-update confidence level (n K)^-2, with n K floored at 2 so that a
    one-step, one-job episode still gets a level inside (0, 1)."""
    return float(max(horizon * num_jobs, 2)) ** -2


def _simulate(
    instance: ProblemInstance,
    options: PolicyOptions,
    profile: OptimalProfile,
    rng: np.random.Generator,
    lower_bounds: Optional[Sequence[float]],
) -> tuple:
    """The step loop behind both episode runners.

    With ``lower_bounds`` every estimator starts from its bound. With None,
    job k's halving probe starts at step k+1 and allocates 2^-(local step)
    until its first failure or the 64-step guard; the job's estimator is
    then built from the last probe allocation. Per step the active probes
    take their share first, the main policy fills the rest over the fill
    order of jobs that have an estimator, one outcome is sampled per job
    that received resources, and only main-policy outcomes update
    estimators. Pseudo-regret is charged from step 1.

    Per-step work scales with the jobs that receive resources, not with K.
    Each step still advances the draw stream by K, and job k reads the k-th
    draw of its step, so the stream is the one per-step sampling of every
    job would consume; a job given nothing would draw X = 0 regardless.

    Returns the trace and, per job, ``(steps_used, capped)`` of its finished
    probe (None for a job whose probe never finished or never ran).
    """
    K = instance.num_jobs
    n = instance.horizon
    delta = options.delta_override if options.delta_override is not None else default_delta(n, K)
    weighted = options.mode == "weighted"
    recips = instance.recips
    rho_star = profile.rho_star
    probing = lower_bounds is None
    record = options.record_intervals

    def build(nu_lower0: float) -> EstimatorState:
        return EstimatorState(nu_lower0, delta, weighted=weighted)

    states = [None] * K if probing else [build(v) for v in lower_bounds]
    # The fill order: (1 / lower_recip, k) of every job with an estimator,
    # sorted. Only an update that moves a job's lower bound re-keys it.
    order = sorted((1.0 / s.lower_recip, k) for k, s in enumerate(states) if s is not None)
    probe_ends = [None] * K
    probes: list = []  # jobs whose probe is running, in job order

    # Flat step-major n x K buffers, allocated once and zero until written:
    # a job that gets no resources at a step keeps M = 0 and X = 0 there.
    allocations = array("d", [0.0]) * (n * K)
    observations = array("B", [0]) * (n * K)
    regrets = array("d", [0.0]) * n
    if record:
        # Current interval row (0.0 for a job without an estimator), copied
        # into the history every step and changed only where a job changed.
        lower_row = array("d", [0.0 if s is None else s.lower_recip for s in states])
        upper_row = array("d", [0.0]) * K
        lower_hist = array("d", [0.0]) * (n * K)
        upper_hist = array("d", [0.0]) * (n * K)
    else:
        lower_hist = upper_hist = None

    # A step reads only the draws of the jobs it touches, so the block stays
    # a float64 buffer instead of becoming one Python float per draw.
    draws = memoryview(b"")
    pos = 0
    for t in range(n):
        if probing and t < K:
            probes.append(t)
        probe_total = 0.0
        for k in probes:
            probe_total += 2.0 ** (k - t - 1)
        touched = _allocate_raw(order, 1.0 - probe_total)
        for k in probes:
            touched.append((k, 2.0 ** (k - t - 1)))
        # Visit in job order, as sampling every job would: that fixes the
        # order in which rewards are summed.
        touched.sort()

        if pos >= len(draws):
            draws = memoryview(rng.random(_DRAW_BLOCK * K))
            pos = 0
        base = t * K
        reward = 0.0
        for k, mk in touched:
            p = mk * recips[k]
            x = 1 if draws[pos + k] < p else 0
            allocations[base + k] = mk
            observations[base + k] = x
            if not mk > 0.0:
                continue
            reward += p if p < 1.0 else 1.0
            s = states[k]
            if s is None:
                # A probing job has no estimator yet; its outcome feeds the probe.
                local = t + 1 - k
                if x == 1 and local < MAX_HALVING_STEPS:
                    continue
                s = states[k] = build(2.0**-local)
                probe_ends[k] = (local, x == 1)
                insort(order, (1.0 / s.lower_recip, k))
            else:
                lower_prev = s.lower_recip
                s.update(mk, x)
                if s.lower_recip != lower_prev:
                    del order[bisect_left(order, (1.0 / lower_prev, k))]
                    insort(order, (1.0 / s.lower_recip, k))
            if record:
                lower_row[k] = s.lower_recip
                upper_row[k] = s.upper_recip
        # Every step consumes K draws, one per job in job order.
        pos += K
        if probes:
            probes = [k for k in probes if states[k] is None]
        regrets[t] = rho_star - reward
        if record:
            lower_hist[base : base + K] = lower_row
            upper_hist[base : base + K] = upper_row

    def rows(buf, dtype=np.float64):
        return None if buf is None else np.frombuffer(buf, dtype).reshape(n, K)

    metadata = {
        "instance": instance.digest(),
        "nus": list(instance.nus),
        "horizon": n,
        "base_seed": instance.base_seed,
        "seed": options.seed,
        "mode": options.mode,
        "delta": delta,
    }
    regrets = np.frombuffer(regrets)
    return RunTrace(
        allocations=rows(allocations),
        observations=rows(observations, np.uint8),
        regrets=regrets,
        cum_regrets=np.cumsum(regrets),
        estimators=states,
        metadata=metadata,
        lower_recips=rows(lower_hist),
        upper_recips=rows(upper_hist),
    ), probe_ends


def run_episode(
    instance: ProblemInstance,
    initial_lower_bounds: Sequence[float],
    options: PolicyOptions = PolicyOptions(),
) -> RunTrace:
    """Run the optimistic policy for the full horizon from known lower
    bounds 0 < nu_lower0_k <= nu_k.

    Violated initial bounds void the confidence guarantees but the runner
    still executes. Jobs receiving zero allocation at a step contribute no
    information and their estimator is not updated. Deterministic given
    (instance.base_seed, options.seed).
    """
    K = instance.num_jobs
    lbs = [float(v) for v in initial_lower_bounds]
    if len(lbs) != K:
        raise ValueError(f"expected {K} initial lower bounds, got {len(lbs)}")
    for v in lbs:
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"initial lower bounds must be positive, got {v}")
    profile = optimal_profile(instance)
    rng = split_rng(instance.base_seed, options.seed)
    trace, _ = _simulate(instance, options, profile, rng, lbs)
    trace.metadata["initial_lower_bounds"] = lbs
    return trace


def regret_upper_bound(
    instance: ProblemInstance,
    initial_lower_bounds: Sequence[float],
    n: int,
) -> float:
    """Closed-form regret bound for the optimistic policy, evaluated from
    the true difficulties (reference curve only; the policy never sees nu).

    With delta = (nK)^-2, eta_k = min(1, nu_k) / nu_lower0_k,
    delta~_k = delta / (48 eta_k^4 n^6), c_{k,1} = 27 log(2/delta~_k),
    c_{k,2} = 6 log(2/delta~_k) and u_{j,k} = c_{k,1} / (nu_lower0_k D_{j,k})
    over sorted ranks with gaps D_{j,k} = 1/nu_j - 1/nu_k:

        1 + sum_{k<=ell} c_{k,1} eta_k (1 + log n)
        + [ell < K] ( sum_{k>=ell+2} c_{k,2} / (nu_lower0_k D_{ell+1,k})
                      + sum_{k<=ell+1} c_{k,1} eta_k (1 + log n)
                      + sum_{k>=ell+2} c_{k,1} eta_k (1 + log u_{ell+1,k})
                      + sum_{k>=ell+1} c_{k,1} eta_k (1 + log u_{ell,k}) )

    Returns +inf whenever a divided-by gap is non-positive or refers to a
    rank below 1 (ties or ell = 0 make those terms undefined).
    """
    K = instance.num_jobs
    if len(initial_lower_bounds) != K:
        raise ValueError(f"expected {K} initial lower bounds, got {len(initial_lower_bounds)}")
    profile = optimal_profile(instance)
    ell = profile.ell
    order = profile.sort_order
    delta = default_delta(n, K)
    log_n = math.log(n)

    nu_sorted = [instance.nus[k] for k in order]
    lb_sorted = [float(initial_lower_bounds[k]) for k in order]
    eta = [
        (1.0 if nu is None else min(1.0, nu)) / lb for nu, lb in zip(nu_sorted, lb_sorted)
    ]
    c1 = [27.0 * math.log(2.0 * 48.0 * e**4 * float(n) ** 6 / delta) for e in eta]
    c2 = [v * 6.0 / 27.0 for v in c1]

    total = 1.0 + sum(c1[k] * eta[k] * (1.0 + log_n) for k in range(ell))
    if ell == K:
        return total

    def gap(j: int, k: int) -> float:
        if j < 1:
            return -math.inf
        return profile.gap(j, k)

    bracket = 0.0
    for k in range(ell + 2, K + 1):
        d = gap(ell + 1, k)
        if d <= 0.0:
            return math.inf
        bracket += c2[k - 1] / (lb_sorted[k - 1] * d)
    for k in range(1, ell + 2):
        bracket += c1[k - 1] * eta[k - 1] * (1.0 + log_n)
    for k in range(ell + 2, K + 1):
        d = gap(ell + 1, k)
        if d <= 0.0:
            return math.inf
        u = c1[k - 1] / (lb_sorted[k - 1] * d)
        bracket += c1[k - 1] * eta[k - 1] * (1.0 + math.log(u))
    for k in range(ell + 1, K + 1):
        d = gap(ell, k)
        if d <= 0.0:
            return math.inf
        u = c1[k - 1] / (lb_sorted[k - 1] * d)
        bracket += c1[k - 1] * eta[k - 1] * (1.0 + math.log(u))
    return total + bracket
