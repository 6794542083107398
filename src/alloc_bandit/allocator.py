"""Optimistic allocation policy and episode runner.

Each step the policy acts as if every job is as easy as its confidence
interval allows: jobs are filled greedily in increasing order of their
current optimistic lower bounds, each receiving
``min(nu_lower, remaining budget)``. Estimators are then updated with the
realized (allocation, outcome) pairs. The unweighted baseline runs the
identical code path with every sample weight pinned to 1, so comparisons
isolate the estimator.
"""

from __future__ import annotations

import math
import os
import tempfile
from array import array
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
    u_alpha_levels: tuple = ()

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


def _allocate_raw(lower_recips: Sequence[float], budget: float = 1.0) -> list:
    """Greedy fill in increasing order of optimistic lower bound.

    A job with lower_recip 0 is excluded (no bound yet): it receives 0 and
    consumes no budget. Ties break toward the lowest job index.
    """
    m = [0.0] * len(lower_recips)
    order = sorted(
        (1.0 / L, k) for k, L in enumerate(lower_recips) if L > 0.0
    )
    remaining = budget
    for nu_low, k in order:
        if remaining <= 0.0:
            break
        take = nu_low if nu_low < remaining else remaining
        m[k] = take
        remaining -= take
        if remaining < 0.0:
            remaining = 0.0
    return m


def allocate(lower_recips: Sequence[float], budget: float = 1.0) -> Allocation:
    """Optimistic allocation for the given reciprocal lower bounds."""
    return Allocation(tuple(_allocate_raw(lower_recips, budget)))


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
    take their share first, the main policy allocates the rest among jobs
    that have an estimator, one outcome is sampled per job from its total
    allocation, and only main-policy outcomes update estimators.
    Pseudo-regret is charged from step 1.

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

    def build(nu_lower0: float) -> EstimatorState:
        return EstimatorState(nu_lower0, delta, options.u_alpha_levels, weighted=weighted)

    states = [None] * K if probing else [build(v) for v in lower_bounds]
    probe_ends = [None] * K
    probes: list = []  # jobs whose probe is running, in job order

    # Flat step-major buffers; appending is cheaper than per-step numpy writes.
    allocations = array("d")
    observations = array("B")
    regrets = array("d")
    lower_hist = array("d") if options.record_intervals else None
    upper_hist = array("d") if options.record_intervals else None

    draws: list = []
    pos = 0
    for t in range(n):
        if probing and t < K:
            probes.append(t)
        probe_total = 0.0
        for k in probes:
            probe_total += 2.0 ** (k - t - 1)
        m = _allocate_raw(
            [0.0 if s is None else s.lower_recip for s in states], 1.0 - probe_total
        )
        for k in probes:
            m[k] = 2.0 ** (k - t - 1)

        if pos >= len(draws):
            draws = rng.random(_DRAW_BLOCK * K).tolist()
            pos = 0
        xs = []
        reward = 0.0
        for k in range(K):
            mk = m[k]
            x = 1 if draws[pos] < mk * recips[k] else 0
            pos += 1
            xs.append(x)
            if mk > 0.0:
                p = mk * recips[k]
                reward += p if p < 1.0 else 1.0
                # A probing job has no estimator yet; its outcome feeds the probe.
                if states[k] is not None:
                    states[k].update(mk, x)
        if probes:
            for k in probes:
                local = t + 1 - k
                if xs[k] == 0 or local == MAX_HALVING_STEPS:
                    states[k] = build(2.0**-local)
                    probe_ends[k] = (local, xs[k] == 1)
            probes = [k for k in probes if states[k] is None]
        allocations.extend(m)
        observations.extend(xs)
        regrets.append(rho_star - reward)
        if options.record_intervals:
            lower_hist.extend([0.0 if s is None else s.lower_recip for s in states])
            upper_hist.extend([0.0 if s is None else s.upper_recip for s in states])

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
