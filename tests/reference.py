"""Test oracles: slow, direct restatements of what the library computes
inline, kept out of the public API.

``sample_step`` and ``instantaneous_regret`` are one step's sampling and
pseudo-regret over all K jobs, which the episode loop computes only for
the jobs it funds, the regret once per fill; ``brute_force_optimal``
cross-checks ``optimal_profile`` by grid search; ``weight`` is the sample
weight ``EstimatorState.update`` computes inline (it raises where the
update caps); ``update`` is that update with its radius taken from
``confidence_radius_f``, against which the inline radius is checked bit
for bit; ``trace_csv_text`` is the row-by-row form of the text
``RunTrace.to_csv`` writes block-wise; ``carry_forward`` is the
whole-column form of the fill-forward ``allocator._carry_forward`` does a
block at a time; ``simulate_dense`` is the episode step loop that samples
and records all K jobs every step, against which the sparse
``allocator._simulate`` is checked byte for byte.

``Allocation`` and ``allocate`` (the greedy fill of
``allocator._allocate_raw`` as a K-long allocation) and ``bootstrap_ci``
serve only tests and the acceptance gate.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from alloc_bandit.allocator import (
    MAX_HALVING_STEPS,
    _DRAW_BLOCK,
    RunTrace,
    _allocate_raw,
    default_delta,
)
from alloc_bandit.estimator import (
    FULL_ALLOC_RTOL,
    WEIGHT_CAP,
    EstimatorState,
    confidence_radius_f,
)
from alloc_bandit.model import OptimalProfile, ProblemInstance

BUDGET_TOL = 1e-9


@dataclass(frozen=True)
class Allocation:
    """Per-job resources for one step, a point in the unit-budget simplex."""

    m: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))
        for v in self.m:
            if v < 0:
                raise ValueError(f"allocations must be non-negative, got {v}")
        if sum(self.m) > 1.0 + BUDGET_TOL:
            raise ValueError(f"allocation exceeds the unit budget: sum={sum(self.m)}")


def allocate(lower_recips: Sequence[float], budget: float = 1.0) -> Allocation:
    """Optimistic allocation for the given reciprocal lower bounds. A job
    with lower_recip 0 has no bound yet: it receives 0 and consumes no
    budget."""
    m = [0.0] * len(lower_recips)
    order = sorted((1.0 / L, k) for k, L in enumerate(lower_recips) if L > 0.0)
    for k, take in _allocate_raw(order, budget):
        m[k] = take
    return Allocation(tuple(m))


@dataclass(frozen=True)
class Observation:
    """Binary success indicators for one step."""

    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(v) for v in self.x))
        for v in self.x:
            if v not in (0, 1):
                raise ValueError(f"observations must be 0 or 1, got {v}")


def brute_force_optimal(instance: ProblemInstance, grid_step: float):
    """Grid search over the budget simplex; test oracle for optimal_profile.

    Enumerates grid multiples of ``grid_step`` for the first K-1 jobs; the
    last job's reward is non-decreasing in its allocation, so the largest
    feasible grid multiple dominates and the search stays exhaustive over
    maximal grid points. Returns (Allocation, reward).
    """
    K = instance.num_jobs
    if K > 4:
        raise ValueError(f"grid search refuses K={K} > 4 (combinatorial blowup)")
    if not (0 < grid_step <= 0.1):
        raise ValueError(f"grid_step must lie in (0, 0.1], got {grid_step}")
    recips = np.asarray(instance.recips)
    levels = int(math.floor(1.0 / grid_step + 1e-9)) + 1
    grid = np.arange(levels) * grid_step

    if K == 1:
        m_last = math.floor(1.0 / grid_step + 1e-9) * grid_step
        best = np.array([m_last])
        return Allocation(tuple(best)), float(min(1.0, m_last * recips[0]))

    # Cartesian grid over the first K-1 coordinates, chunked over the first
    # axis to bound memory for K=4.
    best_reward = -1.0
    best_m = None
    head = np.stack(
        [g.ravel() for g in np.meshgrid(*([grid] * (K - 2)), indexing="ij")], axis=-1
    ) if K > 2 else np.zeros((1, 0))
    for m0 in grid:
        partial = m0 + head.sum(axis=1)
        feasible = partial <= 1.0 + BUDGET_TOL
        if not feasible.any():
            continue
        partial = partial[feasible]
        rows = head[feasible]
        m_last = np.floor((1.0 - partial) / grid_step + 1e-9).clip(min=0) * grid_step
        reward = (
            np.minimum(1.0, m0 * recips[0])
            + (np.minimum(1.0, rows * recips[1 : K - 1]).sum(axis=1) if K > 2 else 0.0)
            + np.minimum(1.0, m_last * recips[K - 1])
        )
        i = int(np.argmax(reward))
        if reward[i] > best_reward:
            best_reward = float(reward[i])
            best_m = np.concatenate(([m0], rows[i], [m_last[i]]))
    return Allocation(tuple(best_m)), best_reward


def _sample_raw(m: Sequence[float], recips: Sequence[float], u: Sequence[float]) -> list:
    """One Bernoulli outcome per job from pre-drawn uniforms (u_k < p_k)."""
    return [1 if u[k] < m[k] * recips[k] else 0 for k in range(len(m))]


def sample_step(instance: ProblemInstance, alloc, rng: np.random.Generator) -> Observation:
    """Sample one step of outcomes; consumes exactly K uniforms in job order."""
    m = alloc.m if isinstance(alloc, Allocation) else Allocation(tuple(alloc)).m
    u = rng.random(instance.num_jobs)
    return Observation(tuple(_sample_raw(m, instance.recips, u)))


def instantaneous_regret(profile: OptimalProfile, alloc, instance: ProblemInstance) -> float:
    """Per-step pseudo-regret: optimal expected reward minus the
    allocation's expected reward (true success probabilities, not samples).
    """
    m = alloc.m if isinstance(alloc, Allocation) else Allocation(tuple(alloc)).m
    reward = 0.0
    for k, recip in enumerate(instance.recips):
        p = m[k] * recip
        reward += p if p < 1.0 else 1.0
    return profile.rho_star - reward


class WeightOverflowError(ValueError):
    """Raised when an allocation sits too close to the current upper bound
    for the sample weight to be representable (w would exceed 1e12)."""


def weight(state, m: float) -> float:
    """Sample weight 1 / (1 - m * upper_recip) for allocation m.

    Equals 1 while the upper bound is infinite. Raises WeightOverflowError
    when m sits within 1e-12 of the upper bound (w >= 1e12), where
    ``EstimatorState.update`` caps instead.
    """
    if m < 0:
        raise ValueError(f"allocation must be non-negative, got {m}")
    mu = m * state.upper_recip
    if mu >= 1.0 - 1e-12:
        raise WeightOverflowError(
            f"allocation {m} too close to the upper bound {1.0 / state.upper_recip}"
        )
    return 1.0 / (1.0 - mu)


def update(state: EstimatorState, m: float, x: int) -> EstimatorState:
    """``EstimatorState.update`` written out attribute by attribute, with
    the radius from ``confidence_radius_f`` rather than computed inline."""
    lower_prev = state.lower_recip
    nu_lower_prev = 1.0 / lower_prev
    if state.weighted:
        mu = m * state.upper_recip
        if mu >= 1.0 - 1e-12:
            w = WEIGHT_CAP
            state.weight_capped = True
        else:
            w = 1.0 / (1.0 - mu)
    else:
        w = 1.0

    state.sum_wx += w * x
    state.sum_wm += w * m
    if w > state.r_max:
        state.r_max = w
    state.t += 1

    v2 = state.sum_wm * lower_prev
    radius = confidence_radius_f(state.r_max, v2, state.delta) / state.sum_wm
    recip_hat = state.sum_wx / state.sum_wm
    lower_new = recip_hat + radius
    if lower_new > lower_prev:
        lower_new = lower_prev
    upper_new = recip_hat - radius
    if upper_new < state.upper_recip:
        upper_new = state.upper_recip
    if upper_new > lower_new:
        upper_new = lower_new
        state.collapsed = True
    state.lower_recip = lower_new
    state.upper_recip = upper_new

    if abs(m - nu_lower_prev) <= FULL_ALLOC_RTOL * nu_lower_prev:
        state.full_alloc_steps += 1
    return state


def trace_csv_text(trace) -> str:
    """Trace CSV text formatted one row and one cell at a time:
    t, M_k, X_k, r_t, cumregret[, L_k, U_k], floats as ``repr``."""
    n, K = trace.allocations.shape
    cols = ["t"]
    cols += [f"M_{k + 1}" for k in range(K)]
    cols += [f"X_{k + 1}" for k in range(K)]
    cols += ["r_t", "cumregret"]
    with_intervals = trace.lower_recips is not None
    if with_intervals:
        cols += [f"L_{k + 1}" for k in range(K)]
        cols += [f"U_{k + 1}" for k in range(K)]
    lines = [",".join(cols)]
    for t in range(n):
        row = [str(t + 1)]
        row += [repr(float(v)) for v in trace.allocations[t]]
        row += [str(int(v)) for v in trace.observations[t]]
        row.append(repr(float(trace.regrets[t])))
        row.append(repr(float(trace.cum_regrets[t])))
        if with_intervals:
            row += [repr(float(v)) for v in trace.lower_recips[t]]
            row += [repr(float(v)) for v in trace.upper_recips[t]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def carry_forward(hist: array, n: int, K: int) -> np.ndarray:
    """The flat step-major history ``hist`` as an n x K array (sharing its
    buffer), each whole column carried forward from its last written row
    over its NaN rows at once."""
    values = np.frombuffer(hist).reshape(n, K)
    step = np.arange(n)
    for column in values.T:
        last = np.where(np.isnan(column), 0, step)
        np.maximum.accumulate(last, out=last)
        column[:] = column[last]
    return values


def dense_fill(lower_recips: Sequence[float], budget: float = 1.0) -> list:
    """Greedy fill over all K jobs at once: sort every job that has a bound
    (lower_recip > 0) by (1 / lower_recip, k) and give each in turn
    ``min(nu_lower, remaining budget)``. Returns the K-long allocation."""
    m = [0.0] * len(lower_recips)
    order = sorted((1.0 / L, k) for k, L in enumerate(lower_recips) if L > 0.0)
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


def simulate_dense(instance, options, profile, rng, lower_bounds):
    """The episode step loop with O(K) work per step: every step refills all
    K jobs from scratch, samples every job and records full rows. Oracle for
    ``allocator._simulate``, which takes the same arguments and must return
    the same trace, probe records included."""
    K = instance.num_jobs
    n = instance.horizon
    delta = options.delta_override if options.delta_override is not None else default_delta(n, K)
    weighted = options.mode == "weighted"
    recips = instance.recips
    rho_star = profile.rho_star
    probing = lower_bounds is None

    def build(nu_lower0: float) -> EstimatorState:
        return EstimatorState(nu_lower0, delta, weighted=weighted)

    states = [None] * K if probing else [build(v) for v in lower_bounds]
    records = [None] * K
    probes: list = []

    allocations, observations, regrets = [], [], []
    lower_hist, upper_hist = [], []
    draws: list = []
    pos = 0
    for t in range(n):
        if probing and t < K:
            probes.append(t)
        probe_total = 0.0
        for k in probes:
            probe_total += 2.0 ** (k - t - 1)
        m = dense_fill([0.0 if s is None else s.lower_recip for s in states], 1.0 - probe_total)
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
                if states[k] is not None:
                    states[k].update(mk, x)
        for k in probes:
            local = t + 1 - k
            if xs[k] == 0 or local == MAX_HALVING_STEPS:
                states[k] = build(2.0**-local)
                records[k] = {
                    "job": k,
                    "steps_used": local,
                    "nu_lower0": 2.0**-local,
                    "consumption": [2.0**-i for i in range(1, local + 1)],
                    "capped": xs[k] == 1,
                }
        probes = [k for k in probes if states[k] is None]
        allocations.append(m)
        observations.append(xs)
        regrets.append(rho_star - reward)
        lower_hist.append([0.0 if s is None else s.lower_recip for s in states])
        upper_hist.append([0.0 if s is None else s.upper_recip for s in states])

    def rows(values, dtype=np.float64):
        return np.array(values, dtype=dtype).reshape(n, K)

    metadata = {
        "nus": list(instance.nus),
        "horizon": n,
        "base_seed": instance.base_seed,
        "seed": options.seed,
        "mode": options.mode,
        "delta": delta,
    }
    if probing:
        metadata["init_records"] = [r for r in records if r is not None]
    else:
        metadata["initial_lower_bounds"] = list(lower_bounds)
    regrets = np.array(regrets, dtype=np.float64)
    cum_regrets = np.cumsum(regrets)
    return RunTrace(
        allocations=rows(allocations),
        observations=rows(observations, np.uint8),
        regrets=regrets,
        cum_regrets=cum_regrets,
        final_regret=float(cum_regrets[-1]),
        estimators=states,
        metadata=metadata,
        lower_recips=rows(lower_hist) if options.record == "intervals" else None,
        upper_recips=rows(upper_hist) if options.record == "intervals" else None,
    )


def bootstrap_ci(
    values: Sequence[float],
    n_boot: int = 10_000,
    alpha: float = 0.05,
    seed: int = 0,
) -> tuple:
    """Percentile bootstrap interval for the mean."""
    arr = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(arr), size=(n_boot, len(arr)))
    means = arr[idx].mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)
