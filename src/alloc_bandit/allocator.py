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
everyone else's allocation and outcome stay 0 in the trace. The fill itself
is reused: it is recomputed only on a step where a probe runs or the
previous step changed the fill order, since otherwise it would come out
the same.

How much of an episode is kept is one recording level (``PolicyOptions.
record``): ``"final"`` keeps only the final cumulative regret and the
estimators, which is all a Monte-Carlo cell needs; ``"steps"`` adds the
per-step allocations, outcomes and regrets a trace CSV is written from;
``"intervals"`` adds the per-step confidence intervals. One loop and one
draw stream serve every level: an outcome is written where it is sampled,
and every other recorded column, a step function, only at the step it
changes and carried forward after it; see ``_simulate``.
"""

from __future__ import annotations

import numbers
import os
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .estimator import EstimatorState
from .model import (
    ProblemInstance,
    _allocate_raw,
    _bounds,
    _seed,
    optimal_profile,
    split_rng,
)

MODES = ("weighted", "unweighted")

# Uniform draws are pre-generated in blocks of this many steps; the stream
# order (step-major, job-minor) is identical to per-step sampling.
_DRAW_BLOCK = 1024

# Recorded histories are carried forward, and trace CSV rows formatted,
# this many rows at a time, so post-loop temporaries stay one block.
_CSV_BLOCK = 1024

# 2^-64 is the smallest probe allocation; beyond that the schedule is
# meaningless at double precision.
MAX_HALVING_STEPS = 64

RECORD_LEVELS = ("final", "steps", "intervals")


@dataclass(frozen=True)
class PolicyOptions:
    """Knobs for one episode: estimator mode, confidence override, recording
    level (one of ``RECORD_LEVELS``) and the stream index used to derive
    the episode RNG, stored as an int in [0, 2**64) (``model._seed``)."""

    mode: str = "weighted"
    delta_override: Optional[float] = None
    record: str = "steps"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.record not in RECORD_LEVELS:
            raise ValueError(f"record must be one of {RECORD_LEVELS}, got {self.record!r}")
        delta = self.delta_override
        if delta is not None and not (isinstance(delta, numbers.Real) and 0.0 < delta < 1.0):
            raise ValueError(f"delta_override must lie in (0, 1), got {self.delta_override}")
        object.__setattr__(self, "seed", _seed("seed", self.seed))


@dataclass
class RunTrace:
    """Record of one episode at its recording level.

    ``final_regret`` is the cumulative pseudo-regret after the last step and
    ``estimators`` the final per-job states, at every level. From level
    ``"steps"`` on, ``allocations[t]`` is the realized per-job allocation at
    step t+1 (including any initializer consumption for the
    self-initializing runner), ``observations[t]`` the outcomes,
    ``regrets[t]`` the per-step pseudo-regret and ``cum_regrets`` its
    running sum; at ``"final"`` they are None. ``lower_recips`` /
    ``upper_recips`` hold post-update interval snapshots at level
    ``"intervals"`` (0.0 marks a job whose estimator does not exist yet).
    ``metadata`` holds ``delta`` and, for the self-initializing runner,
    the probe records ``init_records`` (see ``_simulate``), at every level.
    """

    estimators: list
    metadata: dict
    final_regret: float
    allocations: Optional[np.ndarray] = None
    observations: Optional[np.ndarray] = None
    regrets: Optional[np.ndarray] = None
    cum_regrets: Optional[np.ndarray] = None
    lower_recips: Optional[np.ndarray] = None
    upper_recips: Optional[np.ndarray] = None

    def to_csv(self, path: str) -> None:
        """Write one row per step: t, M_k, X_k, r_t, cumregret[, L_k, U_k].

        Streamed to a temp file one block of ``_CSV_BLOCK`` rows at a time,
        so beyond the trace's arrays memory holds one block's text, not the
        file's, and renamed into place once every block is written: a
        failure in any block leaves no partial output. Floats use shortest
        round-trip decimals so re-emission is byte-identical. A trace
        recorded at level ``"final"`` has no rows and is rejected.
        """
        if self.allocations is None:
            raise ValueError("a trace recorded at level 'final' has no per-step rows")
        _write_chunks(path, self._csv_blocks())

    def _csv_blocks(self) -> Iterator[str]:
        """The CSV text in pieces: the header, then ``_CSV_BLOCK`` rows at a
        time.

        Per block each column becomes a list of cell strings, and the rows
        are joined from those lists; those strings and lists, one block's
        worth, are all the temporary memory. A float column is split into
        runs of equal bit patterns and ``repr`` runs once per run (so -0.0,
        nan and inf print as ``repr`` prints them): the columns are step
        series that mostly change only now and then.
        """
        n, K = self.allocations.shape
        cols = ["t"]
        cols += [f"M_{k + 1}" for k in range(K)]
        cols += [f"X_{k + 1}" for k in range(K)]
        cols += ["r_t", "cumregret"]
        # The float columns after the outcomes, in column order.
        tail = [self.regrets, self.cum_regrets]
        if self.lower_recips is not None:
            cols += [f"L_{k + 1}" for k in range(K)]
            cols += [f"U_{k + 1}" for k in range(K)]
            tail += [self.lower_recips[:, k] for k in range(K)]
            tail += [self.upper_recips[:, k] for k in range(K)]
        bits_table = np.array(["0", "1"], dtype=object)
        yield ",".join(cols) + "\n"
        for start in range(0, n, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, n)
            columns = [list(map(str, range(start + 1, stop + 1)))]
            columns += [_run_texts(self.allocations[start:stop, k]) for k in range(K)]
            outcomes = bits_table[self.observations[start:stop]]
            columns += [outcomes[:, k].tolist() for k in range(K)]
            columns += [_run_texts(values[start:stop]) for values in tail]
            yield "\n".join(map(",".join, zip(*columns))) + "\n"


def _run_texts(values: np.ndarray) -> list:
    """``repr`` of each float in ``values``, computed once per run of equal
    bit patterns."""
    bits = values.view(np.uint64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = list(map(repr, values[starts].tolist()))
    if len(texts) == len(values):
        return texts
    return np.repeat(np.array(texts, dtype=object), np.diff(starts, append=len(values))).tolist()


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as ``_write_chunks`` does."""
    _write_chunks(path, (text,))


def _write_chunks(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks in order to a temp file in the target directory and
    rename it into place, so a failure, even while producing a later chunk,
    never leaves partial output.

    The temp file, under a random name, is created as a plain
    ``open(path, "w")`` creates a file: mode 0o666, less the umask the OS
    applies. An error creating or renaming the file names ``path``, not the
    temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.writelines(chunks)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        os.unlink(tmp)
        raise


def default_delta(horizon: int, num_jobs: int) -> float:
    """Per-update confidence level (n K)^-2, with n K floored at 2 so that a
    one-step, one-job episode still gets a level inside (0, 1)."""
    return float(max(horizon * num_jobs, 2)) ** -2


def _simulate(
    instance: ProblemInstance,
    options: PolicyOptions,
    rho_star: float,
    rng: np.random.Generator,
    lower_bounds: Optional[Sequence[float]],
) -> RunTrace:
    """The step loop behind both episode runners.

    With ``lower_bounds`` every estimator starts from its bound. With None,
    job k's halving probe starts at step k+1 and allocates 2^-(local step)
    until its first failure or the 64-step guard; the job's estimator is
    then built from the last probe allocation. Per step the active probes
    take their share first, the main policy fills the rest over the fill
    order of jobs that have an estimator, one outcome is sampled per job
    that received resources, and only main-policy outcomes update
    estimators. Pseudo-regret, ``rho_star`` (``optimal_profile``) less the
    fill's expected reward, is charged from step 1; a fill's regret is
    computed with the fill and charged on every step the fill holds.

    Per-step work scales with the jobs that receive resources, not with K.
    Each step still advances the draw stream by K, and job k reads the k-th
    draw of its step, so the stream is the one per-step sampling of every
    job would consume; a job given nothing would draw X = 0 regardless.
    The draws come in blocks of ``_DRAW_BLOCK`` steps, one block taken at
    every ``_DRAW_BLOCK``-th step at every level and only one held at a
    time; the last block may run past the horizon, but the generator is
    dropped after the loop, so the draws it consumed are never read.

    The loop writes each recorded column only where it changes, into a
    NaN-filled step-major history, and ``_carry_forward`` carries every
    history forward after the loop one block of rows at a time, so beyond
    the returned arrays a recorded episode holds one block of draws and,
    after the loop, one block of rows. At ``"steps"`` a step that computes
    a fill writes the fill's regret and its allocation row (a zero row,
    then the funded takes), and an outcome of 1 is written where it is
    sampled, into a zero-filled n x K byte buffer. At ``"intervals"`` row 0
    holds the initial bounds, and a job's bound is written at the step it
    moves (the lower bound when a probe builds the estimator).

    Returns the trace, recorded at the level ``options.record`` names. Its
    metadata holds only what the episode decided: ``delta``, the confidence
    level used, and, for the probing runner, ``init_records``: one dict per
    finished probe, in job order, with the ``job``, ``steps_used`` and
    ``capped`` (stopped by the guard, not a failure). The probe's bound is
    2^-steps_used and it consumed 2^-1 ... 2^-steps_used; the inputs
    (instance, options, known bounds) stay with the caller.
    """
    K = instance.num_jobs
    n = instance.horizon
    delta = options.delta_override if options.delta_override is not None else default_delta(n, K)
    weighted = options.mode == "weighted"
    recips = instance.recips
    probing = lower_bounds is None
    steps = options.record != "final"
    intervals = options.record == "intervals"

    def build(nu_lower0: float) -> EstimatorState:
        return EstimatorState(nu_lower0, delta, weighted=weighted)

    states = [None] * K if probing else [build(v) for v in lower_bounds]
    # The fill order: (1 / lower_recip, k) of every job with an estimator,
    # sorted. Only an update that moves a job's lower bound re-keys it, and
    # every re-keying sets ``stale``: without it and without a running probe,
    # the fill equals the previous step's and ``touched`` is kept.
    order = sorted((1.0 / s.lower_recip, k) for k, s in enumerate(states) if s is not None)
    stale = True
    touched: list = []
    records = [None] * K  # each job's probe record, once its probe ends
    probes: list = []  # jobs whose probe is running, in job order

    # Flat step-major histories (n x K, regrets n x 1), NaN where nothing
    # was written; ``_carry_forward`` fills those rows from the last write.
    # Row 0 is always written: step 0 computes a fill (``stale`` starts
    # True), and L and U start from the initial row. No recorded value is
    # NaN: takes are 0.0 or positive and finite, a regret is finite, and no
    # bound is (inputs are positive and finite, sum_wm > 0, an infinite
    # radius leaves both clamps as they were). No bound is -0.0 either
    # (x - x is +0.0; a collapse sets U to L > 0), so ``!=`` tells exactly
    # when a bound moved.
    if steps:
        regret_hist = array("d", [np.nan]) * n
        alloc_hist = array("d", [np.nan]) * (n * K)
        zero_row = array("d", [0.0]) * K
        # Zero-filled, not carried forward: only a sampled 1 is written.
        outcome_hist = bytearray(n * K)
    if intervals:
        lower_hist = array("d", [np.nan]) * (n * K)
        upper_hist = array("d", [np.nan]) * (n * K)
        lower_hist[:K] = array("d", [0.0 if s is None else s.lower_recip for s in states])
        upper_hist[:K] = array("d", [0.0]) * K

    # A step reads only the draws of the jobs it touches, so the block stays
    # a float64 buffer instead of becoming one Python float per draw.
    draws = memoryview(b"")
    pos = 0
    refill = 0  # the step that takes the next block of draws
    probe_until = K if probing else 0  # job t's probe starts at step t+1
    # Summed one step at a time, as np.cumsum sums the per-step regrets.
    cum = 0.0
    for t in range(n):
        if t < probe_until:
            probes.append(t)
        if probes or stale:
            probe_total = 0.0
            for k in probes:
                probe_total += 2.0 ** (k - t - 1)
            touched = _allocate_raw(order, 1.0 - probe_total)
            for k in probes:
                touched.append((k, 2.0 ** (k - t - 1)))
            # Visit in job order, as sampling every job would: that fixes the
            # order in which rewards are summed.
            touched.sort()
            stale = False
            # A fill holds until the next one, and so does its regret.
            reward = 0.0
            for k, mk in touched:
                p = mk * recips[k]
                reward += p if p < 1.0 else 1.0
            regret = rho_star - reward
            if steps:
                regret_hist[t] = regret
                alloc_hist[t * K : t * K + K] = zero_row
                for k, mk in touched:
                    alloc_hist[t * K + k] = mk

        if t == refill:
            draws.release()  # so the old block is freed before the new one
            draws = memoryview(rng.random(_DRAW_BLOCK * K))
            pos = 0
            refill += _DRAW_BLOCK
        for k, mk in touched:
            x = 1 if draws[pos + k] < mk * recips[k] else 0
            if steps and x:
                outcome_hist[t * K + k] = 1
            s = states[k]
            if s is None:
                # A probing job has no estimator yet; its outcome feeds the probe.
                local = t + 1 - k
                if x == 1 and local < MAX_HALVING_STEPS:
                    continue
                s = states[k] = build(2.0**-local)
                records[k] = {"job": k, "steps_used": local, "capped": x == 1}
                insort(order, (1.0 / s.lower_recip, k))
                stale = True
                if intervals:
                    # U starts at 0.0, which the history already carries.
                    lower_hist[t * K + k] = s.lower_recip
            else:
                lower_prev = s.lower_recip
                upper_prev = s.upper_recip
                s.update(mk, x)
                if s.lower_recip != lower_prev:
                    del order[bisect_left(order, (1.0 / lower_prev, k))]
                    insort(order, (1.0 / s.lower_recip, k))
                    stale = True
                    if intervals:
                        lower_hist[t * K + k] = s.lower_recip
                if intervals and s.upper_recip != upper_prev:
                    upper_hist[t * K + k] = s.upper_recip
        # Every step consumes K draws, one per job in job order.
        pos += K
        if probes:
            probes = [k for k in probes if states[k] is None]
        cum += regret

    metadata = {"delta": delta}
    if probing:
        metadata["init_records"] = [r for r in records if r is not None]
    trace = RunTrace(estimators=states, metadata=metadata, final_regret=cum)
    if steps:
        trace.allocations = _carry_forward(alloc_hist, n, K)
        trace.regrets = _carry_forward(regret_hist, n, 1).reshape(n)
        trace.cum_regrets = np.cumsum(trace.regrets)
        trace.observations = np.frombuffer(outcome_hist, np.uint8).reshape(n, K)
    if intervals:
        trace.lower_recips = _carry_forward(lower_hist, n, K)
        trace.upper_recips = _carry_forward(upper_hist, n, K)
    return trace


def _carry_forward(hist: array, n: int, K: int) -> np.ndarray:
    """The flat step-major history ``hist`` as an n x K array (sharing its
    buffer), each column carried forward from its last written row over
    the NaN rows the step loop left unwritten.

    A column is filled ``_CSV_BLOCK`` rows at a time, each block together
    with the row before it (row 0, or the previous block's filled last
    row), so the temporaries are one block whatever n and K are."""
    values = np.frombuffer(hist).reshape(n, K)
    step = np.arange(_CSV_BLOCK + 1)
    for column in values.T:
        for start in range(1, n, _CSV_BLOCK):
            block = column[start - 1 : start + _CSV_BLOCK]
            last = np.where(np.isnan(block), 0, step[: len(block)])
            np.maximum.accumulate(last, out=last)
            block[:] = block[last]
    return values


def run_episode(
    instance: ProblemInstance,
    initial_lower_bounds: Sequence[float],
    options: PolicyOptions = PolicyOptions(),
) -> RunTrace:
    """Run the optimistic policy for the full horizon from known lower
    bounds 0 < nu_lower0_k <= nu_k.

    Violated initial bounds void the confidence guarantees but the runner
    still executes; bounds that are not numbers, or an entry
    ``initial_lower_bounds[i]`` that is not positive and finite with a finite
    reciprocal (``model._bounds``), are rejected before the first step. Jobs
    receiving zero allocation at a step contribute no information and their
    estimator is not updated. Deterministic given (instance.base_seed, options.seed).
    """
    lbs = _bounds("initial_lower_bounds", initial_lower_bounds)
    if len(lbs) != instance.num_jobs:
        raise ValueError(f"expected {instance.num_jobs} initial lower bounds, got {len(lbs)}")
    rho_star = optimal_profile(instance)
    rng = split_rng(instance.base_seed, options.seed)
    return _simulate(instance, options, rho_star, rng, lbs)
