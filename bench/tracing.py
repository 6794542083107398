"""Spans around the calls into each library layer, installed from outside.

Nothing under ``src/`` knows about tracing: ``Tracer.installed()`` replaces
each name below with a wrapper that records a span (name, start, end, parent
span) and restores every original on exit. A name imported by name into
another module is a separate binding, so each binding is patched where it is
looked up. Spans are kept in flat arrays in memory and written out once at
the end. Tracing assumes one thread and one process (workers=1).
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from alloc_bandit import allocator, cli, estimator, harness, initialization


def _episode_steps(counters, args, result):
    counters["allocator.steps"] += args[0].horizon


def _modified_steps(counters, args, result):
    """Steps and probe-active steps of one self-initialising episode. Job
    k's probe (0-based) is active from global step k+1 for ``steps_used``
    steps; probes start on consecutive steps, so the active steps run from
    1 to the last probe's end."""
    n = args[0].horizon
    records = result.metadata["init_records"]
    if len(records) < args[0].num_jobs:
        last = n
    else:
        last = min(n, max(r["job"] + r["steps_used"] for r in records))
    counters["initialization.steps"] += n
    counters["initialization.probe_steps"] += last


def _csv_rows(counters, args, result):
    counters["allocator.csv_rows"] += len(args[0].regrets)


def _written(counters, args, result):
    # The library writes ASCII only, so characters are bytes.
    counters["allocator.write_bytes"] += len(args[1])


def _patch_points():
    """(owner, attribute, span name, counter) for every binding wrapped."""
    return [
        (harness, "run_experiment", "harness.run", None),
        (harness, "minimax_stress", "harness.run", None),
        (harness, "_run_cell", "harness.cell", None),
        (harness, "_minimax_cell", "harness.cell", None),
        (harness, "emit_csv", "harness.emit_csv", None),
        (cli, "main", "cli.main", None),
        (harness, "ProblemInstance", "model.setup", None),
        (allocator, "optimal_profile", "model.setup", None),
        (allocator, "split_rng", "model.setup", None),
        (initialization, "optimal_profile", "model.setup", None),
        (initialization, "split_rng", "model.setup", None),
        (harness, "run_episode", "allocator.episode", _episode_steps),
        (cli, "run_episode", "allocator.episode", _episode_steps),
        (harness, "run_modified", "initialization.episode", _modified_steps),
        (cli, "run_modified", "initialization.episode", _modified_steps),
        (allocator, "_allocate_raw", "allocator.fill", None),
        (initialization, "_allocate_raw", "allocator.fill", None),
        (estimator.EstimatorState, "update", "estimator.update", None),
        (estimator, "confidence_radius_f", "estimator.radius", None),
        (allocator.RunTrace, "to_csv", "allocator.to_csv", _csv_rows),
        (allocator, "atomic_write_text", "allocator.write", _written),
        (harness, "atomic_write_text", "allocator.write", _written),
        (cli, "atomic_write_text", "allocator.write", _written),
    ]


COUNTERS = (
    "allocator.steps",
    "initialization.steps",
    "initialization.probe_steps",
    "allocator.csv_rows",
    "allocator.write_bytes",
)


class Tracer:
    """Spans of one traced operation, in call order."""

    def __init__(self):
        self.names: list = []
        self.name_ids = array("B")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list = []

    def _wrap(self, fn, name, count):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, count in _patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end."""
        return (
            np.frombuffer(self.name_ids, dtype=np.uint8),
            np.frombuffer(self.parents, dtype=np.int64),
            np.frombuffer(self.starts),
            np.frombuffer(self.ends),
        )

    def save(self, path: str) -> None:
        name_ids, parents, starts, ends = self.arrays()
        np.savez(
            path, names=np.array(self.names), name_ids=name_ids,
            parents=parents, starts=starts, ends=ends,
        )

    def per_name(self) -> dict:
        """name -> (calls, total seconds, self seconds, span durations).
        Self time is a span's duration minus the time its child spans
        cover; with one thread the children are disjoint and nested."""
        name_ids, parents, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - covered
        out = {}
        for name_id, name in enumerate(self.names):
            mask = name_ids == name_id
            out[name] = (int(mask.sum()), float(dur[mask].sum()), float(own[mask].sum()), dur[mask])
        return out


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict:
    """Per-layer metrics of one traced operation, as (value, unit)."""
    spans = tracer.per_name()
    empty = (0, 0.0, 0.0, np.empty(0))

    def calls(name):
        return spans.get(name, empty)[0]

    def total(name):
        return spans.get(name, empty)[1]

    def own(name):
        return spans.get(name, empty)[2]

    def us_per(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    c = tracer.counters
    cell_ms = spans.get("harness.cell", empty)[3] * 1e3
    episodes = calls("allocator.episode") + calls("initialization.episode")
    return {
        "estimator.update_calls": (calls("estimator.update"), "count"),
        "estimator.update_us": (us_per(own("estimator.update"), calls("estimator.update")), "us"),
        "estimator.radius_us": (us_per(total("estimator.radius"), calls("estimator.radius")), "us"),
        "estimator.share": (total("estimator.update") / traced_wall, "frac"),
        "allocator.fill_calls": (calls("allocator.fill"), "count"),
        "allocator.fill_us": (us_per(total("allocator.fill"), calls("allocator.fill")), "us"),
        "allocator.episode_step_us": (
            us_per(own("allocator.episode"), c["allocator.steps"]), "us"),
        "allocator.to_csv_us_per_row": (
            us_per(own("allocator.to_csv"), c["allocator.csv_rows"]), "us"),
        "allocator.write_ms": (total("allocator.write") * 1e3, "ms"),
        "allocator.write_bytes": (c["allocator.write_bytes"], "bytes"),
        "initialization.step_us": (
            us_per(own("initialization.episode"), c["initialization.steps"]), "us"),
        "initialization.probe_steps": (c["initialization.probe_steps"], "count"),
        "model.cell_setup_us": (us_per(total("model.setup"), episodes), "us"),
        "harness.cells": (calls("harness.cell"), "count"),
        "harness.cell_ms_p50": (float(np.percentile(cell_ms, 50)) if len(cell_ms) else 0.0, "ms"),
        "harness.cell_ms_p99": (float(np.percentile(cell_ms, 99)) if len(cell_ms) else 0.0, "ms"),
        "harness.cell_samples": (len(cell_ms), "count"),
        "harness.aggregate_ms": ((own("harness.run") + total("harness.emit_csv")) * 1e3, "ms"),
        "cli.overhead_ms": (own("cli.main") * 1e3, "ms"),
    }
