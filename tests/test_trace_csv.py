"""RunTrace.to_csv against the row-by-row oracle on hand-built traces.

Every float column holds signed zeros, the smallest subnormal, values whose
shortest repr switches notation (1e-5, 1e16), a non-terminating binary
fraction, both infinities and NaNs with different bit patterns, mixed with
repeated and one-off values. Horizons sit on and just past the writer's
block boundary and span several blocks.
"""

import tracemalloc

import numpy as np
import pytest

from alloc_bandit import allocator
from alloc_bandit.allocator import RunTrace

from reference import trace_csv_text

BLOCK = allocator._CSV_BLOCK

_NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
_PAYLOAD_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
SPECIALS = np.array(
    [0.0, -0.0, 5e-324, 1e-5, 1e16, 1 / 3, np.inf, -np.inf, np.nan, _NEG_NAN, _PAYLOAD_NAN]
)


def _column(rng, n: int, shift: int) -> np.ndarray:
    pool = np.concatenate([SPECIALS, rng.random(50)])
    col = pool[rng.integers(len(pool), size=n)]
    fresh = rng.random(n) < 0.3
    count = int(fresh.sum())
    col[fresh] = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, size=count)
    head = min(n, len(SPECIALS))
    col[:head] = np.roll(SPECIALS, shift)[:head]
    return col


def hand_built_trace(n: int, K: int, intervals: bool, seed: int = 0) -> RunTrace:
    rng = np.random.default_rng(seed)
    shift = iter(range(4 * K + 2))

    def block(width: int) -> np.ndarray:
        return np.stack([_column(rng, n, next(shift)) for _ in range(width)], axis=1)

    allocations = block(K)
    regrets = block(1)[:, 0]
    cum_regrets = block(1)[:, 0]
    return RunTrace(
        allocations=allocations,
        observations=rng.integers(0, 2, size=(n, K), dtype=np.uint8),
        regrets=regrets,
        cum_regrets=cum_regrets,
        final_regret=0.0,
        estimators=[None] * K,
        metadata={},
        lower_recips=block(K) if intervals else None,
        upper_recips=block(K) if intervals else None,
    )


@pytest.mark.parametrize("n", [0, 1, 4 * BLOCK, 4 * BLOCK + 1, 12 * BLOCK + 5])
@pytest.mark.parametrize("intervals", [False, True])
@pytest.mark.parametrize("K", [1, 3])
def test_matches_row_by_row_oracle(K, intervals, n, tmp_path):
    trace = hand_built_trace(n, K, intervals, seed=K * 10 + intervals)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    assert path.read_bytes() == trace_csv_text(trace).encode()


def test_every_special_value_in_every_column(tmp_path):
    trace = hand_built_trace(len(SPECIALS), 3, True)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    expected = {"0.0", "-0.0", "5e-324", "1e-05", "1e+16", repr(1 / 3), "inf", "-inf", "nan"}
    for name, cells in zip(header, zip(*rows)):
        if name[0] in "MLUrc":
            assert set(cells) == expected, name


def test_failure_in_a_later_block_leaves_nothing_behind(tmp_path):
    trace = hand_built_trace(3 * BLOCK, 2, True)
    # An outcome of 2 has no text, so formatting the third block fails after
    # the first two were written.
    trace.observations[2 * BLOCK, 1] = 2
    path = tmp_path / "trace.csv"
    path.write_bytes(b"earlier output\n")
    with pytest.raises(IndexError):
        trace.to_csv(str(path))
    assert path.read_bytes() == b"earlier output\n"
    assert list(tmp_path.glob("*.tmp")) == []


def _to_csv_peak(trace, path: str) -> int:
    """Peak bytes allocated while ``trace.to_csv(path)`` runs."""
    tracemalloc.start()
    try:
        trace.to_csv(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_one_block_not_the_file(tmp_path, monkeypatch):
    # Smaller blocks keep the traced runs short; the peak should follow the
    # block, whatever its size, and not the number of rows.
    block = 512
    monkeypatch.setattr(allocator, "_CSV_BLOCK", block)
    peaks = {}
    for blocks in (10, 40):
        path = tmp_path / f"trace_{blocks}.csv"
        peaks[blocks] = _to_csv_peak(hand_built_trace(blocks * block, 2, True), str(path))
    assert peaks[40] <= 1.25 * peaks[10], peaks
    assert peaks[40] < path.stat().st_size / 4, (peaks, path.stat().st_size)
