"""The compiled merge schedule against its Python oracle.

:func:`repro.core.kernels.greedy_merge_trajectory` runs ``_trajectory.c``,
its only product path; :func:`oracles.trajectory` is the Python loop it
was written from.  The parity property calls both on drawn shards and
requires the same dtype, shape and bytes in all four output columns,
also where keys overflow to ``inf`` and ``NaN``.  The remaining tests
cover errors, the buffer checks and the GIL.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import oracles
from repro.core import native
from repro.core.kernels import greedy_merge_trajectory


def shard(rng: np.random.Generator, *, count: int, width: int, groups: int,
          offset: float, magnitude: float, ties: bool, weighted: bool):
    """``count`` blocks in ``groups`` groups, chronological within a group,
    with random gaps and lengths."""
    group_of = np.sort(rng.integers(0, groups, count)).astype(np.int64)
    lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < 0.1, rng.integers(1, 5, count), 0)
    starts = (np.cumsum(lengths + gaps) - lengths).astype(np.int64)
    ends = starts + lengths - 1
    with np.errstate(over="ignore"):
        values = offset + magnitude * rng.normal(size=(count, width))
        if ties:
            values = np.round(values / max(magnitude, 1.0) * 3.0)
    w2 = rng.uniform(0.25, 4.0, width) if weighted else np.ones(width)
    return starts, ends, values, group_of, w2


def draw(seed: int):
    rng = np.random.default_rng(seed)
    return shard(
        rng,
        count=int(rng.integers(0, 401)),
        width=int(rng.choice([1, 2, 5])),
        groups=int(rng.integers(1, 4)),
        offset=float(rng.choice([0.0, 1e6, -1e6, 1.7e308])),
        magnitude=float(rng.choice([1.0, 10.0, 1e154, 1e300])),
        ties=bool(rng.random() < 0.3),
        weighted=bool(rng.random() < 0.5),
    )


def assert_same(got, want):
    assert len(got) == len(want) == 4
    for column, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype, column
        assert a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column


def both(*args):
    with np.errstate(all="ignore"):  # keys that overflow
        return greedy_merge_trajectory(*args), oracles.trajectory(*args)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block", range(8))
def test_compiled_schedule_is_the_oracles_schedule(block):
    """400 drawn shards: n <= 400, 1-3 groups with gaps, p in {1, 2, 5},
    weights, integer-valued ties, offsets of 1e6, and magnitudes of
    1e154-1e300 or an offset of 1.7e308, where keys and merged rows
    overflow to inf and later keys to NaN."""
    for seed in range(block * 50, block * 50 + 50):
        assert_same(*both(*draw(seed)))


def test_the_draws_reach_inf_and_nan_keys():
    """The parity draws above do hold schedules with inf and NaN keys."""
    seen = set()
    for seed in range(400):
        starts, ends, values, groups, w2 = draw(seed)
        with np.errstate(all="ignore"):
            _, keys, _, _ = oracles.trajectory(starts, ends, values, groups,
                                               w2)
        seen.update(("inf",) if np.isinf(keys).any() else ())
        seen.update(("nan",) if np.isnan(keys).any() else ())
    assert seen == {"inf", "nan"}


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_tiny_shards(count):
    starts = np.arange(count, dtype=np.int64)
    values = np.arange(count * 2, dtype=np.float64).reshape(count, 2)
    assert_same(*both(starts, starts, values, np.zeros(count, np.int64),
                      np.ones(2)))


def test_shards_without_merges_and_other_dtypes():
    """No adjacent pair; int32 endpoints, float32 values, list weights."""
    starts = np.arange(0, 20, 2, dtype=np.int64)
    values = np.ones((10, 1))
    assert_same(*both(starts, starts, values, np.zeros(10, np.int64),
                      np.ones(1)))
    rng = np.random.default_rng(4)
    starts, ends, values, groups, _ = shard(
        rng, count=300, width=2, groups=2, offset=0.0, magnitude=1.0,
        ties=True, weighted=False,
    )
    assert_same(*both(starts.astype(np.int32), ends.astype(np.int32),
                      values.astype(np.float32), groups, [1.0, 2.0]))


def test_a_zero_length_sum_raises_in_both_loops():
    """A block of length -1 next to one of length 1: their merged row
    divides by zero, in Python and in C alike."""
    starts = np.array([0, 1, 5], dtype=np.int64)
    ends = np.array([0, -1, 5], dtype=np.int64)
    values = np.array([[1.0], [2.0], [3.0]])
    for loop in (greedy_merge_trajectory, oracles.trajectory):
        with np.errstate(all="ignore"), pytest.raises(ZeroDivisionError):
            loop(starts, ends, values, np.zeros(3, np.int64), np.ones(1))


def test_the_schedule_runs_the_compiled_loop(monkeypatch):
    calls = []
    kernel = native.KERNEL

    class Counting:
        @staticmethod
        def trajectory(*args):
            calls.append(len(args))
            return kernel.trajectory(*args)

    monkeypatch.setattr(native, "KERNEL", Counting)
    starts, ends, values, groups, w2 = draw(7)
    assert_same(greedy_merge_trajectory(starts, ends, values, groups, w2),
                oracles.trajectory(starts, ends, values, groups, w2))
    assert calls == [10]


def test_the_kernel_checks_its_buffers():
    kernel = native.KERNEL
    length = np.ones(3)
    rows = np.zeros(3)
    args = [length, rows, np.ones(1), np.ones(2, np.bool_), np.zeros(2),
            np.array([0, 1], np.int64), np.empty(2, np.int64), np.empty(2),
            np.empty(2, np.int64), np.empty(2)]
    assert kernel.trajectory(*args) == 2
    bad = list(args)
    bad[5] = np.array([0, 2], np.int64)  # a pair position past the end
    with pytest.raises(ValueError):
        kernel.trajectory(*bad)
    bad = list(args)
    bad[6] = np.empty(1, np.int64)  # too short for n - 1 steps
    with pytest.raises(ValueError):
        kernel.trajectory(*bad)
    bad = list(args)
    bad[2] = np.ones(0)  # fewer weights than dimensions
    with pytest.raises(ValueError):
        kernel.trajectory(*bad)


# ----------------------------------------------------------------------
# The GIL
# ----------------------------------------------------------------------
def test_another_thread_runs_during_a_large_trajectory(monkeypatch):
    kernel = native.KERNEL
    window = []

    class Timed:
        @staticmethod
        def trajectory(*args):
            window.append(time.perf_counter())
            try:
                return kernel.trajectory(*args)
            finally:
                window.append(time.perf_counter())

    monkeypatch.setattr(native, "KERNEL", Timed)
    starts, ends, values, groups, w2 = shard(
        np.random.default_rng(5), count=200_000, width=1, groups=1,
        offset=0.0, magnitude=1.0, ties=False, weighted=False,
    )
    ticks = []
    done = threading.Event()

    def ticker():
        while not done.is_set():
            ticks.append(time.perf_counter())
            time.sleep(0)

    thread = threading.Thread(target=ticker)
    thread.start()
    try:
        boundaries, _, _, _ = greedy_merge_trajectory(
            starts, ends, values, groups, w2
        )
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(boundaries) > 150_000
    # The middle half of the call: the ticker can also run between the
    # timestamps and the call itself, but not inside it unless the loop
    # lets go of the GIL.
    began, ended = window
    quarter = (ended - began) / 4
    inside = [tick for tick in ticks if began + quarter < tick < ended - quarter]
    assert inside, (
        f"no tick in the middle of the {ended - began:.3f} s the compiled "
        f"loop ran ({threading.active_count()} threads alive)"
    )
