"""Bit-exact parity of the sharded engine's merge-schedule kernel.

:func:`repro.core.kernels.greedy_merge_trajectory` feeds its queue from a
presorted initial frontier plus a heap of refreshed keys, and defers a
refresh that sorts no earlier than the node's queued entry.  Its
``(boundaries, keys)`` output must equal, bit for bit, the schedule of
the python reference :class:`~repro.core.heap.MergeHeap` run down to
``cmin``.  So must its ``(heads, rows)``: at every step, the node the
heap's merge left standing and that node's merged row.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AggregateSegment, MergeHeap
from repro.core.errors import squared_weights
from repro.core.kernels import greedy_merge_trajectory
from repro.pipeline import compress
from repro.temporal import Interval


def _heap_schedule(starts, ends, values, groups, weights):
    """The python heap's merge order, keys, survivors and merged rows
    down to ``cmin``."""
    heap = MergeHeap(weights)
    first = None
    for start, end, row, group in zip(
        starts.tolist(), ends.tolist(), values.tolist(), groups.tolist()
    ):
        node = heap.insert(
            AggregateSegment((group,), tuple(row), Interval(start, end))
        )
        first = node.id if first is None else first
    boundaries, keys, heads, rows = [], [], [], []
    while True:
        top = heap.peek_entry()
        if top is None or math.isinf(top[2]):
            return boundaries, keys, heads, rows
        boundaries.append(top[1] - first)
        keys.append(top[2])
        survivor = heap.merge_top()
        heads.append(survivor.id - first)
        rows.append(list(survivor.segment.values))


def _assert_parity(starts, ends, values, groups, weights=None):
    """Check all four columns bit for bit; return ``(boundaries, keys)``."""
    w2 = np.asarray(squared_weights(weights, values.shape[1]))
    boundaries, keys, heads, rows = greedy_merge_trajectory(
        starts, ends, values, groups, w2
    )
    expected = _heap_schedule(starts, ends, values, groups, weights)
    want_boundaries, want_keys, want_heads, want_rows = expected
    assert (boundaries.tolist(), heads.tolist()) == (
        want_boundaries, want_heads,
    )
    assert keys.tobytes() == np.array(want_keys, np.float64).tobytes()
    assert rows.tobytes() == np.array(want_rows, np.float64).tobytes()
    assert boundaries.dtype == heads.dtype == np.int64
    assert keys.dtype == rows.dtype == np.float64
    assert rows.shape == (len(boundaries), values.shape[1])
    return expected[:2]


def _unit_run(column):
    """One gap-free, single-group run of unit segments, ``p = 1``."""
    count = len(column)
    positions = np.arange(count, dtype=np.int64)
    return (
        positions,
        positions.copy(),
        np.asarray(column, dtype=np.float64).reshape(count, 1),
        np.zeros(count, dtype=np.int64),
    )


@st.composite
def shards(draw):
    """Array-encoded shards: groups, gaps, non-unit lengths, weights and
    values offset far from zero.

    Hypothesis picks the shape and a seed; NumPy fills the columns, so a
    400-row shard costs one draw per knob instead of one per cell.
    """
    count = draw(st.integers(min_value=0, max_value=400))
    dimensions = draw(st.sampled_from([1, 2, 3, 17]))
    integer_valued = draw(st.booleans())
    group_count = draw(st.integers(min_value=1, max_value=4))
    gap_chance = draw(st.sampled_from([0.0, 0.05, 0.3]))
    weighted = draw(st.booleans())
    offset = draw(st.sampled_from([0.0, 1e3, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < gap_chance, rng.integers(1, 4, count), 0)
    starts = np.cumsum(lengths + gaps) - lengths
    ends = starts + lengths - 1
    groups = np.sort(rng.integers(0, group_count, count))
    if integer_valued:
        # Few distinct levels: exact key ties everywhere.
        values = rng.integers(0, 4, (count, dimensions)).astype(np.float64)
    else:
        values = rng.normal(0.0, 10.0, (count, dimensions))
    weights = (
        tuple(rng.uniform(0.5, 2.0, dimensions).tolist()) if weighted else None
    )
    return (
        starts.astype(np.int64),
        ends.astype(np.int64),
        values + offset,
        groups.astype(np.int64),
        weights,
    )


@settings(max_examples=150, deadline=None)
@given(shards())
def test_trajectory_matches_python_heap(shard):
    _assert_parity(*shard)


class TestNamedQueuePaths:
    """Inputs that each hinge on one queue rule (hand-checkable schedules)."""

    def test_refreshed_key_tied_with_queued_initial_key(self):
        # All initial keys are 0.  After boundary 1 merges, node 2's
        # refreshed key is 0 again and ties node 3's still-queued initial
        # entry; the initial entry is older, so boundary 3 goes first.
        assert _assert_parity(*_unit_run([2, 2, 2, 2])) == (
            [1, 3, 2], [0.0, 0.0, 0.0],
        )

    def test_refresh_lowers_key_below_queued_entry(self):
        # Initial keys 2, 2, 0.5.  Merging boundary 3 lowers node 2's key
        # from 2 to SSE{3,5,4} − SSE{5,4} = 1.5, which must be pushed at
        # once to pop before node 1's initial 2.
        assert _assert_parity(*_unit_run([1, 3, 5, 4])) == (
            [3, 2, 1], [0.5, 1.5, 6.75],
        )

    def test_refresh_raises_key_above_queued_entry(self):
        # Initial keys 2 and 0.  Merging boundary 2 raises node 1's key
        # to SSE{5,3,3} = 8/3, so the refresh is deferred behind node 1's
        # stale initial entry and must enter the queue when that pops.
        boundaries, keys = _assert_parity(*_unit_run([5, 3, 3]))
        assert boundaries == [2, 1]
        assert keys[0] == 0.0 and keys[1] == pytest.approx(8 / 3)

    def test_short_and_unmergeable_shards(self):
        assert _assert_parity(*_unit_run([])) == ([], [])
        assert _assert_parity(*_unit_run([7])) == ([], [])
        starts = np.array([0, 5, 9], dtype=np.int64)  # gaps everywhere
        assert _assert_parity(
            starts, starts, np.ones((3, 2)), np.zeros(3, np.int64)
        ) == ([], [])


def _stream(column):
    return [
        AggregateSegment((), (value,), Interval(position, position))
        for position, value in enumerate(column)
    ]


@pytest.mark.parametrize(
    "column, size",
    [
        ([1.0, 2.0, math.nan, 4.0, 5.0, 6.0, 7.0, 8.0], 3),
        ([1.0, 2.0, math.inf, 4.0, 5.0], 2),
    ],
    ids=["nan", "inf"],
)
def test_sharded_engine_rejects_non_finite_values(column, size):
    # Such a value used to slip through and break the size bound (7 and
    # 4 segments instead of 3 and 2).
    with pytest.raises(ValueError, match="segment 2 has a non-finite"):
        compress(_stream(column), size=size, workers=1)
