"""The sharded engine's frontier merge against a k-way heap oracle.

:func:`repro.parallel._reconcile` decides how many steps of each shard's
merge schedule global GMS takes, with one stable sort of all steps by the
running maximum of their shard's keys.  The oracle below is the k-way
merge it replaced: a heap of each shard's next ``(key, shard, step)``,
consumed until ``size`` tuples remain or the next key would take the
running total past the error budget.  Both must agree on the per-shard
counts, the merge count and the bits of the total error, for either
budget, on non-monotone keys, exact ties inside and across shards, and
empty shards.  The error budget is an absolute total, as
:func:`repro.parallel.plan_job` derives it from the whole input: a
shard's schedule carries only its steps.
"""

from __future__ import annotations

import heapq
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import error_budget
from repro.parallel import _reconcile


def heap_reconcile(
    trajectories: Sequence[tuple],
    size: Optional[int],
    budget: Optional[float],
    input_size: int,
) -> Tuple[List[int], float, int]:
    """The k-way heap merge over the shard frontiers (the oracle)."""
    key_lists = [trajectory[1].tolist() for trajectory in trajectories]
    frontier = [
        (keys[0], shard, 0) for shard, keys in enumerate(key_lists) if keys
    ]
    heapq.heapify(frontier)
    counts = [0] * len(trajectories)
    total_error = 0.0
    merges = 0
    while frontier and (size is None or input_size - merges > size):
        key, shard, step = frontier[0]
        if budget is not None and total_error + key > budget:
            break
        counts[shard] += 1
        total_error += key
        merges += 1
        keys = key_lists[shard]
        if step + 1 < len(keys):
            heapq.heapreplace(frontier, (keys[step + 1], shard, step + 1))
        else:
            heapq.heappop(frontier)
    return counts, total_error, merges


def _trajectories(key_lists):
    """Shard trajectories carrying only what the frontier merge reads."""
    return [
        (None, np.asarray(keys, dtype=np.float64), None, None)
        for keys in key_lists
    ]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _assert_agree(trajectories, size, budget, input_size):
    counts, total, merges = _reconcile(
        trajectories, size, budget, input_size
    )
    want_counts, want_total, want_merges = heap_reconcile(
        trajectories, size, budget, input_size
    )
    assert list(counts) == want_counts
    assert merges == want_merges
    assert _bits(total) == _bits(want_total), (total, want_total)
    return counts, total, merges


#: Few distinct levels make exact key ties inside and across shards;
#: -0.0 ties +0.0.
_LEVELS = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 7.0])
_KEYS = st.one_of(_LEVELS, st.floats(0.0, 1e3))


@st.composite
def schedules(draw):
    """Several shards of non-monotone keys, some of them empty, and an
    ``SSE_max``: the keys' sum, or another number."""
    key_lists = draw(
        st.lists(st.lists(_KEYS, max_size=30), min_size=1, max_size=7)
    )
    sse_max = 0.0
    for keys in key_lists:
        for key in keys:
            sse_max += key
    if draw(st.booleans()):  # SSE_max not the sum of the keys
        sse_max = draw(st.floats(0.0, 1e4))
    steps = sum(len(keys) for keys in key_lists)
    input_size = steps + len(key_lists) + draw(st.integers(0, 4))
    return _trajectories(key_lists), input_size, sse_max


@settings(max_examples=400, deadline=None)
@given(
    schedule=schedules(),
    fraction=st.floats(0.0, 1.05),
)
def test_size_budget_matches_heap_merge(schedule, fraction):
    trajectories, input_size, _ = schedule
    _assert_agree(trajectories, int(fraction * input_size), None, input_size)


@settings(max_examples=400, deadline=None)
@given(
    schedule=schedules(),
    epsilon=st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.2)
    ),
)
def test_error_budget_matches_heap_merge(schedule, epsilon):
    trajectories, input_size, sse_max = schedule
    _assert_agree(
        trajectories, None, error_budget(epsilon, sse_max), input_size
    )


class TestNamedCases:
    def test_exact_budget_match_is_taken_and_the_next_key_is_not(self):
        # The running total may equal the budget: the stop is strictly
        # past it, so the step that lands exactly on it is consumed.
        budget = error_budget(0.5, 10.0)
        trajectories = _trajectories([[budget], [budget + 1.0]])
        counts, total, merges = _assert_agree(trajectories, None, budget, 4)
        assert (list(counts), merges) == ([1, 0], 1)
        assert total == budget

    def test_ties_across_shards_go_to_the_earlier_shard(self):
        # Order: shard 2's 1.0, then the 2.0s by shard — shard 0's 2.0
        # with its cheaper 1.0 right behind, shard 1's, shard 2's.
        trajectories = _trajectories([[2.0, 1.0], [2.0], [1.0, 2.0]])
        assert list(_assert_agree(trajectories, 8, None, 10)[0]) == [1, 0, 1]
        assert list(_assert_agree(trajectories, 6, None, 10)[0]) == [2, 1, 1]

    def test_empty_shards_and_no_steps(self):
        _assert_agree(_trajectories([[], [], []]), 0, None, 3)
        _assert_agree(_trajectories([[], []]), None, 1.0, 2)
        _assert_agree(_trajectories([[], [0.5, 0.25], []]), 1, None, 5)

    @pytest.mark.parametrize("size", [0, 3, 100])
    def test_size_budget_takes_a_prefix(self, size):
        trajectories = _trajectories([[3.0, 1.0, 5.0], [2.0, 2.0]])
        _assert_agree(trajectories, size, None, 7)
