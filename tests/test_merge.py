"""Unit tests for the merge machinery (Definitions 2-4)."""

import copy
import dataclasses
import pickle
import random

import pytest

from repro import Interval
from repro.core import (
    AggregateSegment,
    adjacency_flags,
    adjacent,
    cmin,
    gap_positions,
    maximal_runs,
    merge,
    merge_run,
    reduce_random,
    segments_from_relation,
    segments_to_relation,
)
from conftest import make_segment


class TestAdjacency:
    def test_adjacent_same_group_meeting_intervals(self):
        assert adjacent(make_segment(1, 2, 5.0), make_segment(3, 4, 7.0))

    def test_not_adjacent_with_gap(self):
        assert not adjacent(make_segment(1, 2, 5.0), make_segment(4, 5, 7.0))

    def test_not_adjacent_different_groups(self):
        left = make_segment(1, 2, 5.0, group=("A",))
        right = make_segment(3, 4, 5.0, group=("B",))
        assert not adjacent(left, right)

    def test_not_adjacent_in_reverse_order(self):
        assert not adjacent(make_segment(3, 4, 5.0), make_segment(1, 2, 5.0))

    def test_paper_example_adjacencies(self, proj_segments):
        flags = adjacency_flags(proj_segments)
        # s1 ≺ s2 ≺ s3 ≺ s4 ≺ s5, s5 !≺ s6 (group change), s6 !≺ s7 (gap).
        assert flags == [True, True, True, True, False, False]


class TestMergeOperator:
    def test_example_3(self):
        s1 = make_segment(1, 2, 800.0, group=("A",))
        s2 = make_segment(3, 3, 600.0, group=("A",))
        merged = merge(s1, s2)
        assert merged.group == ("A",)
        assert merged.interval == Interval(1, 3)
        assert merged.values[0] == pytest.approx(733.3333, abs=1e-3)

    def test_merge_is_length_weighted(self):
        merged = merge(make_segment(1, 3, 10.0), make_segment(4, 4, 2.0))
        assert merged.values[0] == pytest.approx((3 * 10 + 1 * 2) / 4)

    def test_merge_multidimensional(self):
        left = AggregateSegment((), (1.0, 10.0), Interval(1, 1))
        right = AggregateSegment((), (3.0, 20.0), Interval(2, 2))
        merged = merge(left, right)
        assert merged.values == (2.0, 15.0)

    def test_merge_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            merge(make_segment(1, 2, 1.0), make_segment(5, 6, 1.0))

    def test_merge_run_equals_pairwise_folding(self):
        run = [make_segment(i, i, float(i * i)) for i in range(1, 6)]
        folded = run[0]
        for segment in run[1:]:
            folded = merge(folded, segment)
        collapsed = merge_run(run)
        assert collapsed.interval == folded.interval
        assert collapsed.values[0] == pytest.approx(folded.values[0])

    def test_merge_run_rejects_gaps(self):
        with pytest.raises(ValueError):
            merge_run([make_segment(1, 2, 1.0), make_segment(4, 5, 1.0)])

    def test_merge_run_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_run([])


class TestRunsAndBounds:
    def test_cmin_running_example(self, proj_segments):
        assert cmin(proj_segments) == 3

    def test_cmin_empty(self):
        assert cmin([]) == 0

    def test_maximal_runs_running_example(self, proj_segments):
        runs = maximal_runs(proj_segments)
        assert [len(run) for run in runs] == [5, 1, 1]

    def test_gap_positions_running_example(self, proj_segments):
        # Example 13: G = <5, 6>.
        assert gap_positions(proj_segments) == [5, 6]

    def test_gap_positions_no_gaps(self):
        segments = [make_segment(i, i, 1.0) for i in range(1, 6)]
        assert gap_positions(segments) == []


class TestReduction:
    def test_reduce_random_reaches_requested_size(self, proj_segments):
        reduced = reduce_random(proj_segments, 4, random.Random(1))
        assert len(reduced) == 4

    def test_reduce_random_never_crosses_boundaries(self, proj_segments):
        reduced = reduce_random(proj_segments, 3, random.Random(2))
        groups = [segment.group for segment in reduced]
        assert groups == [("A",), ("B",), ("B",)]

    def test_reduce_random_below_cmin_rejected(self, proj_segments):
        with pytest.raises(ValueError):
            reduce_random(proj_segments, 2)

    def test_reduce_random_preserves_total_duration(self, proj_segments):
        reduced = reduce_random(proj_segments, 3, random.Random(3))
        assert sum(s.length for s in reduced) == sum(
            s.length for s in proj_segments
        )


class TestConversions:
    def test_round_trip(self, proj_ita, proj_segments):
        relation = segments_to_relation(proj_segments, ["proj"], ["avg_sal"])
        assert segments_from_relation(relation, ["proj"], ["avg_sal"]) == proj_segments

    def test_segments_are_sorted_group_then_time(self):
        relation = segments_to_relation(
            [
                make_segment(5, 6, 1.0, group=("B",)),
                make_segment(1, 2, 2.0, group=("A",)),
            ],
            ["g"],
            ["v"],
        )
        segments = segments_from_relation(relation, ["g"], ["v"])
        assert [segment.group for segment in segments] == [("A",), ("B",)]

    def test_sort_can_be_disabled(self):
        relation = segments_to_relation(
            [
                make_segment(5, 6, 1.0, group=("B",)),
                make_segment(1, 2, 2.0, group=("A",)),
            ],
            ["g"],
            ["v"],
        )
        unsorted_segments = segments_from_relation(
            relation, ["g"], ["v"], sort=False
        )
        assert [segment.group for segment in unsorted_segments] == [("B",), ("A",)]


class TestSlottedSegments:
    """Segments and intervals carry no per-instance ``__dict__``: a batch
    input holds one of each per tuple."""

    def test_no_instance_dict(self):
        segment = AggregateSegment(("g",), (1.0, 2.5), Interval(3, 7))
        assert not hasattr(segment, "__dict__")
        assert not hasattr(segment.interval, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            segment.values = (0.0,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            segment.interval.start = 0

    def test_round_trips(self):
        segment = AggregateSegment(("g", 1), (1.0, -2.5), Interval(-3, 7))
        for twin in (
            pickle.loads(pickle.dumps(segment)),
            copy.deepcopy(segment),
            dataclasses.replace(segment),
        ):
            assert twin == segment and twin is not segment
            assert hash(twin) == hash(segment)
            assert twin.interval == segment.interval
        moved = dataclasses.replace(segment, interval=Interval(8, 9))
        assert moved.interval.length == 2 and moved.values == segment.values
        assert Interval(1, 2) < Interval(1, 3)
