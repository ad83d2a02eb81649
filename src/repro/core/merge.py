"""Merging machinery for parsimonious temporal aggregation.

This module defines the internal representation the PTA algorithms operate
on — :class:`AggregateSegment`, one per ITA result tuple — together with the
adjacency predicate (Definition 2), the merge operator ``⊕`` (Definition 3),
the non-deterministic reduction function ``ρ`` (Definition 4) and the lower
bound ``cmin`` on the size of any reduction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence, Tuple

from ..temporal import Interval, TemporalRelation, TemporalSchema


@dataclass(frozen=True, slots=True)
class AggregateSegment:
    """One tuple of an ITA result (or of a PTA reduction thereof).

    Parameters
    ----------
    group:
        Values of the grouping attributes ``A`` (possibly empty).
    values:
        Aggregate values ``B1 ... Bp``, one float per aggregate function.
    interval:
        Validity interval of the tuple.
    """

    group: Tuple[Any, ...]
    values: Tuple[float, ...]
    interval: Interval

    @property
    def length(self) -> int:
        """Number of chronons the segment covers, ``|T|``."""
        return self.interval.length

    @property
    def dimensions(self) -> int:
        """Number of aggregate values ``p``."""
        return len(self.values)


def adjacent(left: AggregateSegment, right: AggregateSegment) -> bool:
    """Adjacency predicate ``left ≺ right`` (Definition 2).

    Two segments are adjacent when they belong to the same aggregation group
    and ``right`` starts exactly one chronon after ``left`` ends, i.e. they
    are not separated by a temporal gap.
    """
    return left.group == right.group and left.interval.meets(right.interval)


def merge(left: AggregateSegment, right: AggregateSegment) -> AggregateSegment:
    """Merge operator ``left ⊕ right`` (Definition 3).

    The merged aggregate values are the interval-length weighted averages of
    the two inputs; the merged timestamp is the concatenation of the two
    timestamps.  The inputs must be adjacent.
    """
    if not adjacent(left, right):
        raise ValueError(f"cannot merge non-adjacent segments {left} and {right}")
    values = merged_row(
        float(left.length), float(right.length), left.values, right.values
    )
    return AggregateSegment(
        left.group, tuple(values), left.interval.union(right.interval)
    )


def merged_row(
    left_length: float,
    right_length: float,
    left_values: Sequence[float],
    right_values: Sequence[float],
) -> List[float]:
    """Aggregate values of ``left ⊕ right``: length-weighted means on float
    lengths.  Every merge on either backend computes its row here."""
    total = left_length + right_length
    return [
        (left_length * a + right_length * b) / total
        for a, b in zip(left_values, right_values)
    ]


def merge_run(segments: Sequence[AggregateSegment]) -> AggregateSegment:
    """Merge a whole run of pairwise-adjacent segments into one segment.

    Equivalent to folding :func:`merge` over the run but computed in a single
    weighted pass, which both avoids rounding drift and is what the DP
    algorithms conceptually do when they collapse ``s_{j+1} ... s_i``.
    """
    if not segments:
        raise ValueError("cannot merge an empty run of segments")
    for left, right in zip(segments, segments[1:]):
        if not adjacent(left, right):
            raise ValueError(
                f"run contains non-adjacent pair {left} !≺ {right}"
            )
    total = sum(segment.length for segment in segments)  # integers
    sums = [0.0] * segments[0].dimensions
    for segment in segments:  # left to right: no compensated float sum()
        for d, value in enumerate(segment.values):
            sums[d] += segment.length * value
    values = tuple(weighted / total for weighted in sums)
    interval = Interval(segments[0].interval.start, segments[-1].interval.end)
    return AggregateSegment(segments[0].group, values, interval)


def adjacency_flags(segments: Sequence[AggregateSegment]) -> List[bool]:
    """Return, for each consecutive pair, whether it is adjacent.

    ``flags[i]`` is ``True`` iff ``segments[i] ≺ segments[i + 1]``; the list
    has ``len(segments) - 1`` entries (empty for fewer than two segments).
    """
    return [
        adjacent(left, right) for left, right in zip(segments, segments[1:])
    ]


def maximal_runs(segments: Sequence[AggregateSegment]) -> List[List[int]]:
    """Split ``segments`` into maximal runs of pairwise-adjacent indices.

    The segments must already be in group-then-time order.  The boundaries
    between runs are exactly the positions that the PTA merging process can
    never cross (temporal gaps or changes of aggregation group).
    """
    runs: List[List[int]] = []
    current: List[int] = []
    for index, segment in enumerate(segments):
        if current and not adjacent(segments[index - 1], segment):
            runs.append(current)
            current = []
        current.append(index)
    if current:
        runs.append(current)
    return runs


def cmin(segments: Sequence[AggregateSegment]) -> int:
    """Smallest size any reduction of ``segments`` can reach.

    ``cmin = |s| - #{adjacent pairs}``, which equals the number of maximal
    adjacent runs (Section 4.1).
    """
    if not segments:
        return 0
    return len(maximal_runs(segments))


def gap_positions(segments: Sequence[AggregateSegment]) -> List[int]:
    """Vector ``G`` of non-adjacent pair positions (Section 5.3).

    ``G[m] = l`` (1-based ``l``) means that the ``m``-th non-adjacent pair is
    ``(segments[l - 1], segments[l])``, i.e. the pair *ends* the prefix of
    length ``l``.  This matches the paper's convention where ``G_k`` bounds
    the largest prefix reducible to ``k`` tuples.
    """
    return [
        position + 1
        for position, (left, right) in enumerate(
            zip(segments, segments[1:])
        )
        if not adjacent(left, right)
    ]


def reduce_random(
    segments: Sequence[AggregateSegment],
    size: int,
    rng: random.Random | None = None,
) -> List[AggregateSegment]:
    """Non-deterministic reduction ``ρ(s, c)`` (Definition 4).

    Repeatedly merges a *randomly chosen* adjacent pair until at most
    ``size`` segments remain.  Used by property-based tests as a reference:
    any such reduction must introduce at least as much error as the optimal
    DP reduction.
    """
    if size < cmin(segments):
        raise ValueError(
            f"cannot reduce below cmin={cmin(segments)}, requested {size}"
        )
    rng = rng or random.Random()
    current = list(segments)
    while len(current) > size:
        candidates = [
            index
            for index in range(len(current) - 1)
            if adjacent(current[index], current[index + 1])
        ]
        index = rng.choice(candidates)
        merged = merge(current[index], current[index + 1])
        current[index : index + 2] = [merged]
    return current


# ----------------------------------------------------------------------
# Conversions between TemporalRelation and segment lists
# ----------------------------------------------------------------------
def segments_from_relation(
    relation: TemporalRelation,
    group_columns: Sequence[str],
    value_columns: Sequence[str],
    sort: bool = True,
) -> List[AggregateSegment]:
    """Convert an ITA result relation into a list of segments.

    Parameters
    ----------
    relation:
        A sequential relation, typically the output of :func:`repro.ita`.
    group_columns:
        Names of the grouping attributes within ``relation``.
    value_columns:
        Names of the aggregate value attributes within ``relation``.
    sort:
        When ``True`` (default) the segments are re-sorted into the
        group-then-time order the PTA algorithms require.
    """
    group_indices = relation.schema.indices_of(group_columns)
    value_indices = relation.schema.indices_of(value_columns)
    segments = [
        AggregateSegment(
            tuple(values[i] for i in group_indices),
            tuple(float(values[i]) for i in value_indices),
            interval,
        )
        for values, interval in relation.rows()
    ]
    if sort:
        segments.sort(
            key=lambda segment: (
                tuple((str(type(v)), str(v)) for v in segment.group),
                segment.interval.start,
                segment.interval.end,
            )
        )
    return segments


def segments_to_relation(
    segments: Iterable[AggregateSegment],
    group_columns: Sequence[str],
    value_columns: Sequence[str],
    timestamp_name: str = "T",
) -> TemporalRelation:
    """Convert a list of segments back into a :class:`TemporalRelation`."""
    schema = TemporalSchema(
        tuple(group_columns) + tuple(value_columns), timestamp_name
    )
    relation = TemporalRelation(schema)
    for segment in segments:
        relation.append(segment.group + segment.values, segment.interval)
    return relation
