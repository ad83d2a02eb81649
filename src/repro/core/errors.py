"""Error measures for PTA reductions.

The quality of a reduction is quantified by the interval-length weighted sum
squared error (SSE) between the original ITA result and the reduced relation
(Definition 5).  For the dynamic-programming algorithms the SSE of merging a
contiguous run of segments must be available in constant time; following
Jagadish et al. (VLDB 1998) and Proposition 1 of the paper this is achieved
with prefix sums of the weighted values, their squares and the interval
lengths.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from .merge import AggregateSegment, cmin, maximal_runs

Weights = Sequence[float]


def resolve_weights(
    weights: Weights | None, dimensions: int
) -> Tuple[float, ...]:
    """Return per-dimension weights, defaulting to 1.0 for every dimension."""
    if weights is None:
        return (1.0,) * dimensions
    weights = tuple(float(w) for w in weights)
    if len(weights) != dimensions:
        raise ValueError(
            f"expected {dimensions} weights, got {len(weights)}"
        )
    if any(w <= 0 for w in weights):
        raise ValueError(f"weights must be positive, got {weights}")
    return weights


def sse_of_run(
    segments: Sequence[AggregateSegment],
    weights: Weights | None = None,
) -> float:
    """SSE introduced by merging a run of adjacent segments into one tuple.

    Computed directly from Definition 5: the merged value per dimension is
    the length-weighted mean, and the error is the length-weighted squared
    deviation from it.  This is the naive ``O(len(run) * p)`` formulation the
    prefix-sum variant is validated against in the tests.
    """
    if not segments:
        return 0.0
    dimensions = segments[0].dimensions
    weights = resolve_weights(weights, dimensions)
    total_length = sum(segment.length for segment in segments)
    error = 0.0
    for d in range(dimensions):
        weighted_sum = sum(
            segment.length * segment.values[d] for segment in segments
        )
        mean = weighted_sum / total_length
        error += weights[d] ** 2 * sum(
            segment.length * (segment.values[d] - mean) ** 2
            for segment in segments
        )
    return error


def sse_between(
    original: Sequence[AggregateSegment],
    reduced: Sequence[AggregateSegment],
    weights: Weights | None = None,
) -> float:
    """Total SSE between an ITA result and a reduction of it (Definition 5).

    Every original segment is matched to the reduced segment of the same
    aggregation group whose interval contains it; the error is the weighted
    squared distance between their aggregate values, weighted by the original
    segment's interval length.
    """
    if not original:
        return 0.0
    dimensions = original[0].dimensions
    weights = resolve_weights(weights, dimensions)

    containers: Dict[tuple, List[AggregateSegment]] = {}
    for segment in reduced:
        containers.setdefault(segment.group, []).append(segment)
    for group_segments in containers.values():
        group_segments.sort(key=lambda seg: seg.interval.start)

    error = 0.0
    for segment in original:
        target = _containing_segment(containers, segment)
        if target is None:
            raise ValueError(
                f"reduced relation has no segment covering {segment}"
            )
        error += segment.length * sum(
            (weights[d] * (segment.values[d] - target.values[d])) ** 2
            for d in range(dimensions)
        )
    return error


def _containing_segment(
    containers: Dict[tuple, List[AggregateSegment]],
    segment: AggregateSegment,
) -> AggregateSegment | None:
    candidates = containers.get(segment.group, ())
    for candidate in candidates:
        if candidate.interval.contains_interval(segment.interval):
            return candidate
    return None


def max_error(
    segments: Sequence[AggregateSegment],
    weights: Weights | None = None,
) -> float:
    """``SSE_max``: error of the maximal reduction ``ρ(s, cmin)``.

    Obtained by merging every maximal adjacent run into a single tuple.  The
    error-bounded PTA operator expresses its threshold as a fraction of this
    value (Definition 7).
    """
    return sum(
        sse_of_run([segments[i] for i in run], weights)
        for run in maximal_runs(segments)
    )


class PrefixSums:
    """Constant-time SSE of contiguous runs via prefix sums (Proposition 1).

    For a sorted sequence of segments the class precomputes, per aggregate
    dimension ``d``::

        S[d][i]  = sum_{j <= i} |T_j| * B_d(j)
        SS[d][i] = sum_{j <= i} |T_j| * B_d(j)^2
        L[i]     = sum_{j <= i} |T_j|

    after which the SSE of merging segments ``i .. j`` (0-based, inclusive)
    into one tuple is computed in ``O(p)`` time.  The same sums also yield
    the merged (length-weighted mean) values, which the DP algorithms use to
    build the output tuples.
    """

    __slots__ = ("segments", "weights", "_sums", "_square_sums", "_lengths")

    def __init__(
        self,
        segments: Sequence[AggregateSegment],
        weights: Weights | None = None,
    ) -> None:
        self.segments = list(segments)
        dimensions = self.segments[0].dimensions if self.segments else 0
        self.weights = resolve_weights(weights, dimensions)

        count = len(self.segments)
        self._lengths = [0.0] * (count + 1)
        self._sums = [[0.0] * (count + 1) for _ in range(dimensions)]
        self._square_sums = [[0.0] * (count + 1) for _ in range(dimensions)]
        for index, segment in enumerate(self.segments, start=1):
            length = float(segment.length)
            self._lengths[index] = self._lengths[index - 1] + length
            for d in range(dimensions):
                value = segment.values[d]
                self._sums[d][index] = self._sums[d][index - 1] + length * value
                self._square_sums[d][index] = (
                    self._square_sums[d][index - 1] + length * value * value
                )

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def dimensions(self) -> int:
        """Number of aggregate dimensions ``p``."""
        return len(self._sums)

    def total_length(self, first: int, last: int) -> float:
        """Total interval length of segments ``first .. last`` (inclusive)."""
        return self._lengths[last + 1] - self._lengths[first]

    def merged_values(self, first: int, last: int) -> Tuple[float, ...]:
        """Length-weighted mean values of segments ``first .. last``."""
        length = self.total_length(first, last)
        return tuple(
            (self._sums[d][last + 1] - self._sums[d][first]) / length
            for d in range(self.dimensions)
        )

    def sse(self, first: int, last: int) -> float:
        """SSE of merging segments ``first .. last`` into a single tuple.

        Implements Proposition 1:
        ``SSE = Σ_d w_d² [ SS_d − S_d² / L ]`` over the run, evaluated from
        the prefix sums in ``O(p)`` time.
        """
        length = self.total_length(first, last)
        error = 0.0
        for d in range(self.dimensions):
            run_sum = self._sums[d][last + 1] - self._sums[d][first]
            run_square_sum = (
                self._square_sums[d][last + 1] - self._square_sums[d][first]
            )
            deviation = run_square_sum - run_sum * run_sum / length
            # Guard against tiny negative values from floating-point rounding.
            error += self.weights[d] ** 2 * max(deviation, 0.0)
        return error


def squared_weights(
    weights: Weights | None, dimensions: int
) -> Tuple[float, ...]:
    """Per-dimension ``w_d²`` as used by :func:`merge_key`, spelled ``w·w``."""
    return tuple(w * w for w in resolve_weights(weights, dimensions))


def merge_key(
    left_length: float,
    right_length: float,
    left_values: Sequence[float],
    right_values: Sequence[float],
    w2: Sequence[float],
) -> float:
    """Merge cost ``dsim`` of two adjacent tuples (Proposition 2).

    ``Σ_d (w²_d · factor) · (diff_d · diff_d)`` with
    ``factor = l·r / (l + r)`` on float lengths, summed from ``0.0`` one
    dimension at a time.  Every merge key is this function or its vector
    form :func:`repro.core.kernels.pairwise_merge_keys`, which keeps the
    same operation order, so both backends compute the same bits.
    """
    factor = left_length * right_length / (left_length + right_length)
    key = 0.0
    for weight, left, right in zip(w2, left_values, right_values):
        diff = left - right
        key += (weight * factor) * (diff * diff)
    return key


def pairwise_merge_error(
    left: AggregateSegment,
    right: AggregateSegment,
    weights: Weights | None = None,
) -> float:
    """Dissimilarity ``dsim(left, right)`` of two adjacent segments.

    By Proposition 2 the additional error of merging two adjacent segments in
    any intermediate relation equals ``SSE({left, right}, {left ⊕ right})``,
    whose closed form :func:`merge_key` evaluates.
    """
    return merge_key(
        float(left.length), float(right.length), left.values, right.values,
        squared_weights(weights, left.dimensions),
    )


def normalized_error(
    segments: Sequence[AggregateSegment],
    reduced: Sequence[AggregateSegment],
    weights: Weights | None = None,
) -> float:
    """Error of a reduction normalised by ``SSE_max`` (0 … 1 range).

    Returns 0.0 when the relation cannot be reduced at all
    (``SSE_max == 0``), e.g. when every maximal run has constant values.
    """
    maximum = max_error(segments, weights)
    if maximum == 0.0:
        return 0.0
    return sse_between(segments, reduced, weights) / maximum


def error_ratio(approximate_error: float, optimal_error: float) -> float:
    """Ratio of an approximate reduction's error to the optimal error.

    Follows the convention of the paper's Figures 15–17: a ratio of 1 means
    the approximation matched the optimum.  When the optimal error is zero
    the ratio is defined as 1 if the approximation is also exact and ``inf``
    otherwise.
    """
    if optimal_error == 0.0:
        return 1.0 if approximate_error <= 1e-12 else math.inf
    return approximate_error / optimal_error


__all__ = [
    "PrefixSums",
    "Weights",
    "cmin",
    "error_ratio",
    "max_error",
    "merge_key",
    "normalized_error",
    "pairwise_merge_error",
    "resolve_weights",
    "sse_between",
    "sse_of_run",
    "squared_weights",
]
