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

    Float sums are spelled as left-to-right loops from ``0.0``: the builtin
    ``sum()`` is compensated from Python 3.12 on, and would give other bits
    on other interpreters.  Squares are products: ``** 2`` calls libm's
    ``pow``, which is not correctly rounded on every libm.
    """
    if not segments:
        return 0.0
    w2 = squared_weights(weights, segments[0].dimensions)
    total_length = sum(segment.length for segment in segments)  # integers
    error = 0.0
    for d, weight in enumerate(w2):
        weighted_sum = 0.0
        for segment in segments:
            weighted_sum += segment.length * segment.values[d]
        mean = weighted_sum / total_length
        squares = 0.0
        for segment in segments:
            deviation = segment.values[d] - mean
            squares += segment.length * (deviation * deviation)
        error += weight * squares
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
    segment's interval length.  Sums and squares are spelled as in
    :func:`sse_of_run`, so the bits are the same on every interpreter and
    libm.
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
        distance = 0.0
        for d in range(dimensions):
            scaled = weights[d] * (segment.values[d] - target.values[d])
            distance += scaled * scaled
        error += segment.length * distance
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
    value (Definition 7).  The runs' errors are added left to right, as
    in :func:`sse_of_run`, so ``SSE_max`` has the same bits on every
    Python version.
    """
    total = 0.0
    for run in maximal_runs(segments):
        total += sse_of_run([segments[i] for i in run], weights)
    return total


def validate_budget(size: int | None, epsilon: float | None) -> None:
    """The one-budget rule of every reduction entry point.

    Exactly one of ``size`` (at least 1) and ``epsilon`` (within
    ``[0, 1]``) is given; anything else raises :class:`ValueError`.
    """
    if (size is None) == (epsilon is None):
        raise ValueError("provide exactly one of 'size' and 'max_error'")
    if size is not None and size < 1:
        raise ValueError(f"size bound must be at least 1, got {size}")
    if epsilon is not None and not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be within [0, 1], got {epsilon}")


def error_budget(epsilon: float, sse_max: float) -> float:
    """Total merge error an ``ε``-bounded reduction may spend (Definition 7).

    ``ε · SSE_max`` plus an absolute and a relative slack of ``1e-9``.  By
    Proposition 2 the merge keys of a reduction to ``cmin`` add up to
    exactly ``SSE_max``, but in another float summation order, so the
    slack must scale with the values: with an absolute slack alone,
    ``ε = 1`` stops short of ``cmin`` on large or offset values.  Every
    error-bounded engine stops at the first merge that would take its
    accumulated error past this number.

    On a run offset by ``1e6`` the keys of its ``cmin`` reduction overshoot
    ``SSE_max`` by more than ``1e-9``, and ``ε = 1`` still admits them:

    >>> from repro.temporal import Interval
    >>> from repro.core import AggregateSegment, gms_reduce_to_size
    >>> run = [
    ...     AggregateSegment((), (1e6 + v,), Interval(t, t))
    ...     for t, v in enumerate((300, 400, 100, 600, 700, 200))
    ... ]
    >>> spent = gms_reduce_to_size(run, 1).error
    >>> spent <= max_error(run) + 1e-9
    False
    >>> spent <= error_budget(1.0, max_error(run))
    True
    """
    threshold = epsilon * sse_max
    return threshold + 1e-9 + 1e-9 * threshold


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

    __slots__ = (
        "segments", "weights", "_w2", "_sums", "_square_sums", "_lengths",
    )

    def __init__(
        self,
        segments: Sequence[AggregateSegment],
        weights: Weights | None = None,
    ) -> None:
        self.segments = list(segments)
        dimensions = self.segments[0].dimensions if self.segments else 0
        self.weights = resolve_weights(weights, dimensions)
        self._w2 = squared_weights(self.weights, dimensions)

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
        the prefix sums in ``O(p)`` time.  ``w_d²`` is ``w_d · w_d``
        (:func:`squared_weights`), not ``w_d ** 2``: libm's ``pow`` can
        round the square one unit in the last place away from the product.
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
            error += self._w2[d] * max(deviation, 0.0)
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
    "error_budget",
    "error_ratio",
    "max_error",
    "merge_key",
    "normalized_error",
    "pairwise_merge_error",
    "resolve_weights",
    "sse_between",
    "sse_of_run",
    "squared_weights",
    "validate_budget",
]
