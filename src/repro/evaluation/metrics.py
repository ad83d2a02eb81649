"""Metrics used throughout the experimental evaluation.

The figures of the paper report errors in three normalised forms: the error
relative to the maximal possible error (``SSE / SSE_max``, Fig. 14), the
*error ratio* of an approximation against the optimal DP reduction of the
same size (Figs. 15–17) and the *reduction ratio* describing how much of the
ITA result was merged away.  This module collects those definitions so the
benchmarks and the tests agree on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, stdev
from typing import Dict, Iterable, List, Sequence

from ..core.errors import Weights, collapse_error, sse_between
from ..core.merge import AggregateSegment, cmin


def reduction_ratio(input_size: int, output_size: int) -> float:
    """Fraction of the ITA result merged away, in percent (0–100)."""
    if input_size <= 0:
        raise ValueError(f"input size must be positive, got {input_size}")
    return 100.0 * (input_size - output_size) / input_size


def size_for_reduction_ratio(input_size: int, ratio_percent: float) -> int:
    """Output size corresponding to a reduction ratio in percent."""
    if not 0.0 <= ratio_percent <= 100.0:
        raise ValueError(f"ratio must be in [0, 100], got {ratio_percent}")
    return max(int(round(input_size * (1.0 - ratio_percent / 100.0))), 1)


def relative_error(
    segments: Sequence[AggregateSegment],
    reduced: Sequence[AggregateSegment],
    weights: Weights | None = None,
) -> float:
    """Error of a reduction as a percentage of ``SSE_max`` (0–100).

    :func:`~repro.core.errors.sse_between` over
    :func:`~repro.core.errors.collapse_error`, two Definition 5 sums.  The
    range holds in real arithmetic; in floats a reduction to ``cmin`` may
    read a few units in the last place above 100.
    """
    maximum = collapse_error(segments, weights)
    if maximum == 0.0:
        return 0.0
    return 100.0 * sse_between(segments, reduced, weights) / maximum


@dataclass
class ErrorRatioSummary:
    """Mean and standard error of a collection of error ratios."""

    mean_ratio: float
    standard_error: float
    count: int


def summarize_error_ratios(ratios: Iterable[float]) -> ErrorRatioSummary:
    """Average error ratios the way Fig. 16/17 report them (mean ± std err)."""
    values: List[float] = [ratio for ratio in ratios if ratio == ratio]
    if not values:
        return ErrorRatioSummary(float("nan"), float("nan"), 0)
    if len(values) == 1:
        return ErrorRatioSummary(values[0], 0.0, 1)
    return ErrorRatioSummary(
        mean(values), stdev(values) / len(values) ** 0.5, len(values)
    )


def feasible_sizes(
    segments: Sequence[AggregateSegment], count: int = 20
) -> List[int]:
    """Evenly spaced feasible output sizes between ``cmin`` and ``n``.

    Used by the sweep benchmarks to pick representative size bounds without
    evaluating every single ``c``.
    """
    n = len(segments)
    lower = cmin(segments)
    if n <= lower:
        return [n]
    count = max(min(count, n - lower + 1), 1)
    step = (n - lower) / count
    sizes = sorted({max(lower, int(round(n - step * (i + 1)))) for i in range(count)})
    return sizes


def error_curve_normalized(curve: Dict[int, float], input_size: int,
                           maximum_error: float) -> List[tuple]:
    """Convert an ``{size: error}`` curve into (reduction %, error %) points."""
    points = []
    for size in sorted(curve, reverse=True):
        error = curve[size]
        if error != error or error == float("inf"):
            continue
        normalized = 0.0 if maximum_error == 0 else 100.0 * error / maximum_error
        points.append((reduction_ratio(input_size, size), normalized))
    return points
