"""Exact PTA evaluation via dynamic programming (Section 5).

The optimal reduction of a sorted ITA result ``s = {s_1, ..., s_n}`` to ``c``
tuples is found with the error-matrix recurrence of Section 5.1: cell
``E[k][i]`` holds the smallest error of reducing the prefix ``s^i`` to ``k``
tuples, and ``J[k][i]`` remembers the split point that achieved it.  Three
refinements from the paper are implemented:

* constant-time SSE of contiguous runs via prefix sums (Section 5.2,
  :class:`~repro.core.errors.PrefixSums`);
* pruning with the gap vector ``G``: the upper bound ``i_max`` skips cells
  that are necessarily infinite and the lower bound ``j_min`` restricts the
  split-point search to the region right of the last gap (Section 5.3);
* the early ``break`` once the run error alone exceeds the best split found,
  exploiting that the run error grows monotonically as ``j`` decreases.

``reduce_to_size`` implements algorithm ``PTAc`` (Fig. 7) and
``reduce_to_error`` implements ``PTAε`` (Fig. 8).  Setting
``optimized=False`` disables the gap pruning and the early break, which is
the plain "DP" baseline used in the runtime experiments (Figs. 18 and 19).

Every entry point accepts ``backend="python"`` (the reference, loop-based
evaluation) or ``backend="numpy"``, which fills row ``k = 1`` with one
vector expression and each row ``k >= 2`` with one call of a compiled
kernel (``_dp.c``, loaded by :mod:`repro.core.native`) over the
prefix-sum arrays.  Both backends evaluate the same recurrence with the
same floating-point formulae and tie-breaking; without the early break
(``optimized=False``) they produce bit-identical reductions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..temporal import Interval
from . import native as _native
from .errors import (
    PrefixSums, Weights, error_budget, max_error, resolve_weights,
    validate_budget,
)
from .kernels import dp_first_row, require_finite
from .merge import AggregateSegment, cmin, gap_positions


@dataclass
class DPStats:
    """Instrumentation counters for the DP evaluation (used by ablations)."""

    cells_evaluated: int = 0
    split_candidates: int = 0
    rows_filled: int = 0


@dataclass
class DPResult:
    """Result of an exact PTA reduction.

    Attributes
    ----------
    segments:
        The reduced relation, in group-then-time order.
    error:
        Total SSE introduced with respect to the input ITA result.
    size:
        Number of output segments (equals ``len(segments)``).
    stats:
        Work counters, useful for the pruning ablation benchmarks.
    """

    segments: List[AggregateSegment]
    error: float
    size: int
    stats: DPStats

    def __iter__(self):
        return iter(self.segments)


class _ErrorMatrix:
    """Row-by-row evaluation of the DP error / split-point matrices.

    The error matrix only needs its two most recent rows; the split-point
    matrix must be kept entirely to reconstruct the output (Section 5.4).
    Indices follow the paper's 1-based convention: ``i`` and ``j`` range over
    ``1 .. n`` and split point ``j = 0`` means "merge everything up to i".
    """

    def __init__(
        self,
        segments: Sequence[AggregateSegment],
        weights: Weights | None,
        optimized: bool,
        backend: str = "python",
    ) -> None:
        if backend not in ("python", "numpy"):
            raise ValueError(
                f"backend must be 'python' or 'numpy', got {backend!r}"
            )
        self.segments = list(segments)
        self.count = len(self.segments)
        self.backend = backend
        if backend == "numpy":
            from .kernels import NumpyPrefixSums

            self.prefix = NumpyPrefixSums(self.segments, weights)
        else:
            self.prefix = PrefixSums(self.segments, weights)
        self.gaps = gap_positions(self.segments)
        self.optimized = optimized
        self.stats = DPStats()
        self.split_rows: List[List[int]] = [[0] * (self.count + 1)]
        self._previous_row: List[float] = []
        self._current_row: List[float] = []
        self.rows_computed = 0

    def run_error(self, j: int, i: int) -> float:
        """SSE of merging segments ``s_{j+1} .. s_i`` into one tuple.

        Merging across a boundary (temporal gap or group change) is assigned
        an infinite error, as required by the DP formulation of Section 5.1.
        The optimized evaluation never asks for such runs thanks to the
        ``i_max`` / ``j_min`` bounds; the plain DP baseline relies on this
        check.
        """
        position = bisect.bisect_right(self.gaps, j)
        if position < len(self.gaps) and self.gaps[position] < i:
            return math.inf
        return self.prefix.sse(j, i - 1)

    # ------------------------------------------------------------------
    def fill_next_row(self) -> List[float]:
        """Fill row ``k = rows_computed + 1`` and return it.

        On the numpy backend row ``k = 1`` is one vector expression
        (:meth:`_fill_first_row_numpy`) and every row ``k >= 2`` one call
        of the compiled kernel (:meth:`_fill_next_row_native`).
        """
        if self.backend == "numpy":
            if self.rows_computed:
                return self._fill_next_row_native()
            return self._fill_first_row_numpy()
        k = self.rows_computed + 1
        n = self.count
        row = [math.inf] * (n + 1)
        splits = [0] * (n + 1)
        if k == 1:
            i_max = self._upper_bound(k)
            for i in range(1, i_max + 1):
                self.stats.cells_evaluated += 1
                row[i] = self.run_error(0, i)
        else:
            i_max = self._upper_bound(k)
            previous = self._current_row
            for i in range(k, i_max + 1):
                self.stats.cells_evaluated += 1
                j_min = self._lower_bound(k, i)
                if (
                    self.optimized
                    and len(self.gaps) >= k - 1
                    and self.gaps[k - 2] == j_min
                ):
                    # The prefix s^i contains exactly k - 1 gaps: the only
                    # feasible split point is the last gap itself.
                    j = j_min
                    self.stats.split_candidates += 1
                    row[i] = previous[j] + self.run_error(j, i)
                    splits[i] = j
                    continue
                best = math.inf
                best_split = 0
                for j in range(i - 1, j_min - 1, -1):
                    self.stats.split_candidates += 1
                    err1 = previous[j]
                    err2 = self.run_error(j, i)
                    if err1 + err2 < best:
                        best = err1 + err2
                        best_split = j
                    if self.optimized and err2 > best:
                        # err2 grows as j decreases; no better split remains.
                        break
                row[i] = best
                splits[i] = best_split
        return self._advance(k, row, splits)

    def _advance(self, k: int, row, splits) -> List[float]:
        """Record row ``k`` and its split points; return the row."""
        self._previous_row = self._current_row
        self._current_row = row
        self.split_rows.append(splits)
        self.rows_computed = k
        self.stats.rows_filled = k
        return row

    def _fill_first_row_numpy(self):
        """Fill row ``k = 1`` with one vector expression
        (:func:`repro.core.kernels.dp_first_row`)."""
        n = self.count
        i_max = self._upper_bound(1)
        self.stats.cells_evaluated += i_max
        first_gap = None
        if not self.optimized and self.gaps:
            first_gap = self.gaps[0]
        row = dp_first_row(self.prefix, i_max, first_gap)
        return self._advance(1, row, [0] * (n + 1))

    def _fill_next_row_native(self):
        """Fill row ``k >= 2`` with one call of the compiled kernel.

        The per-cell bounds come from one ``searchsorted`` over the gaps:
        ``last_gap[c]`` is the right-most gap before cell ``i = k + c``
        (0 if none), which is ``_lower_bound``'s ``j_min`` once raised to
        ``k - 1`` and the plain scheme's "infeasible below" bound.  In the
        optimized scheme ``j_min >= last_gap``, so passing ``last_gap`` as
        that bound there changes nothing.  The kernel
        (``KERNEL.dp_row``, ``_dp.c``) scans the candidates of each cell
        from ``j = i - 1`` down to ``j_lo`` (ties go to the largest ``j``
        and the first NaN wins, as ``np.argmin`` over the reversed
        totals) and returns how many it scanned; ``tests/oracles.py``
        holds its per-cell Python reference.
        """
        k = self.rows_computed + 1
        n = self.count
        i_max = self._upper_bound(k)
        gaps = np.asarray(self.gaps, dtype=np.int64)
        cells = np.arange(k, i_max + 1, dtype=np.int64)
        last_gap = np.concatenate(([0], gaps))[np.searchsorted(gaps, cells)]
        if self.optimized:
            j_lo = np.maximum(last_gap, k - 1)
        else:
            j_lo = np.full(len(cells), k - 1, dtype=np.int64)
        prefix = self.prefix
        row = np.full(n + 1, math.inf)
        splits = np.zeros(n + 1, dtype=np.int64)
        candidates = _native.KERNEL.dp_row(
            prefix._L, prefix._S, prefix._SS, prefix._w2, self._current_row,
            j_lo, last_gap, k, row, splits,
        )
        self.stats.cells_evaluated += len(cells)
        self.stats.split_candidates += candidates
        return self._advance(k, row, splits)

    # ------------------------------------------------------------------
    def _upper_bound(self, k: int) -> int:
        """``i_max``: largest prefix length reducible to ``k`` tuples."""
        if not self.optimized:
            return self.count
        if k <= len(self.gaps):
            return self.gaps[k - 1]
        return self.count

    def _lower_bound(self, k: int, i: int) -> int:
        """``j_min``: position of the right-most gap before ``i``, or k-1."""
        if not self.optimized:
            return k - 1
        position = bisect.bisect_left(self.gaps, i)
        if position == 0:
            return k - 1
        return max(k - 1, self.gaps[position - 1])

    # ------------------------------------------------------------------
    def build_output(self, size: int) -> List[AggregateSegment]:
        """Reconstruct the reduced relation from the split-point matrix."""
        output: List[AggregateSegment] = []
        end = self.count
        k = size
        while k > 0 and end > 0:
            split = self.split_rows[k][end]
            values = self.prefix.merged_values(split, end - 1)
            first = self.segments[split]
            last = self.segments[end - 1]
            covering = Interval(first.interval.start, last.interval.end)
            output.append(AggregateSegment(first.group, values, covering))
            end = split
            k -= 1
        output.reverse()
        return output

    def error_row(self) -> List[float]:
        """Return the most recently computed error-matrix row."""
        return self._current_row


def reduce_to_size(
    segments: Sequence[AggregateSegment],
    size: int,
    weights: Weights | None = None,
    optimized: bool = True,
    backend: str = "python",
) -> DPResult:
    """Optimal size-bounded reduction (algorithm ``PTAc``, Fig. 7).

    Parameters
    ----------
    segments:
        The ITA result in group-then-time order.
    size:
        Maximal number of output tuples ``c``; must satisfy
        ``cmin <= size``.  Values ``>= len(segments)`` return the input
        unchanged.
    weights:
        Per-dimension weights ``w_d`` of the error measure (default 1.0).
    optimized:
        When ``False`` the gap pruning and the early break are disabled
        (the plain DP baseline of the runtime experiments).
    backend:
        ``"python"`` for the loop-based reference evaluation, ``"numpy"``
        for the vectorized split-point search of :mod:`repro.core.kernels`.
        Both produce identical reductions.
    """
    validate_budget(size, None)
    segments = list(segments)
    if not segments:
        return DPResult(segments, 0.0, 0, DPStats())
    _check_values(segments)
    if size >= len(segments):
        return DPResult(segments, 0.0, len(segments), DPStats())
    minimum = cmin(segments)
    if size < minimum:
        raise ValueError(
            f"size bound {size} is below cmin={minimum}; tuples separated by "
            f"gaps or belonging to different groups cannot be merged"
        )

    matrix = _ErrorMatrix(segments, weights, optimized, backend)
    for _ in range(size):
        row = matrix.fill_next_row()
    error = float(row[len(segments)])
    output = matrix.build_output(size)
    return DPResult(output, error, len(output), matrix.stats)


def reduce_to_error(
    segments: Sequence[AggregateSegment],
    epsilon: float,
    weights: Weights | None = None,
    optimized: bool = True,
    backend: str = "python",
) -> DPResult:
    """Optimal error-bounded reduction (algorithm ``PTAε``, Fig. 8).

    Finds the smallest ``c`` whose optimal reduction keeps the total error at
    or below ``epsilon * SSE_max`` and returns that reduction.

    Parameters
    ----------
    epsilon:
        Relative error threshold in ``[0, 1]``; 1 permits the maximal
        reduction to ``cmin`` tuples, 0 forbids any lossy merge.
    backend:
        ``"python"`` or ``"numpy"`` (see :func:`reduce_to_size`).
    """
    validate_budget(None, epsilon)
    segments = list(segments)
    if not segments:
        return DPResult([], 0.0, 0, DPStats())
    _check_values(segments)

    budget = error_budget(epsilon, max_error(segments, weights))
    matrix = _ErrorMatrix(segments, weights, optimized, backend)
    n = len(segments)
    for k in range(1, n + 1):
        row = matrix.fill_next_row()
        if row[n] <= budget:
            output = matrix.build_output(k)
            return DPResult(output, float(row[n]), len(output), matrix.stats)
    # epsilon == 0 with unavoidable error never happens: k == n gives error 0.
    output = matrix.build_output(n)
    return DPResult(output, 0.0, n, matrix.stats)


def optimal_error_curve(
    segments: Sequence[AggregateSegment],
    sizes: Sequence[int] | None = None,
    weights: Weights | None = None,
    backend: str = "python",
) -> dict:
    """Optimal error for every requested output size in a single DP sweep.

    The DP naturally produces optimal errors for all ``k = 1 .. max(sizes)``
    while filling its rows, so the error-versus-reduction curves of
    Figure 14 are obtained from one evaluation instead of one per size.

    Returns a dict mapping each feasible requested size to the optimal error
    (sizes below ``cmin`` map to ``math.inf``).
    """
    segments = list(segments)
    if not segments:
        return {}
    _check_values(segments)
    n = len(segments)
    if sizes is None:
        sizes = range(1, n + 1)
    sizes = sorted({int(size) for size in sizes if 1 <= int(size) <= n})
    if not sizes:
        return {}
    matrix = _ErrorMatrix(segments, weights, optimized=True, backend=backend)
    curve = {}
    wanted = set(sizes)
    for k in range(1, max(sizes) + 1):
        row = matrix.fill_next_row()
        if k in wanted:
            curve[k] = float(row[n])
    return curve


def _check_values(segments: Sequence[AggregateSegment]) -> None:
    """Equal value widths and finite values (NaN/±inf have no SSE)."""
    dimensions = segments[0].dimensions
    for segment in segments:
        if segment.dimensions != dimensions:
            raise ValueError(
                "all segments must have the same number of aggregate values"
            )
    resolve_weights(None, dimensions)
    require_finite(np.array([segment.values for segment in segments]))
