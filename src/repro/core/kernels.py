"""Vectorized NumPy kernels for the PTA hot paths.

The reference implementations in :mod:`repro.core.dp`, :mod:`repro.core.heap`
and :mod:`repro.core.greedy` evaluate the paper's algorithms with pure-Python
loops over :class:`~repro.core.merge.AggregateSegment` objects.  This module
provides drop-in array-backed counterparts selected with the
``backend="numpy"`` flag:

* :class:`NumpyPrefixSums` — the prefix sums of Proposition 1 stored as
  ``float64`` arrays, which the compiled DP row (``_dp.c``) reads;
* :func:`dp_first_row` — row ``k = 1`` of the DP error-matrix recurrence
  of Section 5.1 as one vector expression.  Rows ``k >= 2`` run compiled,
  one kernel call per row (see
  :meth:`repro.core.dp._ErrorMatrix.fill_next_row`);
* :class:`NumpyMergeHeap` — the merge heap of Section 6.2.2 as parallel NumPy
  arrays (interval endpoints, aggregate values, linked-list indices, merge
  keys) under a :mod:`heapq` priority queue with lazy-deletion version
  stamps.  Merging updates array slices in place instead of allocating new
  segment objects, dead slots are compacted away so memory tracks the live
  heap size;
* :class:`EncodedSegments` — a segment stream as flat columns, the unit of
  ingest (wire bytes decode straight into it), of sharding and of the
  snapshots the query index is built from;
* :meth:`NumpyMergeHeap.stage_chunk` /
  :meth:`NumpyMergeHeap.activate_staged_all` — the batched *online*
  insert path: a chunk's columns are bulk-written into reserved slots,
  then made visible to the merge policy one tuple at a time, so the online
  algorithms keep their exact tuple-at-a-time semantics at amortised
  per-chunk cost.  The activate-then-drain loop, every key it needs
  included, runs compiled (``_activate.c``, loaded by
  :mod:`repro.core.native`) over the same columns;
* :func:`greedy_merge_trajectory` — the complete greedy merge schedule of an
  array-encoded segment shard (the boundary-removal order, the merge
  error, the surviving block and its merged row of every step down to
  ``cmin``), the unit of work executed by the
  sharded engine of :mod:`repro.parallel` and by the batch
  GMS helpers on the numpy backend;
* :class:`DeltaLog`, :class:`SnapshotMirror` and :func:`finalize_mirror`
  — mid-stream snapshots: the log patches a column image of the live
  relation, and the end-of-input phase runs over its live rows as one
  call of the same compiled schedule with a stop rule, whose consumed
  prefix :func:`schedule_prefix` gathers, as it does for every shard.

Every greedy merge key and merged row is Proposition 2's rule, spelled
once in Python (:mod:`repro.core.errors`, :mod:`repro.core.merge`) for
the python backend and once in C (``_merge.h``) for the compiled loops,
in the same operation order, so greedy results are bit-identical across
backends (``tests/test_backend_identity.py``, ``tests/test_kernels.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Union, overload,
)

import numpy as np

from ..temporal import Interval
from . import native as _native
from .errors import Weights, resolve_weights, squared_weights
from .merge import AggregateSegment

if TYPE_CHECKING:
    from .heap import Heap


class ValueWidthError(ValueError):
    """A chunk whose number of aggregate values does not fit its target."""


# ----------------------------------------------------------------------
# Flat column encoding of a segment stream
# ----------------------------------------------------------------------
@dataclass(eq=False)
class EncodedSegments(Sequence[AggregateSegment]):
    """A segment stream as flat columns (the unit of ingest, sharding and
    query snapshots).

    ``starts`` / ``ends`` are ``int64`` interval endpoints, ``values`` is a
    ``float64`` array of shape ``(n, p)``, ``groups`` holds dense interned
    group ids and ``group_keys`` maps them back to the original group
    tuples.  Read as a sequence, the columns build
    :class:`AggregateSegment` objects only when asked for one, and they
    compare equal to the segment list they encode.
    """

    starts: np.ndarray
    ends: np.ndarray
    values: np.ndarray
    groups: np.ndarray
    group_keys: List[tuple]

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def dimensions(self) -> int:
        return self.values.shape[1]

    @overload
    def __getitem__(self, index: int) -> AggregateSegment: ...

    @overload
    def __getitem__(self, index: slice) -> "EncodedSegments": ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[AggregateSegment, "EncodedSegments"]:
        if isinstance(index, slice):
            return EncodedSegments(
                self.starts[index], self.ends[index], self.values[index],
                self.groups[index], self.group_keys,
            )
        return AggregateSegment(
            self.group_keys[self.groups[index]],
            tuple(self.values[index].tolist()),
            Interval(int(self.starts[index]), int(self.ends[index])),
        )

    def __iter__(self) -> Iterator[AggregateSegment]:
        keys = self.group_keys
        for group, row, start, end in zip(
            self.groups.tolist(), self.values.tolist(),
            self.starts.tolist(), self.ends.tolist(),
        ):
            yield AggregateSegment(
                keys[group], tuple(row), Interval(start, end)
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    @classmethod
    def concatenate(
        cls, parts: Sequence["EncodedSegments"]
    ) -> "EncodedSegments":
        """Row-wise concatenation, re-interning group ids across parts."""
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls(
                np.zeros(0, np.int64),
                np.zeros(0, np.int64),
                np.zeros((0, 0), np.float64),
                np.zeros(0, np.int64),
                [],
            )
        if len(parts) == 1:
            return parts[0]
        group_keys: List[tuple] = []
        interned: Dict[tuple, int] = {}
        remapped: List[np.ndarray] = []
        for part in parts:
            mapping = np.zeros(len(part.group_keys), dtype=np.int64)
            for local_id, group in enumerate(part.group_keys):
                global_id = interned.get(group)
                if global_id is None:
                    global_id = len(group_keys)
                    interned[group] = global_id
                    group_keys.append(group)
                mapping[local_id] = global_id
            remapped.append(mapping[part.groups])
        return cls(
            np.concatenate([p.starts for p in parts]),
            np.concatenate([p.ends for p in parts]),
            np.concatenate([p.values for p in parts]),
            np.concatenate(remapped),
            group_keys,
        )


def _flat_rows(rows: Sequence[Sequence[float]], width: int) -> np.ndarray:
    """Stack equal-width value rows into a ``(len(rows), width)`` block.

    One flat pass instead of ``np.array`` over a list of rows (~2x faster).
    """
    return np.fromiter(
        chain.from_iterable(rows), np.float64, len(rows) * width
    ).reshape(len(rows), width)


def encode_segments(
    segments: Iterable[AggregateSegment],
) -> EncodedSegments:
    """Materialise a segment stream into :class:`EncodedSegments` columns.

    Columns pass through unchanged once their shapes agree: a ``values``
    block that is not 2-D, or columns of different row counts, raise
    :class:`ValueError`.  Raises :class:`ValueWidthError` when the
    segments disagree on the number of aggregate values.
    """
    if isinstance(segments, EncodedSegments):
        rows = {len(segments.starts), len(segments.ends), len(segments.groups)}
        if np.ndim(segments.values) != 2 or rows != {len(segments.values)}:
            raise ValueError(
                f"malformed columns: {len(segments.starts)} starts, "
                f"{len(segments.ends)} ends, {len(segments.groups)} groups "
                f"and values of shape {np.shape(segments.values)}"
            )
        return segments
    chunk = segments if isinstance(segments, (list, tuple)) else list(segments)
    count = len(chunk)
    group_of = [s.group for s in chunk]
    ids: Dict[tuple, int] = {}
    if count and group_of.count(group_of[0]) == count:  # the common case
        ids[group_of[0]] = 0  # hashes the key, as interning every row does
        groups = np.zeros(count, np.int64)
    else:
        groups = np.asarray(
            [ids.setdefault(group, len(ids)) for group in group_of], np.int64
        )
    group_keys = list(ids)
    rows = [s.values for s in chunk]
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueWidthError(
            "all segments must have the same number of aggregate values"
        )
    width = widths.pop() if count else 0
    return EncodedSegments(
        np.fromiter((s.interval.start for s in chunk), np.int64, count),
        np.fromiter((s.interval.end for s in chunk), np.int64, count),
        _flat_rows(rows, width),
        groups,
        group_keys,
    )


def interval_lengths(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``float(end - start + 1)`` of every interval, as ``float64``.

    The chronon count is the exact unsigned 64-bit difference, converted
    to ``float64`` once, so an interval longer than ``2**63 - 1`` chronons
    keeps its length, which ``int64`` arithmetic would wrap.  The two
    counts that do not fit ``uint64`` either, the full ``int64`` span
    (``2.0**64``) and a reversed interval (at most ``0``), take Python's
    own integers.  ``_sse.c`` computes lengths by the same rule.

    >>> interval_lengths(np.array([-2**63, 1, 5]), np.array([0, 2**63 - 1, 5]))
    array([9.22337204e+18, 9.22337204e+18, 1.00000000e+00])
    >>> interval_lengths(np.array([-2**63]), np.array([2**63 - 1])) == 2.0**64
    array([ True])
    """
    starts = np.asarray(starts, np.int64)
    ends = np.asarray(ends, np.int64)
    count = ends.view(np.uint64) - starts.view(np.uint64)
    count += 1  # end - start + 1 modulo 2**64
    if count.all() and not (ends < starts).any():
        return count.astype(np.float64)
    return np.array(
        [float(end - start + 1)
         for start, end in zip(starts.tolist(), ends.tolist())],
        np.float64,
    )


def aligned(column: Any, dtype: type) -> np.ndarray:
    """``column`` as a C-contiguous, aligned ``dtype`` array, the layout
    the compiled loops' buffer checks accept.  A zero-copy view of a wire
    payload may sit at any offset; only such a view is copied."""
    column = np.ascontiguousarray(column, dtype=dtype)
    return column if column.flags.aligned else column.copy()


def typed_columns(
    encoded: EncodedSegments,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``starts``, ``ends``, ``groups`` and ``values`` as the C-contiguous,
    aligned ``int64`` / ``float64`` buffers the compiled ``SSE_max`` fold
    reads; columns that already are pass through uncopied.

    Endpoints and values are cast as :meth:`NumpyMergeHeap.stage_chunk`
    casts them, with ``casting="safe"``: uint64, float or object endpoints
    raise :class:`TypeError` instead of wrapping or truncating.  Group ids
    may be of any integer type (``casting="same_kind"``).
    """
    def typed(column: np.ndarray, dtype: type, casting: str) -> np.ndarray:
        return aligned(column.astype(dtype, casting=casting, copy=False), dtype)

    return (
        typed(encoded.starts, np.int64, "safe"),
        typed(encoded.ends, np.int64, "safe"),
        typed(encoded.groups, np.int64, "same_kind"),
        typed(encoded.values, np.float64, "safe"),
    )


def require_finite(
    values: np.ndarray, error: type = ValueError, first: int = 0
) -> None:
    """Raise ``error`` naming the first segment row with a NaN or ±inf value.

    The merge operator's length-weighted means (and with them every merge
    key) are undefined for such a value, so each entry point that would
    otherwise reduce it into a wrong-sized summary refuses it up front.
    Rows are numbered from ``first``, the position of the block's first
    row in its stream.
    """
    if values.size and not bool(np.isfinite(values).all()):
        bad = np.argwhere(~np.isfinite(np.atleast_2d(values)))[0]
        raise error(
            f"segment {first + int(bad[0])} has a non-finite aggregate value "
            f"(NaN/inf: the merge operator's length-weighted means are "
            f"undefined for it)"
        )


# ----------------------------------------------------------------------
# Prefix sums and the DP's first row (Sections 5.1 / 5.2)
# ----------------------------------------------------------------------
class NumpyPrefixSums:
    """Array-backed prefix sums for constant-time run SSE (Proposition 1).

    Mirrors :class:`repro.core.errors.PrefixSums` but stores the cumulative
    length / value / squared-value sums as ``float64`` arrays, enabling the
    batched run-error evaluation used by the vectorized DP recurrence.
    """

    __slots__ = ("segments", "weights", "_w2", "_L", "_S", "_SS")

    def __init__(
        self,
        segments: Sequence[AggregateSegment],
        weights: Weights | None = None,
    ) -> None:
        self.segments = list(segments)
        dimensions = self.segments[0].dimensions if self.segments else 0
        self.weights = resolve_weights(weights, dimensions)
        self._w2 = np.array(squared_weights(self.weights, dimensions))

        count = len(self.segments)
        lengths = np.zeros(count + 1, dtype=np.float64)
        values = np.zeros((dimensions, count + 1), dtype=np.float64)
        if count:
            lengths[1:] = [segment.length for segment in self.segments]
            values[:, 1:] = np.array(
                [segment.values for segment in self.segments], dtype=np.float64
            ).reshape(count, dimensions).T
        weighted = values * lengths
        self._L = np.cumsum(lengths)
        self._S = np.cumsum(weighted, axis=1)
        self._SS = np.cumsum(weighted * values, axis=1)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def dimensions(self) -> int:
        """Number of aggregate dimensions ``p``."""
        return self._S.shape[0]

    def total_length(self, first: int, last: int) -> float:
        """Total interval length of segments ``first .. last`` (inclusive)."""
        return float(self._L[last + 1] - self._L[first])

    def merged_values(self, first: int, last: int) -> Tuple[float, ...]:
        """Length-weighted mean values of segments ``first .. last``."""
        length = self._L[last + 1] - self._L[first]
        return tuple(
            float(v) for v in (self._S[:, last + 1] - self._S[:, first]) / length
        )

    def sse(self, first: int, last: int) -> float:
        """SSE of merging segments ``first .. last`` into a single tuple."""
        length = self._L[last + 1] - self._L[first]
        run_sum = self._S[:, last + 1] - self._S[:, first]
        run_square = self._SS[:, last + 1] - self._SS[:, first]
        deviation = np.maximum(run_square - run_sum * run_sum / length, 0.0)
        return float(_weighted_sum(self._w2, deviation))


def _weighted_sum(w2: np.ndarray, deviation: np.ndarray) -> np.ndarray:
    """``Σ_d w2[d] · deviation[d]``, summed from ``0.0`` one dimension at
    a time over the leading axis.

    This is :meth:`repro.core.errors.PrefixSums.sse`'s order, and the
    compiled DP row's (``_dp.c``).  A ``w2 @ deviation`` would run a BLAS
    dot, whose summation order depends on the BLAS build and the CPU.
    """
    total = np.zeros(deviation.shape[1:])
    for weight, row in zip(w2, deviation):
        total += weight * row
    return total


def dp_first_row(
    prefix: NumpyPrefixSums, i_max: int, first_gap: int | None
) -> np.ndarray:
    """Row ``k = 1`` of the error matrix: ``E[1][i] = SSE(s_1 .. s_i)``.

    ``first_gap`` is the position of the first non-adjacent pair (1-based) or
    ``None``; prefixes extending past it cannot be merged into one tuple and
    receive an infinite error.
    """
    n = len(prefix)
    row = np.full(n + 1, math.inf)
    length = prefix._L[1 : i_max + 1]
    run_sum = prefix._S[:, 1 : i_max + 1]
    run_square = prefix._SS[:, 1 : i_max + 1]
    deviation = np.maximum(run_square - run_sum * run_sum / length, 0.0)
    row[1 : i_max + 1] = _weighted_sum(prefix._w2, deviation)
    if first_gap is not None and first_gap < i_max:
        row[first_gap + 1 : i_max + 1] = math.inf
    return row


# ----------------------------------------------------------------------
# Shared vectorized primitives over array-encoded segments
# ----------------------------------------------------------------------
_INT64_MAX = 2**63 - 1


def adjacent_pair_mask(
    starts: np.ndarray, ends: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Adjacency of every consecutive pair (Definition 2, vectorized).

    Element ``i`` is ``True`` iff positions ``i`` and ``i + 1`` belong to
    the same group and meet without a temporal gap.  The ``False`` positions
    are exactly the maximal-run boundaries; this single definition is shared
    by the heap kernels, the trajectory kernel and the shard planner of
    :mod:`repro.parallel`, so a change to the adjacency rule cannot diverge
    between them.  An end at the largest int64 has no successor: its
    ``end + 1`` would wrap to the smallest.
    """
    left = ends[:-1]
    return (
        (groups[:-1] == groups[1:])
        & (left != _INT64_MAX)
        & (left + 1 == starts[1:])
    )


# ----------------------------------------------------------------------
# Array-backed merge heap (Section 6.2.2)
# ----------------------------------------------------------------------
#: Bound for the size and read-ahead handed to the compiled loop: a
#: heap never holds this many rows, so clamping changes no comparison.
_CLAMP = 2**62
_INT64 = range(-(2**63), 2**63)


def _clamped(size: Optional[int]) -> int:
    """A size bound for the compiled loop (0 when there is none)."""
    return 0 if size is None else max(-_CLAMP, min(size, _CLAMP))


class NumpyMergeHeap:
    """Merge heap over parallel columns with lazy-deletion stamps.

    Column layout (one row per inserted tuple, rows never move):

    ``_start`` / ``_end``
        interval endpoints;
    ``_values``
        length-weighted mean aggregate values, one immutable row (tuple or
        list of ``p`` floats) per tuple.  Rows are *rebound*, never mutated
        in place, so a row reference taken at any point stays valid forever
        (the merge delta log exploits this to record merged values by
        reference);
    ``_group``
        dense integer group ids (arbitrary group tuples are interned);
    ``_prev`` / ``_next``
        doubly linked chronological list as row indices (``-1`` = none);
    ``_key`` / ``_version`` / ``_alive``
        merge-with-predecessor error, lazy-deletion stamp and liveness.

    All columns are Python lists rather than arrays: the online merge loop
    is dominated by single-element reads and writes, where list indexing is
    several times faster than NumPy scalar indexing, and at the typical
    ``p ≤ 16`` even the per-row value arithmetic is faster as a scalar loop
    than as NumPy row expressions (measured ~3× at ``p = 10``).  Staging
    a chunk still casts and checks the incoming columns vectorized; every
    key is computed by the compiled loop.

    The priority queue is a :mod:`heapq` binary heap of
    ``(key, counter, index, version)`` entries; stale entries are skipped
    when they reach the top, exactly as in the pure-Python heap.

    One protocol writes the heap: stage rows (:meth:`stage_chunk`, or
    :meth:`stage_segment` for one tuple), then run the compiled loop
    (``KERNEL.activate``, :mod:`repro.core.native`), which activates them
    and drains the merges the online policy allows
    (:meth:`activate_staged_all`), or runs the end-of-input phase
    (:meth:`merge_down`).  Merging a tuple into its predecessor is a
    handful of in-place updates — no intermediate
    :class:`AggregateSegment` objects are allocated until :meth:`segments`
    materialises the final relation.

    Merged rows leave dead slots behind; when an insertion would outgrow the
    arrays while at least half the slots are dead, the storage is compacted
    in place instead of doubled, so memory stays proportional to the *live*
    heap size (``c + β`` for the online algorithms) rather than to the total
    number of tuples ever streamed.  Node ids and queue-entry counters
    survive compaction, so equal keys keep the reference heap's pop order.
    """

    _INITIAL_CAPACITY = 1024

    def __init__(self, weights: Weights | None = None) -> None:
        self._weights = weights
        self._w2: Tuple[float, ...] = ()
        self._dimensions: int | None = None
        self._capacity = 0
        self._count = 0
        self._size = 0
        self.max_size = 0
        self._head = -1
        self._tail = -1
        self._entries: List[tuple] = []
        self._entry_counter = 0
        self._next_node_id = 1
        self._group_ids: Dict[tuple, int] = {}
        self._group_keys: List[tuple] = []
        self._staged_end = 0
        self._values: List[Sequence[float]] = []
        #: Interval lengths as floats, ``float(end - start + 1)``
        #: (:func:`interval_lengths`), maintained alongside the endpoints so
        #: the merge arithmetic never recomputes them.  A merged row's
        #: length is the float sum of its parts.
        self._length: List[float] = []
        self._start: List[int] = []
        self._end: List[int] = []
        self._group: List[int] = []
        self._prev: List[int] = []
        self._next: List[int] = []
        self._key: List[float] = []
        self._version: List[int] = []
        self._alive: List[bool] = []
        self._node_id: List[int] = []

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------
    def _allocate(self, dimensions: int) -> None:
        self._dimensions = dimensions
        self._w2 = squared_weights(self._weights, dimensions)
        self._capacity = self._INITIAL_CAPACITY

    def _ensure_capacity(self, extra: int) -> None:
        """Make room for ``extra`` more rows, compacting before growing.

        Compaction is preferred whenever at least half the allocated slots
        are dead (merged away): it keeps memory bounded by the live heap
        size on long streams.  Growing preserves row indices; compaction
        does not, so it must only happen while no staged row is pending.
        """
        if self._count + extra <= self._capacity:
            return
        if self._size <= self._capacity // 2:
            self._compact()
            # Leave headroom proportional to the live size after compacting
            # (capacity ≥ 2× the post-compaction occupancy): steady-state
            # streams then compact every ~live-size tuples instead of every
            # few chunks, while memory stays bounded by the live heap.
            self._grow(2 * (self._count + extra))
        if self._count + extra > self._capacity:
            self._grow(self._count + extra)

    def _compact(self) -> None:
        """Drop dead rows, renumbering slots in chronological order."""
        order = self._order()
        count = len(order)
        # Keep every valid queue entry with its counter and renumber only
        # its slot, so equal keys still pop in the reference heap's order.
        slot = dict(zip(order, range(count)))
        alive, key, version = self._alive, self._key, self._version
        entries = [
            (entry_key, counter, slot[index], entry_version)
            for entry_key, counter, index, entry_version in self._entries
            if alive[index]
            and version[index] == entry_version
            and key[index] == entry_key
        ]
        heapq.heapify(entries)
        self._entries = entries
        self._start = [self._start[i] for i in order]
        self._end = [self._end[i] for i in order]
        self._key = [self._key[i] for i in order]
        self._version = [self._version[i] for i in order]
        self._node_id = [self._node_id[i] for i in order]
        self._values = [self._values[i] for i in order]
        self._length = [self._length[i] for i in order]
        self._prev = list(range(-1, count - 1))
        self._next = list(range(1, count)) + [-1] if count else []
        self._alive = [True] * count
        # Prune the group intern table to the groups still alive, so
        # memory does not grow with the number of groups ever streamed.
        group_rows = np.asarray(
            [self._group[i] for i in order], dtype=np.int64
        )
        live_groups = np.unique(group_rows)
        self._group = np.searchsorted(live_groups, group_rows).tolist()
        self._group_keys = [self._group_keys[int(g)] for g in live_groups]
        self._group_ids = {
            key: position for position, key in enumerate(self._group_keys)
        }
        self._head = 0 if count else -1
        self._tail = count - 1 if count else -1
        self._count = count
        # Compaction only runs with no staged tuples pending, but the stale
        # staging marker from an earlier fully-consumed chunk must follow
        # the renumbered rows or the pending check would misfire forever.
        self._staged_end = count

    def _grow(self, needed: int) -> None:
        # The columns are plain lists, so growing is just raising the
        # capacity watermark that drives the compaction cadence.
        capacity = self._capacity
        while capacity < needed:
            capacity *= 2
        self._capacity = capacity

    def _intern_group(self, group: tuple) -> int:
        group_id = self._group_ids.get(group)
        if group_id is None:
            group_id = len(self._group_keys)
            self._group_ids[group] = group_id
            self._group_keys.append(group)
        return group_id

    # ------------------------------------------------------------------
    # Basic state
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # ------------------------------------------------------------------
    # Batched online insertion (staged chunks)
    # ------------------------------------------------------------------
    def stage_chunk(self, chunk: Sequence[AggregateSegment]) -> int:
        """Bulk-write a chunk of incoming tuples without making them visible.

        The chunk is staged from its :class:`EncodedSegments` columns (a
        segment sequence is encoded once on entry): endpoints, values,
        interned groups and node ids are written into reserved slots in one
        pass.  :meth:`activate_staged_all` then makes the tuples visible,
        keying each against the live tail, so the observable heap state is
        identical to staging and activating the tuples one by one
        (:meth:`stage_segment`).

        Rows are stored as float values and int64 endpoints, the rows the
        compiled loop reads; columns that do not cast to them safely raise
        :class:`TypeError`, and a chunk of another value width than the
        heap's raises :class:`ValueWidthError`, before anything is
        written.  Every staged tuple must be activated before the next
        ``stage_chunk`` / ``stage_segment`` call.
        """
        self._check_no_staged()
        encoded = encode_segments(chunk)
        count = len(encoded)
        if count == 0:
            return 0
        if self._dimensions is not None and (
            encoded.dimensions != self._dimensions
        ):
            raise ValueWidthError(
                f"chunk has {encoded.dimensions} aggregate values per tuple, "
                f"the heap holds {self._dimensions}"
            )
        starts = encoded.starts.astype(np.int64, casting="safe", copy=False)
        ends = encoded.ends.astype(np.int64, casting="safe", copy=False)
        values = encoded.values.astype(np.float64, casting="safe", copy=False)
        if self._dimensions is None:
            self._allocate(encoded.dimensions)
        self._ensure_capacity(count)
        base = self._count
        groups = self._intern_groups(encoded)
        self._start.extend(starts.tolist())
        self._end.extend(ends.tolist())
        self._length.extend(interval_lengths(starts, ends).tolist())
        self._values.extend(map(tuple, values.tolist()))
        self._group.extend(groups.tolist())
        self._node_id.extend(
            range(self._next_node_id, self._next_node_id + count)
        )
        self._next_node_id += count
        self._prev.extend([-1] * count)
        self._next.extend([-1] * count)
        self._alive.extend([False] * count)
        self._key.extend([math.inf] * count)
        self._version.extend([0] * count)
        self._staged_end = base + count
        return count

    def stage_segment(self, segment: AggregateSegment) -> None:
        """Stage one tuple: :meth:`stage_chunk` of a one-row chunk, written
        straight from the tuple rather than through
        :func:`encode_segments`.

        The row is stored as a chunk's is: a tuple of floats and int64
        endpoints.  An endpoint outside int64 raises what
        :func:`encode_segments` raises for it, and a value width other
        than the heap's raises :class:`ValueWidthError`, before anything
        is written.
        """
        self._check_no_staged()
        interval = segment.interval
        start, end = interval.start, interval.end
        if not (type(start) is int and type(end) is int
                and start in _INT64 and end in _INT64):
            start, end = np.fromiter((start, end), np.int64, 2).tolist()
        values = tuple(map(float, segment.values))
        if self._dimensions is None:
            self._allocate(len(values))
        elif len(values) != self._dimensions:
            raise ValueWidthError(
                f"tuple has {len(values)} aggregate values, the heap holds "
                f"{self._dimensions}"
            )
        self._ensure_capacity(1)
        self._start.append(start)
        self._end.append(end)
        self._length.append(float(end - start + 1))
        self._values.append(values)
        self._group.append(self._intern_group(segment.group))
        self._node_id.append(self._next_node_id)
        self._next_node_id += 1
        self._prev.append(-1)
        self._next.append(-1)
        self._alive.append(False)
        self._key.append(math.inf)
        self._version.append(0)
        self._staged_end = self._count + 1

    def _intern_groups(self, encoded: EncodedSegments) -> np.ndarray:
        """Heap group ids of every row, interned in order of appearance."""
        row_groups = encoded.groups
        keys = encoded.group_keys
        if len(keys) == 1:
            return np.full(len(row_groups), self._intern_group(keys[0]))
        used, first_rows = np.unique(row_groups, return_index=True)
        table = np.zeros(len(keys), dtype=np.int64)
        for group in used[np.argsort(first_rows)].tolist():
            table[group] = self._intern_group(keys[group])
        return table[row_groups]

    def _check_no_staged(self) -> None:
        if self._count < self._staged_end:
            raise RuntimeError(
                "staged tuples are pending; activate them with "
                "activate_staged_all() first"
            )

    def activate_staged_all(
        self,
        *,
        size: Optional[int] = None,
        step_threshold: float = 0.0,
        delta: float = 1,
        last_gap_id: int = 0,
        before_gap: int = 0,
        after_gap: int = 0,
        total_error: float = 0.0,
        merges: int = 0,
        log: "Optional[DeltaLog]" = None,
    ) -> Tuple[int, int, int, float, int]:
        """Activate every pending staged tuple, draining merges in between.

        The fused form of the online inner loop: every staged tuple goes
        through one activate-then-drain body, which runs the merge policy
        of the paper's Fig. 11 (``size`` given, gPTAc) or Fig. 13
        (``step_threshold``, gPTAε) after each activation, with the
        branches of :meth:`repro.core.greedy.OnlineReducer._drain` (the
        python backend's loop) in the same order.  The observable heap
        state, the gap bookkeeping and the accumulated error are
        bit-identical to the python backend's (asserted by the session,
        kernel and backend-identity suites), and to staging the same
        tuples in other chunkings.  Each tuple's key is computed against
        the live tail when it is activated.

        Returns the updated ``(last_gap_id, before_gap, after_gap,
        total_error, merges)`` bookkeeping.  When ``log`` is given, every
        committed insert and merge is appended to it in commit order.

        The loop runs compiled (``KERNEL.activate``, :mod:`repro.core.native`)
        over this heap's own columns; ``tests/oracles.py`` holds its Python
        reference.
        """
        first = self._count
        stop = self._staged_end
        if first >= stop:
            return last_gap_id, before_gap, after_gap, total_error, merges
        delta_is_inf = delta == math.inf
        # Any read-ahead longer than the heap fails, any negative one
        # passes: clamping keeps both outcomes inside int64.
        read_ahead = 0 if delta_is_inf else max(-1, min(int(delta), _CLAMP))
        (
            counter, live, max_size, head, tail,
            last_gap_id, before_gap, after_gap, total_error, merges,
        ) = _native.KERNEL.activate(
            self._columns(), self._entries, self._w2, first, stop,
            self._entry_counter, self._size, self.max_size, self._head,
            self._tail, size is not None, _clamped(size), step_threshold,
            delta_is_inf, read_ahead, False, math.inf, last_gap_id,
            before_gap, after_gap, total_error, merges,
            None if log is None else tuple(
                getattr(log, column) for column in DeltaLog.__slots__
            ),
        )
        self._activated(stop, live, max_size, head, tail, counter)
        return last_gap_id, before_gap, after_gap, total_error, merges

    def merge_down(
        self,
        *,
        size: Optional[int] = None,
        budget: Optional[float] = None,
        total_error: float = 0.0,
        merges: int = 0,
    ) -> Tuple[float, int]:
        """The end-of-input phase: merge the cheapest pair until the bound.

        Merges while the heap exceeds ``size`` (gPTAc), or while the
        accumulated error stays within ``budget``
        (:func:`~repro.core.errors.error_budget`, gPTAε), and stops at
        ``cmin`` — the online drain with the gap and read-ahead rules off,
        as :func:`repro.core.greedy._merge_down` runs it on the python
        backend.  One ``KERNEL.activate`` call with no staged rows.
        Returns the new accumulated error and merge count.
        """
        self._check_no_staged()
        first = self._count
        (
            counter, live, max_size, head, tail, _, _, _, total_error, merges,
        ) = _native.KERNEL.activate(
            self._columns(), self._entries, self._w2, first, first,
            self._entry_counter, self._size, self.max_size,
            self._head, self._tail, size is not None, _clamped(size), 0.0,
            True, 0, True, math.inf if budget is None else budget, 0, 0, 0,
            total_error, merges, None,
        )
        self._activated(first, live, max_size, head, tail, counter)
        return total_error, merges

    def _columns(self) -> tuple:
        """The twelve lists the compiled loop reads and writes."""
        return (
            self._start, self._end, self._group, self._prev, self._next,
            self._key, self._version, self._alive, self._node_id,
            self._values, self._length, self._group_keys,
        )

    def _activated(
        self, stop: int, live: int, max_size: int, head: int, tail: int,
        counter: int,
    ) -> None:
        """Write an activation loop's scalars back, then maybe compact."""
        self._count = stop
        self._size = live
        self.max_size = max_size
        self._head = head
        self._tail = tail
        self._entry_counter = counter
        # A chunk boundary is an insertion boundary, so compacting here is
        # as safe as inside ``_ensure_capacity`` — and it is the only
        # chance to reclaim the dead rows a single huge chunk leaves
        # behind (one 200k-tuple push would otherwise pin 200k dead slots
        # behind a 1k-row live heap for the session's lifetime).
        if live <= self._count // 4 and self._count >= self._INITIAL_CAPACITY:
            self._compact()

    # ------------------------------------------------------------------
    # Reading the relation
    # ------------------------------------------------------------------
    def _order(self) -> List[int]:
        """The live rows in chronological (list) order."""
        order: List[int] = []
        index = self._head
        while index >= 0:
            order.append(index)
            index = self._next[index]
        return order

    def segments(self) -> List[AggregateSegment]:
        """Materialise the current intermediate relation in list order."""
        group_keys, group = self._group_keys, self._group
        values, start, end = self._values, self._start, self._end
        return [
            AggregateSegment(
                group_keys[group[i]], tuple(values[i]),
                Interval(start[i], end[i]),
            )
            for i in self._order()
        ]

    def ids_and_keys(self) -> Tuple[List[int], List[float]]:
        """Node ids and merge keys of the live tuples, in list order."""
        order = self._order()
        node_id, key = self._node_id, self._key
        return [node_id[i] for i in order], [key[i] for i in order]

    def columns(self) -> EncodedSegments:
        """The current intermediate relation as columns, in list order.

        Read straight off the heap's columns: no per-tuple segment object
        is built.
        """
        order = self._order()
        if not order:
            return EncodedSegments.concatenate([])
        rows = np.asarray(order, dtype=np.intp)
        values = self._values
        return EncodedSegments(
            np.asarray(self._start, np.int64)[rows],
            np.asarray(self._end, np.int64)[rows],
            _flat_rows([values[i] for i in order], self._dimensions),
            np.asarray(self._group, np.int64)[rows],
            list(self._group_keys),
        )

    def clone(self) -> "NumpyMergeHeap":
        """Return an independent copy with identical observable behaviour.

        Every column, the priority queue (stale entries included — they
        carry the tie-breaking counters) and all allocation bookkeeping are
        copied, so any operation sequence on the clone yields bit-identical
        results to the same sequence on the original.  Used by the
        incremental compression session (:class:`repro.api.Compressor`) to
        finalise a snapshot without disturbing the live online state.
        Staged tuples must all be activated before cloning.
        """
        self._check_no_staged()
        other = NumpyMergeHeap(self._weights)
        other._w2 = self._w2
        other._dimensions = self._dimensions
        other._capacity = self._capacity
        other._count = self._count
        other._size = self._size
        other.max_size = self.max_size
        other._head = self._head
        other._tail = self._tail
        other._entries = list(self._entries)
        other._entry_counter = self._entry_counter
        other._next_node_id = self._next_node_id
        other._group_ids = dict(self._group_ids)
        other._group_keys = list(self._group_keys)
        other._staged_end = self._staged_end
        # Rows are immutable by convention (rebound on merge, never
        # mutated), so a shallow column copy suffices.
        other._values = list(self._values)
        other._length = list(self._length)
        other._start = list(self._start)
        other._end = list(self._end)
        other._group = list(self._group)
        other._prev = list(self._prev)
        other._next = list(self._next)
        other._key = list(self._key)
        other._version = list(self._version)
        other._alive = list(self._alive)
        other._node_id = list(self._node_id)
        return other


# ----------------------------------------------------------------------
# Delta-based incremental snapshots (merge delta log + mirror)
# ----------------------------------------------------------------------
class DeltaLog:
    """Column-oriented record of committed heap operations.

    The online state machine (:class:`repro.core.greedy.OnlineReducer`)
    appends one entry per *committed* operation — an insert made visible to
    the merge policy, or a merge folded into the relation — so a snapshot
    consumer can bring a materialised image of the live intermediate
    relation up to date in time proportional to the number of operations
    since the last snapshot, instead of re-reading the whole heap.

    Entries are stored as parallel columns per operation kind.  The
    interleaving of the two kinds is not kept: inserts only ever append at
    the chronological tail and a merge only touches tuples that exist when
    it commits, so a consumer may apply every insert first and then replay
    the merges in order.  Merged value rows are recorded *by reference*:
    both heap backends rebind a fresh immutable row on every merge, so no
    copying is needed.  No merge key is recorded: :func:`finalize_mirror`
    recomputes the keys of the live rows it reads.

    The log is a read-side cache only, recorded while a
    :class:`SnapshotMirror` exists.  Crash recovery does not read it: the
    durability tier (:mod:`repro.service.durability`) re-feeds the logged
    input chunks through :meth:`~repro.core.greedy.OnlineReducer.replay`,
    whose soundness rests on ``push_chunk`` being deterministic.
    """

    __slots__ = (
        "insert_ids",
        "insert_starts",
        "insert_ends",
        "insert_groups",
        "insert_values",
        "merge_absorbed",
        "merge_survivors",
        "merge_values",
    )

    def __init__(self) -> None:
        self.insert_ids: List[int] = []
        self.insert_starts: List[int] = []
        self.insert_ends: List[int] = []
        self.insert_groups: List[tuple] = []
        self.insert_values: List[Sequence[float]] = []
        self.merge_absorbed: List[int] = []
        self.merge_survivors: List[int] = []
        self.merge_values: List[Sequence[float]] = []

    def __len__(self) -> int:
        return len(self.insert_ids) + len(self.merge_absorbed)

    def record_insert(
        self,
        node_id: int,
        start: int,
        end: int,
        group: tuple,
        values: Sequence[float],
    ) -> None:
        """One tuple appended at the tail."""
        self.insert_ids.append(node_id)
        self.insert_starts.append(start)
        self.insert_ends.append(end)
        self.insert_groups.append(group)
        self.insert_values.append(values)

    def record_merge(
        self, absorbed_id: int, survivor_id: int, values: Sequence[float]
    ) -> None:
        """One committed merge: ``absorbed_id`` folded into ``survivor_id``,
        whose post-merge row is ``values`` (by reference)."""
        self.merge_absorbed.append(absorbed_id)
        self.merge_survivors.append(survivor_id)
        self.merge_values.append(values)

    def clear(self) -> None:
        for column in self.__slots__:
            getattr(self, column).clear()


class SnapshotMirror:
    """Patchable column image of a live heap's intermediate relation.

    NumPy columns in chronological row order — node ``ids``, interval
    ``starts`` / ``ends``, an ``(n, p)`` ``values`` block, ``group_ids``
    and ``alive`` — of which the first ``count`` rows are in use; capacity
    doubles as rows are appended.  The mirror stays in sync by replaying a
    :class:`DeltaLog` (:meth:`apply`) instead of re-reading the heap.
    Value rows are *copied* from the log, never recomputed, so the mirror
    is bit-exact with respect to the heap on either backend.

    Merged-away rows become tombstones; the storage is compacted once dead
    rows outnumber live ones, which keeps every operation amortised O(1)
    per logged operation and memory proportional to the live relation.
    """

    _COMPACT_FLOOR = 1024
    _INITIAL_CAPACITY = 1024
    _COLUMNS = ("ids", "starts", "ends", "values", "group_ids", "alive")

    def __init__(self) -> None:
        self.ids = np.zeros(0, np.int64)
        self.starts = np.zeros(0, np.int64)
        self.ends = np.zeros(0, np.int64)
        self.values = np.zeros((0, 0), np.float64)
        self.group_ids = np.zeros(0, np.int64)
        self.alive = np.zeros(0, np.bool_)
        self.count = 0
        self.live = 0
        self.group_keys: List[tuple] = []
        self._interned: Dict[tuple, int] = {}
        self._position: Dict[int, int] = {}

    @classmethod
    def from_heap(cls, heap: "Heap") -> "SnapshotMirror":
        """Build the initial mirror from a heap's live columns (O(heap)).

        Called on a session's first snapshot and after the delta log
        outgrew the heap — every other snapshot patches this image with
        the delta log instead.  ``heap`` is either backend's heap: the rows
        come from its ``columns()``, the node ids from its
        ``ids_and_keys()``.
        """
        columns = heap.columns()
        ids, _ = heap.ids_and_keys()
        mirror = cls()
        mirror.group_keys = list(columns.group_keys)
        mirror._interned = {
            group: group_id for group_id, group in enumerate(mirror.group_keys)
        }
        mirror._append(
            ids, columns.starts, columns.ends, columns.groups, columns.values
        )
        return mirror

    def _append(
        self,
        ids: List[int],
        starts: Any,
        ends: Any,
        group_ids: Any,
        values: np.ndarray,
    ) -> None:
        """Append one block of rows at the chronological tail."""
        first = self.count
        stop = first + len(ids)
        if stop > len(self.ids) or (
            not first and values.shape[1] != self.values.shape[1]
        ):
            self._reserve(stop, values.shape[1])
        self.ids[first:stop] = ids
        self.starts[first:stop] = starts
        self.ends[first:stop] = ends
        self.values[first:stop] = values
        self.group_ids[first:stop] = group_ids
        self.alive[first:stop] = True
        self._position.update(zip(ids, range(first, stop)))
        self.count = stop
        self.live += stop - first

    def _reserve(self, needed: int, width: int) -> None:
        capacity = max(len(self.ids), self._INITIAL_CAPACITY)
        while capacity < needed:
            capacity *= 2
        count = self.count
        for name in self._COLUMNS:
            column = getattr(self, name)
            shape = (capacity, width) if name == "values" else capacity
            grown = np.zeros(shape, column.dtype)
            if count:
                grown[:count] = column[:count]
            setattr(self, name, grown)

    def apply(self, log: DeltaLog) -> None:
        """Replay a delta log, bringing the mirror up to the heap's state.

        The inserts are appended as one block, then the merges are
        replayed in log order.  The merges' writes are collected in per-row
        dicts, so a row written by several merges keeps the last value, and
        land in the columns as one fancy-index assignment per column.
        """
        if log.insert_ids:
            interned = self._interned
            group_keys = self.group_keys
            group_ids = []
            for group in log.insert_groups:
                group_id = interned.get(group)
                if group_id is None:
                    group_id = interned[group] = len(group_keys)
                    group_keys.append(group)
                group_ids.append(group_id)
            self._append(
                log.insert_ids,
                log.insert_starts,
                log.insert_ends,
                group_ids,
                _flat_rows(log.insert_values, len(log.insert_values[0])),
            )
        if log.merge_absorbed:
            position = self._position
            ends = self.ends
            end_patch: Dict[int, int] = {}
            value_patch: Dict[int, Sequence[float]] = {}
            absorbed_rows = []
            for absorbed_id, survivor_id, row in zip(
                log.merge_absorbed, log.merge_survivors, log.merge_values
            ):
                absorbed = position.pop(absorbed_id)
                survivor = position[survivor_id]
                end = end_patch.get(absorbed)
                end_patch[survivor] = ends.item(absorbed) if end is None else end
                value_patch[survivor] = row
                absorbed_rows.append(absorbed)
            self.alive[absorbed_rows] = False
            self.live -= len(absorbed_rows)
            ends[list(end_patch)] = list(end_patch.values())
            self.values[list(value_patch)] = _flat_rows(
                list(value_patch.values()), self.values.shape[1]
            )
        if self.count >= self._COMPACT_FLOOR and self.count >= 2 * self.live:
            self._compact()

    def _compact(self) -> None:
        keep = np.flatnonzero(self.alive[: self.count])
        live = len(keep)
        for name in self._COLUMNS:
            column = getattr(self, name)
            column[:live] = column[keep]
        self.count = live
        self._position = dict(zip(self.ids[:live].tolist(), range(live)))


def finalize_mirror(
    mirror: SnapshotMirror,
    *,
    size: Optional[int] = None,
    budget: Optional[float] = None,
    total_error: float = 0.0,
    weights: Weights | None = None,
) -> Optional[Tuple[EncodedSegments, float, int]]:
    """Run the end-of-input merge phase on a mirror, without touching it.

    The delta-snapshot twin of ``OnlineReducer.finalize``: gathers the
    mirror's live rows, runs the paper's end-of-input greedy phase over
    them — size-bounded down to ``size``, or error-bounded while
    ``total_error`` stays within ``budget``
    (:func:`~repro.core.errors.error_budget`, the stop rule of every
    error-bounded engine), and stopping at ``cmin`` — and returns the
    final snapshot as :class:`EncodedSegments` together with the
    accumulated error and the number of tail merges.

    The phase is one call of the compiled merge schedule
    (``KERNEL.trajectory``, the sharded engine's loop) with its stop rule:
    at most ``live - size`` steps, or no step past the budget, counted
    from ``total_error``.  The kernel computes the live rows' keys, the
    refreshed keys and the merged rows with ``_merge.h``, the rule both
    heap backends apply, and the output is the gathered prefix of the
    schedule (:func:`schedule_prefix`).  So the result is bit-identical to
    cloning and finalising the live heap, on either backend — with one
    guarded exception.  The schedule breaks exact key ties by position,
    the live heap by the historical counters of its queue entries, so a
    pair of *exactly equal* winning keys could merge in a different
    order than the oracle would (common on integer-valued streams).
    The kernel reports the first step whose key equals the smallest key
    left in its queue, stale entries included, and on such a tie this
    function returns ``None``: the caller then falls back to the
    clone+finalize oracle for that snapshot, keeping the bit-for-bit
    contract unconditional.
    """
    rows = np.flatnonzero(mirror.alive[: mirror.count])
    live = EncodedSegments(
        mirror.starts[rows], mirror.ends[rows], mirror.values[rows],
        mirror.group_ids[rows], list(mirror.group_keys),
    )
    count = len(rows)
    if count < 2:  # nothing merges: as in clone().finalize(), the weights
        return live, total_error, 0  # stay unchecked
    p = live.dimensions
    buffers = _schedule_buffers(count, p)
    steps, tie, error = _native.KERNEL.trajectory(
        live.starts, live.ends, live.groups, live.values,
        np.array(squared_weights(weights, p), np.float64), *buffers,
        count - 1 if size is None else max(count - size, 0),
        math.inf if budget is None else budget, total_error,
    )
    if tie >= 0:
        return None
    boundaries, _, heads, merged = _taken(buffers, steps, p)
    return schedule_prefix(live, boundaries, heads, merged, steps), error, steps


def schedule_prefix(
    columns: EncodedSegments,
    boundaries: np.ndarray,
    heads: np.ndarray,
    rows: np.ndarray,
    taken: int,
) -> EncodedSegments:
    """The columns left after the first ``taken`` steps of their schedule.

    Those steps remove their ``boundaries``.  Each surviving block keeps
    the row recorded at the last of those steps headed at it (``heads``),
    or its input row if no step was: the kernel folded those rows in
    schedule order, so this is a gather, not a replay.  The sharded engine rebuilds each shard's output with
    it, and :func:`finalize_mirror` a snapshot.
    """
    if not taken:
        return columns
    count = len(columns)
    keep = np.ones(count, dtype=bool)
    keep[boundaries[:taken]] = False
    part_starts = np.flatnonzero(keep)
    part_ends = np.append(part_starts[1:] - 1, count - 1)
    # ``last[h]``: the last step headed at ``h``, or -1.  ``maximum.at``
    # is unbuffered, so repeated heads keep the largest step.
    last = np.full(count, -1)
    np.maximum.at(last, heads[:taken], np.arange(taken))
    steps = last[part_starts]
    merged = steps >= 0
    block_rows = columns.values[part_starts]
    block_rows[merged] = rows[steps[merged]]
    return EncodedSegments(
        columns.starts[part_starts], columns.ends[part_ends], block_rows,
        columns.groups[part_starts], columns.group_keys,
    )


# ----------------------------------------------------------------------
# Array-encoded greedy merge trajectories (sharded engine work unit)
# ----------------------------------------------------------------------
#: ``(boundaries, keys, heads, rows)`` of one shard's merge schedule.
Trajectory = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def greedy_merge_trajectory(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: np.ndarray,
) -> Trajectory:
    """Complete greedy merge schedule of an array-encoded segment shard.

    Runs the greedy merging strategy over the shard all the way down to its
    local ``cmin`` and records every step: element ``t`` of the returned
    ``(boundaries, keys, heads, rows)`` columns says that the ``t``-th
    cheapest-first merge folded the block starting at original position
    ``boundaries[t]`` into the block starting at ``heads[t]`` (its
    predecessor) at a cost of ``keys[t]``, and that the merged block's
    row is ``rows[t]`` (shape ``(steps, p)``).  A consumed prefix of the
    schedule therefore leaves each surviving block with the row of the
    last step headed at it, or with its input row if no step was.

    Because greedy merging never crosses a maximal-run boundary, the global
    GMS reduction of a sharded input is exactly "each shard follows its own
    local schedule"; the only cross-shard coordination is *how many* steps of
    each schedule are taken, which :mod:`repro.parallel` decides with a
    k-way merge over the shard frontiers.

    Each node is a contiguous block of original positions carrying its
    float length and merged row, exactly like a heap node: every key, the
    initial ones included, and every surviving row come from the merge
    rule's C spelling (``_merge.h``), and a merged block's length is the
    float length of its interval, as the heaps take it.  The schedule is
    therefore the python :class:`~repro.core.heap.MergeHeap`'s, bit for
    bit, also on values far from zero and on spans past ``2**53``.

    **The queue.**  Every entry is ordered by ``(key, counter)``: the
    initial keys take counters in position order, and each refresh takes
    the next counter, so exact ties go to the older entry.  Two sources
    feed the queue:

    * the *initial frontier* — all finite initial keys, consumed in
      ``(key, position)`` order, which is exactly their ``(key, counter)``
      order;
    * a :mod:`heapq` of refreshed keys only.  A refreshed counter is
      larger than every initial one, so on an exact key tie the initial
      entry is taken first.

    ``stamp[node]`` is the counter of the node's current entry (``1`` for
    its initial entry, ``-1`` once the node is merged away, ``0`` if it
    can never merge), so an entry is valid iff its counter equals the
    stamp.  A refresh is *lazy*: while the node already has an entry in
    the queue that sorts no later than the refreshed key, the new entry is
    not pushed; it goes in, with its own counter, when that queued entry
    pops stale.  A deferred entry therefore joins the queue before it
    could be the minimum, and every valid entry pops at the same
    ``(key, counter)`` position as in a queue holding every entry ever
    created — the schedule is that of the sequential heaps' lazy-deletion
    queue, step for step and bit for bit.  Schedules are defined for
    finite keys; the engine rejects NaN and ±inf values before sharding.

    All inputs are plain arrays (``int64`` endpoints and group ids,
    ``float64`` values of shape ``(n, p)`` and squared weights ``w2``), so a
    shard travels to a worker as a handful of array buffers instead of
    ``n`` segment objects.

    **The loop.**  The schedule runs in C (``KERNEL.trajectory``, loaded
    by :mod:`repro.core.native`) over the shard's columns, cast to
    C-contiguous, aligned ``int64`` / ``float64`` (:func:`aligned`: a
    worker's zero-copy view of a request may sit at any offset), with the
    interpreter lock released; it computes the lengths, the adjacency, the
    initial keys and the frontier itself.  ``tests/oracles.py`` holds its
    Python reference.  The output columns are sized for the most steps a
    shard can take, ``n - 1``, and cut to the steps taken.
    :func:`finalize_mirror` calls the same loop with its end-of-input stop
    rule.

    >>> starts = np.arange(4)
    >>> boundaries, keys, heads, rows = greedy_merge_trajectory(
    ...     starts, starts, np.array([[1.0], [1.0], [5.0], [6.0]]),
    ...     np.zeros(4, dtype=np.int64), np.ones(1))
    >>> boundaries.tolist(), keys.tolist()
    ([1, 3, 2], [0.0, 0.5, 20.25])
    >>> heads.tolist(), rows.tolist()
    ([0, 2, 0], [[1.0], [5.5], [3.25]])

    The same tuples offset by ``1e8`` keep their keys:

    >>> boundaries, keys, heads, rows = greedy_merge_trajectory(
    ...     starts, starts, np.array([[1.0], [1.0], [5.0], [6.0]]) + 1e8,
    ...     np.zeros(4, dtype=np.int64), np.ones(1))
    >>> boundaries.tolist(), keys.tolist()
    ([1, 3, 2], [0.0, 0.5, 20.25])
    """
    n = len(starts)
    p = values.shape[1]
    if n < 2:
        return _no_steps(p)
    buffers = _schedule_buffers(n, p)
    steps = _native.KERNEL.trajectory(
        aligned(starts, np.int64),
        aligned(ends, np.int64),
        aligned(groups, np.int64),
        aligned(values, np.float64),
        aligned(w2, np.float64)[:p],
        *buffers,
    )
    return _taken(buffers, steps, p)


def _schedule_buffers(n: int, p: int) -> Tuple[np.ndarray, ...]:
    """Output columns of ``KERNEL.trajectory`` for ``n`` blocks, sized
    for the most steps they can take, ``n - 1``."""
    return (
        np.empty(n - 1, np.int64), np.empty(n - 1, np.float64),
        np.empty(n - 1, np.int64), np.empty((n - 1) * p, np.float64),
    )


def _taken(buffers: Tuple[np.ndarray, ...], steps: int, p: int) -> Trajectory:
    """The schedule's output columns cut to the ``steps`` taken."""
    boundaries, keys, heads, merged = buffers
    return (
        boundaries[:steps], keys[:steps], heads[:steps],
        merged[: steps * p].reshape(-1, p),
    )


def _no_steps(p: int) -> Trajectory:
    return (
        np.zeros(0, np.int64), np.zeros(0, np.float64),
        np.zeros(0, np.int64), np.zeros((0, p), np.float64),
    )


# ----------------------------------------------------------------------
# Snapshot-query helpers (serving layer, Propositions 1 / 2 reused)
# ----------------------------------------------------------------------
def instant_index(starts: np.ndarray, ends: np.ndarray, t: int) -> int:
    """Index of the segment covering chronon ``t``, or ``-1`` for a gap.

    One binary search over the (time-ordered, non-overlapping) segment
    starts of a summary snapshot; the candidate found is then checked
    against its end, so gaps between runs answer ``-1`` instead of the
    nearest neighbour.  This is the point-lookup primitive of the serving
    layer's :class:`repro.service.QueryEngine`.
    """
    index = int(np.searchsorted(starts, t, side="right")) - 1
    if index < 0 or ends[index] < int(t):
        return -1
    return index


def time_weighted_prefix(
    starts: np.ndarray, ends: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Prefix sums of chronon counts and value·length products.

    Returns ``(L, W)`` where ``L[i]`` is the total number of chronons
    covered by segments ``0 .. i-1`` and ``W[i]`` (shape ``(n + 1, p)``)
    the cumulative per-dimension sum of ``value · length`` — exactly the
    Proposition 1 sums the merge kernels use, evaluated once per snapshot
    so any range aggregate over the snapshot costs two prefix-row
    differences (:func:`range_weighted_sum`).
    """
    lengths = interval_lengths(starts, ends)
    count = len(starts)
    length_prefix = np.zeros(count + 1, dtype=np.float64)
    np.cumsum(lengths, out=length_prefix[1:])
    weighted = np.zeros((count + 1, values.shape[1]), dtype=np.float64)
    np.cumsum(values * lengths[:, None], axis=0, out=weighted[1:])
    return length_prefix, weighted


def range_weighted_sum(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    length_prefix: np.ndarray,
    weighted_prefix: np.ndarray,
    lo: int,
    hi: int,
    t1: int,
    t2: int,
) -> Tuple[float, np.ndarray]:
    """Covered chronons and value·length sums of ``[t1, t2]`` in O(p).

    ``lo`` / ``hi`` bound the (inclusive) index range of segments
    overlapping ``[t1, t2]``.  Because a summary tuple's value is constant
    over its interval, clipping the two boundary segments is exact: the
    full-range prefix difference minus the uncovered left part of segment
    ``lo`` and the uncovered right part of segment ``hi``.  Together with
    :func:`time_weighted_prefix` this is the constant-time range-aggregate
    identity the serving layer answers queries with — the same weighted
    prefix sums that give the merge kernels their constant-time SSE
    (Propositions 1 and 2).
    """
    left_excess = float(max(int(t1) - int(starts[lo]), 0))
    right_excess = float(max(int(ends[hi]) - int(t2), 0))
    covered = (
        float(length_prefix[hi + 1] - length_prefix[lo])
        - left_excess
        - right_excess
    )
    weighted = (
        weighted_prefix[hi + 1]
        - weighted_prefix[lo]
        - left_excess * values[lo]
        - right_excess * values[hi]
    )
    return covered, weighted


__all__ = [
    "DeltaLog",
    "EncodedSegments",
    "NumpyMergeHeap",
    "NumpyPrefixSums",
    "SnapshotMirror",
    "adjacent_pair_mask",
    "dp_first_row",
    "encode_segments",
    "finalize_mirror",
    "greedy_merge_trajectory",
    "instant_index",
    "interval_lengths",
    "range_weighted_sum",
    "require_finite",
    "time_weighted_prefix",
    "typed_columns",
    "ValueWidthError",
]
