"""Vectorized NumPy kernels for the PTA hot paths.

The reference implementations in :mod:`repro.core.dp`, :mod:`repro.core.heap`
and :mod:`repro.core.greedy` evaluate the paper's algorithms with pure-Python
loops over :class:`~repro.core.merge.AggregateSegment` objects.  This module
provides drop-in array-backed counterparts selected with the
``backend="numpy"`` flag:

* :class:`NumpyPrefixSums` — the prefix sums of Proposition 1 stored as
  ``float64`` arrays, with :meth:`NumpyPrefixSums.sse_run_batch` evaluating
  the SSE of *every* candidate run ``s_{j+1} .. s_i`` for a fixed ``i`` in one
  vector expression;
* :func:`dp_first_row` / :func:`dp_best_split` — the DP error-matrix
  recurrence of Section 5.1 with the inner split-point loop replaced by a
  single ``np.argmin`` over the ``j``-range;
* :class:`NumpyMergeHeap` — the merge heap of Section 6.2.2 as parallel NumPy
  arrays (interval endpoints, aggregate values, linked-list indices, merge
  keys) under a :mod:`heapq` priority queue with lazy-deletion version
  stamps.  Merging updates array slices in place instead of allocating new
  segment objects, dead slots are compacted away so memory tracks the live
  heap size, and :meth:`NumpyMergeHeap.insert_batch` computes the merge keys
  of a whole batch of tuples vectorized (used by the batch GMS helpers);
* :class:`EncodedSegments` — a segment stream as flat columns, the unit of
  ingest (wire bytes decode straight into it), of sharding and of the
  snapshots the query index is built from;
* :meth:`NumpyMergeHeap.stage_chunk` /
  :meth:`NumpyMergeHeap.activate_staged_all` — the batched *online*
  insert path: a chunk's columns are bulk-written into reserved slots with
  the raw pairwise merge keys precomputed vectorized, then made visible to
  the merge policy one tuple at a time, so the online algorithms keep
  their exact tuple-at-a-time semantics at amortised per-chunk cost;
* :func:`greedy_merge_trajectory` — the complete greedy merge schedule of an
  array-encoded segment shard (the boundary-removal order and the merge
  error of every step down to ``cmin``), the unit of work executed by the
  sharded multiprocess engine of :mod:`repro.parallel`.

Every greedy merge key and merged row, on either backend, comes from
:func:`repro.core.errors.merge_key` (vector form :func:`pairwise_merge_keys`)
and :func:`repro.core.merge.merged_row`, so greedy results are bit-identical
across backends (``tests/test_backend_identity.py``, ``tests/test_kernels.py``).
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
    overload,
)

import numpy as np

from ..temporal import Interval
from .errors import Weights, merge_key, resolve_weights, squared_weights
from .merge import AggregateSegment, merged_row


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

    Columns pass through unchanged.  Raises :class:`ValueWidthError` when
    the segments disagree on the number of aggregate values.
    """
    if isinstance(segments, EncodedSegments):
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
# Prefix sums and the vectorized DP inner loop (Sections 5.1 / 5.2)
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
        self._w2 = np.asarray(self.weights, dtype=np.float64) ** 2

        count = len(self.segments)
        lengths = np.zeros(count + 1, dtype=np.float64)
        values = np.zeros((dimensions, count + 1), dtype=np.float64)
        for index, segment in enumerate(self.segments, start=1):
            lengths[index] = segment.length
            values[:, index] = segment.values
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
        return float(self._w2 @ deviation)

    def sse_run_batch(self, j_lo: int, i: int) -> np.ndarray:
        """Run errors ``SSE(s_{j+1} .. s_i)`` for every ``j`` in ``[j_lo, i)``.

        Uses the paper's 1-based split-point convention: entry ``m`` of the
        returned array is the error of the run starting right after split
        point ``j = j_lo + m`` and ending at segment ``s_i``.
        """
        length = self._L[i] - self._L[j_lo:i]
        run_sum = self._S[:, [i]] - self._S[:, j_lo:i]
        run_square = self._SS[:, [i]] - self._SS[:, j_lo:i]
        deviation = np.maximum(run_square - run_sum * run_sum / length, 0.0)
        return self._w2 @ deviation


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
    row[1 : i_max + 1] = prefix._w2 @ deviation
    if first_gap is not None and first_gap < i_max:
        row[first_gap + 1 : i_max + 1] = math.inf
    return row


def dp_best_split(
    prefix: NumpyPrefixSums,
    previous_row: np.ndarray,
    j_lo: int,
    i: int,
    infeasible_below: int = 0,
) -> Tuple[float, int]:
    """Best split point for cell ``E[k][i]`` via one vectorized ``argmin``.

    Evaluates ``E[k-1][j] + SSE(s_{j+1} .. s_i)`` for every candidate split
    ``j`` in ``[j_lo, i)`` and returns ``(error, split)``.  Candidates below
    ``infeasible_below`` correspond to runs crossing a gap and are forced to
    an infinite total (only relevant for the plain-DP baseline; the optimized
    evaluation passes a ``j_lo`` at or right of the last gap).  Ties are
    broken towards the *largest* ``j``, matching the pure-Python reference
    which scans the candidates from ``i - 1`` downwards and only accepts
    strict improvements.
    """
    totals = previous_row[j_lo:i] + prefix.sse_run_batch(j_lo, i)
    if infeasible_below > j_lo:
        totals[: infeasible_below - j_lo] = math.inf
    reversed_totals = totals[::-1]
    position = int(np.argmin(reversed_totals))
    best = float(reversed_totals[position])
    if math.isinf(best):
        return math.inf, 0
    return best, i - 1 - position


# ----------------------------------------------------------------------
# Shared vectorized primitives over array-encoded segments
# ----------------------------------------------------------------------
def adjacent_pair_mask(
    starts: np.ndarray, ends: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Adjacency of every consecutive pair (Definition 2, vectorized).

    Element ``i`` is ``True`` iff positions ``i`` and ``i + 1`` belong to
    the same group and meet without a temporal gap.  The ``False`` positions
    are exactly the maximal-run boundaries; this single definition is shared
    by the heap kernels, the trajectory kernel and the shard planner of
    :mod:`repro.parallel`, so a change to the adjacency rule cannot diverge
    between them.
    """
    return (groups[:-1] == groups[1:]) & (ends[:-1] + 1 == starts[1:])


def pairwise_merge_keys(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: Sequence[float],
) -> np.ndarray:
    """Merge error of every consecutive pair, ``inf`` where not adjacent.

    The vector form of :func:`repro.core.errors.merge_key`: the same
    ``(w²_d · factor) · (diff · diff)`` terms on float lengths, summed from
    ``0.0`` one dimension at a time, so a key computed in batch carries the
    same bits as the scalar key of the same pair.  Only the rows are
    vectorized.
    """
    if len(starts) < 2:
        return np.zeros(0, dtype=np.float64)
    adjacent = adjacent_pair_mask(starts, ends, groups)
    left_len = (ends[:-1] - starts[:-1] + 1).astype(np.float64)
    right_len = (ends[1:] - starts[1:] + 1).astype(np.float64)
    factor = left_len * right_len / (left_len + right_len)
    pair = np.zeros(len(factor), dtype=np.float64)
    for d in range(values.shape[1]):
        diff = values[:-1, d] - values[1:, d]
        pair += (w2[d] * factor) * (diff * diff)
    return np.where(adjacent, pair, math.inf)


# ----------------------------------------------------------------------
# Array-backed merge heap (Section 6.2.2)
# ----------------------------------------------------------------------
class NumpyHeapNode:
    """Lightweight view of one live slot of a :class:`NumpyMergeHeap`.

    Exposes the same ``id`` / ``key`` / ``segment`` surface as
    :class:`repro.core.heap.HeapNode` so the greedy algorithms can treat both
    heap backends uniformly.  ``id`` is the stable insertion-order number
    (monotone exactly as in the linked-node implementation, and preserved
    across array compaction); ``index`` is the current array slot.

    Unlike a linked :class:`~repro.core.heap.HeapNode` — which stays valid
    forever — a view's slot can be reassigned when a later insertion
    compacts the storage.  Accessing ``key`` / ``segment`` through a stale
    view raises :class:`RuntimeError` instead of silently reading another
    tuple's data.
    """

    __slots__ = ("_heap", "index", "_id")

    def __init__(self, heap: "NumpyMergeHeap", index: int) -> None:
        self._heap = heap
        self.index = index
        self._id = heap._node_id[index]

    def _checked_index(self) -> int:
        node_ids = self._heap._node_id
        if self.index >= len(node_ids) or node_ids[self.index] != self._id:
            raise RuntimeError(
                "heap node view invalidated: the storage was compacted by a "
                "later insertion; re-obtain the node via peek()/iteration"
            )
        return self.index

    @property
    def id(self) -> int:
        return self._id

    @property
    def key(self) -> float:
        return self._heap._key[self._checked_index()]

    @property
    def segment(self) -> AggregateSegment:
        return self._heap._segment_at(self._checked_index())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NumpyHeapNode(id={self._id})"


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
    than as NumPy row expressions (measured ~3× at ``p = 10``).  Bulk
    operations (batch key computation, staged chunks) still run vectorized
    on the incoming columns, with the dimension sums
    accumulated sequentially so batch keys stay bit-identical to scalar
    keys.

    The priority queue is a :mod:`heapq` binary heap of
    ``(key, counter, index, version)`` entries; stale entries are skipped
    during ``peek`` exactly like the pure-Python heap.  Merging a tuple into
    its predecessor is a handful of in-place updates — no intermediate
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
        self._staged_base = 0
        self._staged_end = 0
        self._staged_keys: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------
    def _allocate(self, dimensions: int) -> None:
        self._dimensions = dimensions
        self._w2 = squared_weights(self._weights, dimensions)
        self._capacity = self._INITIAL_CAPACITY
        self._values: List[Sequence[float]] = []
        #: Interval lengths as floats (exact — lengths are small integers),
        #: maintained alongside the endpoints so the merge arithmetic never
        #: recomputes ``end - start + 1``.  A merged row's length is the sum
        #: of its parts, bit-identical to recomputing from the endpoints.
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

    def _ensure_capacity(self, extra: int) -> None:
        """Make room for ``extra`` more rows, compacting before growing.

        Compaction is preferred whenever at least half the allocated slots
        are dead (merged away): it keeps memory bounded by the live heap
        size on long streams.  Growing preserves row indices; compaction
        does not, so it must only happen between insertions — any
        outstanding :class:`NumpyHeapNode` indices become invalid.
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
        order = []
        index = self._head
        while index >= 0:
            order.append(index)
            index = self._next[index]
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
        if count:
            self._start = [self._start[i] for i in order]
            self._end = [self._end[i] for i in order]
            self._key = [self._key[i] for i in order]
            self._version = [self._version[i] for i in order]
            self._node_id = [self._node_id[i] for i in order]
            self._values = [self._values[i] for i in order]
            self._length = [self._length[i] for i in order]
            self._prev = list(range(-1, count - 1))
            self._next = list(range(1, count + 1))
            self._next[-1] = -1
            self._alive = [True] * count
            # Prune the group intern table to the groups still alive, so
            # memory does not grow with the number of groups ever streamed.
            group_rows = np.asarray(
                [self._group[i] for i in order], dtype=np.int64
            )
            live_groups = np.unique(group_rows)
            self._group = np.searchsorted(live_groups, group_rows).tolist()
            self._group_keys = [
                self._group_keys[int(g)] for g in live_groups
            ]
            self._group_ids = {
                key: position
                for position, key in enumerate(self._group_keys)
            }
        else:
            self._start = []
            self._end = []
            self._group = []
            self._prev = []
            self._next = []
            self._key = []
            self._version = []
            self._alive = []
            self._node_id = []
            self._values = []
            self._length = []
            self._group_keys = []
            self._group_ids = {}
        self._head = 0 if count else -1
        self._tail = count - 1 if count else -1
        self._count = count
        # Compaction only runs with no staged tuples pending, but the stale
        # staging marker from an earlier fully-consumed chunk must follow
        # the renumbered rows or the pending check would misfire forever.
        self._staged_base = count
        self._staged_end = count
        self._staged_keys = None

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

    @property
    def tail(self) -> Optional[NumpyHeapNode]:
        """The most recently inserted (chronologically last) node."""
        return NumpyHeapNode(self, self._tail) if self._tail >= 0 else None

    @property
    def head(self) -> Optional[NumpyHeapNode]:
        """The chronologically first node."""
        return NumpyHeapNode(self, self._head) if self._head >= 0 else None

    # ------------------------------------------------------------------
    # Operations of the paper: INSERT, PEEK, MERGE
    # ------------------------------------------------------------------
    def insert(self, segment: AggregateSegment) -> NumpyHeapNode:
        """Append one tuple at the end of the list and index it in the heap."""
        self._check_no_staged()
        if self._dimensions is not None:
            self._ensure_capacity(1)
        index = self._append_slot(segment)
        self._refresh_key(index)
        return NumpyHeapNode(self, index)

    def insert_batch(
        self, segments: Sequence[AggregateSegment]
    ) -> List[NumpyHeapNode]:
        """Append a chunk of tuples, computing all merge keys vectorized.

        Equivalent to calling :meth:`insert` once per segment: the chunk is
        staged and activated under a size budget it cannot reach, so no
        tuple merges.  Used by the batch GMS helpers to build their
        initial heap.
        """
        self._check_no_staged()
        if not self.stage_chunk(segments):
            return []
        first = self._staged_base
        self.activate_staged_all(size=sys.maxsize)
        return [NumpyHeapNode(self, index) for index in range(first, self._count)]

    # ------------------------------------------------------------------
    # Batched online insertion (staged chunks)
    # ------------------------------------------------------------------
    def stage_chunk(self, chunk: Sequence[AggregateSegment]) -> int:
        """Bulk-write a chunk of incoming tuples without making them visible.

        The chunk is staged from its :class:`EncodedSegments` columns (a
        segment sequence is encoded once on entry): endpoints, values,
        interned groups and node ids are written into reserved slots in one
        pass, and the raw pairwise merge keys *within* the chunk are
        precomputed vectorized.  :meth:`activate_staged_all` then makes the
        tuples visible, reusing a precomputed key whenever the tuple's
        chronological predecessor is still the untouched raw tuple staged
        right before it, so the observable heap state is identical to
        calling :meth:`insert` tuple by tuple.

        A chunk of another value width than the heap's raises
        :class:`ValueWidthError` before anything is written.  Every staged
        tuple must be activated before the next ``stage_chunk`` /
        ``insert`` / ``insert_batch`` call.
        """
        if self._count < self._staged_end:
            raise RuntimeError(
                "cannot stage a new chunk while staged tuples are pending; "
                "activate them with activate_staged_all() first"
            )
        encoded = encode_segments(chunk)
        count = len(encoded)
        if count == 0:
            return 0
        if self._dimensions is None:
            self._allocate(encoded.dimensions)
        elif encoded.dimensions != self._dimensions:
            raise ValueWidthError(
                f"chunk has {encoded.dimensions} aggregate values per tuple, "
                f"the heap holds {self._dimensions}"
            )
        self._ensure_capacity(count)
        base = self._count
        starts = encoded.starts
        ends = encoded.ends
        values = encoded.values
        groups = self._intern_groups(encoded)
        self._start.extend(starts.tolist())
        self._end.extend(ends.tolist())
        self._length.extend((ends - starts + 1).astype(np.float64).tolist())
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

        # Raw pairwise keys: key of staged tuple t against staged tuple t-1.
        # The first tuple's predecessor is whatever the live tail is at
        # activation time, so its key is always recomputed (NaN sentinel).
        keys = np.full(count, np.nan)
        if count > 1:
            keys[1:] = pairwise_merge_keys(
                starts, ends, values, groups, self._w2
            )
        self._staged_base = base
        self._staged_end = base + count
        self._staged_keys = keys
        return count

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
                "activate_staged_all() before inserting directly"
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

        The fused form of the online inner loop: activates the staged chunk
        tuple by tuple and runs the merge policy of the paper's Fig. 11
        (``size`` given, gPTAc) or Fig. 13 (``step_threshold``, gPTAε)
        after each activation, exactly as
        :class:`repro.core.greedy.OnlineReducer` does for a plain heap
        through ``insert`` / ``peek_entry`` / ``merge_top`` — but with
        every column aliased to a local and the per-dimension arithmetic
        inlined, which removes the per-tuple method-dispatch and row-view
        overhead.  The observable heap state, the gap bookkeeping and the
        accumulated error are bit-identical to the per-tuple protocol
        (asserted by the session and kernel parity suites); the policy
        logic here and in
        ``OnlineReducer._drain_size_bounded`` / ``_drain_error_bounded``
        must be kept in lockstep.

        Two *no-interaction* fast paths activate tuples in bulk (slice
        writes for the linking and liveness columns) because no merge can
        possibly fire between their activations:

        * size-bounded: the prefix that fits under the size budget — the
          drain only runs while the heap exceeds ``size``;
        * error-bounded: the whole chunk, when neither the current frontier
          (top of the heap) nor any staged merge key can beat the
          ``step_threshold`` — no key below the threshold can appear
          without a merge happening first.

        Returns the updated ``(last_gap_id, before_gap, after_gap,
        total_error, merges)`` bookkeeping.  When ``log`` is given, every
        committed insert and merge is appended to it in commit order.
        """
        first = self._count
        stop = self._staged_end
        if first >= stop:
            return last_gap_id, before_gap, after_gap, total_error, merges
        offset = self._staged_base
        assert self._staged_keys is not None
        skeys = self._staged_keys.tolist()

        # Local aliases of every column touched by the hot loop.
        start = self._start
        end = self._end
        group = self._group
        prev_ = self._prev
        next_ = self._next
        key = self._key
        version = self._version
        alive = self._alive
        node_id = self._node_id
        values = self._values
        length = self._length
        w2 = self._w2
        entries = self._entries
        push = heapq.heappush
        pop = heapq.heappop
        counter = self._entry_counter
        live = self._size
        max_size = self.max_size
        head = self._head
        tail = self._tail
        inf = math.inf
        size_bounded = size is not None
        delta_is_inf = delta == math.inf
        delta_is_one = delta == 1
        delta_int = 0 if delta_is_inf else int(delta)
        group_keys = self._group_keys
        record_insert = log.record_insert if log is not None else None
        record_merge = log.record_merge if log is not None else None

        # Staged rows are fresh (version 0, unlinked, unreachable until
        # activated), so liveness and the activation version bump can be
        # written for the whole span up front with two slice assignments.
        alive[first:stop] = [True] * (stop - first)
        version[first:stop] = [1] * (stop - first)

        # One-shot no-interaction detection for the error-bounded policy:
        # when neither the current frontier nor any staged key can beat the
        # step threshold, no merge can fire anywhere in this chunk (keys
        # only change through merges), so the whole chunk bulk-activates.
        error_bulk = False
        if not size_bounded:
            top_key = None
            while entries:
                entry_key, _, entry_index, entry_version = entries[0]
                if (
                    alive[entry_index]
                    and version[entry_index] == entry_version
                    and key[entry_index] == entry_key
                ):
                    top_key = entry_key
                    break
                pop(entries)
            chunk_min = inf
            for position in range(first, stop):
                staged = skeys[position - offset]
                if staged != staged:  # NaN = resolve against the predecessor
                    predecessor = tail if position == first else position - 1
                    if (
                        predecessor >= 0
                        and group[predecessor] == group[position]
                        and end[predecessor] + 1 == start[position]
                    ):
                        staged = self._pair_key(predecessor, position)
                    else:
                        staged = inf
                    skeys[position - offset] = staged
                if staged < chunk_min:
                    chunk_min = staged
            error_bulk = (
                top_key is None or top_key > step_threshold
            ) and chunk_min > step_threshold

        index = first
        while index < stop:
            # ----------------------------------------------------------
            # Bulk-activate the no-interaction span starting here.
            # ----------------------------------------------------------
            if size_bounded:
                bulk = min(stop - index, size - live) if live < size else 0
            else:
                bulk = stop - index if error_bulk else 0
            if bulk:
                span = range(index, index + bulk)
                prev_[index : index + bulk] = range(
                    index - 1, index + bulk - 1
                )
                previous_tail = tail
                prev_[index] = previous_tail
                next_[index : index + bulk] = range(index + 1, index + bulk + 1)
                next_[index + bulk - 1] = -1
                if previous_tail >= 0:
                    next_[previous_tail] = index
                else:
                    head = index
                tail = index + bulk - 1
                live += bulk
                if live > max_size:
                    max_size = live
                for position in span:
                    activation_key = skeys[position - offset]
                    if activation_key != activation_key:
                        predecessor = (
                            previous_tail if position == index else position - 1
                        )
                        if (
                            predecessor >= 0
                            and group[predecessor] == group[position]
                            and end[predecessor] + 1 == start[position]
                        ):
                            activation_key = self._pair_key(
                                predecessor, position
                            )
                        else:
                            activation_key = inf
                    key[position] = activation_key
                    if activation_key != inf:
                        counter += 1
                        push(
                            entries,
                            (activation_key, counter, position, 1),
                        )
                        after_gap += 1
                    else:
                        last_gap_id = node_id[position]
                        before_gap += after_gap
                        after_gap = 1
                    if record_insert is not None:
                        record_insert(
                            node_id[position],
                            start[position],
                            end[position],
                            group_keys[group[position]],
                            values[position],
                            activation_key,
                        )
                index += bulk
                continue

            # ----------------------------------------------------------
            # Interacting tuple: activate it, then drain eligible merges.
            # ----------------------------------------------------------
            previous = tail
            prev_[index] = previous
            if previous >= 0:
                next_[previous] = index
            else:
                head = index
            tail = index
            live += 1
            if live > max_size:
                max_size = live
            activation_key = skeys[index - offset]
            if activation_key != activation_key or previous != index - 1:
                # NaN sentinel, or the staged predecessor was disturbed by
                # a merge: recompute against the live tail.
                if (
                    previous >= 0
                    and group[previous] == group[index]
                    and end[previous] + 1 == start[index]
                ):
                    activation_key = merge_key(
                        length[previous], length[index], values[previous],
                        values[index], w2,
                    )
                else:
                    activation_key = inf
            key[index] = activation_key
            if activation_key != inf:
                counter += 1
                push(entries, (activation_key, counter, index, 1))
                after_gap += 1
            else:
                last_gap_id = node_id[index]
                before_gap += after_gap
                after_gap = 1
            if record_insert is not None:
                record_insert(
                    node_id[index],
                    start[index],
                    end[index],
                    group_keys[group[index]],
                    values[index],
                    activation_key,
                )

            # Drain: one iteration per committed merge.
            while True:
                if size_bounded and live <= size:
                    break
                top_index = -1
                while entries:
                    entry_key, _, entry_index, entry_version = entries[0]
                    if (
                        alive[entry_index]
                        and version[entry_index] == entry_version
                        and key[entry_index] == entry_key
                    ):
                        top_index = entry_index
                        top_key = entry_key
                        break
                    pop(entries)
                if top_index < 0:
                    break
                if not size_bounded and top_key > step_threshold:
                    break
                top_node = node_id[top_index]
                if top_node < last_gap_id:
                    if size_bounded and before_gap < size:
                        break
                    before_gap -= 1
                elif top_node > last_gap_id:
                    if delta_is_one:
                        successor = next_[top_index]
                        if (
                            successor < 0
                            or group[top_index] != group[successor]
                            or end[top_index] + 1 != start[successor]
                        ):
                            break
                    elif delta_is_inf:
                        break
                    elif delta_int:
                        count = 0
                        cursor = top_index
                        while count < delta_int:
                            successor = next_[cursor]
                            if (
                                successor < 0
                                or group[cursor] != group[successor]
                                or end[cursor] + 1 != start[successor]
                            ):
                                break
                            count += 1
                            cursor = successor
                        if count < delta_int:
                            break
                    after_gap -= 1
                else:
                    break
                total_error += top_key
                merges += 1
                # The winning entry is consumed by this merge: pop it now
                # instead of leaving it to go stale (same heap contents,
                # one fewer lazy validity round per merge).
                pop(entries)

                # Inline merge_top: fold the top into its predecessor.
                predecessor = prev_[top_index]
                left_length = length[predecessor]
                right_length = length[top_index]
                merged = merged_row(
                    left_length, right_length, values[predecessor],
                    values[top_index],
                )
                length_sum = left_length + right_length
                values[predecessor] = merged
                end[predecessor] = end[top_index]
                length[predecessor] = length_sum
                successor = next_[top_index]
                next_[predecessor] = successor
                if successor >= 0:
                    prev_[successor] = predecessor
                else:
                    tail = predecessor
                alive[top_index] = False
                live -= 1

                # Refresh the predecessor's key, then the successor's —
                # the same order (and entry-counter order) as merge_top.
                before = prev_[predecessor]
                if (
                    before >= 0
                    and group[before] == group[predecessor]
                    and end[before] + 1 == start[predecessor]
                ):
                    refreshed = merge_key(
                        length[before], length_sum, values[before], merged, w2
                    )
                    key[predecessor] = refreshed
                    version[predecessor] += 1
                    counter += 1
                    push(
                        entries,
                        (refreshed, counter, predecessor,
                         version[predecessor]),
                    )
                else:
                    key[predecessor] = inf
                    version[predecessor] += 1
                if successor >= 0:
                    if (
                        group[predecessor] == group[successor]
                        and end[predecessor] + 1 == start[successor]
                    ):
                        refreshed = merge_key(
                            length_sum, length[successor], merged,
                            values[successor], w2,
                        )
                        key[successor] = refreshed
                        version[successor] += 1
                        counter += 1
                        push(
                            entries,
                            (refreshed, counter, successor,
                             version[successor]),
                        )
                    else:
                        key[successor] = inf
                        version[successor] += 1
                if record_merge is not None:
                    record_merge(
                        node_id[top_index],
                        node_id[predecessor],
                        merged,
                        key[predecessor],
                        node_id[successor] if successor >= 0 else -1,
                        key[successor] if successor >= 0 else inf,
                    )
            index += 1

        # Write the aliased scalars back.
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
        return last_gap_id, before_gap, after_gap, total_error, merges

    def peek(self) -> Optional[NumpyHeapNode]:
        """Return the node with the smallest key without removing it."""
        index = self._peek_index()
        return NumpyHeapNode(self, index) if index is not None else None

    def peek_entry(self) -> Optional[Tuple[int, int, float]]:
        """Scalar view of the top: ``(handle, node_id, key)`` or ``None``.

        The allocation-free twin of :meth:`peek` used by the greedy inner
        loops: ``handle`` is accepted by :meth:`adjacent_successor_count`
        and the id/key are plain scalars instead of node-view properties.
        """
        index = self._peek_index()
        if index is None:
            return None
        return index, self._node_id[index], self._key[index]

    def merge_top(self) -> NumpyHeapNode:
        """Merge the minimum-key node into its predecessor (in place)."""
        index = self._peek_index()
        if index is None or math.isinf(self._key[index]):
            raise ValueError("no adjacent pair available for merging")
        predecessor = self._prev[index]
        left_length = self._length[predecessor]
        right_length = self._length[index]
        # Rebind, never mutate: outstanding row references (delta log) must
        # keep seeing the pre-merge values.
        values = self._values
        values[predecessor] = merged_row(
            left_length, right_length, values[predecessor], values[index]
        )
        self._end[predecessor] = self._end[index]
        self._length[predecessor] = left_length + right_length

        successor = self._next[index]
        self._next[predecessor] = successor
        if successor >= 0:
            self._prev[successor] = predecessor
        else:
            self._tail = predecessor
        self._alive[index] = False
        self._size -= 1

        self._refresh_key(predecessor)
        if successor >= 0:
            self._refresh_key(successor)
        return NumpyHeapNode(self, predecessor)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _append_slot(self, segment: AggregateSegment) -> int:
        if self._dimensions is None:
            self._allocate(segment.dimensions)
        elif self._count >= self._capacity:
            # Callers reserve space up front; this only fires if they did
            # not, and growing (unlike compacting) preserves row indices.
            self._grow(self._count + 1)
        index = self._count
        self._count += 1
        self._node_id.append(self._next_node_id)
        self._next_node_id += 1
        interval = segment.interval
        self._start.append(interval.start)
        self._end.append(interval.end)
        self._length.append(float(interval.end - interval.start + 1))
        self._values.append(segment.values)
        self._group.append(self._intern_group(segment.group))
        previous = self._tail
        self._prev.append(previous)
        self._next.append(-1)
        if previous >= 0:
            self._next[previous] = index
        else:
            self._head = index
        self._tail = index
        self._alive.append(True)
        self._key.append(math.inf)
        self._version.append(0)
        self._size += 1
        self.max_size = max(self.max_size, self._size)
        return index

    def _is_adjacent(self, left: int, right: int) -> bool:
        return (
            self._group[left] == self._group[right]
            and self._end[left] + 1 == self._start[right]
        )

    def _pair_key(self, predecessor: int, index: int) -> float:
        """Merge error of the (adjacent) pair ``predecessor`` / ``index``."""
        length, values = self._length, self._values
        return merge_key(
            length[predecessor], length[index], values[predecessor],
            values[index], self._w2,
        )

    def _refresh_key(self, index: int) -> None:
        predecessor = self._prev[index]
        if predecessor < 0 or not self._is_adjacent(predecessor, index):
            self._key[index] = math.inf
            self._version[index] += 1
            return
        self._key[index] = self._pair_key(predecessor, index)
        self._version[index] += 1
        self._push_entry(index)

    def _push_entry(self, index: int) -> None:
        self._entry_counter += 1
        heapq.heappush(
            self._entries,
            (
                self._key[index],
                self._entry_counter,
                index,
                self._version[index],
            ),
        )

    def _peek_index(self) -> Optional[int]:
        while self._entries:
            key, _, index, version = self._entries[0]
            if (
                self._alive[index]
                and self._version[index] == version
                and self._key[index] == key
            ):
                return index
            heapq.heappop(self._entries)
        return None

    def _segment_at(self, index: int) -> AggregateSegment:
        return AggregateSegment(
            self._group_keys[self._group[index]],
            tuple(self._values[index]),
            Interval(self._start[index], self._end[index]),
        )

    def adjacent_successor_count(self, node, limit: int) -> int:
        """Number of successors chained to ``node`` by adjacency, up to ``limit``."""
        count = 0
        if isinstance(node, NumpyHeapNode):
            current = node._checked_index()
        else:
            current = int(node)
        while count < limit:
            successor = self._next[current]
            if successor < 0 or not self._is_adjacent(current, successor):
                break
            count += 1
            current = successor
        return count

    def successor_entry(self, node) -> Optional[Tuple[int, float]]:
        """``(id, key)`` of the chronological successor, or ``None``.

        ``node`` is a :class:`NumpyHeapNode` or a raw row index, as for
        :meth:`adjacent_successor_count`.
        """
        if isinstance(node, NumpyHeapNode):
            index = node._checked_index()
        else:
            index = int(node)
        successor = self._next[index]
        if successor < 0:
            return None
        return self._node_id[successor], self._key[successor]

    def values_entry(self, node) -> Sequence[float]:
        """The node's aggregate value row (immutable, by reference)."""
        if isinstance(node, NumpyHeapNode):
            index = node._checked_index()
        else:
            index = int(node)
        return self._values[index]

    def __iter__(self) -> Iterator[NumpyHeapNode]:
        """Iterate over live nodes in chronological (list) order."""
        index = self._head
        while index >= 0:
            yield NumpyHeapNode(self, index)
            index = self._next[index]

    def segments(self) -> List[AggregateSegment]:
        """Materialise the current intermediate relation in list order."""
        return [self._segment_at(node.index) for node in self]

    def columns(self) -> EncodedSegments:
        """The current intermediate relation as columns, in list order.

        Read straight off the heap's columns: no per-tuple segment object
        is built.
        """
        order: List[int] = []
        index = self._head
        while index >= 0:
            order.append(index)
            index = self._next[index]
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
        other._staged_base = self._staged_base
        other._staged_end = self._staged_end
        if self._dimensions is not None:
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
    copying is needed.

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
        "insert_keys",
        "merge_absorbed",
        "merge_survivors",
        "merge_values",
        "merge_survivor_keys",
        "merge_successors",
        "merge_successor_keys",
    )

    def __init__(self) -> None:
        self.insert_ids: List[int] = []
        self.insert_starts: List[int] = []
        self.insert_ends: List[int] = []
        self.insert_groups: List[tuple] = []
        self.insert_values: List[Sequence[float]] = []
        self.insert_keys: List[float] = []
        self.merge_absorbed: List[int] = []
        self.merge_survivors: List[int] = []
        self.merge_values: List[Sequence[float]] = []
        self.merge_survivor_keys: List[float] = []
        self.merge_successors: List[int] = []
        self.merge_successor_keys: List[float] = []

    def __len__(self) -> int:
        return len(self.insert_ids) + len(self.merge_absorbed)

    def record_insert(
        self,
        node_id: int,
        start: int,
        end: int,
        group: tuple,
        values: Sequence[float],
        key: float,
    ) -> None:
        """One tuple appended at the tail with its activation merge key."""
        self.insert_ids.append(node_id)
        self.insert_starts.append(start)
        self.insert_ends.append(end)
        self.insert_groups.append(group)
        self.insert_values.append(values)
        self.insert_keys.append(key)

    def record_merge(
        self,
        absorbed_id: int,
        survivor_id: int,
        values: Sequence[float],
        survivor_key: float,
        successor_id: int,
        successor_key: float,
    ) -> None:
        """One committed merge: ``absorbed_id`` folded into ``survivor_id``.

        ``values`` is the survivor's post-merge row (by reference) and the
        two keys are the post-refresh merge keys of the survivor and of the
        absorbed tuple's chronological successor (``-1`` / ``inf`` when it
        has none) — everything a mirror needs to replay the merge without
        redoing any floating-point work.
        """
        self.merge_absorbed.append(absorbed_id)
        self.merge_survivors.append(survivor_id)
        self.merge_values.append(values)
        self.merge_survivor_keys.append(survivor_key)
        self.merge_successors.append(successor_id)
        self.merge_successor_keys.append(successor_key)

    def clear(self) -> None:
        for column in self.__slots__:
            getattr(self, column).clear()


class SnapshotMirror:
    """Patchable column image of a live heap's intermediate relation.

    NumPy columns in chronological row order — node ``ids``, interval
    ``starts`` / ``ends``, an ``(n, p)`` ``values`` block, ``group_ids``,
    the merge-with-predecessor ``keys`` and ``alive`` — of which the first
    ``count`` rows are in use; capacity doubles as rows are appended.  The
    mirror stays in sync by replaying a :class:`DeltaLog` (:meth:`apply`)
    instead of re-reading the heap.  Value rows and keys are *copied* from
    the log, never recomputed, so the mirror is bit-exact with respect to
    the heap on either backend.

    Merged-away rows become tombstones; the storage is compacted once dead
    rows outnumber live ones, which keeps every operation amortised O(1)
    per logged operation and memory proportional to the live relation.
    """

    _COMPACT_FLOOR = 1024
    _INITIAL_CAPACITY = 1024

    def __init__(self) -> None:
        self.ids = np.zeros(0, np.int64)
        self.starts = np.zeros(0, np.int64)
        self.ends = np.zeros(0, np.int64)
        self.values = np.zeros((0, 0), np.float64)
        self.group_ids = np.zeros(0, np.int64)
        self.keys = np.zeros(0, np.float64)
        self.alive = np.zeros(0, np.bool_)
        self.count = 0
        self.live = 0
        self.group_keys: List[tuple] = []
        self._interned: Dict[tuple, int] = {}
        self._position: Dict[int, int] = {}

    @classmethod
    def from_heap(cls, heap: Any) -> "SnapshotMirror":
        """Build the initial mirror from a heap's live columns (O(heap)).

        Called on a session's first snapshot and after the delta log
        outgrew the heap — every other snapshot patches this image with
        the delta log instead.
        """
        columns = heap.columns()
        nodes = list(heap)
        mirror = cls()
        mirror.group_keys = list(columns.group_keys)
        mirror._interned = {
            group: group_id for group_id, group in enumerate(mirror.group_keys)
        }
        mirror._append(
            [node.id for node in nodes], columns.starts, columns.ends,
            columns.groups, columns.values, [node.key for node in nodes],
        )
        return mirror

    def _append(
        self,
        ids: List[int],
        starts: Any,
        ends: Any,
        group_ids: Any,
        values: np.ndarray,
        keys: Any,
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
        self.keys[first:stop] = keys
        self.alive[first:stop] = True
        self._position.update(zip(ids, range(first, stop)))
        self.count = stop
        self.live += stop - first

    def _reserve(self, needed: int, width: int) -> None:
        capacity = max(len(self.ids), self._INITIAL_CAPACITY)
        while capacity < needed:
            capacity *= 2
        count = self.count
        for name in ("ids", "starts", "ends", "group_ids", "keys", "alive"):
            column = getattr(self, name)
            grown = np.zeros(capacity, column.dtype)
            grown[:count] = column[:count]
            setattr(self, name, grown)
        values = np.zeros((capacity, width), np.float64)
        if count:
            values[:count] = self.values[:count]
        self.values = values

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
                log.insert_keys,
            )
        if log.merge_absorbed:
            position = self._position
            ends = self.ends
            end_patch: Dict[int, int] = {}
            value_patch: Dict[int, Sequence[float]] = {}
            key_patch: Dict[int, float] = {}
            absorbed_rows = []
            for (
                absorbed_id, survivor_id, row, survivor_key, successor_id,
                successor_key,
            ) in zip(
                log.merge_absorbed,
                log.merge_survivors,
                log.merge_values,
                log.merge_survivor_keys,
                log.merge_successors,
                log.merge_successor_keys,
            ):
                absorbed = position.pop(absorbed_id)
                survivor = position[survivor_id]
                end = end_patch.get(absorbed)
                end_patch[survivor] = ends.item(absorbed) if end is None else end
                value_patch[survivor] = row
                key_patch[survivor] = survivor_key
                if successor_id >= 0:
                    key_patch[position[successor_id]] = successor_key
                absorbed_rows.append(absorbed)
            self.alive[absorbed_rows] = False
            self.live -= len(absorbed_rows)
            ends[list(end_patch)] = list(end_patch.values())
            self.values[list(value_patch)] = _flat_rows(
                list(value_patch.values()), self.values.shape[1]
            )
            self.keys[list(key_patch)] = list(key_patch.values())
        if self.count >= self._COMPACT_FLOOR and self.count >= 2 * self.live:
            self._compact()

    def _compact(self) -> None:
        keep = np.flatnonzero(self.alive[: self.count])
        live = len(keep)
        for name in (
            "ids", "starts", "ends", "values", "group_ids", "keys", "alive",
        ):
            column = getattr(self, name)
            column[:live] = column[keep]
        self.count = live
        self._position = dict(zip(self.ids[:live].tolist(), range(live)))


#: Number of smallest finite keys the end-of-input tail first moves into
#: its heap; the window doubles whenever the heap's top reaches the first
#: key left outside it.
_TAIL_WINDOW = 64


def finalize_mirror(
    mirror: SnapshotMirror,
    *,
    size: Optional[int] = None,
    error_threshold: Optional[float] = None,
    total_error: float = 0.0,
    weights: Weights | None = None,
) -> Optional[Tuple[EncodedSegments, float, int]]:
    """Run the end-of-input merge phase on a mirror, without touching it.

    The delta-snapshot twin of ``OnlineReducer.finalize``: gathers the
    mirror's live rows, replays the paper's end-of-input greedy phase —
    size-bounded down to ``size``, or error-bounded while ``total_error``
    stays within ``error_threshold`` (with the same ``1e-9`` slack as the
    oracle) — and returns the final snapshot as :class:`EncodedSegments`
    together with the accumulated error and the number of tail merges.

    The cost is O(live) vectorised work plus O(tail) Python work.  The
    live rows are gathered with one fancy index and the finite keys
    ordered with one stable ``argsort``; the tail's priority queue only
    holds a window of the smallest keys (:data:`_TAIL_WINDOW`, doubled
    whenever the queue's top reaches the first key left outside it), and
    the few rows a tail merge touches are held in per-row dict overlays.
    The output is the gathered columns with the touched rows patched and
    the merged rows masked out.

    Starting keys are the mirror's (copied from the heap via the delta
    log); refreshed keys and merged value rows come from the same
    :func:`~repro.core.errors.merge_key` and
    :func:`~repro.core.merge.merged_row` that both heap backends call, so
    the result is bit-identical to cloning and finalising the live heap,
    on either backend — with one guarded exception.  Tail entries are
    tie-broken in chronological order, while the live heap's queue carries historical
    insertion counters, so a pair of *exactly equal* winning keys could
    merge in a different order than the oracle would (common on
    integer-valued streams).  Rather than silently returning a different
    — if equal-error — reduction, the tail detects the ambiguity the
    moment a committed merge's key ties with any other queued key and
    returns ``None``; the caller then falls back to the clone+finalize
    oracle for that snapshot, keeping the bit-for-bit contract
    unconditional.  Whether the second-smallest queued key equals the top
    key does not depend on how much of the queue the window holds, since
    every key outside it is strictly larger than the top.
    """
    rows = np.flatnonzero(mirror.alive[: mirror.count])
    starts = mirror.starts[rows]
    ends = mirror.ends[rows]
    values = mirror.values[rows]
    group_ids = mirror.group_ids[rows]
    keys = mirror.keys[rows]
    count = len(rows)
    dimensions = values.shape[1]
    inf = math.inf

    # Queue entries are ``(key, counter, row, version)``; the initial
    # entries' counter is their row, so the stable sort is the queue order.
    finite = np.flatnonzero(keys != inf)
    order = finite[np.argsort(keys[finite], kind="stable")]
    ordered_keys = keys[order]
    entries: List[Tuple[float, int, int, int]] = []
    queued = 0
    bound = inf  # smallest key left out of ``entries``; set on widening
    push = heapq.heappush
    pop = heapq.heappop

    w2 = squared_weights(weights, dimensions)

    # Overlays over the gathered columns: a row absent from a dict still
    # has its gathered value (and ``prev`` / ``next`` of row ``i`` are
    # ``i - 1`` / ``i + 1``).  Every key change bumps the row's version,
    # so the version stamp alone tells a stale queue entry.
    prev_: Dict[int, int] = {}
    next_: Dict[int, int] = {}
    end_of: Dict[int, int] = {}
    row_of: Dict[int, List[float]] = {}
    version: Dict[int, int] = {}
    merged: set = set()

    def end_at(row: int) -> int:
        end = end_of.get(row)
        return ends.item(row) if end is None else end

    def length_at(row: int) -> float:
        return float(end_at(row) - starts.item(row) + 1)

    def row_at(row: int) -> List[float]:
        found = row_of.get(row)
        return values[row].tolist() if found is None else found

    counter = count  # refresh counters sort after every initial entry
    merges = 0
    remaining = count
    while True:
        if size is not None and remaining <= size:
            break
        if not entries or entries[0][0] >= bound:
            # The top may not be the queue's minimum: widen the window.
            if queued == len(order):
                break
            stop = min(len(order), max(2 * queued, _TAIL_WINDOW))
            entries.extend(
                (key, row, row, 0)
                for key, row in zip(
                    ordered_keys[queued:stop].tolist(),
                    order[queued:stop].tolist(),
                )
            )
            heapq.heapify(entries)
            queued = stop
            bound = ordered_keys.item(stop) if stop < len(order) else inf
            continue
        top_key, _, top, top_version = entries[0]
        if top in merged or version.get(top, 0) != top_version:
            pop(entries)
            continue
        if error_threshold is not None:
            if total_error + top_key > error_threshold + 1e-9:
                break
        # Tie guard: the second-smallest key of a binary heap sits in one
        # of the root's children, so an equal key there (valid or stale —
        # conservative either way) means the pop order is counter-
        # dependent and could diverge from the oracle's historical
        # counters.  Bail out; the caller re-runs via the oracle.
        if (len(entries) > 1 and entries[1][0] == top_key) or (
            len(entries) > 2 and entries[2][0] == top_key
        ):
            return None
        total_error += top_key
        merges += 1

        predecessor = prev_.get(top, top - 1)
        row_of[predecessor] = merged_row(
            length_at(predecessor), length_at(top),
            row_at(predecessor), row_at(top),
        )
        end_of[predecessor] = end_at(top)
        successor = next_.get(top, top + 1)
        if successor == count:
            successor = -1
        next_[predecessor] = successor
        if successor >= 0:
            prev_[successor] = predecessor
        merged.add(top)
        remaining -= 1

        for target in (predecessor, successor):
            if target < 0:
                continue
            before = prev_.get(target, target - 1)
            if (
                before < 0
                or group_ids.item(before) != group_ids.item(target)
                or end_at(before) + 1 != starts.item(target)
            ):
                refreshed = inf
            else:
                refreshed = merge_key(
                    length_at(before), length_at(target),
                    row_at(before), row_at(target), w2,
                )
            target_version = version.get(target, 0) + 1
            version[target] = target_version
            if refreshed != inf:
                counter += 1
                push(entries, (refreshed, counter, target, target_version))

    if end_of:
        ends[list(end_of)] = list(end_of.values())
    if row_of:
        values[list(row_of)] = _flat_rows(list(row_of.values()), dimensions)
    if merged:
        keep = np.ones(count, dtype=np.bool_)
        keep[list(merged)] = False
        starts, ends = starts[keep], ends[keep]
        values, group_ids = values[keep], group_ids[keep]
    columns = EncodedSegments(
        starts, ends, values, group_ids, list(mirror.group_keys)
    )
    return columns, total_error, merges


# ----------------------------------------------------------------------
# Array-encoded greedy merge trajectories (sharded engine work unit)
# ----------------------------------------------------------------------
def greedy_merge_trajectory(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Complete greedy merge schedule of an array-encoded segment shard.

    Runs the greedy merging strategy over the shard all the way down to its
    local ``cmin`` and records every step: element ``t`` of the returned
    ``(boundaries, keys)`` pair says that the ``t``-th cheapest-first merge
    removed the boundary between original positions ``boundaries[t] - 1``
    and ``boundaries[t]`` at a cost of ``keys[t]``.

    Because greedy merging never crosses a maximal-run boundary, the global
    GMS reduction of a sharded input is exactly "each shard follows its own
    local schedule"; the only cross-shard coordination is *how many* steps of
    each schedule are taken, which :mod:`repro.parallel` decides with a
    k-way merge over the shard frontiers.

    Instead of maintaining merged aggregate values, the kernel exploits
    Proposition 2: a node is a contiguous block of original positions and
    its merge-with-predecessor key equals ``SSE(union) − SSE(left) −
    SSE(right)``, evaluated in constant time from weighted prefix sums
    (Proposition 1).  Each node carries its block's cached SSE, so a merge
    is a couple of scalar updates and each key refresh is one prefix-row
    difference plus a dot product (pure scalar arithmetic for ``p = 1``).

    **The queue.**  Every entry is ordered by ``(key, counter)``: the
    initial keys take counters in position order, and each refresh takes
    the next counter, so exact ties go to the older entry.  Two sources
    feed the queue:

    * the *initial frontier* — all finite initial keys, consumed in the
      order of one stable ``argsort``, which is exactly their
      ``(key, counter)`` order;
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
    finite keys (finite values whose squared prefix sums do not
    overflow); the engine rejects NaN and ±inf values before sharding.

    All inputs are plain arrays (``int64`` endpoints and group ids,
    ``float64`` values of shape ``(n, p)`` and squared weights ``w2``), so a
    shard travels to a worker process as a handful of array buffers instead
    of ``n`` segment objects.

    >>> starts = np.arange(4)
    >>> boundaries, keys = greedy_merge_trajectory(
    ...     starts, starts, np.array([[1.0], [1.0], [5.0], [6.0]]),
    ...     np.zeros(4, dtype=np.int64), np.ones(1))
    >>> boundaries.tolist(), keys.tolist()
    ([1, 3, 2], [0.0, 0.5, 20.25])
    """
    n = len(starts)
    if n < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    lengths_arr = (ends - starts + 1).astype(np.float64)
    adjacent = adjacent_pair_mask(starts, ends, groups)

    # Prefix sums over original positions (1-based, position 0 = zero):
    #   lengths[i] = Σ l,   weighted[i] = Σ l·w·v (per dim),
    #   squares[i] = Σ l·Σ_d w²·v_d²  (collapsed to a scalar).
    # SSE of block [lo, hi) = squares[hi]−squares[lo]
    #                         − ‖weighted[hi]−weighted[lo]‖² / (L[hi]−L[lo]).
    dimensions = values.shape[1]
    scaled = values * np.sqrt(w2)
    weighted_rows = np.zeros((n + 1, dimensions), dtype=np.float64)
    np.cumsum(scaled * lengths_arr[:, None], axis=0, out=weighted_rows[1:])
    length_prefix = [0.0]
    length_prefix.extend(np.cumsum(lengths_arr).tolist())
    square_prefix = [0.0]
    square_prefix.extend(
        np.cumsum((scaled * scaled).sum(axis=1) * lengths_arr).tolist()
    )
    # Per-refresh cross terms: pure scalar arithmetic for one dimension, a
    # Python inner product over list rows for small p (beats two array
    # temporaries plus a dot call), NumPy rows beyond that.
    scalar_weighted = (
        weighted_rows[:, 0].tolist() if dimensions == 1 else None
    )
    list_weighted = (
        weighted_rows.tolist() if 1 < dimensions <= 16 else None
    )

    # Initial keys, vectorized: singleton blocks have zero internal SSE, so
    # the key of position i is just SSE of the pair block [i-1, i+1).
    pair_length = lengths_arr[:-1] + lengths_arr[1:]
    pair_weighted = weighted_rows[2:] - weighted_rows[:-2]
    pair_square = (
        np.asarray(square_prefix[2:]) - np.asarray(square_prefix[:-2])
    )
    pair_sse = np.maximum(
        pair_square - (pair_weighted * pair_weighted).sum(axis=1) / pair_length,
        0.0,
    )
    initial = np.where(adjacent, pair_sse, math.inf)
    order = np.argsort(initial, kind="stable")
    order = order[: int(np.count_nonzero(initial < math.inf))]
    frontier_keys = initial[order].tolist()
    frontier_nodes = (order + 1).tolist()

    # Node i is the block starting at original position i; ``last`` is the
    # exclusive end of the block and ``sse`` its cached internal error.
    # ``key`` is the current key, ``queued`` / ``queued_key`` the counter
    # and key of the node's entry still in the queue.
    last = list(range(1, n + 1))
    sse = [0.0] * n
    prev_ = list(range(-1, n - 1))
    next_ = list(range(1, n + 1))
    next_[-1] = -1
    stamp = [0]
    stamp.extend(adjacent.astype(np.int64).tolist())
    queued = list(stamp)
    key = [math.inf] * n
    queued_key = [math.inf]
    queued_key.extend(initial.tolist())

    boundaries: List[int] = []
    merge_keys: List[float] = []
    heap: List[Tuple[float, int, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    counter = 1
    position = 0
    frontier_size = len(frontier_keys)
    while True:
        if position < frontier_size:
            top_key = frontier_keys[position]
            if heap and heap[0][0] < top_key:
                top_key, top_stamp, index = heappop(heap)
            else:
                index = frontier_nodes[position]
                top_stamp = 1  # every initial entry's counter
                position += 1
        elif heap:
            top_key, top_stamp, index = heappop(heap)
        else:
            break
        current = stamp[index]
        if current != top_stamp:
            # Stale.  If it was the node's queued entry, the node's
            # current entry was deferred behind it and goes in now.
            if current > 0 and queued[index] == top_stamp:
                deferred = key[index]
                heappush(heap, (deferred, current, index))
                queued[index] = current
                queued_key[index] = deferred
            continue
        predecessor = prev_[index]
        # The union SSE was already evaluated when this key was computed.
        sse[predecessor] = top_key + sse[predecessor] + sse[index]
        last[predecessor] = last[index]
        successor = next_[index]
        next_[predecessor] = successor
        if successor >= 0:
            prev_[successor] = predecessor
        stamp[index] = -1
        boundaries.append(index)
        merge_keys.append(top_key)

        # Refresh the predecessor's key, then the successor's.
        for node in (predecessor, successor):
            if node < 0 or not stamp[node]:
                continue
            lo = prev_[node]
            hi = last[node]
            union_length = length_prefix[hi] - length_prefix[lo]
            if scalar_weighted is not None:
                delta = scalar_weighted[hi] - scalar_weighted[lo]
                cross = delta * delta
            elif list_weighted is not None:
                cross = 0.0
                for high, low in zip(list_weighted[hi], list_weighted[lo]):
                    delta = high - low
                    cross += delta * delta
            else:
                delta = weighted_rows[hi] - weighted_rows[lo]
                cross = float(delta @ delta)
            union_sse = (
                square_prefix[hi] - square_prefix[lo] - cross / union_length
            )
            refreshed = union_sse - sse[lo] - sse[node]
            if refreshed < 0.0:
                refreshed = 0.0
            counter += 1
            stamp[node] = counter
            key[node] = refreshed
            if refreshed >= queued_key[node]:
                continue  # deferred: the queued entry's stale pop pushes it
            heappush(heap, (refreshed, counter, node))
            queued[node] = counter
            queued_key[node] = refreshed

    return (
        np.asarray(boundaries, dtype=np.int64),
        np.asarray(merge_keys, dtype=np.float64),
    )


def shard_sse_max(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: np.ndarray,
) -> float:
    """``SSE_max`` of an array-encoded shard (error of collapsing each run).

    Vectorized equivalent of :func:`repro.core.errors.max_error` for the
    sharded engine: the shard is split at its maximal-run boundaries and the
    per-run deviations are evaluated with one ``reduceat`` per statistic.
    ``SSE_max`` is additive across runs, so summing the per-shard results
    yields the global error budget of the error-bounded reduction.
    """
    n = len(starts)
    if n == 0:
        return 0.0
    lengths = (ends - starts + 1).astype(np.float64)
    adjacent = adjacent_pair_mask(starts, ends, groups)
    run_starts = np.flatnonzero(np.concatenate(([True], ~adjacent)))
    weighted = values * lengths[:, None]
    run_length = np.add.reduceat(lengths, run_starts)
    run_sum = np.add.reduceat(weighted, run_starts, axis=0)
    run_square = np.add.reduceat(weighted * values, run_starts, axis=0)
    deviation = np.maximum(
        run_square - run_sum * run_sum / run_length[:, None], 0.0
    )
    return float((deviation @ w2).sum())


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
    lengths = (ends - starts + 1).astype(np.float64)
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
    "NumpyHeapNode",
    "NumpyMergeHeap",
    "NumpyPrefixSums",
    "SnapshotMirror",
    "adjacent_pair_mask",
    "dp_best_split",
    "dp_first_row",
    "encode_segments",
    "finalize_mirror",
    "greedy_merge_trajectory",
    "instant_index",
    "pairwise_merge_keys",
    "range_weighted_sum",
    "require_finite",
    "shard_sse_max",
    "time_weighted_prefix",
    "ValueWidthError",
]
