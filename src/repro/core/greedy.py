"""Greedy PTA evaluation (Section 6).

The greedy merging strategy (GMS) repeatedly merges the currently most
similar pair of adjacent tuples — the pair whose merge introduces the least
additional error (Proposition 2) — until the size or error bound is
satisfied.  Theorem 1 bounds the error ratio against the optimal DP solution
by ``O(log n)``.

Two online algorithms integrate GMS with ITA so that merging starts while
ITA tuples are still being produced.  Their shared per-tuple logic lives in
the resumable state machine :class:`OnlineReducer` (push one tuple, drain
every merge the online policy allows, finalise on end of input), which also
powers the incremental compression session :class:`repro.api.Compressor`:

* :func:`greedy_reduce_to_size` — algorithm ``gPTAc`` (Fig. 11);
* :func:`greedy_reduce_to_error` — algorithm ``gPTAε`` (Fig. 13).

Both keep at most ``c + β`` tuples in a merge heap, where the read-ahead
parameter ``δ`` controls how eagerly tuples are merged before a temporal gap
confirms that the merge is safe (Propositions 3 and 4).  ``δ = 0`` keeps the
heap smallest, ``δ = ∞`` makes the output identical to plain GMS
(Theorems 2 and 3).

The batch helpers :func:`gms_reduce_to_size` and :func:`gms_reduce_to_error`
run GMS over a fully materialised segment list and are the reference the
online algorithms are validated against.  On the python backend they drive
the reference heap; on the numpy backend they run the sharded engine of
:mod:`repro.parallel` over one shard, whose trajectory kernel computes the
heap's schedule bit for bit.

For sessions that snapshot mid-stream (``track_deltas=True``), the reducer
additionally maintains a **merge delta log**: every committed insert and
merge since the last snapshot is recorded in a compact column-oriented
:class:`~repro.core.kernels.DeltaLog`, and :meth:`OnlineReducer.snapshot`
patches a materialised :class:`~repro.core.kernels.SnapshotMirror` of the
live relation with the log — O(changes) Python work per snapshot — before
running the end-of-input phase on the mirror as one call of the compiled
merge schedule (O(live) compiled and vectorised work).  The clone-and-finalise path
(:meth:`OnlineReducer.clone` + :meth:`OnlineReducer.finalize`) remains the
oracle the delta path is property-tested against.
"""

from __future__ import annotations

import copy
import math
import operator
from array import array
from collections import abc
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as _metrics
from . import native as _native
from .errors import (
    Weights, error_budget, max_error, squared_weights, validate_budget,
)
from .heap import Heap, HeapNode, MergeHeap, make_merge_heap
from .kernels import (
    DeltaLog,
    EncodedSegments,
    NumpyMergeHeap,
    SnapshotMirror,
    ValueWidthError,
    encode_segments,
    finalize_mirror,
    require_finite,
    typed_columns,
)
from .merge import AggregateSegment

Delta = float  # non-negative int or math.inf

#: The two rare snapshot paths, counted on ``/metrics``.  Registered at
#: import so both series read 0 until the path first fires.
_MIRROR_REBUILDS = (
    "repro_snapshot_mirror_rebuilds_total",
    "Snapshot mirrors built from the live heap: a session's first "
    "snapshot, or the first after the delta log overflowed.",
)
_ORACLE_FALLBACKS = (
    "repro_snapshot_oracle_fallbacks_total",
    "Delta snapshots that hit an exact merge-key tie and were served by "
    "clone() + finalize() instead.",
)
_metrics.counter(*_MIRROR_REBUILDS)
_metrics.counter(*_ORACLE_FALLBACKS)

#: Read-ahead value meaning "never merge ahead of a confirmed gap".
DELTA_INFINITY: Delta = math.inf

#: Tuples pulled per :meth:`OnlineReducer.push_chunk` by
#: :meth:`OnlineReducer.extend`.  A buffering knob only: the merge policy
#: still observes every insertion individually, so results are identical
#: for every value.
ONLINE_CHUNK_SIZE = 1024


@dataclass
class GreedyResult:
    """Result of a greedy PTA reduction.

    Attributes
    ----------
    segments:
        The reduced relation in group-then-time order.
    error:
        Total SSE introduced, i.e. the sum of the pairwise merge errors of
        all merge steps (equal to ``SSE(s, result)`` by Proposition 2).
    size:
        Number of output segments.
    max_heap_size:
        Largest number of tuples simultaneously held in the merge heap
        (``c + β`` in the paper's notation; reported in Fig. 20).
    merges:
        Number of merge steps performed.
    input_size:
        Number of ITA tuples consumed.
    """

    segments: List[AggregateSegment] = field(default_factory=list)
    error: float = 0.0
    size: int = 0
    max_heap_size: int = 0
    merges: int = 0
    input_size: int = 0

    def __iter__(self) -> Iterator[AggregateSegment]:
        return iter(self.segments)


# ----------------------------------------------------------------------
# Plain greedy merging strategy over a materialised relation
# ----------------------------------------------------------------------
def gms_reduce_to_size(
    segments: Sequence[AggregateSegment],
    size: int,
    weights: Weights | None = None,
    backend: str = "python",
) -> GreedyResult:
    """Reduce to at most ``size`` tuples with the greedy merging strategy."""
    validate_budget(size, None)
    if backend == "numpy":
        return _gms_trajectory(segments, size, None, weights)
    heap = _build_heap(segments, weights)
    total_error, merges = _merge_down(heap, size, None, 0.0, 0)
    return _result(heap, total_error, merges, len(segments))


def gms_reduce_to_error(
    segments: Sequence[AggregateSegment],
    epsilon: float,
    weights: Weights | None = None,
    backend: str = "python",
) -> GreedyResult:
    """Merge greedily while the accumulated error stays within ``ε·SSE_max``."""
    validate_budget(None, epsilon)
    if backend == "numpy":
        return _gms_trajectory(segments, None, epsilon, weights)
    heap = _build_heap(segments, weights)
    budget = error_budget(epsilon, max_error(segments, weights))
    total_error, merges = _merge_down(heap, None, budget, 0.0, 0)
    return _result(heap, total_error, merges, len(segments))


# ----------------------------------------------------------------------
# Online algorithms gPTAc and gPTAε as a resumable state machine
# ----------------------------------------------------------------------
class OnlineReducer:
    """Explicit, resumable state of the online algorithms gPTAc / gPTAε.

    The state machine holds everything the paper's Fig. 11 / Fig. 13 loops
    keep between two input tuples: the merge heap, the gap bookkeeping
    (``last_gap_id`` and the tuple counts before / after the last confirmed
    gap), the accumulated merge error and — for the error-bounded variant —
    the running exact ``SSE_max`` of the consumed prefix.  Feeding one tuple
    is :meth:`push` (insert + drain every merge the online policy allows);
    :meth:`finalize` runs the end-of-input phase and returns the
    :class:`GreedyResult`.

    Exactly one of ``size`` (bound ``c``, gPTAc) and ``max_error`` (bound
    ``ε``, gPTAε) must be given.  The batch drivers
    :func:`greedy_reduce_to_size` / :func:`greedy_reduce_to_error` are thin
    loops over this class, and the push-based compression session
    (:class:`repro.api.Compressor`) holds one instance across calls.

    With ``track_deltas=True`` the reducer supports **delta-based
    snapshots**: :meth:`snapshot` returns the summary of everything pushed
    so far without consuming the reducer, with Python work proportional to
    the number of committed operations since the previous snapshot, over
    O(live) compiled and vectorised work.  The
    first snapshot materialises a :class:`~repro.core.kernels.SnapshotMirror`
    of the live relation; from then on every committed insert/merge is also
    appended to a :class:`~repro.core.kernels.DeltaLog` which the next
    snapshot replays into the mirror.  If the log ever outgrows the live
    heap (a long snapshot-free stretch), it is discarded and the mirror is
    rebuilt from the heap, which bounds both memory and patch time.
    :meth:`clone` + :meth:`finalize` remain the reference snapshot path —
    bit-identical to :meth:`snapshot`, which runs the same end-of-input
    loop on a cloned heap on an exact merge-key tie — and is what the
    delta path is property-tested against.
    """

    def __init__(
        self,
        size: Optional[int] = None,
        max_error: Optional[float] = None,
        delta: Delta = 1,
        weights: Weights | None = None,
        input_size_estimate: Optional[int] = None,
        max_error_estimate: Optional[float] = None,
        backend: str = "python",
        track_deltas: bool = False,
    ) -> None:
        validate_budget(size, max_error)
        _check_delta(delta)
        # Plain ints and floats, the types the compiled loop reads.
        self._size = None if size is None else operator.index(size)
        self._epsilon = max_error
        self._delta = delta
        self._weights = weights
        self.heap = make_merge_heap(weights, backend)
        self._tracker: Optional[_MaxErrorTracker] = (
            _MaxErrorTracker(weights) if max_error is not None else None
        )
        if (
            max_error is not None
            and input_size_estimate
            and max_error_estimate is not None
        ):
            self._step_threshold = float(
                max_error * max_error_estimate / input_size_estimate
            )
        else:
            self._step_threshold = 0.0  # disables early merging
        #: Values per tuple, pinned by the first tuple consumed.
        self._width: Optional[int] = None
        self._last_gap_id = 0
        self._before_gap = 0
        self._after_gap = 0
        self.total_error = 0.0
        self.merges = 0
        self.consumed = 0
        self._finalized = False
        self._track_deltas = track_deltas
        #: Both are created together by the first :meth:`snapshot` call;
        #: recording into the log only happens while a mirror exists.
        self._log: Optional[DeltaLog] = None
        self._mirror: Optional[SnapshotMirror] = None

    # ------------------------------------------------------------------
    # Feeding the stream
    # ------------------------------------------------------------------
    def push(self, segment: AggregateSegment) -> None:
        """Consume one ITA tuple: insert it and drain eligible merges.

        A NaN or ±inf value raises :class:`ValueError` (see
        :func:`~repro.core.kernels.require_finite`), and a value width
        other than the first tuple's raises
        :class:`~repro.core.kernels.ValueWidthError`, before the tuple
        reaches the heap, as in :meth:`push_chunk`.  On the NumPy heap the
        tuple is staged as a one-row chunk and activated by the compiled
        loop, as :meth:`push_chunk` does for a chunk.
        """
        self._check_open()
        if not all(map(math.isfinite, segment.values)):
            require_finite(np.atleast_2d(segment.values), first=self.consumed)
        self._pin_width(len(segment.values))
        if self._tracker is not None:
            self._tracker.fold_one(segment)
        heap = self.heap
        if isinstance(heap, NumpyMergeHeap):
            heap.stage_segment(segment)
            self.consumed += 1
            self._activate(heap)
        else:
            self._consume(heap, segment)

    def _consume(self, heap: MergeHeap, segment: AggregateSegment) -> None:
        """Insert one validated tuple, then run the online policy."""
        node = heap.insert(segment)
        if self._log is not None:
            self._log.record_insert(
                node.id,
                segment.interval.start,
                segment.interval.end,
                segment.group,
                segment.values,
            )
        self.consumed += 1
        if math.isinf(node.key):
            self._last_gap_id = node.id
            self._before_gap += self._after_gap
            self._after_gap = 1
        else:
            self._after_gap += 1
        self._drain(heap)
        if self._log is not None:
            self._trim_log()

    def push_chunk(self, segments: Sequence[AggregateSegment]) -> None:
        """Consume a chunk of tuples through the staged-insert fast path.

        A chunk with a NaN or ±inf value, or of another value width than
        the first tuple's, is refused whole before anything is consumed.
        On the NumPy heap the chunk is then staged from its columns
        (``stage_chunk``; :class:`~repro.core.kernels.EncodedSegments` go
        straight in, a segment list is encoded once) and activated by the
        fused loop ``activate_staged_all``, which runs the same
        activate-then-drain step as :meth:`push` for every tuple —
        bit-identical to pushing tuple by tuple.  The python heap consumes
        the tuples one by one.
        """
        self._check_open()
        encoded = encode_segments(segments)
        if not len(encoded):
            return
        require_finite(encoded.values, first=self.consumed)
        self._pin_width(encoded.dimensions)
        if self._tracker is not None:
            self._tracker.fold(encoded)
        heap = self.heap
        if not isinstance(heap, NumpyMergeHeap):
            for segment in segments:
                self._consume(heap, segment)
            return
        heap.stage_chunk(encoded)
        self.consumed += len(segments)
        self._activate(heap)

    def _activate(self, heap: NumpyMergeHeap) -> None:
        """Activate the staged rows with the online policy (compiled)."""
        (
            self._last_gap_id,
            self._before_gap,
            self._after_gap,
            self.total_error,
            self.merges,
        ) = heap.activate_staged_all(
            size=self._size,
            step_threshold=self._step_threshold,
            delta=self._delta,
            last_gap_id=self._last_gap_id,
            before_gap=self._before_gap,
            after_gap=self._after_gap,
            total_error=self.total_error,
            merges=self.merges,
            log=self._log,
        )
        if self._log is not None:
            self._trim_log()

    def _pin_width(self, width: int) -> None:
        """Refuse a tuple whose value width differs from the first one's."""
        if self._width is None:
            self._width = width
        elif width != self._width:
            raise ValueWidthError(
                f"tuple has {width} aggregate values; the reducer holds "
                f"{self._width} per tuple"
            )

    def replay(
        self, chunks: Iterable[Sequence[AggregateSegment]]
    ) -> int:
        """Re-consume logged push chunks — the crash-recovery entry point.

        The durability tier (:mod:`repro.service.durability`) records every
        acknowledged push as one WAL frame holding exactly the chunk that
        was pushed.  Recovery feeds those chunks back through this method,
        one :meth:`push_chunk` per frame, which carries the **replay
        invariant**: because pushing a chunk is bit-identical to the
        original live push of the same tuples (the staged-insert contract
        above), a reducer rebuilt by replay is *state-identical* to the
        reducer that crashed — same heap contents, same merge history,
        same running error — and every snapshot it serves is bit-identical
        to what the uncrashed process would have served.  Returns the
        number of chunks replayed.
        """
        count = 0
        for chunk in chunks:
            self.push_chunk(
                chunk if isinstance(chunk, abc.Sequence) else list(chunk)
            )
            count += 1
        return count

    def extend(self, source: Iterable[AggregateSegment]) -> None:
        """Drive an entire iterable through the reducer.

        Pulls :data:`ONLINE_CHUNK_SIZE` tuples at a time into
        :meth:`push_chunk`.
        """
        iterator = iter(source)
        while batch := list(islice(iterator, ONLINE_CHUNK_SIZE)):
            self.push_chunk(batch)

    # ------------------------------------------------------------------
    # The merge policy
    # ------------------------------------------------------------------
    def _drain(self, heap: MergeHeap) -> None:
        """Merge while the online policy allows it (Fig. 11 / Fig. 13).

        gPTAc (``size`` given) merges while the heap exceeds the size
        bound; gPTAε (``size is None``) while the top key stays within the
        expected-average-error step.  Either way a merge must be safe:
        left of the last gap only while enough tuples precede it, right of
        it only with δ adjacent successors read ahead.  The python
        backend's loop; the compiled loop behind
        :meth:`repro.core.kernels.NumpyMergeHeap.activate_staged_all` has
        the same branches in the same order.
        """
        size = self._size
        while size is None or len(heap) > size:
            top = heap.peek_entry()
            if top is None:
                break
            node, top_id, top_key = top
            if size is None and top_key > self._step_threshold:
                break
            if top_id < self._last_gap_id:
                if size is not None and self._before_gap < size:
                    break
                self._before_gap -= 1
            elif top_id > self._last_gap_id and _has_read_ahead(
                heap, node, self._delta
            ):
                self._after_gap -= 1
            else:
                break
            self.total_error += top_key
            self._merge_top_logged(heap, top_id)
            self.merges += 1

    def _trim_log(self) -> None:
        """Drop the delta state once the log outgrows the live relation.

        A push-heavy stretch with no snapshots would otherwise grow the
        log linearly in the stream length; once replaying it would cost
        more than rebuilding the mirror from the heap, recording is
        pointless — drop both and stop recording until the next snapshot
        re-materialises them.  This bounds delta-log memory by the live
        heap size at all times, not just at snapshot boundaries.
        """
        log = self._log
        if log is not None and self._log_overflown(log):
            self._log = None
            self._mirror = None

    def _log_overflown(self, log: DeltaLog) -> bool:
        """Whether replaying ``log`` would cost more than a mirror rebuild.

        The single definition of the overflow threshold, shared by the
        mid-push trim and the snapshot-time rebuild decision so the two
        guards cannot drift apart.
        """
        return len(log) > 2 * max(len(self.heap), 256)

    def _merge_top_logged(self, heap: MergeHeap, absorbed_id: int) -> None:
        """Perform one ``merge_top``, recording it in the delta log."""
        survivor = heap.merge_top()
        if self._log is not None:
            self._log.record_merge(
                absorbed_id, survivor.id, survivor.segment.values
            )

    # ------------------------------------------------------------------
    # End of input
    # ------------------------------------------------------------------
    def finalize(self) -> GreedyResult:
        """Run the end-of-input phase and return the reduction result.

        For gPTAc: plain greedy merging down to the size bound.  For gPTAε:
        the exact ``SSE_max`` of the consumed input is now known, so plain
        greedy merging continues while the accumulated error stays within
        :func:`~repro.core.errors.error_budget`.  The reducer is consumed — further ``push`` calls
        raise :class:`RuntimeError`; take a :meth:`clone` first (or use
        :meth:`snapshot`) to keep the live state.
        """
        self._check_open()
        self._finalized = True
        self._log = None
        self._mirror = None
        self.total_error, self.merges = self._end_of_input(
            self.heap, self._budget()
        )
        return _result(self.heap, self.total_error, self.merges, self.consumed)

    def _end_of_input(
        self, heap: MergeHeap | NumpyMergeHeap, budget: Optional[float]
    ) -> Tuple[float, int]:
        """Run the end-of-input phase on ``heap`` from this reducer's
        error and merge count; return the new ones."""
        if isinstance(heap, NumpyMergeHeap):
            return heap.merge_down(
                size=self._size, budget=budget, total_error=self.total_error,
                merges=self.merges,
            )
        return _merge_down(
            heap, self._size, budget, self.total_error, self.merges
        )

    def _budget(self) -> Optional[float]:
        """The end-of-input error budget; ``None`` for gPTAc."""
        if self._tracker is None:
            return None
        assert self._epsilon is not None
        return error_budget(self._epsilon, self._tracker.total())

    def snapshot(
        self, materialize: bool = True
    ) -> Tuple[GreedyResult, EncodedSegments]:
        """Summary of everything pushed so far, without consuming the state.

        The delta path: the first call materialises a mirror of the live
        intermediate relation (O(heap)); every later call replays the
        delta log into the mirror (O(changes since the last snapshot))
        and runs the end-of-input phase on the mirror's live rows, one
        call of the compiled merge schedule
        (:func:`~repro.core.kernels.finalize_mirror`) — bit-identical to
        ``clone().finalize()`` (the oracle path).  On an exact merge-key
        tie the tail defers to that oracle, read back as heap columns;
        ``repro_snapshot_oracle_fallbacks_total`` counts those snapshots
        and ``repro_snapshot_mirror_rebuilds_total`` the mirror builds.

        Returns both the :class:`GreedyResult` and the snapshot in flat
        column form (what the serving layer's query index consumes).
        With ``materialize=False`` the result's ``segments`` list is left
        empty — callers that only consume the columns (the serving layer)
        skip the per-segment object construction entirely.
        """
        self._check_open()
        if not self._track_deltas:
            raise RuntimeError(
                "snapshot() requires an OnlineReducer created with "
                "track_deltas=True; use clone().finalize() otherwise"
            )
        mirror = self._mirror
        log = self._log
        if mirror is None or log is None or self._log_overflown(log):
            # First snapshot, or the log outgrew the live relation (a long
            # snapshot-free stretch): rebuilding is cheaper than patching.
            _metrics.counter(*_MIRROR_REBUILDS).inc()
            self._mirror = mirror = SnapshotMirror.from_heap(self.heap)
            self._log = DeltaLog()
        else:
            mirror.apply(log)
            log.clear()
        budget = self._budget()
        tail = finalize_mirror(
            mirror,
            size=self._size,
            budget=budget,
            total_error=self.total_error,
            weights=self._weights,
        )
        if tail is None:
            # The tail hit an exact merge-key tie, where the mirror's
            # chronological tie-breaking could diverge from the oracle's
            # historical counters: take the oracle path for this snapshot
            # (the mirror and the emptied log remain valid for the next).
            _metrics.counter(*_ORACLE_FALLBACKS).inc()
            heap = self.heap.clone()
            error, merges = self._end_of_input(heap, budget)
            columns = heap.columns()
        else:
            columns, error, tail_merges = tail
            merges = self.merges + tail_merges
        result = GreedyResult(
            segments=list(columns) if materialize else [],
            error=error,
            size=len(columns),
            max_heap_size=self.heap.max_size,
            merges=merges,
            input_size=self.consumed,
        )
        return result, columns

    def clone(self) -> "OnlineReducer":
        """Deep-copy the resumable state (heap, gap bookkeeping, tracker).

        The clone behaves bit-identically to the original under any further
        operation sequence, so finalising the clone yields exactly what
        finalising the original would — without consuming it.  The clone
        starts with a fresh (empty) snapshot mirror: its first
        :meth:`snapshot` rebuilds from its own heap, so cloning mid-log
        never aliases delta state with the original.
        """
        self._check_open()
        other = OnlineReducer.__new__(OnlineReducer)
        other._size = self._size
        other._epsilon = self._epsilon
        other._delta = self._delta
        other._weights = self._weights
        other.heap = self.heap.clone()
        other._tracker = copy.copy(self._tracker)
        other._step_threshold = self._step_threshold
        other._width = self._width
        other._last_gap_id = self._last_gap_id
        other._before_gap = self._before_gap
        other._after_gap = self._after_gap
        other.total_error = self.total_error
        other.merges = self.merges
        other.consumed = self.consumed
        other._finalized = False
        other._track_deltas = self._track_deltas
        other._log = None
        other._mirror = None
        return other

    def _check_open(self) -> None:
        if self._finalized:
            raise RuntimeError(
                "this OnlineReducer has been finalized; clone() before "
                "finalize() to keep a resumable copy"
            )


def greedy_reduce_to_size(
    source: Iterable[AggregateSegment],
    size: int,
    delta: Delta = 1,
    weights: Weights | None = None,
    backend: str = "python",
) -> GreedyResult:
    """Online size-bounded greedy reduction (algorithm ``gPTAc``, Fig. 11).

    A batch driver over :class:`OnlineReducer`: the whole ``source`` is
    pushed through the state machine, then the end-of-input phase finishes
    with plain greedy merging.

    Parameters
    ----------
    source:
        ITA result tuples in group-then-time order; typically an iterator so
        merging starts before the full ITA result exists.
    size:
        Size bound ``c``.
    delta:
        Read-ahead ``δ``: minimum number of adjacent successors a merge
        candidate must have before it may be merged ahead of a confirmed
        gap.  Use :data:`DELTA_INFINITY` to reproduce plain GMS exactly.
    backend:
        ``"python"`` for the linked-node reference heap, ``"numpy"`` for the
        array-backed heap of :mod:`repro.core.kernels`.
    """
    reducer = OnlineReducer(
        size=size, delta=delta, weights=weights, backend=backend
    )
    reducer.extend(source)
    return reducer.finalize()


def greedy_reduce_to_error(
    source: Iterable[AggregateSegment],
    epsilon: float,
    delta: Delta = 1,
    weights: Weights | None = None,
    input_size_estimate: Optional[int] = None,
    max_error_estimate: Optional[float] = None,
    backend: str = "python",
) -> GreedyResult:
    """Online error-bounded greedy reduction (algorithm ``gPTAε``, Fig. 13).

    A batch driver over :class:`OnlineReducer`.  While tuples arrive, a
    merge candidate is only merged when its merge error does not exceed the
    *expected average* error per step, ``ε · Êmax / n̂``, and Proposition
    4's safety condition (gap after the candidate, or ``δ`` adjacent
    successors) holds.  Once the input is exhausted the exact maximal error
    is known and plain greedy merging continues until the threshold
    ``ε · SSE_max`` would be exceeded.

    Parameters
    ----------
    input_size_estimate:
        Estimate ``n̂`` of the ITA result size; the safe default used by the
        operator facade is ``2·|r| − 1``.  ``None`` disables early merging,
        which is always correct but lets the heap grow to the full ITA size.
    max_error_estimate:
        Estimate ``Êmax`` of ``SSE_max``.  Underestimating is safe
        (Theorem 3); overestimating may lead to a result different from GMS.
    """
    reducer = OnlineReducer(
        max_error=epsilon,
        delta=delta,
        weights=weights,
        input_size_estimate=input_size_estimate,
        max_error_estimate=max_error_estimate,
        backend=backend,
    )
    reducer.extend(source)
    return reducer.finalize()


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _merge_down(
    heap: MergeHeap,
    size: Optional[int],
    budget: Optional[float],
    total_error: float,
    merges: int,
) -> Tuple[float, int]:
    """The end-of-input phase: plain GMS until the bound is met.

    Merges the cheapest pair while the heap exceeds ``size`` (gPTAc), or
    while the accumulated error stays within ``budget``
    (:func:`~repro.core.errors.error_budget`, gPTAε), and always stops at
    ``cmin``.  Returns the new accumulated error and merge count.  The
    python backend's loop; the numpy backend runs the same phase compiled
    (:meth:`repro.core.kernels.NumpyMergeHeap.merge_down`).
    """
    while size is None or len(heap) > size:
        top = heap.peek_entry()
        if top is None or math.isinf(top[2]):
            break  # reached cmin: only non-adjacent pairs remain
        if budget is not None and total_error + top[2] > budget:
            break
        total_error += top[2]
        heap.merge_top()
        merges += 1
    return total_error, merges


def _build_heap(
    segments: Sequence[AggregateSegment],
    weights: Weights | None,
) -> MergeHeap:
    require_finite(encode_segments(segments).values)
    heap = MergeHeap(weights)
    for segment in segments:
        heap.insert(segment)
    return heap


def _gms_trajectory(
    segments: Sequence[AggregateSegment],
    size: Optional[int],
    epsilon: Optional[float],
    weights: Weights | None,
) -> GreedyResult:
    """Batch GMS on the numpy backend: the sharded engine, one shard.

    With a single shard the frontier merge consumes the trajectory in its
    own order, so ties resolve as in the heap, and the error budget reads
    :func:`~repro.core.errors.max_error`, as the python heap's does.  The
    whole input is materialised, so the peak heap size is the input size.
    """
    from ..parallel import run_sharded

    result = run_sharded(
        segments, size, epsilon, weights, shard_size=max(len(segments), 1)
    )
    result.max_heap_size = len(segments)
    return result


def _result(
    heap: Heap, error: float, merges: int, input_size: int
) -> GreedyResult:
    segments = heap.segments()
    return GreedyResult(
        segments=segments,
        error=error,
        size=len(segments),
        max_heap_size=heap.max_size,
        merges=merges,
        input_size=input_size,
    )


def _check_delta(delta: Delta) -> None:
    if delta != DELTA_INFINITY and (delta < 0 or int(delta) != delta):
        raise ValueError(
            f"delta must be a non-negative integer or DELTA_INFINITY, "
            f"got {delta!r}"
        )


def _has_read_ahead(heap: MergeHeap, node: HeapNode, delta: Delta) -> bool:
    """Check the δ read-ahead heuristic for a merge candidate."""
    if delta == DELTA_INFINITY:
        return False
    if delta == 0:
        return True
    return heap.adjacent_successor_count(node, int(delta)) >= delta


#: The group id column of a one-row block: its only row is group 0.
_GROUP_ZERO = array("q", (0,))


class _MaxErrorTracker:
    """The exact ``SSE_max`` of the streamed input, folded as it arrives.

    ``SSE_max`` is the error of collapsing every maximal adjacent run into
    one tuple.  The tracker folds each run left to right with the
    operation order of :func:`~repro.core.errors.merge_key` and
    :func:`~repro.core.merge.merged_row`: by Proposition 2 the keys of
    those merges add up to the run's collapse error, and unlike prefix
    sums of squares they do not cancel on offset values.  The fold runs
    in C (``KERNEL.sse_fold``, ``_sse.c``), one call per chunk of
    columns; the tracker keeps only what carries over to the next chunk.
    """

    def __init__(self, weights: Weights | None) -> None:
        self._weights = weights
        self._w2: Optional[np.ndarray] = None
        #: End and group key of the last tuple folded; ``None`` before it.
        self._end: Optional[int] = None
        self._group: Any = None
        #: Length and values of the current run folded into one tuple.
        self._length = 0.0
        self._row = np.zeros(0)
        self._total = 0.0

    def __copy__(self) -> "_MaxErrorTracker":
        other = _MaxErrorTracker.__new__(_MaxErrorTracker)
        other.__dict__.update(self.__dict__)
        other._row = self._row.copy()  # the kernel folds it in place
        return other

    def fold(self, encoded: EncodedSegments) -> None:
        """Fold a non-empty chunk of columns into the running total.

        Columns that :func:`~repro.core.kernels.typed_columns` or the
        kernel refuse raise before the tracker changes.
        """
        starts, ends, groups, values = typed_columns(encoded)
        keys = encoded.group_keys
        self._fold(
            starts, ends, groups, values, encoded.dimensions,
            int(starts[0]), keys[groups[0]],
        )
        self._end = int(ends[-1])
        self._group = keys[groups[-1]]

    def fold_one(self, segment: AggregateSegment) -> None:
        """:meth:`fold` of the one-row block of ``segment``, built straight
        from the tuple rather than through
        :func:`~repro.core.kernels.encode_segments`."""
        interval = segment.interval
        self._fold(
            array("q", (interval.start,)), array("q", (interval.end,)),
            _GROUP_ZERO, array("d", segment.values), len(segment.values),
            interval.start, segment.group,
        )
        self._end = interval.end
        self._group = segment.group

    def _fold(
        self, starts: Any, ends: Any, groups: Any, values: Any,
        dimensions: int, start: int, group: Any,
    ) -> None:
        """One ``KERNEL.sse_fold`` call over typed buffers; ``start`` and
        ``group`` are the first row's, compared with the carried end and
        group key."""
        if self._w2 is None:
            self._w2 = np.array(squared_weights(self._weights, dimensions))
            self._row = np.zeros(dimensions)
        continues = (
            self._end is not None
            and self._end + 1 == start
            and group == self._group
        )
        self._length, self._total = _native.KERNEL.sse_fold(
            starts, ends, groups, values, self._w2, continues,
            self._length, self._row, self._total,
        )

    def total(self) -> float:
        """Return ``SSE_max`` over everything pushed so far."""
        return self._total
