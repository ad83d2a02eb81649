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
online algorithms are validated against.

For sessions that snapshot mid-stream (``track_deltas=True``), the reducer
additionally maintains a **merge delta log**: every committed insert and
merge since the last snapshot is recorded in a compact column-oriented
:class:`~repro.core.kernels.DeltaLog`, and :meth:`OnlineReducer.snapshot`
patches a materialised :class:`~repro.core.kernels.SnapshotMirror` of the
live relation with the log — O(changes) Python work per snapshot — before
running the end-of-input phase on the mirror (vectorised O(live) work plus
O(tail merges) Python work).  The clone-and-finalise path
(:meth:`OnlineReducer.clone` + :meth:`OnlineReducer.finalize`) remains the
oracle the delta path is property-tested against.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as _metrics
from .errors import Weights, max_error, resolve_weights
from .heap import Heap, make_merge_heap
from .kernels import (
    DeltaLog,
    EncodedSegments,
    SnapshotMirror,
    encode_segments,
    finalize_mirror,
    require_finite,
)
from .merge import AggregateSegment, adjacent

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

#: Tuples staged per batch by the online algorithms on heaps that support
#: chunked insertion (the array-backed heap).  A buffering knob only: the
#: merge policy still observes every insertion individually, so results are
#: identical for every value.
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
    if size < 1:
        raise ValueError(f"size bound must be at least 1, got {size}")
    heap = _build_heap(segments, weights, backend)
    total_error = 0.0
    merges = 0
    while len(heap) > size:
        top = heap.peek_entry()
        if top is None or math.isinf(top[2]):
            break  # reached cmin: only non-adjacent pairs remain
        total_error += top[2]
        heap.merge_top()
        merges += 1
    return _result(heap, total_error, merges, len(segments))


def gms_reduce_to_error(
    segments: Sequence[AggregateSegment],
    epsilon: float,
    weights: Weights | None = None,
    backend: str = "python",
) -> GreedyResult:
    """Merge greedily while the accumulated error stays within ``ε·SSE_max``."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be within [0, 1], got {epsilon}")
    heap = _build_heap(segments, weights, backend)
    threshold = epsilon * max_error(segments, weights)
    total_error = 0.0
    merges = 0
    while True:
        top = heap.peek_entry()
        if top is None or math.isinf(top[2]):
            break
        if total_error + top[2] > threshold + 1e-9:
            break
        total_error += top[2]
        heap.merge_top()
        merges += 1
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
    the number of committed operations since the previous snapshot plus
    the tail merges, over vectorised O(live) NumPy work.  The
    first snapshot materialises a :class:`~repro.core.kernels.SnapshotMirror`
    of the live relation; from then on every committed insert/merge is also
    appended to a :class:`~repro.core.kernels.DeltaLog` which the next
    snapshot replays into the mirror.  If the log ever outgrows the live
    heap (a long snapshot-free stretch), it is discarded and the mirror is
    rebuilt from the heap, which bounds both memory and patch time.
    :meth:`clone` + :meth:`finalize` remain the reference snapshot path —
    bit-identical to :meth:`snapshot`, which defers to it on an exact
    merge-key tie — and is what the delta path is property-tested against.
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
        if (size is None) == (max_error is None):
            raise ValueError("provide exactly one of 'size' and 'max_error'")
        if size is not None and size < 1:
            raise ValueError(f"size bound must be at least 1, got {size}")
        if max_error is not None and not 0.0 <= max_error <= 1.0:
            raise ValueError(
                f"epsilon must be within [0, 1], got {max_error}"
            )
        _check_delta(delta)
        self._size = size
        self._epsilon = max_error
        self._delta = delta
        self._weights = weights
        self._backend = backend
        self.heap: Heap = make_merge_heap(weights, backend)
        self._tracker: Optional[_MaxErrorTracker] = (
            _MaxErrorTracker(weights) if max_error is not None else None
        )
        if (
            max_error is not None
            and input_size_estimate
            and max_error_estimate is not None
        ):
            self._step_threshold = (
                max_error * max_error_estimate / input_size_estimate
            )
        else:
            self._step_threshold = 0.0  # disables early merging
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
        :func:`~repro.core.kernels.require_finite`) before the tuple
        reaches the heap, as in :meth:`push_chunk`.
        """
        self._check_open()
        if not all(map(math.isfinite, segment.values)):
            require_finite(np.atleast_2d(segment.values), first=self.consumed)
        node = self.heap.insert(segment)
        key = node.key
        if self._log is not None:
            self._log.record_insert(
                node.id,
                segment.interval.start,
                segment.interval.end,
                segment.group,
                segment.values,
                key,
            )
        self.consumed += 1
        if self._tracker is not None:
            self._tracker.push(segment)
        if math.isinf(key):
            self._last_gap_id = node.id
            self._before_gap += self._after_gap
            self._after_gap = 1
        else:
            self._after_gap += 1
        if self._size is not None:
            self._drain_size_bounded()
        else:
            self._drain_error_bounded()
        if self._log is not None:
            self._trim_log()

    def push_chunk(self, segments: Sequence[AggregateSegment]) -> None:
        """Consume a chunk of tuples through the staged-insert fast path.

        On the NumPy heap the chunk is staged from its columns
        (``stage_chunk``; :class:`~repro.core.kernels.EncodedSegments` go
        straight in, a segment list is encoded once) and activated by the
        fused loop ``activate_staged_all``, which bulk-activates the spans
        where the merge policy cannot fire and interleaves merges tuple by
        tuple elsewhere — bit-identical to pushing tuple by tuple.  Plain
        heaps fall back to :meth:`push`.  A chunk with a NaN or ±inf value
        is refused whole, before anything is staged.
        """
        self._check_open()
        activate = getattr(self.heap, "activate_staged_all", None)
        if activate is None:
            for segment in segments:
                self.push(segment)
            return
        encoded = encode_segments(segments)
        require_finite(encoded.values, first=self.consumed)
        if not self.heap.stage_chunk(encoded):  # type: ignore[attr-defined]
            return
        tracker = self._tracker
        if tracker is not None:
            for segment in segments:
                tracker.push(segment)
        self.consumed += len(segments)
        (
            self._last_gap_id,
            self._before_gap,
            self._after_gap,
            self.total_error,
            self.merges,
        ) = activate(
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
    def _drain_size_bounded(self) -> None:
        """Merge while over the size bound and a merge is safe (Fig. 11).

        This policy loop and the fused chunk loop in
        :meth:`repro.core.kernels.NumpyMergeHeap.activate_staged_all` must
        be kept in lockstep; the parity suites compare the two paths on
        randomized streams.
        """
        heap = self.heap
        size = self._size
        assert size is not None
        while len(heap) > size:
            top = heap.peek_entry()
            if top is None:
                break
            handle, top_id, top_key = top
            if top_id < self._last_gap_id and self._before_gap >= size:
                self._before_gap -= 1
            elif top_id > self._last_gap_id and _has_read_ahead(
                heap, handle, self._delta
            ):
                self._after_gap -= 1
            else:
                break
            self.total_error += top_key
            self._merge_top_logged(top_id)
            self.merges += 1

    def _drain_error_bounded(self) -> None:
        """Merge while under the expected-average-error step (Fig. 13).

        Kept in lockstep with ``activate_staged_all`` exactly like
        :meth:`_drain_size_bounded`.
        """
        heap = self.heap
        while True:
            top = heap.peek_entry()
            if top is None or top[2] > self._step_threshold:
                break
            handle, top_id, top_key = top
            if top_id < self._last_gap_id:
                self._before_gap -= 1
            elif top_id > self._last_gap_id and _has_read_ahead(
                heap, handle, self._delta
            ):
                self._after_gap -= 1
            else:
                break
            self.total_error += top_key
            self._merge_top_logged(top_id)
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

    def _merge_top_logged(self, absorbed_id: int) -> None:
        """Perform one ``merge_top``, recording it in the delta log."""
        heap = self.heap
        survivor = heap.merge_top()
        log = self._log
        if log is not None:
            successor = heap.successor_entry(survivor)
            if successor is None:
                successor_id, successor_key = -1, math.inf
            else:
                successor_id, successor_key = successor
            log.record_merge(
                absorbed_id,
                survivor.id,
                heap.values_entry(survivor),
                survivor.key,
                successor_id,
                successor_key,
            )

    # ------------------------------------------------------------------
    # End of input
    # ------------------------------------------------------------------
    def finalize(self) -> GreedyResult:
        """Run the end-of-input phase and return the reduction result.

        For gPTAc: plain greedy merging down to the size bound.  For gPTAε:
        the exact ``SSE_max`` of the consumed input is now known, so plain
        greedy merging continues while the accumulated error stays within
        ``ε · SSE_max``.  The reducer is consumed — further ``push`` calls
        raise :class:`RuntimeError`; take a :meth:`clone` first (or use
        :meth:`snapshot`) to keep the live state.
        """
        self._check_open()
        self._finalized = True
        self._log = None
        self._mirror = None
        self._merge_to_bound()
        return _result(self.heap, self.total_error, self.merges, self.consumed)

    def _merge_to_bound(self) -> None:
        """The end-of-input merges of :meth:`finalize`, on the live heap."""
        heap = self.heap
        if self._size is not None:
            while len(heap) > self._size:
                top = heap.peek_entry()
                if top is None or math.isinf(top[2]):
                    break
                self.total_error += top[2]
                heap.merge_top()
                self.merges += 1
        else:
            assert self._tracker is not None
            assert self._epsilon is not None
            threshold = self._epsilon * self._tracker.total()
            while True:
                top = heap.peek_entry()
                if top is None or math.isinf(top[2]):
                    break
                if self.total_error + top[2] > threshold + 1e-9:
                    break
                self.total_error += top[2]
                heap.merge_top()
                self.merges += 1

    def snapshot(
        self, materialize: bool = True
    ) -> Tuple[GreedyResult, EncodedSegments]:
        """Summary of everything pushed so far, without consuming the state.

        The delta path: the first call materialises a mirror of the live
        intermediate relation (O(heap)); every later call replays the
        delta log into the mirror (O(changes since the last snapshot))
        and runs the end-of-input phase on the mirror (vectorised O(live)
        plus O(tail merges) Python work) — bit-identical to
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
        threshold: Optional[float] = None
        if self._epsilon is not None:
            assert self._tracker is not None
            threshold = self._epsilon * self._tracker.clone().total()
        tail = finalize_mirror(
            mirror,
            size=self._size,
            error_threshold=threshold,
            total_error=self.total_error,
            weights=self._weights,
        )
        if tail is None:
            # The tail hit an exact merge-key tie, where the mirror's
            # chronological tie-breaking could diverge from the oracle's
            # historical counters: take the oracle path for this snapshot
            # (the mirror and the emptied log remain valid for the next).
            _metrics.counter(*_ORACLE_FALLBACKS).inc()
            oracle = self.clone()
            oracle._merge_to_bound()
            columns = oracle.heap.columns()
            error, merges = oracle.total_error, oracle.merges
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
        other._backend = self._backend
        other.heap = self.heap.clone()
        other._tracker = (
            self._tracker.clone() if self._tracker is not None else None
        )
        other._step_threshold = self._step_threshold
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


def _build_heap(
    segments: Sequence[AggregateSegment],
    weights: Weights | None,
    backend: str = "python",
) -> Heap:
    encoded = encode_segments(segments)
    require_finite(encoded.values)
    heap = make_merge_heap(weights, backend)
    if hasattr(heap, "insert_batch"):
        heap.insert_batch(encoded)  # type: ignore[attr-defined]
    else:
        for segment in segments:
            heap.insert(segment)
    return heap


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


def _has_read_ahead(heap: Heap, handle: Any, delta: Delta) -> bool:
    """Check the δ read-ahead heuristic for a merge candidate.

    ``handle`` is whatever the heap's ``peek_entry`` returned as its first
    element (a node for the linked-list heap, a row index for the array
    heap); both are accepted by ``adjacent_successor_count``.
    """
    if delta == DELTA_INFINITY:
        return False
    if delta == 0:
        return True
    return heap.adjacent_successor_count(handle, int(delta)) >= delta


class _MaxErrorTracker:
    """Incrementally accumulate the exact ``SSE_max`` of the streamed input.

    ``SSE_max`` is the error of collapsing every maximal adjacent run into a
    single tuple; it is accumulated run by run as ITA tuples arrive so the
    error-bounded algorithm knows the exact threshold at finalisation time
    without a second pass.
    """

    def __init__(self, weights: Weights | None) -> None:
        self._weights = weights
        self._previous: Optional[AggregateSegment] = None
        self._length = 0.0
        self._sums: List[float] = []
        self._square_sums: List[float] = []
        self._total = 0.0

    def push(self, segment: AggregateSegment) -> None:
        if self._previous is not None and not adjacent(self._previous, segment):
            self._close_run()
        if not self._sums:
            self._sums = [0.0] * segment.dimensions
            self._square_sums = [0.0] * segment.dimensions
        length = float(segment.length)
        self._length += length
        for d, value in enumerate(segment.values):
            self._sums[d] += length * value
            self._square_sums[d] += length * value * value
        self._previous = segment

    def _close_run(self) -> None:
        if self._length > 0:
            weights = resolve_weights(self._weights, len(self._sums))
            for d in range(len(self._sums)):
                deviation = (
                    self._square_sums[d]
                    - self._sums[d] * self._sums[d] / self._length
                )
                self._total += weights[d] ** 2 * max(deviation, 0.0)
        self._length = 0.0
        self._sums = [0.0] * len(self._sums)
        self._square_sums = [0.0] * len(self._square_sums)

    def clone(self) -> "_MaxErrorTracker":
        """Copy the accumulator state (used by :meth:`OnlineReducer.clone`)."""
        other = _MaxErrorTracker(self._weights)
        other._previous = self._previous
        other._length = self._length
        other._sums = list(self._sums)
        other._square_sums = list(self._square_sums)
        other._total = self._total
        return other

    def total(self) -> float:
        """Return ``SSE_max`` over everything pushed so far."""
        self._close_run()
        self._previous = None
        return self._total
