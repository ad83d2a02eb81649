"""Push-based incremental compression sessions.

The online algorithms gPTAc / gPTAε (Section 6) are inherently push-based:
tuples arrive one at a time and the summary is maintained continuously.
:class:`Compressor` exposes exactly that shape — the missing piece for
serving live traffic, where a caller feeds segments as they are produced
and reads the current summary whenever a query arrives::

    from repro.api import Compressor, SizeBudget

    session = Compressor(SizeBudget(100))
    for segment in live_feed:
        session.push(segment)          # single segment or a whole chunk
        if query_arrived():
            snapshot = session.summary()   # non-destructive
    final = session.finalize()

Each :meth:`Compressor.summary` snapshot is **bit-identical** to running
batch :func:`repro.compress` over the prefix pushed so far with the same
parameters (asserted per prefix in ``tests/test_session.py``): the session
holds the resumable :class:`~repro.core.greedy.OnlineReducer` state machine
and snapshots it non-destructively, so the live online state is never
disturbed.

Snapshots are **delta-based**: the reducer keeps a merge delta log of every
committed insert/merge and patches a materialised mirror of the live
relation, so a snapshot costs O(changes since the last snapshot + tail
merges) Python work over vectorised O(live heap) NumPy work — never
O(stream).  Snapshots
are additionally cached per :attr:`Compressor.generation`, so repeated
reads between pushes are free.  The clone-and-finalize path is retained as
:meth:`Compressor.summary_oracle` — the reference the delta path is
property-tested against (``tests/test_snapshot_delta.py``).
"""

from __future__ import annotations

from collections import abc
from typing import Iterable, Optional, Tuple, Union

from ..core.greedy import GreedyResult, OnlineReducer
from ..core.kernels import EncodedSegments, encode_segments
from ..core.merge import AggregateSegment
from .plan import (
    Budget,
    ErrorBudget,
    ExecutionPolicy,
    Method,
    PlanError,
    SizeBudget,
    resolve_budget,
)
from .result import Result


class Compressor:
    """An incremental gPTAc / gPTAε session over a segment stream.

    Parameters
    ----------
    budget:
        A :class:`SizeBudget` or :class:`ErrorBudget`; alternatively pass
        exactly one of the ``size`` / ``max_error`` keywords.
    policy:
        Execution knobs (backend, ``delta``, weights, gPTAε estimates).
        ``workers`` must stay ``None`` — an incremental session is
        single-process by nature; use :func:`repro.api.execute` with a
        worker policy for sharded batch reductions.

    The segments must arrive in group-then-time order, exactly as the
    online algorithms require.  Used as a context manager, a cleanly
    exited ``with`` block finalizes the session automatically.
    """

    def __init__(
        self,
        budget: Optional[Budget] = None,
        *,
        size: Optional[int] = None,
        max_error: Optional[float] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> None:
        resolved = resolve_budget(budget, size=size, max_error=max_error)
        policy = policy if policy is not None else ExecutionPolicy()
        if policy.workers is not None:
            raise PlanError(
                "the incremental Compressor is single-process; workers "
                "only applies to batch execution via repro.api.execute"
            )
        self.budget = resolved
        self.policy = policy
        self._reducer = OnlineReducer(
            size=resolved.size if isinstance(resolved, SizeBudget) else None,
            max_error=(
                resolved.epsilon if isinstance(resolved, ErrorBudget) else None
            ),
            delta=policy.delta,
            weights=policy.weights,
            input_size_estimate=policy.input_size_estimate,
            max_error_estimate=policy.max_error_estimate,
            backend=policy.backend.value,
            track_deltas=True,
        )
        self._final: Optional[Result] = None
        self._generation = 0
        #: Per-generation snapshot cache: (generation, columns, stats,
        #: lazily materialised Result).  Two reads at the same generation
        #: share one snapshot; the Result's segment objects are only built
        #: if summary() itself is called (the column-consuming serving
        #: path never pays for them).
        self._snapshot: Optional[
            Tuple[int, EncodedSegments, GreedyResult, Optional[Result]]
        ] = None

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def push(
        self,
        segments: Union[AggregateSegment, Iterable[AggregateSegment]],
    ) -> "Compressor":
        """Feed one segment or a whole chunk; returns ``self`` for chaining.

        Chunks go through the heap's staged bulk-insert fast path when the
        NumPy backend is active; the result is bit-identical to pushing the
        same tuples one at a time; :class:`~repro.core.kernels.EncodedSegments`
        columns are staged as they are.
        """
        self._check_open("push")
        if isinstance(segments, AggregateSegment):
            self._reducer.push(segments)
        else:
            self._reducer.push_chunk(
                segments if isinstance(segments, abc.Sequence)
                else list(segments)
            )
        self._generation += 1
        return self

    def replay(
        self, chunks: Iterable[Iterable[AggregateSegment]]
    ) -> "Compressor":
        """Re-consume logged push chunks (the crash-recovery entry point).

        Each chunk is fed as one :meth:`push` call, so the generation
        counter advances exactly as it did live and every snapshot of the
        replayed session is bit-identical to the uncrashed one — the
        replay invariant of :meth:`repro.core.greedy.OnlineReducer.replay`
        surfaced at the session level.  Used by
        :mod:`repro.service.durability` to rebuild a store from its WAL.
        """
        self._check_open("replay")
        self._generation += self._reducer.replay(chunks)
        return self

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def summary(self) -> Result:
        """Return the summary of everything pushed so far, non-destructively.

        Equivalent — bit for bit — to running batch ``compress`` over the
        consumed prefix with the same parameters, but computed on the
        *delta path*: the reducer's merge delta log is replayed into a
        materialised mirror of the live relation and the end-of-input phase
        runs on the mirror, so the Python work is O(changes since the last
        snapshot + tail merges).  Repeated calls at the same
        :attr:`generation` return the cached result.  After
        :meth:`finalize` this returns the final result.
        """
        if self._final is not None:
            return self._final
        generation, columns, stats, result = self._delta_snapshot()
        if result is None:
            stats.segments = list(columns)
            result = self._wrap(stats)
            self._snapshot = (generation, columns, stats, result)
        return result

    def summary_columns(self) -> EncodedSegments:
        """The current summary in flat column form (the serving fast path).

        Same snapshot as :meth:`summary` — same generation cache — but as
        :class:`~repro.core.kernels.EncodedSegments`, which the query layer
        indexes directly; the per-segment objects of :meth:`summary` are
        never materialised on this path.
        """
        if self._final is not None:
            return self._final_columns()
        return self._delta_snapshot()[1]

    def summary_oracle(self) -> Result:
        """The summary via the clone-and-finalize reference path.

        Clones the resumable online state and runs the end-of-input phase
        on the clone — O(live heap) per call.  This is the oracle the
        delta-based :meth:`summary` is property-tested against; production
        reads should use :meth:`summary`.
        """
        if self._final is not None:
            return self._final
        return self._wrap(self._reducer.clone().finalize())

    def _delta_snapshot(
        self,
    ) -> Tuple[int, EncodedSegments, GreedyResult, Optional[Result]]:
        cached = self._snapshot
        if cached is not None and cached[0] == self._generation:
            return cached
        stats, columns = self._reducer.snapshot(materialize=False)
        snapshot = (self._generation, columns, stats, None)
        self._snapshot = snapshot
        return snapshot

    def _final_columns(self) -> EncodedSegments:
        assert self._final is not None
        cached = self._snapshot
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        columns = encode_segments(self._final.segments)
        self._snapshot = (
            self._generation,
            columns,
            GreedyResult(segments=self._final.segments),
            self._final,
        )
        return columns

    def finalize(self) -> Result:
        """End the session and return the final summary.

        Runs the end-of-input phase on the live state (no clone).  Further
        :meth:`push` calls raise; :meth:`summary` keeps returning the final
        result.  This is also the *frozen-summary handoff* used by the
        serving layer: when :class:`repro.service.SessionStore` evicts an
        idle session it finalizes it and keeps the returned result
        queryable, so eviction never discards pushed tuples.
        """
        if self._final is None:
            self._final = self._wrap(self._reducer.finalize())
            self._generation += 1
        return self._final

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pushed(self) -> int:
        """Number of segments consumed so far."""
        return self._reducer.consumed

    @property
    def generation(self) -> int:
        """Counter bumped by every state change (push call or finalize).

        Two :meth:`summary` calls at the same generation are guaranteed to
        return equal results, so callers that cache derived artifacts — the
        serving layer's :class:`repro.service.QueryEngine` caches a
        query-ready snapshot index per session — can use the generation as
        their invalidation token instead of re-finalizing a clone per read.
        """
        return self._generation

    @property
    def heap_size(self) -> int:
        """Number of tuples currently buffered in the merge heap."""
        return len(self._reducer.heap)

    @property
    def finalized(self) -> bool:
        return self._final is not None

    def __len__(self) -> int:
        return self.heap_size

    def __enter__(self) -> "Compressor":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        # A cleanly exited session is finalized; after an exception the
        # stream is torn mid-push, so the partial state is left untouched
        # for inspection instead of being passed off as a final summary.
        if exc_type is None and self._final is None:
            self.finalize()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _wrap(self, greedy_result: GreedyResult) -> Result:
        return Result(
            segments=greedy_result.segments,
            error=greedy_result.error,
            size=greedy_result.size,
            input_size=greedy_result.input_size,
            method=Method.GREEDY.value,
            backend=self.policy.backend.value,
            max_heap_size=greedy_result.max_heap_size,
            merges=greedy_result.merges,
        )

    def _check_open(self, operation: str) -> None:
        if self._final is not None:
            raise RuntimeError(
                f"cannot {operation}() on a finalized Compressor"
            )


__all__ = ["Compressor"]
