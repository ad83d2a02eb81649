"""Sharded multiprocess reduction engine for greedy PTA.

The merge operator never crosses a maximal-run boundary (a temporal gap or a
change of aggregation group), so the runs produced by
:func:`repro.core.merge.maximal_runs` are fully independent units of work.
This module exploits that structure to scale the greedy reduction across
cores:

1. **Encode** — the segment stream is materialised once into flat NumPy
   columns (:func:`encode_segments`), so a shard travels to a worker process
   as a handful of array buffers instead of thousands of
   :class:`~repro.core.merge.AggregateSegment` objects.
2. **Shard** — the columns are cut into shards at run boundaries
   (:func:`plan_shards`).  The shard plan depends only on the input and the
   ``shard_size`` knob — never on the worker count — so the reduction is
   bit-identical for every ``workers`` value.
3. **Reduce** — each shard's complete greedy merge schedule (the
   boundary-removal order and per-step merge errors down to the shard's
   ``cmin``) is computed by
   :func:`repro.core.kernels.greedy_merge_trajectory`, either in-process or
   on a :class:`~concurrent.futures.ProcessPoolExecutor`.
4. **Reconcile** — because the merge performed by global GMS is always the
   globally cheapest one and that merge is necessarily the *next step of
   some shard's local schedule*, the global reduction is exactly a k-way
   merge over the shard frontiers: repeatedly consume the smallest next key
   across shards until the size budget is met (global top-k selection) or
   the error budget ``ε·SSE_max`` is exhausted (``SSE_max`` is additive
   across shards).
5. **Rebuild** — each shard's output partition is materialised with one
   ``reduceat`` pass over the encoded columns; merged values follow the
   single-pass weighted-mean semantics of
   :func:`repro.core.merge.merge_run` (less rounding drift than folding
   pairwise merges).

The engine therefore computes the *plain greedy merging strategy* (GMS) —
equivalently, the online algorithms with read-ahead ``δ = ∞`` — not the
finite-``δ`` online heuristics, whose early merges depend on global heap
occupancy and would couple the shards.  Cross-shard key ties break towards
the earlier shard, which matches the sequential heap's insertion-order
tie-break for initial keys; for distinct keys (the generic case) the result
is identical to the sequential GMS reduction step for step.

Exact dynamic programming is *not* sharded: the optimal allocation of the
output budget across shards couples them globally, and computing the
per-shard error curves needed to decouple it costs ``O(n_i^2)`` per shard —
more than the sequential DP it would replace.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core.errors import Weights, resolve_weights
from .core.greedy import GreedyResult
from .core.kernels import (
    EncodedSegments,
    adjacent_pair_mask,
    encode_segments,
    greedy_merge_trajectory,
    require_finite,
    shard_sse_max,
)
from .core.merge import AggregateSegment
from .obs import metrics as _metrics
from .obs.tracing import span
from .temporal import Interval
from .util import failpoints
from .util.backoff import DEFAULT_CAP_S as DEFAULT_BACKOFF_CAP
from .util.backoff import Backoff

#: Default number of segments per shard.  A function of the input only —
#: never of the worker count — so that the shard plan (and with it the
#: reduction) is identical for every ``workers`` value.  At 8k segments per
#: shard a 100k-segment input yields ~12 shards, enough to keep 4–16 cores
#: busy while keeping the per-task serialisation overhead negligible.
DEFAULT_SHARD_SIZE = 8192

#: Pool rebuilds attempted after worker deaths before the engine gives up
#: on multiprocessing and finishes the remaining shards in-process.
SHARD_RETRIES = 2

#: Base of the exponential backoff between pool rebuilds, in seconds
#: (decorrelated jitter, shared ladder: :class:`repro.util.backoff.Backoff`).
RETRY_BACKOFF_S = 0.05


def plan_shards(
    encoded: EncodedSegments, shard_size: int = DEFAULT_SHARD_SIZE
) -> List[Tuple[int, int]]:
    """Cut the encoded stream into ``[lo, hi)`` shards at run boundaries.

    Walks the maximal-run boundaries and closes a shard as soon as it holds
    at least ``shard_size`` segments; a single run longer than ``shard_size``
    stays whole (it cannot be split without coupling the shards).
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be at least 1, got {shard_size}")
    count = len(encoded)
    if count == 0:
        return []
    adjacent = adjacent_pair_mask(
        encoded.starts, encoded.ends, encoded.groups
    )
    run_starts = np.flatnonzero(~adjacent) + 1
    shards: List[Tuple[int, int]] = []
    shard_start = 0
    for boundary in run_starts.tolist():
        if boundary - shard_start >= shard_size:
            shards.append((shard_start, boundary))
            shard_start = boundary
    shards.append((shard_start, count))
    return shards


#: One shard as it travels to a reducer: ``(starts, ends, values,
#: groups, w2)`` array slices.  The same tuple shape crosses a process
#: boundary on the pool path and (PTAS-encoded) a network boundary on the
#: cluster path (:mod:`repro.cluster`).
ShardPayload = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: One shard's reduction output: the complete merge schedule (boundary
#: indices + per-step keys) plus the shard's ``SSE_max``.
ShardTrajectory = Tuple[np.ndarray, np.ndarray, float]


def validate_budget(size: int | None, max_error: float | None) -> None:
    """The one-budget rule shared by every sharded entry point."""
    if (size is None) == (max_error is None):
        raise ValueError("provide exactly one of 'size' and 'max_error'")
    if size is not None and size < 1:
        raise ValueError(f"size bound must be at least 1, got {size}")
    if max_error is not None and not 0.0 <= max_error <= 1.0:
        raise ValueError(f"epsilon must be within [0, 1], got {max_error}")


def shard_payloads(
    encoded: EncodedSegments,
    shards: Sequence[Tuple[int, int]],
    w2: np.ndarray,
) -> List[ShardPayload]:
    """The per-shard worker payloads for a shard plan (zero-copy slices)."""
    return [
        (
            encoded.starts[lo:hi],
            encoded.ends[lo:hi],
            encoded.values[lo:hi],
            encoded.groups[lo:hi],
            w2,
        )
        for lo, hi in shards
    ]


def reduce_shard(payload: ShardPayload) -> ShardTrajectory:
    """Worker task: complete merge schedule plus ``SSE_max`` of one shard.

    This is the unit of remote work for both the process-pool engine and
    the cluster tier's reducer workers (:mod:`repro.cluster.worker`).
    """
    failpoints.fail("parallel.worker")
    starts, ends, values, groups, w2 = payload
    with span("shard_reduce"):
        boundaries, keys = greedy_merge_trajectory(
            starts, ends, values, groups, w2
        )
        sse = shard_sse_max(starts, ends, values, groups, w2)
    return boundaries, keys, sse


# Backwards-compatible name (the pool pickles tasks by qualified name).
_reduce_shard = reduce_shard


def assemble_result(
    encoded: EncodedSegments,
    shards: Sequence[Tuple[int, int]],
    trajectories: Sequence[ShardTrajectory],
    size: int | None,
    max_error: float | None,
) -> GreedyResult:
    """Reconcile shard trajectories under the global budget and rebuild.

    The deterministic back half of every sharded reduction: a k-way merge
    over the shard frontiers (:func:`_reconcile`) followed by one
    ``reduceat`` rebuild per shard.  Because it consumes ``trajectories``
    by shard index — never by completion order — the output is
    bit-identical no matter where or in what order the shard schedules
    were computed (pool workers, remote cluster workers, in-process
    fallback, or any mix).
    """
    with span("frontier_merge"):
        counts, total_error, merges = _reconcile(
            trajectories, size, max_error, len(encoded)
        )
        output: List[AggregateSegment] = []
        for (lo, hi), (boundaries, _, _), taken in zip(
            shards, trajectories, counts
        ):
            output.extend(
                _rebuild_shard(encoded, lo, hi, boundaries[:taken])
            )
    return GreedyResult(
        segments=output,
        error=total_error,
        size=len(output),
        max_heap_size=0,
        merges=merges,
        input_size=len(encoded),
    )


def _reduce_shards_pooled(
    payloads: Sequence[tuple],
    pool_width: int,
    retries: int,
    backoff: float,
) -> List[Tuple[np.ndarray, np.ndarray, float]]:
    """Run every shard on a process pool, surviving worker deaths.

    Shards that completed before a :class:`BrokenProcessPool` keep their
    results; the pool is rebuilt (after an exponential backoff with
    decorrelated jitter) and only the missing shards are resubmitted, up
    to ``retries`` rebuilds.  After
    that the remaining shards run in-process — slower, never wrong.
    Results are indexed by shard, so the reconciliation order (and with
    it the output) is bit-identical to the fault-free run no matter
    which workers died when.
    """
    results: List[Optional[Tuple[np.ndarray, np.ndarray, float]]] = [
        None
    ] * len(payloads)
    pending = list(range(len(payloads)))
    rebuilds = 0
    ladder = Backoff(backoff, max(backoff, DEFAULT_BACKOFF_CAP))
    while pending:
        try:
            width = min(pool_width, len(pending))
            with ProcessPoolExecutor(max_workers=width) as pool:
                futures = {
                    pool.submit(_reduce_shard, payloads[index]): index
                    for index in pending
                }
                for future in as_completed(futures):
                    results[futures[future]] = future.result()
            pending = []
        except BrokenProcessPool:
            pending = [
                index for index in pending if results[index] is None
            ]
            rebuilds += 1
            if rebuilds > retries:
                _metrics.counter(
                    "repro_shard_fallbacks_total",
                    "Shards finished in-process after the pool gave up.",
                    tier="pool",
                ).inc(len(pending))
                for index in pending:
                    results[index] = _reduce_shard(payloads[index])
                pending = []
            else:
                _metrics.counter(
                    "repro_shard_retries_total",
                    "Process-pool rebuilds after worker deaths.",
                    tier="pool",
                ).inc()
                delay = ladder.next()
                if delay > 0:
                    time.sleep(delay)
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def reduce_segments_parallel(
    segments: Iterable[AggregateSegment],
    size: int | None = None,
    max_error: float | None = None,
    weights: Weights | None = None,
    workers: int = 1,
    shard_size: int | None = None,
) -> GreedyResult:
    """Sharded greedy reduction (plain GMS semantics) of a segment stream.

    A compatibility shim over the canonical :func:`repro.api.execute`
    dispatcher: it builds a greedy :class:`repro.api.Plan` with a worker
    policy, so validation errors are identical across all entry points.
    Exactly one of ``size`` and ``max_error`` must be given, with the same
    meaning as in :func:`repro.core.greedy.gms_reduce_to_size` /
    ``gms_reduce_to_error``.  ``workers`` is the process-pool width (``0``
    means ``os.cpu_count()``; ``1`` runs every shard in-process); the result
    is bit-identical for every value.  ``shard_size`` overrides
    :data:`DEFAULT_SHARD_SIZE` — it changes how work is distributed, not
    what is computed (only exact cross-shard key ties are sensitive to it).

    Returns a :class:`~repro.core.greedy.GreedyResult`; ``max_heap_size`` is
    reported as 0 because the engine materialises the input instead of
    bounding a streaming heap.
    """
    from .api import ExecutionPolicy, Method, Plan, execute

    plan = Plan(segments).reduce(
        size=size, max_error=max_error, method=Method.GREEDY
    )
    policy = ExecutionPolicy(
        workers=workers, shard_size=shard_size, weights=weights
    )
    result = execute(plan, policy)
    return GreedyResult(
        segments=result.segments,
        error=result.error,
        size=result.size,
        max_heap_size=result.max_heap_size,
        merges=result.merges,
        input_size=result.input_size,
    )


def run_sharded(
    segments: Iterable[AggregateSegment],
    size: int | None = None,
    max_error: float | None = None,
    weights: Weights | None = None,
    workers: int = 1,
    shard_size: int | None = None,
    shard_retries: int | None = None,
    retry_backoff: float | None = None,
) -> GreedyResult:
    """The sharded engine proper (encode → shard → reduce → reconcile).

    This is the raw engine invoked by :func:`repro.api.execute`; its
    defensive validation mirrors the build-time checks of
    :mod:`repro.api.plan` for direct callers.

    Worker deaths (``BrokenProcessPool``) are survived: completed shards
    keep their results, the pool is rebuilt with exponential backoff up
    to ``shard_retries`` times (default :data:`SHARD_RETRIES`), and the
    remaining shards then fall back to in-process execution — the output
    is bit-identical to the fault-free run in every case, because the
    shard plan and the reconciliation consume results by shard index,
    never by completion order.
    """
    validate_budget(size, max_error)
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    elif shard_size < 1:
        raise ValueError(f"shard_size must be at least 1, got {shard_size}")
    if shard_retries is None:
        shard_retries = SHARD_RETRIES
    elif shard_retries < 0:
        raise ValueError(
            f"shard_retries must be non-negative, got {shard_retries}"
        )
    if retry_backoff is None:
        retry_backoff = RETRY_BACKOFF_S
    elif retry_backoff < 0:
        raise ValueError(
            f"retry_backoff must be non-negative, got {retry_backoff}"
        )

    encoded = encode_segments(segments)
    count = len(encoded)
    if count == 0:
        return GreedyResult()
    require_finite(encoded.values)

    w2 = (
        np.asarray(
            resolve_weights(weights, encoded.dimensions), dtype=np.float64
        )
        ** 2
    )
    shards = plan_shards(encoded, shard_size)
    payloads = shard_payloads(encoded, shards, w2)
    pool_width = workers if workers else (os.cpu_count() or 1)
    if pool_width > 1 and len(payloads) > 1:
        pool_width = min(pool_width, len(payloads))
        trajectories = _reduce_shards_pooled(
            payloads, pool_width, shard_retries, retry_backoff
        )
    else:
        trajectories = [reduce_shard(payload) for payload in payloads]

    return assemble_result(encoded, shards, trajectories, size, max_error)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _reconcile(
    trajectories: Sequence[Tuple[np.ndarray, np.ndarray, float]],
    size: int | None,
    max_error: float | None,
    input_size: int,
) -> Tuple[List[int], float, int]:
    """Decide how many schedule steps each shard takes under the budget.

    A k-way merge over the shard frontiers: the heap holds each shard's
    *next* merge key, and consuming the global minimum advances that shard's
    schedule by one step — exactly the merge global GMS would perform.  Ties
    break towards the earlier shard (then the earlier step).
    """
    key_lists = [keys.tolist() for _, keys, _ in trajectories]
    frontier = [
        (keys[0], shard, 0) for shard, keys in enumerate(key_lists) if keys
    ]
    heapq.heapify(frontier)
    counts = [0] * len(trajectories)
    total_error = 0.0
    merges = 0
    # Advancing a shard replaces the consumed top in place (one sift).
    heapreplace, heappop = heapq.heapreplace, heapq.heappop

    if size is not None:
        live = input_size
        while live > size and frontier:
            key, shard, step = frontier[0]
            counts[shard] += 1
            total_error += key
            merges += 1
            live -= 1
            keys = key_lists[shard]
            if step + 1 < len(keys):
                heapreplace(frontier, (keys[step + 1], shard, step + 1))
            else:
                heappop(frontier)
        return counts, total_error, merges

    # Error-bounded: SSE_max is additive across shards, so the global budget
    # is the sum of the per-shard budgets; the stop rule mirrors
    # gms_reduce_to_error's threshold check.  The slack is relative as well
    # as absolute: the engine's keys and the threshold come from different
    # float summation orders, so at ``ε = 1`` (where the consumed keys
    # telescope to exactly ``SSE_max``) an absolute slack alone would stop
    # one merge short of ``cmin``.
    threshold = max_error * sum(sse for _, _, sse in trajectories)
    budget = threshold + 1e-9 + 1e-9 * threshold
    while frontier:
        key, shard, step = frontier[0]
        if total_error + key > budget:
            break
        counts[shard] += 1
        total_error += key
        merges += 1
        keys = key_lists[shard]
        if step + 1 < len(keys):
            heapreplace(frontier, (keys[step + 1], shard, step + 1))
        else:
            heappop(frontier)
    return counts, total_error, merges


def _rebuild_shard(
    encoded: EncodedSegments, lo: int, hi: int, removed: np.ndarray
) -> List[AggregateSegment]:
    """Materialise one shard's output partition after ``removed`` merges.

    ``removed`` holds the shard-local boundary indices consumed from the
    shard's schedule; the surviving boundaries delimit the output segments,
    whose values are computed with one weighted ``reduceat`` pass
    (:func:`repro.core.merge.merge_run` semantics).
    """
    starts = encoded.starts[lo:hi]
    ends = encoded.ends[lo:hi]
    values = encoded.values[lo:hi]
    groups = encoded.groups[lo:hi]
    count = hi - lo
    keep = np.ones(count, dtype=bool)
    if removed.size:
        keep[removed] = False
    part_starts = np.flatnonzero(keep)
    part_ends = np.append(part_starts[1:] - 1, count - 1)
    lengths = (ends - starts + 1).astype(np.float64)
    totals = np.add.reduceat(lengths, part_starts)
    merged = (
        np.add.reduceat(values * lengths[:, None], part_starts, axis=0)
        / totals[:, None]
    )
    group_keys = encoded.group_keys
    output: List[AggregateSegment] = []
    for part, (first, last) in enumerate(zip(part_starts, part_ends)):
        if first == last:
            segment_values = tuple(float(v) for v in values[first])
        else:
            segment_values = tuple(float(v) for v in merged[part])
        output.append(
            AggregateSegment(
                group_keys[int(groups[first])],
                segment_values,
                Interval(int(starts[first]), int(ends[last])),
            )
        )
    return output


__all__ = [
    "DEFAULT_SHARD_SIZE",
    "RETRY_BACKOFF_S",
    "SHARD_RETRIES",
    "EncodedSegments",
    "ShardPayload",
    "ShardTrajectory",
    "assemble_result",
    "encode_segments",
    "plan_shards",
    "reduce_segments_parallel",
    "reduce_shard",
    "run_sharded",
    "shard_payloads",
    "validate_budget",
]
