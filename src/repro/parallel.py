"""Sharded reduction engine for greedy PTA.

The merge operator never crosses a maximal-run boundary (a temporal gap or a
change of aggregation group), so the runs produced by
:func:`repro.core.merge.maximal_runs` are fully independent units of work.
This module exploits that structure to scale the greedy reduction across
cores:

1. **Encode** — the segment stream is materialised once into flat NumPy
   columns (:func:`encode_segments`), so a shard reaches its reducer as a
   handful of zero-copy array slices instead of thousands of
   :class:`~repro.core.merge.AggregateSegment` objects.
2. **Shard** — the columns are cut into shards at run boundaries
   (:func:`plan_shards`).  The shard plan depends only on the input and the
   ``shard_size`` knob — never on the worker count — so the reduction is
   bit-identical for every ``workers`` value.
3. **Reduce** — each shard's complete greedy merge schedule (per step:
   the removed boundary, the merge error, the surviving block and its
   merged row, down to the shard's ``cmin``) is computed by
   :func:`repro.core.kernels.greedy_merge_trajectory`.  With
   ``workers > 1`` the shards run on a thread pool
   (:func:`_reduce_shards_pooled`, the one dispatch the cluster tier
   shares): the compiled schedule releases the GIL, so threads use
   several cores without copying a shard.  Without a C compiler the
   Python fallback holds the GIL, so there ``workers > 1`` runs no faster
   than ``workers=1`` (each such schedule counts on
   ``repro_python_trajectories_total``).  Keys and rows come from
   :func:`repro.core.errors.merge_key` and
   :func:`repro.core.merge.merged_row`, so a shard's schedule is the
   merge heap's, bit for bit.
4. **Reconcile** — because the merge performed by global GMS is always the
   globally cheapest one and that merge is necessarily the *next step of
   some shard's local schedule*, the global reduction is exactly a k-way
   merge over the shard frontiers (the smallest next key across shards,
   ties to the earlier shard, then the earlier step), cut where ``size``
   tuples remain (global top-k selection) or before the first key that
   would exceed the error budget ``ε·SSE_max``
   (:func:`repro.core.errors.error_budget`).  A shard's next key only
   reaches the front once every earlier key of that shard has, so the
   k-way merge is one stable sort of all steps by the running maximum of
   their shard's keys (:func:`_reconcile`).  ``SSE_max`` is additive
   across shards, and each shard's is the sum of its schedule's keys: the
   schedule runs to the shard's ``cmin`` (Proposition 2).
5. **Rebuild** — each shard's output partition is gathered from the
   consumed prefix of its schedule: a surviving block takes the row the
   kernel recorded at the last step headed at it, or its input row
   (:func:`_rebuild_shard`).  Those rows were folded by
   :func:`repro.core.merge.merged_row` in the merge heaps' order, so
   every output row is the heaps' fold, and no merge is computed twice.

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

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

import numpy as np

from .core.errors import (
    Weights, error_budget, squared_weights, validate_budget,
)
from .core.greedy import GreedyResult
from .core.kernels import (
    EncodedSegments,
    adjacent_pair_mask,
    encode_segments,
    greedy_merge_trajectory,
    require_finite,
)
from .core.merge import AggregateSegment
from .obs.tracing import span
from .temporal import Interval
from .util import failpoints

#: Default number of segments per shard.  A function of the input only —
#: never of the worker count — so that the shard plan (and with it the
#: reduction) is identical for every ``workers`` value.  At 8k segments per
#: shard a 100k-segment input yields ~12 shards, enough to keep 4–16 cores
#: busy while keeping the per-task dispatch overhead negligible.
DEFAULT_SHARD_SIZE = 8192

_Task = TypeVar("_Task")
_Out = TypeVar("_Out")


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
#: groups, w2)`` array slices.  The same columns cross (PTAS-encoded) a
#: network boundary on the cluster path (:mod:`repro.cluster`).
ShardPayload = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: One shard's reduction output: ``(boundaries, keys, sse_max, heads,
#: rows)``, the complete merge schedule of
#: :func:`~repro.core.kernels.greedy_merge_trajectory` plus the shard's
#: ``SSE_max``, the sum of the keys.  A plain tuple, so it crosses the
#: cluster's ``PTAT`` codec unchanged.
ShardTrajectory = Tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]


class ShardJob(NamedTuple):
    """A checked, encoded and planned sharded reduction (:func:`plan_job`)."""

    encoded: EncodedSegments
    shards: List[Tuple[int, int]]
    w2: np.ndarray


def plan_job(
    segments: Iterable[AggregateSegment],
    size: int | None,
    max_error: float | None,
    weights: Weights | None,
    shard_size: int | None,
) -> Optional[ShardJob]:
    """The front half of every sharded engine, up to the shard plan.

    Checks the budget and ``shard_size`` (``None`` takes
    :data:`DEFAULT_SHARD_SIZE`), encodes the input, refuses non-finite
    values and cuts the shards.  Returns ``None`` for an empty input.
    :func:`run_sharded` and :func:`repro.cluster.reduce_cluster` both
    start here, so local threads and remote workers reduce the same
    shards.
    """
    validate_budget(size, max_error)
    shard_size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size
    if shard_size < 1:
        raise ValueError(f"shard_size must be at least 1, got {shard_size}")
    encoded = encode_segments(segments)
    if len(encoded) == 0:
        return None
    require_finite(encoded.values)
    w2 = np.asarray(
        squared_weights(weights, encoded.dimensions), dtype=np.float64
    )
    shards = plan_shards(encoded, shard_size)
    return ShardJob(encoded, shards, w2)


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
    """Reducer task: complete merge schedule plus ``SSE_max`` of one shard.

    The schedule runs down to the shard's ``cmin``, so by Proposition 2
    its keys add up to the shard's ``SSE_max``: the third element of the
    returned :data:`ShardTrajectory` is their sum.  This is the unit of
    work for both the threaded engine and the cluster tier's reducer
    workers (:mod:`repro.cluster.worker`).
    """
    failpoints.fail("parallel.worker")
    starts, ends, values, groups, w2 = payload
    with span("shard_reduce"):
        boundaries, keys, heads, rows = greedy_merge_trajectory(
            starts, ends, values, groups, w2
        )
    return boundaries, keys, float(keys.sum()), heads, rows


# A second name the layer benchmark (``perfbench/layers.py``) wraps; it
# raises ``KeyError`` at install time if the name is missing.
_reduce_shard = reduce_shard


def assemble_result(
    encoded: EncodedSegments,
    shards: Sequence[Tuple[int, int]],
    trajectories: Sequence[ShardTrajectory],
    size: int | None,
    max_error: float | None,
) -> GreedyResult:
    """Reconcile shard trajectories under the global budget and rebuild.

    The deterministic back half of every sharded reduction: one sort
    decides how many schedule steps each shard takes (:func:`_reconcile`),
    then each shard's output rows are gathered from the rows its schedule
    recorded (:func:`_rebuild_shard`).  No merge is recomputed, and
    nothing in it loops over merges in Python.  Because it
    consumes ``trajectories`` by shard index — never by completion order —
    the output is bit-identical no matter where or in what order the shard
    schedules were computed (local threads, remote cluster workers, the
    cluster's in-process fallback, or any mix).
    """
    with span("frontier_merge"):
        counts, total_error, merges = _reconcile(
            trajectories, size, max_error, len(encoded)
        )
        output: List[AggregateSegment] = []
        for (lo, hi), trajectory, taken in zip(shards, trajectories, counts):
            output.extend(_rebuild_shard(encoded, lo, hi, trajectory, taken))
    return GreedyResult(
        segments=output,
        error=total_error,
        size=len(output),
        max_heap_size=0,
        merges=merges,
        input_size=len(encoded),
    )


def _reduce_shards_pooled(
    reduce_one: Callable[[_Task], _Out],
    tasks: Sequence[_Task],
    width: int,
) -> List[_Out]:
    """Run ``reduce_one`` over every task; the results in task order.

    The one shard dispatch of :func:`run_sharded` and
    :func:`repro.cluster.reduce_cluster`.  Serial at ``width <= 1`` or for
    a single task; otherwise on ``min(width, len(tasks))`` threads, each
    task in its own copy of the caller's context, so the caller's trace id
    and deadline follow the shard.  A task's exception is raised to the
    caller (on threads, the first in task order, once every task has
    run), and nothing is retried.  Results are
    indexed by task, never by completion order, so the output is
    bit-identical at every width.  The layer benchmark
    (``perfbench/layers.py``) wraps this function by name.
    """
    if width <= 1 or len(tasks) <= 1:
        return [reduce_one(task) for task in tasks]
    with ThreadPoolExecutor(
        max_workers=min(width, len(tasks)), thread_name_prefix="pta-shard"
    ) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, reduce_one, task)
            for task in tasks
        ]
        return [future.result() for future in futures]


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
    ``gms_reduce_to_error``.  ``workers`` is the thread-pool width (``0``
    means ``os.cpu_count()``; ``1`` runs every shard on the calling
    thread); the result is bit-identical for every value.  ``shard_size``
    overrides :data:`DEFAULT_SHARD_SIZE` — it changes how work is
    distributed, not what is computed (only exact cross-shard key ties
    are sensitive to it).

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
) -> GreedyResult:
    """The sharded engine proper (encode → shard → reduce → reconcile).

    This is the raw engine invoked by :func:`repro.api.execute`; its
    defensive validation mirrors the build-time checks of
    :mod:`repro.api.plan` for direct callers.

    ``workers`` threads reduce the shards (``0`` means
    ``os.cpu_count()``).  A shard that raises fails the call: an
    in-process reduction has no dead peer to route around, and running
    it again would raise again.  The output is bit-identical for every
    ``workers`` value, because the shard plan and the reconciliation
    consume results by shard index, never by completion order.
    """
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    job = plan_job(segments, size, max_error, weights, shard_size)
    if job is None:
        return GreedyResult()
    trajectories = _reduce_shards_pooled(
        reduce_shard,
        shard_payloads(job.encoded, job.shards, job.w2),
        workers or os.cpu_count() or 1,
    )
    return assemble_result(
        job.encoded, job.shards, trajectories, size, max_error
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _reconcile(
    trajectories: Sequence[ShardTrajectory],
    size: int | None,
    max_error: float | None,
    input_size: int,
) -> Tuple[List[int], float, int]:
    """Decide how many schedule steps each shard takes under the budget.

    Global GMS consumes a k-way merge of the shard schedules: repeatedly
    the smallest next key across shards, ties to the earlier shard, then
    the earlier step.  A step cannot come before an earlier step of its
    own shard, so it reaches the front when the running maximum of its
    shard's keys up to it does; one stable sort of every step by that
    running maximum, with the steps laid out shard by shard, is that
    order.  The size budget takes the prefix that leaves ``size`` tuples;
    the error budget stops before the first step whose running total
    exceeds the :func:`~repro.core.errors.error_budget` of the summed
    shard ``SSE_max`` (additive across shards).  ``np.cumsum`` adds left
    to right, so the total is the one a loop of ``+=`` would reach.
    """
    keys = [trajectory[1] for trajectory in trajectories]
    frontier = np.concatenate(
        [np.maximum.accumulate(shard_keys) for shard_keys in keys]
    )
    order = np.argsort(frontier, kind="stable")
    totals = np.cumsum(np.concatenate(keys)[order])
    taken = len(order)
    if size is not None:
        taken = min(taken, max(input_size - size, 0))
    if max_error is not None:
        sse_max = sum(trajectory[2] for trajectory in trajectories)
        over = np.flatnonzero(totals > error_budget(max_error, sse_max))
        if len(over):
            taken = min(taken, int(over[0]))
    steps = [len(shard_keys) for shard_keys in keys]
    shard_of = np.repeat(np.arange(len(keys)), steps)
    counts = np.bincount(shard_of[order[:taken]], minlength=len(keys))
    # ``+ 0.0``: a loop's running total starts at +0.0, never at -0.0.
    total_error = float(totals[taken - 1]) + 0.0 if taken else 0.0
    return counts.tolist(), total_error, taken


def _rebuild_shard(
    encoded: EncodedSegments,
    lo: int,
    hi: int,
    trajectory: ShardTrajectory,
    taken: int,
) -> List[AggregateSegment]:
    """Materialise one shard's output partition after ``taken`` merges.

    The first ``taken`` steps of the shard's schedule remove their
    ``boundaries``.  Each surviving block keeps the row recorded at the
    last of those steps headed at it (``heads``), or its input row if no
    step was: the kernel folded those rows with
    :func:`repro.core.merge.merged_row` in schedule order, so this is a
    gather, not a replay.
    """
    boundaries, _, _, heads, rows = trajectory
    starts = encoded.starts[lo:hi]
    ends = encoded.ends[lo:hi]
    groups = encoded.groups[lo:hi]
    count = hi - lo
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
    block_rows = encoded.values[lo:hi][part_starts]
    block_rows[merged] = rows[steps[merged]]
    group_keys = encoded.group_keys
    return [
        AggregateSegment(
            group_keys[group], tuple(row), Interval(start, end)
        )
        for group, row, start, end in zip(
            groups[part_starts].tolist(),
            block_rows.tolist(),
            starts[part_starts].tolist(),
            ends[part_ends].tolist(),
        )
    ]


__all__ = [
    "DEFAULT_SHARD_SIZE",
    "EncodedSegments",
    "ShardPayload",
    "ShardTrajectory",
    "assemble_result",
    "ShardJob",
    "encode_segments",
    "plan_job",
    "plan_shards",
    "reduce_segments_parallel",
    "reduce_shard",
    "run_sharded",
    "shard_payloads",
]
