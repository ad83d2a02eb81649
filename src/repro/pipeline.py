"""Streaming compression pipeline for parsimonious temporal aggregation.

.. note::
   The canonical, typed surface of the engine is :mod:`repro.api`
   (``Plan`` / ``execute`` / ``Compressor``); :func:`compress` is kept as
   the historical one-call door and is a thin shim that builds a
   :class:`repro.api.Plan` and hands it to :func:`repro.api.execute`.

:func:`compress` accepts either a raw
:class:`~repro.temporal.TemporalRelation` (which is aggregated with ITA on
the fly) or any iterable of :class:`~repro.core.merge.AggregateSegment`
objects (an already aggregated relation, a time series converted to unit
segments, or a live generator), and reduces it under a size bound ``size``
or a relative error bound ``max_error`` (``error`` is accepted as an alias
for symmetry with the historical :func:`repro.pta` spelling).

The default ``method="greedy"`` keeps the pipeline *streaming*: segments are
pulled from the source in chunks of ``chunk_size`` and fed one by one into
the online algorithms ``gPTAc`` / ``gPTAε`` (Section 6 of the paper), so
the input is never materialised and memory stays bounded by the merge heap
(``c + β`` tuples) plus one chunk buffer.  ``chunk_size`` only controls how
eagerly the producer is driven — the merge policy stays tuple-at-a-time, so
the result is identical for every chunk size and for streaming versus batch
delivery.  ``method="dp"`` computes the exact optimum instead, which
requires materialising the stream (Section 5).

Both methods accept ``backend="python"`` (reference implementation) or
``backend="numpy"`` (vectorized kernels, :mod:`repro.core.kernels`); the two
backends produce identical reductions.

Passing ``workers=N`` switches the greedy method to the sharded engine of
:mod:`repro.parallel`: the stream is materialised into flat arrays, cut
into independent shards at maximal-run boundaries, reduced shard-by-shard
on a thread pool and reconciled under the global size or
error budget.  The result is the plain greedy merging strategy (the online
result with ``δ = ∞``) and is bit-identical for every worker count; see the
module docstring of :mod:`repro.parallel` for the exact semantics.

Typical usage::

    from repro import Interval, TemporalRelation
    from repro.pipeline import compress

    result = compress(relation, group_by=["proj"],
                      aggregates={"avg_sal": ("avg", "sal")}, size=4)
    for segment in result:
        print(segment)

    # Streaming: reduce an unbounded generator of segments online.
    result = compress(sensor_segments(), size=100)

    # Scale out: shard the reduction across every core.
    result = compress(big_segment_list, size=10_000, workers=0)
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .aggregation.functions import AggregatesLike
from .api import (
    DEFAULT_CHUNK_SIZE,
    ExecutionPolicy,
    Plan,
    Result,
    execute,
    iter_chunks,
    resolve_error_alias,
)
from .core import greedy
from .core.errors import Weights
from .core.merge import AggregateSegment
from .temporal import TemporalRelation

#: The unified result type; an alias of :class:`repro.api.Result`, kept
#: under its historical name for backwards compatibility.
CompressionResult = Result


def compress(
    records: TemporalRelation | Iterable[AggregateSegment],
    *,
    group_by: Sequence[str] = (),
    aggregates: AggregatesLike = (),
    size: int | None = None,
    max_error: float | None = None,
    error: float | None = None,
    method: str = "greedy",
    backend: str = "python",
    delta: greedy.Delta = 1,
    weights: Weights | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    input_size_estimate: int | None = None,
    max_error_estimate: float | None = None,
    workers: int | None = None,
    cluster: Sequence[str] | None = None,
    shard_size: int | None = None,
) -> CompressionResult:
    """Compress a temporal relation or segment stream with PTA.

    Exactly one of ``size`` (the output size bound ``c``) and ``max_error``
    (the relative error bound ``ε`` in ``[0, 1]``) must be given; ``error``
    is accepted as a legacy alias of ``max_error``.

    Parameters
    ----------
    records:
        A :class:`TemporalRelation` (aggregated with ITA using ``group_by``
        and ``aggregates`` before reduction) or an iterable of
        :class:`AggregateSegment` in group-then-time order.  Iterables are
        consumed lazily in chunks of ``chunk_size``; generators therefore
        never need full materialisation when ``method="greedy"``.
    method:
        ``"greedy"`` (default) for the online algorithms ``gPTAc``/``gPTAε``
        with bounded memory, ``"dp"`` for the exact optimum (materialises
        the stream).
    backend:
        ``"python"`` or ``"numpy"`` — see :mod:`repro.core.kernels`.
    delta:
        Greedy read-ahead parameter ``δ`` (ignored by ``method="dp"``).
    chunk_size:
        Number of segments pulled from the source per pipeline step.  A
        producer-side buffering knob only: results are identical for every
        value (the online merge policy stays tuple-at-a-time).
    input_size_estimate / max_error_estimate:
        Estimates ``n̂`` and ``Êmax`` enabling early merging in ``gPTAε``
        (Section 6.3).  Derived automatically when ``records`` is a relation
        or a materialised sequence; for opaque generators they default to
        ``None``, which is always correct but lets the heap grow.
    workers:
        ``None`` (default) keeps the single-process online evaluation.  Any
        integer switches to the sharded engine of :mod:`repro.parallel`:
        ``0`` uses every core, ``1`` runs the shards on the calling
        thread, ``N > 1`` dispatches them on an ``N``-wide thread pool.
        Requires ``method="greedy"``; the result is plain GMS (the online
        result with ``δ = ∞``, so ``delta`` does not apply) and is
        bit-identical for every worker count.  The engine always runs on the array
        kernels, so the reported backend is ``"numpy"``.
    cluster:
        ``"host:port"`` addresses of remote reducer workers
        (:mod:`repro.cluster.worker`).  Switches to the distributed
        engine: the same shard plan and reconciliation as ``workers``,
        with shards shipped to the cluster over the wire and reduced
        locally only as a last-resort fallback.  Mutually exclusive
        with ``workers``; requires ``method="greedy"``; bit-identical
        to every ``workers`` value regardless of worker placement,
        cluster size or mid-job worker death.
    shard_size:
        Segments per shard for the sharded engine (default
        :data:`repro.parallel.DEFAULT_SHARD_SIZE`).  A work-distribution
        knob only.
    """
    epsilon = resolve_error_alias(error, max_error)
    plan = Plan(records)
    if group_by:
        plan = plan.group_by(*group_by)
    if aggregates:
        plan = plan.aggregate(aggregates)
    plan = plan.reduce(size=size, max_error=epsilon, method=method)
    policy = ExecutionPolicy(
        backend=backend,
        workers=workers,
        cluster=tuple(cluster) if cluster is not None else None,
        shard_size=shard_size,
        chunk_size=chunk_size,
        delta=delta,
        weights=weights,
        input_size_estimate=input_size_estimate,
        max_error_estimate=max_error_estimate,
    )
    return execute(plan, policy)


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "CompressionResult",
    "compress",
    "iter_chunks",
]
