"""The single executor every PTA entry point dispatches through.

:func:`execute` maps a validated :class:`~repro.api.plan.Plan` plus an
:class:`~repro.api.plan.ExecutionPolicy` onto the existing engines —

* exact dynamic programming (:mod:`repro.core.dp`, Section 5),
* the single-process online greedy state machine
  (:class:`repro.core.greedy.OnlineReducer`, Section 6),
* the sharded engine (:mod:`repro.parallel`) —

and returns one :class:`~repro.api.result.Result` regardless of which
engine ran.  The legacy doors :func:`repro.pta`, :func:`repro.compress` and
:func:`repro.parallel.reduce_segments_parallel` are shims over this
function, parity-tested against the pre-refactor outputs.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from ..aggregation import iter_ita_segments
from ..core import dp
from ..core.greedy import GreedyResult, OnlineReducer
from ..core.errors import max_error as exact_max_error
from ..core.merge import AggregateSegment
from ..temporal import TemporalRelation
from .plan import (
    ErrorBudget,
    ExecutionPolicy,
    Method,
    Plan,
    PlanError,
    SizeBudget,
    validate_chunk_size,
    validate_workers_method,
)
from .result import Result


def execute(plan: Plan, policy: ExecutionPolicy | None = None) -> Result:
    """Run ``plan`` under ``policy`` and return the unified :class:`Result`.

    ``policy`` defaults to the plan's attached policy
    (:meth:`Plan.with_policy`), falling back to :class:`ExecutionPolicy`'s
    defaults.  Cross-cutting validation that needs both halves — the
    ``workers`` × ``method`` exclusion, a budget being present at all —
    happens here, before any tuple is read.
    """
    if not isinstance(plan, Plan):
        raise PlanError(f"execute() expects a Plan, got {plan!r}")
    if policy is None:
        policy = plan.policy if plan.policy is not None else ExecutionPolicy()
    budget = plan.budget
    if budget is None:
        raise PlanError(
            "plan has no reduction step; call Plan.reduce() with exactly "
            "one budget"
        )
    validate_workers_method(policy.workers, plan.method, policy.cluster)
    size = budget.size if isinstance(budget, SizeBudget) else None
    epsilon = budget.epsilon if isinstance(budget, ErrorBudget) else None

    if policy.cluster is not None or policy.workers is not None:
        return _run_sharded(plan, policy, size, epsilon)
    if plan.method is Method.DP:
        return _run_dp(plan, policy, size, epsilon)
    return _run_online(plan, policy, size, epsilon)


# ----------------------------------------------------------------------
# Engine adapters
# ----------------------------------------------------------------------
def _run_sharded(
    plan: Plan,
    policy: ExecutionPolicy,
    size: Optional[int],
    epsilon: Optional[float],
) -> Result:
    """The sharded engine on local threads, or on remote reducers.

    Both reduce the same shard plan to the bit-identical plain-GMS result
    (``docs/ARCHITECTURE.md``, Cluster tier).
    """
    source = _segment_stream(plan)
    if policy.cluster is not None:
        from ..cluster import reduce_cluster

        greedy_result = reduce_cluster(
            source,
            size=size,
            max_error=epsilon,
            weights=policy.weights,
            cluster=policy.cluster,
            shard_size=policy.shard_size,
        )
    else:
        from ..parallel import run_sharded

        assert policy.workers is not None  # execute() dispatches only then
        greedy_result = run_sharded(
            source,
            size=size,
            max_error=epsilon,
            weights=policy.weights,
            workers=policy.workers,
            shard_size=policy.shard_size,
        )
    # Pool and cluster workers run the same array kernels.
    return _wrap(plan, greedy_result, backend="numpy")


def _run_dp(
    plan: Plan,
    policy: ExecutionPolicy,
    size: Optional[int],
    epsilon: Optional[float],
) -> Result:
    stream, _, _ = _open_source(plan, policy, need_estimates=False)
    segments = list(stream)
    if size is not None:
        dp_result = dp.reduce_to_size(
            segments, size, policy.weights, backend=policy.backend.value
        )
    else:
        assert epsilon is not None
        dp_result = dp.reduce_to_error(
            segments, epsilon, policy.weights, backend=policy.backend.value
        )
    return Result(
        segments=dp_result.segments,
        error=dp_result.error,
        size=dp_result.size,
        input_size=len(segments),
        method=Method.DP.value,
        backend=policy.backend.value,
        group_columns=plan.group_columns,
        value_columns=plan.value_columns,
        timestamp_name=_timestamp_name(plan),
    )


def _run_online(
    plan: Plan,
    policy: ExecutionPolicy,
    size: Optional[int],
    epsilon: Optional[float],
) -> Result:
    stream, input_size_estimate, max_error_estimate = _open_source(
        plan, policy, need_estimates=epsilon is not None
    )
    reducer = OnlineReducer(
        size=size,
        max_error=epsilon,
        delta=policy.delta,
        weights=policy.weights,
        input_size_estimate=input_size_estimate,
        max_error_estimate=max_error_estimate,
        backend=policy.backend.value,
    )
    reducer.extend(
        stream if isinstance(stream, (list, tuple))
        else _rechunk(stream, policy.chunk_size)
    )
    return _wrap(plan, reducer.finalize(), backend=policy.backend.value)


def _wrap(plan: Plan, greedy_result: GreedyResult, backend: str) -> Result:
    return Result(
        segments=greedy_result.segments,
        error=greedy_result.error,
        size=greedy_result.size,
        input_size=greedy_result.input_size,
        method=plan.method.value,
        backend=backend,
        max_heap_size=greedy_result.max_heap_size,
        merges=greedy_result.merges,
        group_columns=plan.group_columns,
        value_columns=plan.value_columns,
        timestamp_name=_timestamp_name(plan),
    )


# ----------------------------------------------------------------------
# Source handling
# ----------------------------------------------------------------------
def _open_source(
    plan: Plan, policy: ExecutionPolicy, need_estimates: bool
) -> Tuple[Iterable[AggregateSegment], Optional[int], Optional[float]]:
    """Normalise the plan source into a segment stream plus gPTAε estimates.

    Relations are aggregated lazily with ITA; materialised sequences pass
    through as they are and use their exact size and ``SSE_max``; opaque
    generators keep ``None`` estimates, which is always correct but lets
    the online heap grow.
    """
    source = plan.source
    input_size_estimate = policy.input_size_estimate
    max_error_estimate = policy.max_error_estimate
    if isinstance(source, TemporalRelation):
        stream = _segment_stream(plan)
        if need_estimates:
            if input_size_estimate is None:
                input_size_estimate = max(2 * len(source) - 1, 1)
            if max_error_estimate is None:
                from ..core.pta import estimate_max_error

                max_error_estimate = estimate_max_error(
                    source,
                    plan.group_columns,
                    plan.aggregates,
                    weights=policy.weights,
                )
        return stream, input_size_estimate, max_error_estimate
    if _is_encoded(source):
        raise PlanError(
            "an EncodedSegments source requires the sharded engine; set "
            "ExecutionPolicy(workers=...)"
        )
    if not isinstance(source, (list, tuple)):
        return iter(source), input_size_estimate, max_error_estimate
    if need_estimates:
        # Materialised input: the exact values are cheap, use them.
        if input_size_estimate is None:
            input_size_estimate = max(len(source), 1)
        if max_error_estimate is None:
            max_error_estimate = exact_max_error(source, policy.weights)
    return source, input_size_estimate, max_error_estimate


def _is_encoded(source: Any) -> bool:
    from ..parallel import EncodedSegments

    return isinstance(source, EncodedSegments)


def _segment_stream(plan: Plan) -> Any:
    """The plan's source, a relation aggregated lazily with ITA."""
    source = plan.source
    if not isinstance(source, TemporalRelation):
        return source
    if not plan.aggregates:
        raise PlanError(
            "at least one aggregate function is required to evaluate ITA "
            "over a TemporalRelation; call Plan.aggregate(...)"
        )
    return iter_ita_segments(source, plan.group_columns, plan.aggregates)


def _timestamp_name(plan: Plan) -> str:
    source = plan.source
    if isinstance(source, TemporalRelation):
        return source.schema.timestamp_name
    return "T"


# ----------------------------------------------------------------------
# Chunked streaming
# ----------------------------------------------------------------------
def iter_chunks(source: Iterable[Any], chunk_size: int) -> Iterator[List[Any]]:
    """Split ``source`` into lists of at most ``chunk_size`` items.

    The building block of the streaming pipeline; exposed (also as
    :func:`repro.pipeline.iter_chunks`) for tests and for callers that want
    to drive the chunking themselves.
    """
    validate_chunk_size(chunk_size)
    chunk: List[Any] = []
    for item in source:
        chunk.append(item)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _rechunk(
    stream: Iterable[AggregateSegment], chunk_size: int
) -> Iterator[AggregateSegment]:
    """Pull segments from ``stream`` in chunks, re-yielding them one by one.

    Chunking decouples the producer (ITA, a file reader, a socket) from the
    consumer (the merge heap): the producer is driven ``chunk_size`` tuples
    at a time while the consumer still observes a flat, order-preserving
    stream, so results are bit-identical to the unchunked evaluation.
    """
    for chunk in iter_chunks(stream, chunk_size):
        yield from chunk


__all__ = ["execute", "iter_chunks"]
