"""The parsimonious temporal aggregation operator (user-facing facade).

.. note::
   The canonical, typed surface of the engine is :mod:`repro.api`
   (``Plan`` / ``execute`` / ``Compressor``).  :func:`pta` is kept as the
   historical operator-style door and is a thin shim that builds a
   :class:`repro.api.Plan` and hands it to :func:`repro.api.execute`, so
   validation behaves identically across every entry point.

``G PTA[A, F, c] r`` and ``G PTA[A, F, ε] r`` from the paper are exposed as
:func:`pta` (plus the explicit variants :func:`pta_size_bounded`,
:func:`pta_error_bounded`, :func:`gpta_size_bounded` and
:func:`gpta_error_bounded`, which call the engines directly and serve as
the pre-refactor reference in the parity tests).  Conceptually the operator

1. evaluates instant temporal aggregation over the argument relation, and
2. reduces the ITA result by merging adjacent tuples until the size or error
   bound is met, either optimally (dynamic programming, Section 5) or
   greedily and online (Section 6).

The facade returns plain :class:`~repro.temporal.TemporalRelation` objects;
callers that need algorithm statistics (error introduced, heap sizes, DP
work counters) use :mod:`repro.api` (whose ``Result`` carries them) or
:mod:`repro.core.dp` and :mod:`repro.core.greedy` directly, which is what
the benchmark harness does.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from ..aggregation import ita, iter_ita_segments, normalize_aggregates
from ..aggregation.functions import AggregatesLike
from ..temporal import TemporalRelation
from . import dp, greedy
from .errors import Weights, max_error
from .merge import (
    AggregateSegment,
    segments_from_relation,
    segments_to_relation,
)


def pta(
    relation: TemporalRelation,
    group_by: Sequence[str] = (),
    aggregates: AggregatesLike = (),
    size: int | None = None,
    error: float | None = None,
    method: str = "dp",
    delta: greedy.Delta = 1,
    weights: Weights | None = None,
    backend: str = "python",
    workers: int | None = None,
    max_error: float | None = None,
) -> TemporalRelation:
    """Evaluate a PTA query over ``relation``.

    Exactly one of ``size`` (the bound ``c``) and ``error`` (the bound ``ε``
    in ``[0, 1]``) must be given; ``max_error`` is accepted as an alias of
    ``error`` — the canonical spelling used by :mod:`repro.api` and
    :func:`repro.compress`.  ``method`` selects the evaluation strategy:
    ``"dp"`` for the exact dynamic-programming algorithms and ``"greedy"``
    for the online greedy algorithms; ``delta`` is the greedy read-ahead
    parameter ``δ``.  ``backend`` selects the pure-Python reference kernels
    or the vectorized NumPy kernels (:mod:`repro.core.kernels`); both yield
    identical results.  ``workers`` (greedy method only) routes the
    reduction through the sharded engine of
    :mod:`repro.parallel`, which computes plain GMS (``δ = ∞`` semantics)
    bit-identically for every worker count.

    This is a shim over :func:`repro.api.execute`; the equivalent plan is
    ``Plan(relation).group_by(*A).aggregate(F).reduce(budget, method)``.

    Returns a temporal relation with schema ``(A..., B..., T)``.
    """
    from ..api import ExecutionPolicy, Plan, execute, resolve_error_alias

    epsilon = resolve_error_alias(error, max_error)
    plan = Plan(relation)
    if group_by:
        plan = plan.group_by(*group_by)
    if aggregates:
        plan = plan.aggregate(aggregates)
    plan = plan.reduce(size=size, max_error=epsilon, method=method)
    policy = ExecutionPolicy(
        backend=backend, workers=workers, delta=delta, weights=weights
    )
    return execute(plan, policy).to_relation()


def pta_size_bounded(
    relation: TemporalRelation,
    group_by: Sequence[str],
    aggregates: AggregatesLike,
    size: int,
    weights: Weights | None = None,
    backend: str = "python",
) -> TemporalRelation:
    """Exact size-bounded PTA (Definition 6, algorithm ``PTAc``)."""
    segments, group_columns, value_columns = _ita_segments(
        relation, group_by, aggregates
    )
    result = dp.reduce_to_size(segments, size, weights, backend=backend)
    return segments_to_relation(
        result.segments, group_columns, value_columns,
        relation.schema.timestamp_name,
    )


def pta_error_bounded(
    relation: TemporalRelation,
    group_by: Sequence[str],
    aggregates: AggregatesLike,
    error: float,
    weights: Weights | None = None,
    backend: str = "python",
) -> TemporalRelation:
    """Exact error-bounded PTA (Definition 7, algorithm ``PTAε``)."""
    segments, group_columns, value_columns = _ita_segments(
        relation, group_by, aggregates
    )
    result = dp.reduce_to_error(segments, error, weights, backend=backend)
    return segments_to_relation(
        result.segments, group_columns, value_columns,
        relation.schema.timestamp_name,
    )


def gpta_size_bounded(
    relation: TemporalRelation,
    group_by: Sequence[str],
    aggregates: AggregatesLike,
    size: int,
    delta: greedy.Delta = 1,
    weights: Weights | None = None,
    backend: str = "python",
    workers: int | None = None,
) -> TemporalRelation:
    """Greedy online size-bounded PTA (algorithm ``gPTAc``).

    The ITA result is streamed into the merge heap, so the full ITA relation
    is never materialised.  With ``workers`` set the reduction runs on the
    sharded engine instead (which materialises the ITA result as flat
    arrays and ignores ``delta``/``backend``).
    """
    group_columns, value_columns = _result_columns(group_by, aggregates)
    stream = _segment_stream(relation, group_by, aggregates)
    if workers is not None:
        from ..parallel import reduce_segments_parallel

        result = reduce_segments_parallel(stream, size=size, weights=weights,
                                          workers=workers)
    else:
        result = greedy.greedy_reduce_to_size(
            stream, size, delta, weights, backend=backend
        )
    return segments_to_relation(
        result.segments, group_columns, value_columns,
        relation.schema.timestamp_name,
    )


def gpta_error_bounded(
    relation: TemporalRelation,
    group_by: Sequence[str],
    aggregates: AggregatesLike,
    error: float,
    delta: greedy.Delta = 1,
    weights: Weights | None = None,
    sample_fraction: float = 0.05,
    seed: int = 0,
    backend: str = "python",
    workers: int | None = None,
) -> TemporalRelation:
    """Greedy online error-bounded PTA (algorithm ``gPTAε``).

    The ITA result size is estimated as ``2·|r| − 1`` and ``SSE_max`` is
    estimated from a sample of the argument relation
    (:func:`estimate_max_error`); both estimates only influence how early
    merging may start, not the error guarantee of the final result.  With
    ``workers`` set the reduction runs on the sharded engine, which knows
    the exact ``SSE_max`` and needs no estimates.
    """
    group_columns, value_columns = _result_columns(group_by, aggregates)
    stream = _segment_stream(relation, group_by, aggregates)
    if workers is not None:
        from ..parallel import reduce_segments_parallel

        result = reduce_segments_parallel(
            stream, max_error=error, weights=weights, workers=workers
        )
        return segments_to_relation(
            result.segments, group_columns, value_columns,
            relation.schema.timestamp_name,
        )
    size_estimate = max(2 * len(relation) - 1, 1)
    error_estimate = estimate_max_error(
        relation, group_by, aggregates, sample_fraction, weights, seed
    )
    result = greedy.greedy_reduce_to_error(
        stream,
        error,
        delta,
        weights,
        input_size_estimate=size_estimate,
        max_error_estimate=error_estimate,
        backend=backend,
    )
    return segments_to_relation(
        result.segments, group_columns, value_columns,
        relation.schema.timestamp_name,
    )


def reduce_ita(
    ita_result: TemporalRelation,
    group_by: Sequence[str],
    value_columns: Sequence[str],
    size: int | None = None,
    error: float | None = None,
    method: str = "dp",
    delta: greedy.Delta = 1,
    weights: Weights | None = None,
    backend: str = "python",
) -> TemporalRelation:
    """Reduce an already computed ITA result (or any sequential relation).

    Useful when the ITA relation comes from elsewhere — e.g. a time series
    converted to unit-interval tuples, as the paper does for the UCR data.
    """
    if (size is None) == (error is None):
        raise ValueError("provide exactly one of 'size' and 'error'")
    segments = segments_from_relation(ita_result, group_by, value_columns)
    if method == "dp":
        if size is not None:
            result = dp.reduce_to_size(segments, size, weights, backend=backend)
        else:
            result = dp.reduce_to_error(
                segments, error, weights, backend=backend
            )
        reduced = result.segments
    elif method == "greedy":
        if size is not None:
            reduced = greedy.greedy_reduce_to_size(
                iter(segments), size, delta, weights, backend=backend
            ).segments
        else:
            reduced = greedy.greedy_reduce_to_error(
                iter(segments),
                error,
                delta,
                weights,
                input_size_estimate=len(segments),
                max_error_estimate=max_error(segments, weights),
                backend=backend,
            ).segments
    else:
        raise ValueError(f"method must be 'dp' or 'greedy', got {method!r}")
    return segments_to_relation(
        reduced, group_by, value_columns, ita_result.schema.timestamp_name
    )


def estimate_max_error(
    relation: TemporalRelation,
    group_by: Sequence[str],
    aggregates: AggregatesLike,
    sample_fraction: float = 0.05,
    weights: Weights | None = None,
    seed: int = 0,
) -> float:
    """Estimate ``SSE_max`` of the ITA result from a sample of ``relation``.

    A uniform sample of the argument tuples is aggregated with ITA and its
    maximal reduction error is scaled by the inverse sampling fraction.  The
    paper notes (Section 6.3) that underestimating ``SSE_max`` only causes
    the greedy heap to grow, while overestimating may change the result with
    respect to plain GMS; the estimate is therefore deliberately simple.
    """
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(
            f"sample_fraction must be in (0, 1], got {sample_fraction}"
        )
    rows = relation.rows()
    sample_size = max(int(len(rows) * sample_fraction), 1)
    rng = random.Random(seed)
    chosen = rows if sample_size >= len(rows) else rng.sample(rows, sample_size)
    sample = TemporalRelation(relation.schema, chosen)
    segments, _, _ = _ita_segments(sample, group_by, aggregates)
    if not segments:
        return 0.0
    return max_error(segments, weights) / sample_fraction


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _result_columns(
    group_by: Sequence[str], aggregates: AggregatesLike
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    specs = normalize_aggregates(aggregates)
    return tuple(group_by), tuple(spec.output for spec in specs)


def _ita_segments(
    relation: TemporalRelation,
    group_by: Sequence[str],
    aggregates: AggregatesLike,
):
    group_columns, value_columns = _result_columns(group_by, aggregates)
    ita_result = ita(relation, group_by, aggregates)
    segments = segments_from_relation(ita_result, group_columns, value_columns)
    return segments, group_columns, value_columns


def _segment_stream(
    relation: TemporalRelation,
    group_by: Sequence[str],
    aggregates: AggregatesLike,
) -> Iterator[AggregateSegment]:
    return iter_ita_segments(relation, group_by, aggregates)
