"""Cluster coordinator: ship shards to remote reducers, merge centrally.

The distributed engine is the sharded engine of :mod:`repro.parallel`
with each shard's reduction shipped over a socket — every determinism
property carries over because the *plan*, the *dispatch* and the
*reconciliation* are byte-for-byte the same code:

1. **Encode + shard** — :func:`repro.parallel.plan_job`, which
   :func:`repro.parallel.run_sharded` starts with too.  The shard plan
   depends only on the input and ``shard_size``, never on the cluster
   membership, so the same cuts are made whether the job runs on one
   worker, five, or none.
2. **Ship** — each shard travels as a ``KIND_REDUCE`` frame: a JSON
   envelope with the squared weights, then the shard columns as verbatim
   ``PTAS`` bytes (:func:`repro.service.wire.encode_segments` over an
   :class:`~repro.parallel.EncodedSegments` slice carrying the full
   interned group-key table, so the payload is self-contained).
3. **Reduce remotely** — a :class:`repro.cluster.worker.ReducerWorker`
   answers with the shard's complete merge schedule (``KIND_TRAJECTORY``).
   Shards are dispatched concurrently, one thread per cluster address,
   by :func:`repro.parallel._reduce_shards_pooled`, the dispatch
   ``workers=N`` uses too.
4. **Survive faults** — a shard whose worker dies, times out, or sends
   a torn frame is retried across the remaining addresses with
   decorrelated-jitter exponential backoff
   (:func:`repro.cluster.transport.request_with_retries`); peers whose
   circuit breaker is open (:data:`repro.util.health.SHARED`) are
   skipped until a half-open probe readmits them; when every address
   fails, the shard runs **in-process**, on the same
   :func:`repro.parallel.reduce_shard` as ``workers=N``.  An answer that
   arrives intact but does not fit its shard — an undecodable or
   other-version ``PTAT`` payload, a boundary or head index outside the
   shard, rows of the wrong width — is a transport fault too: that
   shard runs in-process (:func:`check_trajectory`).  An answer carries
   no ``SSE_max``: the error budget is :func:`repro.parallel.plan_job`'s,
   from the input, so no worker can move it.  Requests the
   workers themselves reject as malformed (``bad_request``) or as
   arriving past their end-to-end deadline (``deadline_exceeded``) are
   not retried: resending identical bytes cannot succeed.  When the
   caller runs under a :func:`repro.util.deadline.deadline_scope`, the
   remaining budget rides in each shard envelope and bounds every
   connect, read and backoff sleep.
5. **Reconcile + rebuild** — :func:`repro.parallel.assemble_result`
   consumes trajectories by shard index, never completion order, so the
   output is bit-identical to ``workers=1`` / ``workers=N`` no matter
   which worker computed which shard, in what order, or how many died.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import Weights
from ..core.greedy import GreedyResult
from ..core.merge import AggregateSegment
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..parallel import (
    EncodedSegments,
    ShardTrajectory,
    _reduce_shards_pooled,
    assemble_result,
    plan_job,
    reduce_shard,
    shard_payloads,
)
from ..service import wire
from ..util import deadline as _deadline
from ..util.health import SHARED as SHARED_HEALTH
from .transport import (
    DEFAULT_BACKOFF_S,
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_READ_TIMEOUT,
    DEFAULT_RETRIES,
    KIND_REDUCE,
    KIND_TRAJECTORY,
    NON_RETRYABLE_CODES,
    RemoteError,
    TransportError,
    decode_trajectory,
    pack_envelope,
    parse_address,
    request_with_retries,
)

__all__ = ["check_trajectory", "encode_shard_request", "reduce_cluster"]


def check_trajectory(
    trajectory: ShardTrajectory, count: int, dimensions: int
) -> ShardTrajectory:
    """Refuse a decoded worker answer that does not fit its shard.

    Raises :class:`TransportError` unless every boundary lies in
    ``[1, count)``, every head in ``[0, count)`` and the rows are
    ``dimensions`` wide, so garbage from a remote worker can neither
    raise ``IndexError`` in the rebuild nor wrap around as a negative
    index.
    """
    boundaries, _, heads, rows = trajectory
    if len(boundaries) and (
        boundaries.min() < 1 or boundaries.max() >= count
        or heads.min() < 0 or heads.max() >= count
    ):
        raise TransportError(
            f"trajectory indices fall outside the {count}-tuple shard"
        )
    if rows.shape[1] != dimensions:
        raise TransportError(
            f"trajectory rows are {rows.shape[1]} wide, the shard's "
            f"values {dimensions}"
        )
    return trajectory


def encode_shard_request(
    encoded: EncodedSegments,
    lo: int,
    hi: int,
    w2: np.ndarray,
    trace_id: Optional[str] = None,
    deadline_budget: Optional[float] = None,
) -> bytes:
    """One shard as a self-contained ``KIND_REDUCE`` payload.

    The body is the shard's column slice as verbatim ``PTAS`` bytes; the
    full interned group-key table rides along so the slice's global group
    ids resolve on the worker.  The weights travel in the JSON envelope —
    floats survive a JSON roundtrip bit-exactly (``repr`` semantics), so
    remote and local reductions use identical ``w2``.  When the caller
    runs under a trace, the ``trace_id`` rides in the envelope meta so
    the worker's ``shard_reduce`` span joins the coordinator's trace;
    ``deadline_budget`` (the request's *remaining* seconds at send time)
    rides next to it so the worker can refuse work that would finish
    after the caller has given up.
    """
    body = wire.encode_segments(encoded[lo:hi])
    meta: dict = {"w2": w2.tolist(), "shard": [lo, hi]}
    if trace_id is not None:
        meta["trace_id"] = trace_id
    if deadline_budget is not None:
        meta["deadline"] = deadline_budget
    return pack_envelope(meta, body)


def reduce_cluster(
    segments: Iterable[AggregateSegment],
    size: Optional[int] = None,
    max_error: Optional[float] = None,
    weights: Optional[Weights] = None,
    cluster: Sequence[str] = (),
    shard_size: Optional[int] = None,
    shard_retries: int = DEFAULT_RETRIES,
    retry_backoff: float = DEFAULT_BACKOFF_S,
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
) -> GreedyResult:
    """Sharded greedy reduction over remote reducer workers.

    ``cluster`` is a non-empty sequence of ``"host:port"`` reducer
    addresses.  Exactly one of ``size`` / ``max_error`` must be given
    (same semantics as :func:`repro.parallel.run_sharded`); the result is
    bit-identical to the in-process engine for every cluster size,
    worker placement, or mid-job worker death.  Each shard tries every
    address up to ``1 + shard_retries`` rounds, ``retry_backoff`` seconds
    apart at first (exponential, decorrelated jitter), before falling
    back to an in-process reduction of that shard.
    """
    addresses = list(cluster)
    if not addresses:
        raise ValueError("cluster must name at least one worker address")
    for address in addresses:
        parse_address(address)  # fail fast on malformed addresses
    for name, value in (
        ("shard_retries", shard_retries), ("retry_backoff", retry_backoff)
    ):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    job = plan_job(segments, size, max_error, weights, shard_size)
    if job is None:
        return GreedyResult()
    encoded, shards, w2, budget = job
    payloads = shard_payloads(encoded, shards, w2)
    fallbacks = _metrics.counter(
        "repro_shard_fallbacks_total",
        "Shards reduced in-process after every cluster peer failed.",
        tier="cluster",
    )

    # Rotate each shard's starting address so concurrent shards spread
    # across the cluster instead of all hammering addresses[0]; the
    # rotation only changes *where* a schedule is computed, never what it
    # contains, so placement cannot perturb the output.  The dispatch runs
    # each task in a copy of the caller's context, so the trace id and
    # the deadline read here are the caller's.
    def _reduce_remote(task: Tuple[int, Tuple[int, int]]) -> ShardTrajectory:
        index, (lo, hi) = task
        deadline = _deadline.current_deadline()
        if deadline is not None:
            deadline.check(f"dispatching shard {index}")
        payload = encode_shard_request(
            encoded,
            lo,
            hi,
            w2,
            _tracing.current_trace_id(),
            deadline.remaining() if deadline is not None else None,
        )
        rotated = [
            addresses[(index + step) % len(addresses)]
            for step in range(len(addresses))
        ]
        try:
            answer = request_with_retries(
                rotated,
                KIND_REDUCE,
                payload,
                expect=KIND_TRAJECTORY,
                retries=shard_retries,
                backoff=retry_backoff,
                connect_timeout=connect_timeout,
                read_timeout=read_timeout,
                deadline=deadline,
                health=SHARED_HEALTH,
            )
            return check_trajectory(
                decode_trajectory(answer), hi - lo, encoded.dimensions
            )
        except RemoteError as error:
            if error.code in NON_RETRYABLE_CODES:
                # bad_request: resending identical bytes cannot
                # succeed.  deadline_exceeded: the budget is spent —
                # a local fallback would blow it just the same.
                raise
        except TransportError:
            pass
        fallbacks.inc()
        return reduce_shard(payloads[index])

    trajectories = _reduce_shards_pooled(
        _reduce_remote, list(enumerate(shards)), len(addresses)
    )
    return assemble_result(encoded, shards, trajectories, size, budget)
