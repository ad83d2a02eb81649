"""Cluster coordinator: ship shards to remote reducers, merge centrally.

The distributed engine is the sharded engine of :mod:`repro.parallel`
with the process pool swapped for sockets — every determinism property
carries over because the *plan* and the *reconciliation* are byte-for-byte
the same code:

1. **Encode + shard** — :func:`repro.parallel.encode_segments` and
   :func:`repro.parallel.plan_shards`.  The shard plan depends only on
   the input and ``shard_size``, never on the cluster membership, so the
   same cuts are made whether the job runs on one worker, five, or none.
2. **Ship** — each shard travels as a ``KIND_REDUCE`` frame: a JSON
   envelope with the squared weights, then the shard columns as verbatim
   ``PTAS`` bytes (:func:`repro.service.wire.encode_segments` over an
   :class:`~repro.parallel.EncodedSegments` slice carrying the full
   interned group-key table, so the payload is self-contained).
3. **Reduce remotely** — a :class:`repro.cluster.worker.ReducerWorker`
   answers with the shard's complete merge schedule (``KIND_TRAJECTORY``).
   Shards are dispatched concurrently, one thread per cluster address.
4. **Survive faults** — a shard whose worker dies, times out, or answers
   garbage is retried across the remaining addresses with
   decorrelated-jitter exponential backoff
   (:func:`repro.cluster.transport.request_with_retries`); peers whose
   circuit breaker is open (:data:`repro.util.health.SHARED`) are
   skipped until a half-open probe readmits them; when every address
   fails, the shard runs **in-process** — the same fallback ladder as
   the pool engine's ``BrokenProcessPool`` handling.  Requests the
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

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..core.errors import Weights, resolve_weights
from ..core.greedy import GreedyResult
from ..core.kernels import require_finite
from ..core.merge import AggregateSegment
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..parallel import (
    DEFAULT_SHARD_SIZE,
    RETRY_BACKOFF_S,
    SHARD_RETRIES,
    EncodedSegments,
    ShardTrajectory,
    assemble_result,
    encode_segments,
    plan_shards,
    reduce_shard,
    shard_payloads,
    validate_budget,
)
from ..service import wire
from ..util import deadline as _deadline
from ..util.health import SHARED as SHARED_HEALTH
from .transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_READ_TIMEOUT,
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

__all__ = ["encode_shard_request", "reduce_cluster"]


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
    shard_retries: Optional[int] = None,
    retry_backoff: Optional[float] = None,
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
) -> GreedyResult:
    """Sharded greedy reduction over remote reducer workers.

    ``cluster`` is a non-empty sequence of ``"host:port"`` reducer
    addresses.  Exactly one of ``size`` / ``max_error`` must be given
    (same semantics as :func:`repro.parallel.run_sharded`); the result is
    bit-identical to the in-process and pool engines for every cluster
    size, worker placement, or mid-job worker death.  Each shard tries
    every address up to ``1 + shard_retries`` rounds before falling back
    to an in-process reduction of that shard.
    """
    validate_budget(size, max_error)
    addresses = list(cluster)
    if not addresses:
        raise ValueError("cluster must name at least one worker address")
    for address in addresses:
        parse_address(address)  # fail fast on malformed addresses
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
    if len(encoded) == 0:
        return GreedyResult()
    require_finite(encoded.values)

    w2 = (
        np.asarray(
            resolve_weights(weights, encoded.dimensions), dtype=np.float64
        )
        ** 2
    )
    shards = plan_shards(encoded, shard_size)

    # Capture the caller's trace id *before* the thread fan-out: plain
    # ThreadPoolExecutor threads do not inherit ContextVars, so each
    # dispatch re-enters the trace explicitly and the id also rides in
    # the shard envelope for the remote worker's spans.
    trace_id = _tracing.current_trace_id()
    deadline = _deadline.current_deadline()
    fallbacks = _metrics.counter(
        "repro_shard_fallbacks_total",
        "Shards reduced in-process after every cluster peer failed.",
        tier="cluster",
    )

    # Rotate each shard's starting address so concurrent shards spread
    # across the cluster instead of all hammering addresses[0]; the
    # rotation only changes *where* a schedule is computed, never what it
    # contains, so placement cannot perturb the output.
    def _reduce_remote(index: int, lo: int, hi: int) -> ShardTrajectory:
        if deadline is not None:
            deadline.check(f"dispatching shard {index}")
        payload = encode_shard_request(
            encoded,
            lo,
            hi,
            w2,
            trace_id,
            deadline.remaining() if deadline is not None else None,
        )
        rotated = [
            addresses[(index + step) % len(addresses)]
            for step in range(len(addresses))
        ]
        with _tracing.attach(trace_id), _deadline.attach(deadline):
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
            except RemoteError as error:
                if error.code in NON_RETRYABLE_CODES:
                    # bad_request: resending identical bytes cannot
                    # succeed.  deadline_exceeded: the budget is spent —
                    # a local fallback would blow it just the same.
                    raise
                fallbacks.inc()
                return _reduce_local(index)
            except TransportError:
                fallbacks.inc()
                return _reduce_local(index)
        return decode_trajectory(answer)

    local_lock = threading.Lock()
    local_payloads: List[Optional[tuple]] = [None]

    def _reduce_local(index: int) -> ShardTrajectory:
        with local_lock:  # materialise the payload list once, lazily
            if local_payloads[0] is None:
                local_payloads[0] = shard_payloads(encoded, shards, w2)
        return reduce_shard(local_payloads[0][index])

    trajectories: List[ShardTrajectory]
    if len(shards) == 1 or len(addresses) == 1:
        trajectories = [
            _reduce_remote(index, lo, hi)
            for index, (lo, hi) in enumerate(shards)
        ]
    else:
        width = min(len(addresses), len(shards))
        with ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="pta-cluster"
        ) as pool:
            trajectories = list(
                pool.map(
                    lambda task: _reduce_remote(task[0], *task[1]),
                    list(enumerate(shards)),
                )
            )

    return assemble_result(encoded, shards, trajectories, size, max_error)
