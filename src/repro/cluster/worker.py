"""Remote reducer worker: a small server loop around ``reduce_shard``.

One worker process (or thread — the server is a plain
``ThreadingTCPServer``) listens for shard requests and answers each with
the shard's complete merge schedule:

1. ``KIND_REDUCE`` arrives: a JSON envelope carrying the squared error
   weights ``w2``, followed by the shard's segment columns as verbatim
   ``PTAS`` bytes;
2. the payload is decoded **zero-copy** —
   :func:`repro.service.wire.decode_segments` with ``copy=False`` builds
   ``frombuffer`` views straight over the frame buffer, so reduction
   starts without a per-column memcpy;
3. :func:`repro.parallel.reduce_shard` runs
   :func:`repro.core.kernels.greedy_merge_trajectory` — exactly the
   computation a ``workers=N`` reducer thread performs;
4. the schedule — boundaries, keys, heads and merged rows — returns as
   a ``PTAT`` version 3 payload (``KIND_TRAJECTORY``).

The worker is stateless between requests: shard placement, budgets and
reconciliation all live in the coordinator, which is what makes workers
interchangeable — any shard may run on any worker (or locally) without
changing a bit of the output.  Malformed payloads are answered with a
structured error frame (code ``bad_request``); requests whose envelope
deadline budget is already spent with ``deadline_exceeded`` (the worker
refuses work its caller has given up on); unexpected faults with code
``internal``.  The ``cluster.worker`` failpoint sits at the top of
shard handling so fault tests can kill or fail a worker at exactly one
deterministic request.

Run standalone with ``python -m repro.cluster.worker --port 9041``.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional, Tuple

from ..obs import tracing as _tracing
from ..obs.logs import get_logger
from ..service.wire import WireError, decode_segments
from ..storage.columns import ColumnCodecError
from ..util import failpoints
from ..util.deadline import Deadline, DeadlineExceeded, deadline_scope
from .transport import (
    KIND_PING,
    KIND_PONG,
    KIND_REDUCE,
    KIND_TRAJECTORY,
    FrameServer,
    TransportError,
    encode_trajectory,
    send_frame,
    unpack_envelope,
)

_log = get_logger("repro.cluster.worker")


def reduce_request(payload: bytes):
    """Decode one shard request and run the reduction (the worker body).

    Split out of the server plumbing so tests can drive it directly.
    Returns the shard's :data:`repro.parallel.ShardTrajectory`.
    """
    import numpy as np

    from ..parallel import reduce_shard

    failpoints.fail("cluster.worker")
    meta, body = unpack_envelope(payload, "shard request")
    w2_raw = meta.get("w2")
    if not isinstance(w2_raw, list) or not w2_raw:
        raise WireError("shard request envelope is missing the w2 weights")
    encoded = decode_segments(body, copy=False)
    w2 = np.asarray(w2_raw, dtype=np.float64)
    if w2.shape != (encoded.dimensions,) or not bool(
        np.isfinite(w2).all() & (w2 > 0).all()
    ):
        raise WireError(
            f"shard request carries {w2.shape} weights for "
            f"{encoded.dimensions}-dimensional values"
        )
    # Rebuild the coordinator's remaining budget on *this* machine's
    # monotonic clock (wall clocks disagree; relative budgets survive
    # the hop) and refuse work that is already past its deadline — the
    # caller has given up, so grinding on only wastes the cluster.
    deadline: Optional[Deadline] = None
    deadline_raw = meta.get("deadline")
    if deadline_raw is not None:
        if isinstance(deadline_raw, bool) or not isinstance(
            deadline_raw, (int, float)
        ):
            raise WireError(
                "shard request deadline must be the remaining budget in "
                f"seconds, got {deadline_raw!r}"
            )
        if deadline_raw <= 0:
            raise DeadlineExceeded(
                "shard request arrived with an exhausted deadline budget"
            )
        deadline = Deadline.after(float(deadline_raw))
    # Adopt the coordinator's trace id (if the envelope carries one) so
    # the worker's shard_reduce span lands in the caller's trace.
    trace_raw = meta.get("trace_id")
    with _tracing.attach(
        trace_raw if isinstance(trace_raw, str) else None
    ), deadline_scope(deadline):
        return reduce_shard(
            (encoded.starts, encoded.ends, encoded.values, encoded.groups, w2)
        )


class ReducerWorker(FrameServer):
    """A reducer worker bound to ``host:port`` (``port=0`` = ephemeral).

    ``worker.address`` is the ``"host:port"`` string a coordinator's
    ``cluster=[...]`` list takes.  ``shutdown()`` stops the serve loop
    (inherited); :func:`start_worker` runs one on a daemon thread.
    """

    error_codes = (
        ((DeadlineExceeded,), "deadline_exceeded"),
        ((WireError, ColumnCodecError, TransportError), "bad_request"),
    )

    def handle_frame(
        self, sock: socket.socket, kind: int, payload: bytes
    ) -> None:
        if kind == KIND_PING:
            send_frame(sock, KIND_PONG)
        elif kind == KIND_REDUCE:
            trajectory = reduce_request(payload)
            send_frame(sock, KIND_TRAJECTORY, encode_trajectory(trajectory))
        else:
            raise TransportError(f"unsupported frame kind {kind}")

    def log_internal(self, error: Exception) -> None:
        _log.exception(
            "shard request failed",
            code="internal",
            error=f"{type(error).__name__}: {error}",
        )


def start_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    read_timeout: Optional[float] = 30.0,
) -> Tuple[ReducerWorker, threading.Thread]:
    """Start a reducer worker on a daemon thread; returns (worker, thread)."""
    worker = ReducerWorker(host, port, read_timeout)
    return worker, worker.serve_in_thread("pta-cluster-worker")


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="PTA cluster reducer worker"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    arguments = parser.parse_args()
    worker = ReducerWorker(arguments.host, arguments.port)
    _log.info("reducer worker listening", address=worker.address)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = ["ReducerWorker", "reduce_request", "start_worker"]
