"""Lightweight request tracing: a trace id in a ``ContextVar`` + spans.

A *trace id* is a short opaque token identifying one logical request.
It is carried in :data:`_current` (a :class:`contextvars.ContextVar`,
so concurrent requests on the threaded HTTP server never observe each
other's id) and propagated across process boundaries two ways:

* the ``X-Repro-Trace`` HTTP header (:data:`TRACE_HEADER`) — the front
  end adopts a valid client-supplied id, mints one otherwise, and
  echoes it on every response;
* a ``trace_id`` field in the PTAF envelope meta — the cluster
  coordinator stamps it into every shard request and every replicated
  push frame, and :class:`~repro.cluster.worker.ReducerWorker` adopts
  it before reducing, so one id follows a request from the HTTP edge
  through the store, the WAL and out to the remote reducers (including
  across coordinator retries, which re-send the same envelope).

A *span* is one timed stage of that request (``wal_append``, ``fsync``,
``snapshot_delta``, ``shard_reduce``, ``frontier_merge``,
``replicate_ack``, ...).  Finishing a span feeds the
``repro_stage_seconds{stage=...}`` histogram and appends a
:class:`SpanRecord` to a bounded in-memory ring — enough to answer
"where did this slow push spend its time" from a live process (and for
the tests to assert end-to-end propagation) without a collector
dependency.  When observability is disarmed (:func:`metrics.enabled`
is ``False``), :func:`span` returns a shared no-op context manager:
the cost is one global read, no clock call, no allocation.

Plain threads do **not** inherit context variables, so code that fans
out to an executor runs each task in a :func:`contextvars.copy_context`
of the caller — see :func:`repro.parallel._reduce_shards_pooled`, the
shard dispatch of both sharded engines.  :func:`attach` adopts an id
that arrived in an envelope.
"""

from __future__ import annotations

import re
import threading
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter
from typing import ContextManager, Deque, Dict, Iterator, List, Optional

from . import metrics

__all__ = [
    "TRACE_HEADER",
    "SpanRecord",
    "attach",
    "clear_spans",
    "current_trace_id",
    "finished_spans",
    "new_trace_id",
    "record_span",
    "span",
    "trace",
    "valid_trace_id",
]

#: HTTP header carrying the trace id, both directions.
TRACE_HEADER = "X-Repro-Trace"

#: Accepted ids: short, URL/log-safe tokens.  Anything else from the
#: outside world (headers, envelopes) is ignored and a fresh id minted,
#: so untrusted bytes never reach the logs or the span ring verbatim.
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

_current: ContextVar[Optional[str]] = ContextVar(
    "repro_trace_id", default=None
)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: which request, which stage, how long."""

    trace_id: str
    stage: str
    seconds: float


#: Bounded ring of recently finished spans (newest last).
_SPAN_RING_SIZE = 2048
_spans: Deque[SpanRecord] = deque(maxlen=_SPAN_RING_SIZE)
_spans_lock = threading.Lock()

#: Per-stage histogram children, cached so finishing a span is one dict
#: lookup instead of a registry round trip.
_stage_histograms: Dict[str, metrics.Histogram] = {}
_stage_lock = threading.Lock()


def new_trace_id() -> str:
    """Mint a fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


def valid_trace_id(trace_id: object) -> bool:
    """Is this a well-formed trace id we accept from the outside?"""
    return isinstance(trace_id, str) and bool(_TRACE_ID_RE.match(trace_id))


def current_trace_id() -> Optional[str]:
    """The trace id of the current context, if any."""
    return _current.get()


@contextmanager
def trace(trace_id: Optional[str] = None) -> Iterator[str]:
    """Enter a trace context: adopt a valid supplied id or mint one.

    Yields the effective id (what the HTTP front end echoes back).
    """
    effective = (
        trace_id if trace_id is not None and valid_trace_id(trace_id)
        else new_trace_id()
    )
    token = _current.set(effective)
    try:
        yield effective
    finally:
        _current.reset(token)


@contextmanager
def attach(trace_id: Optional[str]) -> Iterator[None]:
    """Adopt an id that arrived in envelope meta; a ``None`` or
    malformed id leaves the context untouched."""
    if trace_id is None or not valid_trace_id(trace_id):
        yield
        return
    token = _current.set(trace_id)
    try:
        yield
    finally:
        _current.reset(token)


class _NoopSpan:
    """Shared do-nothing span for the disarmed path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("_t0", "stage")

    def __init__(self, stage: str) -> None:
        self.stage = stage
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        record_span(self.stage, perf_counter() - self._t0)


def span(stage: str) -> ContextManager[object]:
    """Time one stage of the current request.

    One global read when disarmed; when armed, the elapsed wall time is
    recorded into ``repro_stage_seconds{stage=...}`` and the span ring
    under the current trace id.
    """
    if not metrics.enabled():
        return _NOOP
    return _Span(stage)


def record_span(stage: str, seconds: float) -> None:
    """Record an already-measured stage duration (span exit path)."""
    trace_id = _current.get() or ""
    with _spans_lock:
        _spans.append(SpanRecord(trace_id, stage, seconds))
    histogram = _stage_histograms.get(stage)
    if histogram is None:
        with _stage_lock:
            histogram = _stage_histograms.get(stage)
            if histogram is None:
                histogram = metrics.REGISTRY.histogram(
                    "repro_stage_seconds",
                    "Wall time per pipeline stage, labeled by stage name.",
                    stage=stage,
                )
                _stage_histograms[stage] = histogram
    histogram.observe(seconds)


def finished_spans(
    trace_id: Optional[str] = None, stage: Optional[str] = None
) -> List[SpanRecord]:
    """Recently finished spans, oldest first, optionally filtered."""
    with _spans_lock:
        records = list(_spans)
    if trace_id is not None:
        records = [r for r in records if r.trace_id == trace_id]
    if stage is not None:
        records = [r for r in records if r.stage == stage]
    return records


def clear_spans() -> None:
    """Empty the span ring (test isolation)."""
    with _spans_lock:
        _spans.clear()
    with _stage_lock:
        _stage_histograms.clear()
