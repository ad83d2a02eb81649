"""In-process ``Service`` facade and the stdlib HTTP front end.

:class:`Service` bundles the write path (:class:`SessionStore`) and the
read path (:class:`QueryEngine`) into one object embeddable in any Python
process; :func:`serve` / :func:`start_in_background` put a JSON-over-HTTP
surface in front of it using only the standard library.  The protocol is
HTTP/1.0 with one request per connection: each accepted connection goes to
an idle handler thread (a new one starts only when none is idle), which
reads the request line and the headers the service uses, answers with
one write and closes; the store's internal lock serialises mutations.

Endpoints::

    POST /push/<key>      body: one segment object, a JSON array of them,
                          or JSON lines; with Content-Type
                          application/x-pta-wire, the binary wire format
                          of repro.service.wire.  -> {pushed, generation}
    GET  /value_at?key=K&t=T[&group=G]            -> {t, values|null}
    GET  /range_agg?key=K&t1=A&t2=B[&fn=avg][&group=G]
                                                  -> {t1, t2, fn, values|null}
    GET  /window?key=K&t1=A&t2=B&stride=S[&fn=avg][&group=G]
                                                  -> {buckets: [...]}
    GET  /summary?key=K   JSON summary + stats; with Accept:
                          application/x-pta-wire, the binary Result payload
    GET  /stats           store-wide counters (incl. replication fields
                          and the query engine's cache/cost counters)
    GET  /metrics         Prometheus text exposition of the process-wide
                          metrics registry (repro.obs)
    GET  /role            {role, replicas, replication_lag,
                           last_acked_generation}
    GET  /healthz         liveness probe (503 when degraded or when the
                          replication lag exceeds max_replication_lag);
                          reports per-sink replication lag when any
                          replication sinks are registered

Every request runs under a trace id (:mod:`repro.obs.tracing`): a valid
``X-Repro-Trace`` request header is adopted, otherwise an id is minted,
and either way the response carries the effective id in the same header
— so a client can correlate its slow push with the server's spans and
structured log lines.  Per-endpoint latency histograms, per-error-code
counters and an in-flight gauge feed the registry ``/metrics`` renders.

Requests may also carry an end-to-end deadline: a positive
``X-Repro-Deadline`` header (remaining budget in seconds — relative,
because wall clocks across machines disagree) installs a
:mod:`repro.util.deadline` scope around the route, which the store's
replication quorum wait and the cluster coordinator's fan-out honour;
an expired deadline answers 400 ``deadline_exceeded``.

A segment object is ``{"group": [...], "values": [...], "start": int,
"end": int}`` (``group`` may be omitted for ungrouped streams); ``group=``
query parameters take the same JSON array form.

**Errors are always structured JSON** — ``{"error": message, "code":
slug}`` — and the front end is hardened against abuse and faults
(``docs/ARCHITECTURE.md`` § Operating under failure):

========  =========================  ==========================================
status    code                       meaning
========  =========================  ==========================================
400       ``bad_request``            invalid request line, header line, body,
                                     query or ``X-Repro-Deadline``, or an
                                     unknown key
400       ``deadline_exceeded``      the per-request socket deadline expired
404       ``not_found``              unknown route
413       ``payload_too_large``      ``Content-Length`` above ``max_body``
414       ``uri_too_long``           a request line above 65536 bytes
429       ``backpressure``           too many in-flight pushes (``Retry-After``)
431       ``headers_too_large``      a header line above 65536 bytes, or more
                                     than 100 header lines
500       ``internal``               unexpected handler exception (logged)
501       ``not_implemented``        a method other than GET and POST
503       ``durability``             durable push failed (safe to retry), or
                                     a demoted checkpoint cannot be served
503       ``degraded``               ``/healthz`` while the store is degraded
                                     or the replication lag exceeds the
                                     configured threshold
503       ``not_primary``            ``POST /push`` on a standby replica
503       ``replication_quorum``     a push could not reach its
                                     ``sync_replicas`` quorum; fully rolled
                                     back, safe to retry
505       ``version_not_supported``  HTTP/2.0 or later in the request line
========  =========================  ==========================================
"""

from __future__ import annotations

import contextvars
import json
import math
import queue
import socketserver
import threading
from email.utils import formatdate
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter, time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..core.kernels import EncodedSegments
from ..core.merge import AggregateSegment
from ..api.result import Result
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..obs.logs import get_logger
from ..util.deadline import DEADLINE_HEADER, DeadlineExceeded, deadline_scope
from .durability import DurabilityError
from .query import QueryEngine, WindowBucket
from .store import (
    Key,
    ReplicationError,
    ServiceError,
    SessionStore,
    StoreStats,
)
from .wire import (
    WireError,
    decode_segments,
    encode_result,
    segment_to_obj,
    segments_from_jsonl,
    segments_from_objs,
)

#: Content type of binary wire payloads on the HTTP surface.
WIRE_CONTENT_TYPE = "application/x-pta-wire"

#: Largest accepted request body in bytes (413 above this).
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Concurrent in-flight pushes before the server answers 429.
DEFAULT_MAX_IN_FLIGHT = 64

#: Per-request socket deadline in seconds (slow clients get 400).
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Content type of the Prometheus text exposition served by /metrics.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: How often a serving loop checks for ``shutdown()``, in seconds: each
#: ``shutdown()`` waits up to this long (socketserver's default is
#: 0.5 s).  The cluster's standby and worker servers use it too.
SERVE_POLL_INTERVAL = 0.05

#: Idle handler threads a server keeps for the next connections.  A
#: burst of more concurrent connections starts more threads; those past
#: this many exit after their request instead of waiting idle.  The bound
#: is there for memory: each living thread keeps the malloc arena it
#: allocated from, which measured up to about 1 MB resident per thread.
MAX_IDLE_WORKERS = 8

#: The standard library's limits on a request line or header line (in
#: bytes) and on the number of header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_SERVER_HEADER = (
    f"Server: {BaseHTTPRequestHandler.server_version} "
    f"{BaseHTTPRequestHandler.sys_version}"
)

#: Known GET routes, as the bounded `endpoint` label vocabulary of the
#: per-endpoint request histogram (unknown paths collapse to "other").
_GET_ENDPOINTS = frozenset(
    {
        "/healthz",
        "/metrics",
        "/range_agg",
        "/role",
        "/stats",
        "/summary",
        "/value_at",
        "/window",
    }
)

_log = get_logger("repro.service.http")


class Service:
    """The serving layer as one embeddable object: store + query engine.

    Either wrap an existing configured store
    (``Service(store=my_store)``) or pass :class:`SessionStore` keywords,
    which are forwarded to it; a keyword given as ``None`` keeps the
    store's default.

    ``max_replication_lag`` is a *serving* knob (allowed alongside a
    prebuilt store): when set, ``/healthz`` answers 503 ``degraded`` as
    soon as the slowest connected replica trails the primary by more
    than that many replicated events — the load balancer's cue to stop
    counting on the standby before a failover would lose pushes.
    """

    def __init__(
        self,
        store: Optional[SessionStore] = None,
        *,
        max_replication_lag: Optional[int] = None,
        **store_options: Any,
    ) -> None:
        if max_replication_lag is not None and max_replication_lag < 0:
            raise ServiceError(
                f"max_replication_lag must be non-negative, got "
                f"{max_replication_lag}"
            )
        self.max_replication_lag = max_replication_lag
        # A keyword left at None takes SessionStore's own default.
        options = {
            name: value
            for name, value in store_options.items()
            if value is not None
        }
        if store is not None:
            if options:
                raise ServiceError(
                    "pass either a prebuilt store or store-construction "
                    "keywords, not both"
                )
            self.store = store
        else:
            self.store = SessionStore(**options)
        self.engine = QueryEngine(self.store)

    def close(self) -> None:
        """Flush and close the store's durability tier (no-op if absent)."""
        self.store.close()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def push(
        self,
        key: Key,
        segments: Union[AggregateSegment, Sequence[AggregateSegment]],
    ) -> Dict[str, int]:
        """Feed segments; returns ``{"pushed": n, "generation": g}``."""
        pushed = self.store.push(key, segments)
        return {"pushed": pushed, "generation": self.store.generation(key)}

    # ------------------------------------------------------------------
    # Read path (delegates to the query engine)
    # ------------------------------------------------------------------
    def value_at(
        self, key: Key, t: int, group: Optional[Sequence[Any]] = None
    ) -> Optional[Tuple[float, ...]]:
        return self.engine.value_at(key, t, group)

    def range_agg(
        self,
        key: Key,
        t1: int,
        t2: int,
        fn: str = "avg",
        group: Optional[Sequence[Any]] = None,
    ) -> Optional[Tuple[float, ...]]:
        return self.engine.range_agg(key, t1, t2, fn, group)

    def window(
        self,
        key: Key,
        t1: int,
        t2: int,
        stride: int,
        fn: str = "avg",
        group: Optional[Sequence[Any]] = None,
    ) -> List[WindowBucket]:
        return self.engine.window(key, t1, t2, stride, fn, group)

    def summary(self, key: Key) -> Result:
        """The combined (frozen + live) summary snapshot for ``key``."""
        return self.store.snapshot(key)

    def stats(self) -> StoreStats:
        return self.store.stats()


# ----------------------------------------------------------------------
# HTTP front end
# ----------------------------------------------------------------------
class ServiceHTTPServer(ThreadingHTTPServer):
    """An HTTP server bound to one :class:`Service` instance.

    Each accepted connection is handed to an idle handler thread, which
    answers it with ``ThreadingMixIn.process_request_thread``; a new
    thread starts only when none is idle, so a slow client pins only
    its own thread.  Handler threads are daemons, at most
    :data:`MAX_IDLE_WORKERS` of them wait idle, and ``server_close()``
    releases those.

    The front-end protection knobs live here: ``max_body`` bounds the
    accepted ``Content-Length`` (413 above it), ``max_in_flight`` bounds
    concurrent pushes (429 + ``Retry-After`` beyond it — queries are
    never shed), and ``request_timeout`` is the per-request socket
    deadline in seconds (``None`` disables it; slow clients get 400
    ``deadline_exceeded``).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        service: Service,
        quiet: bool = True,
        max_body: int = DEFAULT_MAX_BODY,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if max_body < 1:
            raise ServiceError(
                f"max_body must be at least 1 byte, got {max_body}"
            )
        if max_in_flight < 1:
            raise ServiceError(
                f"max_in_flight must be at least 1, got {max_in_flight}"
            )
        if request_timeout is not None and request_timeout <= 0:
            raise ServiceError(
                f"request_timeout must be positive, got {request_timeout}"
            )
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = quiet
        self.max_body = max_body
        self.request_timeout = request_timeout
        self.push_slots = threading.BoundedSemaphore(max_in_flight)
        # The inboxes of idle handler threads, the most recently idle
        # last; a thread waits on its inbox for a connection or None.
        self._idle: List["queue.SimpleQueue[Optional[Tuple[Any, Any]]]"] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        # Per handler thread: its inbox, and whether it was offered for
        # the next connection yet (None until then) and kept.
        self._worker = threading.local()

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral ``port=0``)."""
        return int(self.server_address[1])

    def process_request(self, request: Any, client_address: Any) -> None:
        """Hand the connection to an idle handler thread, or a new one."""
        with self._pool_lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(
                target=self._work,
                args=(inbox,),
                name=f"pta-service-http-{self.port}-worker",
                daemon=True,
            ).start()
        inbox.put((request, client_address))

    def _work(
        self, inbox: "queue.SimpleQueue[Optional[Tuple[Any, Any]]]"
    ) -> None:
        self._worker.inbox = inbox
        while True:
            job = inbox.get()
            if job is None:
                return
            self._worker.kept = None
            # Looked up per call: a profiler may wrap the attribute.  An
            # empty context per request, as a thread of its own had.
            contextvars.Context().run(self.process_request_thread, *job)
            if not self._release_worker():
                return

    def _release_worker(self) -> bool:
        """Offer the calling handler thread for the next connection.

        The handler calls this as soon as its response is written: the
        client may connect again before this thread has closed the old
        socket, and a connection handed over meanwhile waits those few
        microseconds in the inbox instead of starting another thread.
        Once per request; returns whether the thread stays (not past
        :data:`MAX_IDLE_WORKERS` idle ones, nor after ``server_close``).
        """
        worker = self._worker
        kept: Optional[bool] = getattr(worker, "kept", True)
        if kept is not None:
            return kept
        with self._pool_lock:
            kept = not self._closed and len(self._idle) < MAX_IDLE_WORKERS
            if kept:
                self._idle.append(worker.inbox)
        worker.kept = kept
        return kept

    def server_close(self) -> None:
        super().server_close()
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)


class _Headers:
    """A request's header fields by lower-cased name.  The first
    occurrence of a name wins, as ``email.message.Message.get`` does."""

    __slots__ = ("_fields",)

    def __init__(self) -> None:
        self._fields: Dict[str, str] = {}

    def add(self, name: str, value: str) -> None:
        self._fields.setdefault(name.lower(), value)

    def get(self, name: str) -> Optional[str]:
        return self._fields.get(name.lower())


class _Handler(socketserver.StreamRequestHandler):
    """One HTTP/1.0 request per connection: parse, route, answer once."""

    server: ServiceHTTPServer  # narrowed for the route handlers
    # Set by parse_request; the defaults serve errors raised before it.
    requestline = ""
    command = ""
    path = ""
    url_path = ""
    url_query = ""
    headers = _Headers()

    def setup(self) -> None:
        # StreamRequestHandler applies self.timeout as the socket
        # deadline — every blocking read/write on this request is
        # bounded, so one slow client cannot pin a handler thread.
        self.timeout = self.server.request_timeout
        super().setup()

    def handle(self) -> None:
        try:
            parsed = self.parse_request()
        except TimeoutError:
            # Too slow to send its request line and headers.
            try:
                self._send_error(
                    400, "request deadline exceeded", "deadline_exceeded"
                )
            except OSError:
                pass
            return
        if not parsed:
            return
        if self.command == "GET":
            self.do_GET()
        elif self.command == "POST":
            self.do_POST()
        else:
            self._send_error(
                501, f"unsupported method {self.command!r}", "not_implemented"
            )
        # The response is out: this thread can take the next connection.
        self.server._release_worker()

    def parse_request(self) -> bool:
        """Read the request line and the header lines.

        The request-line checks are the standard library's, except that
        the two-word HTTP/0.9 form is refused.  Header lines obey its
        limits; a line without a colon and an obs-fold continuation line
        are refused.  Every refusal is answered here (structured, and
        counted like any error) and returns False; so does a client that
        closes before sending anything, which gets no answer.
        """
        raw = self.rfile.readline(_MAX_LINE + 1)
        if not raw:
            return False
        if len(raw) > _MAX_LINE:
            return self._refuse(414, "request line too long", "uri_too_long")
        self.requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if len(words) >= 3:
            version = _version_number(words[-1])
            if version is None:
                return self._refuse(
                    400, f"bad request version {words[-1]!r}", "bad_request"
                )
            if version >= (2, 0):
                return self._refuse(
                    505,
                    f"unsupported HTTP version {words[-1]!r}",
                    "version_not_supported",
                )
        if len(words) != 3:
            return self._refuse(
                400, f"bad request line {self.requestline!r}", "bad_request"
            )
        self.command, path, _ = words
        if path.startswith("//"):
            path = "/" + path.lstrip("/")
        self.path = path
        try:
            url = urlsplit(path)
        except ValueError as error:
            return self._refuse(
                400, f"bad request target {path!r}: {error}", "bad_request"
            )
        self.url_path, self.url_query = url.path, url.query
        headers = _Headers()
        count = 0
        while True:
            raw = self.rfile.readline(_MAX_LINE + 1)
            if len(raw) > _MAX_LINE:
                return self._refuse(
                    431, "header line too long", "headers_too_large"
                )
            if raw in (b"\r\n", b"\n", b""):
                break
            count += 1
            if count > _MAX_HEADERS:
                return self._refuse(
                    431,
                    f"more than {_MAX_HEADERS} header lines",
                    "headers_too_large",
                )
            line = str(raw, "iso-8859-1")
            name, colon, value = line.partition(":")
            if not colon or line[0] in " \t":
                return self._refuse(
                    400,
                    f"bad header line {line.rstrip()!r}",
                    "bad_request",
                )
            headers.add(name, value.strip(" \t\r\n"))
        self.headers = headers
        return True

    def _refuse(self, status: int, message: str, code: str) -> bool:
        self._send_error(status, message, code)
        return False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        self._guarded(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        self._guarded(self._route_post)

    def _guarded(self, route: Callable[[], None]) -> None:
        """Run a route; every failure becomes a structured JSON error.

        Order matters: :class:`DurabilityError` subclasses
        :class:`ValueError`, so the 503 arm must come before the generic
        400 arm.  Anything unexpected is logged server-side (structured,
        with the trace id) and answered with an opaque 500 — never a
        stack trace to the client.

        The whole route runs inside a trace context (header-supplied or
        minted id) and is timed into the per-endpoint latency histogram;
        an in-flight gauge brackets it.
        """
        in_flight = _metrics.gauge(
            "repro_http_in_flight", "HTTP requests currently being handled."
        )
        armed = _metrics.enabled()
        t0 = perf_counter() if armed else 0.0
        in_flight.inc()
        try:
            with _tracing.trace(self.headers.get(_tracing.TRACE_HEADER)):
                try:
                    with deadline_scope(self._deadline_budget()):
                        route()
                except ReplicationError as error:
                    # Before the generic 400 arm: a quorum failure is a
                    # ServiceError by class but a retryable 503 by
                    # nature (the write was fully rolled back).
                    self._send_error(503, str(error), "replication_quorum")
                except DurabilityError as error:
                    self._send_error(503, str(error), "durability")
                except (ServiceError, WireError, ValueError) as error:
                    self._send_error(400, str(error), "bad_request")
                except TimeoutError:
                    self._send_error(
                        400, "request deadline exceeded", "deadline_exceeded"
                    )
                except Exception as error:  # noqa: BLE001 — 500 catch-all
                    _log.exception(
                        "unhandled handler exception",
                        code="internal",
                        method=self.command,
                        path=self.path,
                        error=f"{type(error).__name__}: {error}",
                    )
                    try:
                        self._send_error(
                            500, "internal server error", "internal"
                        )
                    except OSError:
                        pass
        finally:
            in_flight.dec()
            if armed:
                _metrics.histogram(
                    "repro_http_request_seconds",
                    "HTTP request wall time, labeled by endpoint.",
                    endpoint=self._endpoint(),
                ).observe(perf_counter() - t0)

    def _deadline_budget(self) -> Optional[float]:
        """The request's remaining end-to-end budget, if the client sent
        one (``X-Repro-Deadline``, seconds).  An already-expired budget
        fails here — before the route does any work; so does one that
        is not a finite number, which would run with no deadline."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            budget = float(raw)
        except ValueError:
            budget = math.nan
        if not math.isfinite(budget):
            raise ServiceError(
                f"invalid {DEADLINE_HEADER} header {raw!r}: expected the "
                f"remaining budget in seconds"
            )
        if budget <= 0:
            raise DeadlineExceeded(
                "request deadline exceeded before handling began"
            )
        return budget

    def _endpoint(self) -> str:
        """The bounded ``endpoint`` label for this request's path."""
        path = self.url_path
        if path.startswith("/push/"):
            return "push"
        if path in _GET_ENDPOINTS:
            return path.lstrip("/")
        return "other"

    def _route_get(self) -> None:
        path = self.url_path
        query = parse_qs(self.url_query)
        if path == "/healthz":
            self._handle_healthz()
        elif path == "/stats":
            # The store's counters plus the query engine's cache/cost
            # accounting — additive keys only, the legacy shape of
            # StoreStats.as_dict() is regression-locked.
            payload = self.server.service.stats().as_dict()
            payload["query"] = self.server.service.engine.counters()
            self._send_json(200, payload)
        elif path == "/metrics":
            self._send_bytes(
                200,
                _metrics.render().encode("utf-8"),
                METRICS_CONTENT_TYPE,
            )
        elif path == "/role":
            self._handle_role()
        elif path == "/value_at":
            self._handle_value_at(query)
        elif path == "/range_agg":
            self._handle_range_agg(query)
        elif path == "/window":
            self._handle_window(query)
        elif path == "/summary":
            self._handle_summary(query)
        else:
            self._send_error(404, f"unknown route {path!r}", "not_found")

    def _route_post(self) -> None:
        path = self.url_path
        if path.startswith("/push/"):
            key = path[len("/push/"):]
            if not key:
                raise ServiceError("push requires a non-empty key")
            self._handle_push(key)
        else:
            self._send_error(404, f"unknown route {path!r}", "not_found")

    # ------------------------------------------------------------------
    # Route handlers
    # ------------------------------------------------------------------
    def _handle_healthz(self) -> None:
        stats = self.server.service.stats()
        limit = self.server.service.max_replication_lag
        # Per-sink lag rides along whenever sinks are registered; the
        # bare {"status": "ok"} shape without replication is
        # regression-locked.
        extra: Dict[str, Any] = (
            {"sinks": [dict(entry) for entry in stats.sinks]}
            if stats.sinks
            else {}
        )
        if stats.degraded:
            self._send_json(
                503,
                {
                    "status": "degraded",
                    "error": "durable store is in memory-only degraded "
                    "mode (disk faults); pushes are not being logged",
                    "code": "degraded",
                    **extra,
                },
            )
        elif limit is not None and stats.replication_lag > limit:
            self._send_json(
                503,
                {
                    "status": "degraded",
                    "error": f"replication lag of "
                    f"{stats.replication_lag} exceeds the threshold of "
                    f"{limit}; a failover now would lose pushes",
                    "code": "degraded",
                    **extra,
                },
            )
        else:
            self._send_json(200, {"status": "ok", **extra})

    def _handle_role(self) -> None:
        stats = self.server.service.stats()
        self._send_json(
            200,
            {
                "role": stats.role,
                "replicas": stats.replicas,
                "replication_lag": stats.replication_lag,
                "last_acked_generation": stats.last_acked_generation,
            },
        )

    def _read_push_body(self) -> bytes:
        """Read the request body, refusing abusive ``Content-Length``.

        The header is attacker-controlled: non-integers and negatives
        are 400, anything above the server's ``max_body`` is 413 —
        *before* a single body byte is read, so an oversized request
        never costs more than its headers.
        """
        raw = self.headers.get("Content-Length")
        if raw is None:
            raise ServiceError("push requires a Content-Length header")
        try:
            length = int(raw)
        except ValueError:
            raise ServiceError(
                f"invalid Content-Length {raw!r}"
            ) from None
        if length < 0:
            raise ServiceError(f"invalid Content-Length {length}")
        if length > self.server.max_body:
            self._send_error(
                413,
                f"request body of {length} bytes exceeds the limit of "
                f"{self.server.max_body}",
                "payload_too_large",
            )
            raise _Responded()
        body = self.rfile.read(length)
        if len(body) < length:
            raise ServiceError(
                f"request body truncated: Content-Length promised "
                f"{length} bytes, got {len(body)}"
            )
        return body

    def _handle_push(self, key: str) -> None:
        if self.server.service.store.role != "primary":
            self._send_error(
                503,
                "this replica is a standby; pushes go to the primary "
                "(it applies replicated frames only)",
                "not_primary",
            )
            return
        if not self.server.push_slots.acquire(blocking=False):
            self._send_error(
                429,
                "too many in-flight pushes; retry shortly",
                "backpressure",
                headers={"Retry-After": "1"},
            )
            return
        try:
            try:
                body = self._read_push_body()
            except _Responded:
                return
            content_type = (
                self.headers.get("Content-Type") or ""
            ).split(";")[0]
            if content_type == WIRE_CONTENT_TYPE:
                segments = decode_segments(body, copy=False)
            else:
                segments = _segments_from_json_body(body)
            self._send_json(200, self.server.service.push(key, segments))
        finally:
            self.server.push_slots.release()

    def _handle_value_at(self, query: Dict[str, List[str]]) -> None:
        key = _param(query, "key")
        t = int(_param(query, "t"))
        values = self.server.service.value_at(key, t, _group(query))
        self._send_json(
            200, {"t": t, "values": list(values) if values else None}
        )

    def _handle_range_agg(self, query: Dict[str, List[str]]) -> None:
        key = _param(query, "key")
        t1 = int(_param(query, "t1"))
        t2 = int(_param(query, "t2"))
        fn = _param(query, "fn", "avg")
        values = self.server.service.range_agg(key, t1, t2, fn, _group(query))
        self._send_json(
            200,
            {
                "t1": t1,
                "t2": t2,
                "fn": fn,
                "values": list(values) if values else None,
            },
        )

    def _handle_window(self, query: Dict[str, List[str]]) -> None:
        key = _param(query, "key")
        buckets = self.server.service.window(
            key,
            int(_param(query, "t1")),
            int(_param(query, "t2")),
            int(_param(query, "stride")),
            _param(query, "fn", "avg"),
            _group(query),
        )
        self._send_json(
            200,
            {
                "buckets": [
                    {
                        "start": bucket.start,
                        "end": bucket.end,
                        "values": (
                            list(bucket.values)
                            if bucket.values is not None
                            else None
                        ),
                    }
                    for bucket in buckets
                ]
            },
        )

    def _handle_summary(self, query: Dict[str, List[str]]) -> None:
        key = _param(query, "key")
        result = self.server.service.summary(key)
        if WIRE_CONTENT_TYPE in (self.headers.get("Accept") or ""):
            self._send_bytes(200, encode_result(result), WIRE_CONTENT_TYPE)
            return
        self._send_json(
            200,
            {
                "key": key,
                "size": result.size,
                "input_size": result.input_size,
                "error": result.error,
                "merges": result.merges,
                "segments": [
                    segment_to_obj(segment) for segment in result.segments
                ],
            },
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send_bytes(
            status,
            json.dumps(payload).encode("utf-8"),
            "application/json",
            headers,
        )

    def _send_error(
        self,
        status: int,
        message: str,
        code: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """The one error shape every failure path uses:
        ``{"error": message, "code": slug}``."""
        _metrics.counter(
            "repro_http_errors_total",
            "HTTP error responses, labeled by structured error code.",
            code=code,
        ).inc()
        self._send_json(
            status, {"error": message, "code": code}, headers
        )

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        ctype: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Write the status line, the headers and the body at once."""
        head = [
            f"HTTP/1.0 {status} {_REASONS.get(status, '')}",
            _SERVER_HEADER,
            f"Date: {_http_date()}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
        ]
        trace_id = _tracing.current_trace_id()
        if trace_id is not None:
            head.append(f"{_tracing.TRACE_HEADER}: {trace_id}")
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        head.append("\r\n")
        self.wfile.write("\r\n".join(head).encode("latin-1") + body)
        if not self.server.quiet:
            _log.info(
                "http access",
                client=self.client_address[0],
                detail=f'"{self.requestline}" {status} {len(body)}',
            )


_date: Tuple[int, str] = (0, "")


def _http_date() -> str:
    """The ``Date`` header value, formatted at most once a second."""
    global _date
    now = int(time())
    second, text = _date
    if second != now:
        text = formatdate(now, usegmt=True)
        _date = (now, text)
    return text


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``HTTP/major.minor`` as two integers, or None when malformed (the
    standard library's rules: one dot, at most ten ASCII digits each)."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[len("HTTP/"):].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10
        for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


class _Responded(Exception):
    """Control flow marker: the handler already wrote a response."""


def _param(
    query: Dict[str, List[str]], name: str, default: Optional[str] = None
) -> str:
    values = query.get(name)
    if not values:
        if default is not None:
            return default
        raise ServiceError(f"missing required query parameter {name!r}")
    return values[0]


def _group(query: Dict[str, List[str]]) -> Optional[List[Any]]:
    raw = query.get("group")
    if not raw:
        return None
    try:
        parsed = json.loads(raw[0])
    except json.JSONDecodeError as error:
        raise ServiceError(
            f"group must be a JSON array, got {raw[0]!r}: {error}"
        ) from error
    if not isinstance(parsed, list):
        raise ServiceError(f"group must be a JSON array, got {raw[0]!r}")
    return parsed


def _segments_from_json_body(body: bytes) -> EncodedSegments:
    text = body.decode("utf-8")
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        # Not one JSON document: treat it as JSON lines (which reports
        # per-line errors when it is not that either).
        return segments_from_jsonl(text)
    if isinstance(parsed, (list, dict)):
        return segments_from_objs(
            parsed if isinstance(parsed, list) else [parsed]
        )
    raise ServiceError(
        "push body must be a segment object, a JSON array of them, or "
        "JSON lines"
    )


# ----------------------------------------------------------------------
# Running the server
# ----------------------------------------------------------------------
def serve(
    service: Service,
    host: str = "127.0.0.1",
    port: int = 8080,
    quiet: bool = True,
    max_body: int = DEFAULT_MAX_BODY,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
) -> ServiceHTTPServer:
    """Bind the HTTP front end; call ``serve_forever()`` on the result."""
    return ServiceHTTPServer(
        (host, port),
        service,
        quiet=quiet,
        max_body=max_body,
        max_in_flight=max_in_flight,
        request_timeout=request_timeout,
    )


def start_in_background(
    service: Service,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    max_body: int = DEFAULT_MAX_BODY,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start the front end on a daemon thread (``port=0`` = ephemeral).

    Returns the bound server (``server.port`` tells the chosen port) and
    the serving thread; ``server.shutdown()`` stops it.
    """
    server = serve(
        service,
        host,
        port,
        quiet=quiet,
        max_body=max_body,
        max_in_flight=max_in_flight,
        request_timeout=request_timeout,
    )
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": SERVE_POLL_INTERVAL},
        name="pta-service-http",
        daemon=True,
    )
    thread.start()
    return server, thread


__all__ = [
    "DEFAULT_MAX_BODY",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_REQUEST_TIMEOUT",
    "Service",
    "ServiceHTTPServer",
    "WIRE_CONTENT_TYPE",
    "serve",
    "start_in_background",
]
