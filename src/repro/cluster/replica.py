"""Delta-log replication to a warm standby, and its promotion to primary.

The durability tier already reduced every acknowledged push to one WAL
frame of ``PTAS`` bytes whose replay is bit-identical (the replay
invariant of :mod:`repro.service.durability`).  Replication is therefore
just *shipping that same delta log over a socket as it is written*:

* :class:`ReplicationLink` is the primary-side
  :class:`~repro.service.store.ReplicationSink`.  :meth:`attach` catches
  the standby up under the store lock — frozen epochs as ``KIND_FROZEN``
  frames (``PTAR`` bytes, installed verbatim), the live epochs'
  acknowledged pushes as ``KIND_PUSH`` frames tailed straight from the
  primary's WAL files, every catch-up frame carrying the
  ``CATCH_UP_SEQ`` sentinel and a final ``KIND_CATCHUP`` marker
  carrying the real frontier (so a catch-up severed mid-stream leaves
  the standby reporting no progress plus a ``seeding`` taint, never a
  frontier it does not hold) — then registers itself, after which every
  acknowledged push and every freeze streams synchronously: the link
  sends the frame, waits for the standby's ``KIND_ACK`` and records the
  acknowledged sequence number (the store's replication-lag metric).  A
  socket fault disconnects the link (``connected = False``) without
  failing the primary's push — and, by default (``auto_resync=True``),
  starts a background **reconnect loop**: exponential backoff with
  decorrelated jitter (:mod:`repro.util.backoff`), gated by the shared
  per-peer circuit breaker (:mod:`repro.util.health`), re-``HELLO``-ing
  the standby and replaying exactly the missed gap through
  :meth:`~repro.service.store.SessionStore.resync` with the standby's
  self-reported ``applied_seq`` as the resume cursor.  The loop gives
  up permanently only when the store refuses the standby (divergence
  after a quorum abort, or a resync window trimmed past its frontier).
  The replicated push body is **byte-identical to the primary's WAL
  frame payload** — no re-encoding on the hot path.  The
  ``repro_replica_link_state`` gauge (0 detached, 1 reconnecting,
  2 connected) tracks every link.
* :class:`StandbyServer` owns its own
  :class:`~repro.service.store.SessionStore` (``role = "standby"``) and
  applies the frames in arrival order: ``PUSH`` through ``store.push``
  (the same staged-insert path the primary ran, hence bit-identical
  state), ``FREEZE`` through ``store.freeze`` (finalize is
  deterministic, so the standby's frozen summary equals the primary's),
  ``FROZEN`` through ``store.install_frozen``.  Acks are sent only
  *after* the frame is applied, so an acknowledged generation is never
  lost by a primary failure.
* :meth:`StandbyServer.promote` is failover: frame application stops,
  the store's role flips to ``"primary"``, and the returned store serves
  — through its own :class:`~repro.service.query.QueryEngine` —
  answers bit-identical to the failed primary's at every acknowledged
  push generation.

The standby's store must be configured like the primary's (same budget,
policy and backend) but with **no eviction bounds and no checkpoint/
compaction triggers** — epoch boundaries come exclusively from the
primary's replicated freeze events, never from local policy, or the two
stores' epoch structure would diverge.  :func:`standby_store` builds a
correctly-restricted store.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Optional, Tuple, Union

from ..api.plan import Budget, ExecutionPolicy
from ..obs import metrics as _metrics
from ..service.store import CATCH_UP_SEQ, ServiceError, SessionStore
from ..service.wire import WireError, decode_result, decode_segments
from ..util import failpoints
from ..util.backoff import DEFAULT_CAP_S as DEFAULT_RECONNECT_CAP_S
from ..util.backoff import Backoff
from ..util.deadline import current_deadline
from ..util.health import SHARED as SHARED_HEALTH
from ..util.health import PeerHealth
from .transport import (
    DEFAULT_BACKOFF_S,
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_READ_TIMEOUT,
    KIND_ACK,
    KIND_CATCHUP,
    KIND_ERROR,
    KIND_FREEZE,
    KIND_FROZEN,
    KIND_HELLO,
    KIND_OK,
    KIND_PUSH,
    Connection,
    TransportError,
    decode_json,
    error_payload,
    pack_envelope,
    recv_frame,
    send_frame,
)

__all__ = [
    "LINK_CONNECTED",
    "LINK_DETACHED",
    "LINK_RECONNECTING",
    "ReplicationLink",
    "StandbyServer",
    "standby_store",
    "start_standby",
]

#: ``repro_replica_link_state`` gauge values.
LINK_DETACHED = 0
LINK_RECONNECTING = 1
LINK_CONNECTED = 2


def standby_store(
    budget: Optional[Budget] = None,
    *,
    size: Optional[int] = None,
    max_error: Optional[float] = None,
    policy: Optional[ExecutionPolicy] = None,
    data_dir: Optional[Union[str, Path]] = None,
    fsync_every: int = 1,
) -> SessionStore:
    """A store configured to mirror a primary: same budget and policy,
    no local eviction/checkpoint/compaction triggers (epoch boundaries
    come only from replicated freeze events), ``role = "standby"``."""
    store = SessionStore(
        budget,
        size=size,
        max_error=max_error,
        policy=policy,
        data_dir=data_dir,
        fsync_every=fsync_every,
    )
    store.role = "standby"
    return store


class ReplicationLink:
    """Primary-side sink streaming the delta log to one standby.

    Implements the :class:`~repro.service.store.ReplicationSink`
    protocol; :meth:`attach` performs catch-up and registration in one
    atomic step.  All ``on_*`` hooks run under the store's lock, so
    frames hit the wire in apply order with no interleaving.

    With ``auto_resync=True`` (the default) a ship fault additionally
    arms a background reconnect loop: exponential backoff with
    decorrelated jitter, per-peer circuit breaker (``health``, the
    process-shared tracker unless one is injected), then
    ``HELLO`` → :meth:`SessionStore.resync` with the standby's reported
    ``applied_seq`` — the missed gap replays from the store's journal
    (or the full history, if the standby restarted empty) and streaming
    resumes, all without an operator touching ``replicate_to``.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
        auto_resync: bool = True,
        reconnect_backoff: float = DEFAULT_BACKOFF_S,
        reconnect_cap: float = DEFAULT_RECONNECT_CAP_S,
        health: Optional[PeerHealth] = None,
    ) -> None:
        self.address = address
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        self.auto_resync = auto_resync
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_cap = max(reconnect_cap, reconnect_backoff)
        self.connected = False
        self.acked_seq = -1
        self._health = health if health is not None else SHARED_HEALTH
        self._conn: Optional[Connection] = None
        self._store: Optional[SessionStore] = None
        self._closed = False
        self._reconnect_lock = threading.Lock()
        self._reconnector: Optional[threading.Thread] = None

    def attach(self, store: SessionStore) -> None:
        """Connect, catch the standby up, and start streaming.

        Raises :class:`TransportError` if the standby is unreachable and
        :class:`~repro.service.store.ServiceError` if the primary's live
        state cannot be caught up from its WAL (memory-only primary with
        live pushes, or a degraded one), or if the standby is not empty
        — catch-up replays the full history, so attaching a standby
        that already applied frames would double-apply it (a returning
        standby rejoins through the auto-resync loop instead).  In all
        cases nothing is registered.
        """
        conn, applied, seeding = self._dial()
        if applied != -1 or seeding:
            conn.close()
            if seeding:
                raise ServiceError(
                    f"standby {self.address} is half-seeded by an "
                    f"interrupted catch-up and cannot be attached; "
                    f"restart it empty and re-attach"
                )
            raise ServiceError(
                f"standby {self.address} reports applied sequence "
                f"{applied}; attach requires an empty standby (returning "
                f"standbys rejoin via resync)"
            )
        self._conn = conn
        self._store = store
        self._closed = False
        self.connected = True
        try:
            store.replicate_to(self)  # atomic catch-up + registration
        except ServiceError:
            self.detach()
            raise
        self._publish(LINK_CONNECTED)

    def detach(self) -> None:
        """Stop streaming (and any reconnect loop), deregister."""
        self._closed = True
        self.connected = False
        if self._store is not None:
            self._store.remove_replication_sink(self)
            self._store = None
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._publish(LINK_DETACHED)

    # ------------------------------------------------------------------
    # ReplicationSink hooks (called under the store lock; never raise)
    # ------------------------------------------------------------------
    def on_push(self, key: str, payload: bytes, seq: int) -> None:
        self._ship(KIND_PUSH, pack_envelope({"key": key, "seq": seq}, payload))

    def on_freeze(self, key: str, seq: int) -> None:
        self._ship(KIND_FREEZE, pack_envelope({"key": key, "seq": seq}, b""))

    def on_frozen(self, key: str, payload: bytes, seq: int) -> None:
        self._ship(
            KIND_FROZEN, pack_envelope({"key": key, "seq": seq}, payload)
        )

    def on_catch_up(self, seq: int) -> None:
        self._ship(KIND_CATCHUP, b'{"seq": %d}' % seq)

    def _ship(self, kind: int, frame_payload: bytes) -> None:
        """Send one frame and wait for its ack; disconnect on any fault.

        Never raises — a lost standby must not fail the primary's push;
        it only stops the stream (the lag metric shows the damage) and,
        when auto-resync is armed, starts the reconnect loop.  The ack
        wait is bounded by the link's read timeout *clamped to the
        ambient request deadline's remaining budget* — shipping runs
        under the store lock, so a stalled standby must never block
        the store past the deadline of the request being served.
        """
        if not self.connected or self._conn is None:
            return
        deadline = current_deadline()
        timeout = (
            None if deadline is None else deadline.clamp(self.read_timeout)
        )
        try:
            answer_kind, answer = self._conn.request(
                kind, frame_payload, timeout=timeout
            )
            if answer_kind != KIND_ACK:
                raise TransportError(
                    f"standby {self.address} answered frame kind "
                    f"{answer_kind}, expected ACK"
                )
            self.acked_seq = int(decode_json(answer, "ack")["seq"])
        except (TransportError, OSError, KeyError, TypeError, ValueError):
            self.connected = False
            if self._conn is not None:
                self._conn.close()
                self._conn = None
            self._health.failure(self.address)
            self._schedule_reconnect()

    # ------------------------------------------------------------------
    # Auto-resync
    # ------------------------------------------------------------------
    def _dial(self) -> Tuple[Connection, int, bool]:
        """Connect and ``HELLO``; returns the connection, the standby's
        reported ``applied_seq`` (``-1`` = no committed progress) and
        its ``seeding`` taint (``True`` = a previous catch-up was
        severed mid-stream, so its store holds an unknown prefix of the
        history and nothing can safely be replayed onto it)."""
        conn = Connection(
            self.address, self.connect_timeout, self.read_timeout
        )
        try:
            kind, answer = conn.request(KIND_HELLO, b"{}")
            if kind != KIND_OK:
                raise TransportError(
                    f"standby {self.address} answered frame kind {kind} "
                    f"to HELLO, expected OK"
                )
            hello = decode_json(answer, "hello answer")
            applied = int(hello.get("applied_seq", -1))
            seeding = bool(hello.get("seeding", False))
        except (TransportError, KeyError, TypeError, ValueError) as error:
            conn.close()
            if isinstance(error, TransportError):
                raise
            raise TransportError(
                f"standby {self.address} answered a malformed HELLO: "
                f"{error}"
            ) from error
        return conn, applied, seeding

    def _schedule_reconnect(self) -> None:
        if not self.auto_resync or self._closed or self._store is None:
            return
        with self._reconnect_lock:
            if self._reconnector is not None and self._reconnector.is_alive():
                return
            self._reconnector = threading.Thread(
                target=self._reconnect_loop,
                name=f"pta-resync-{self.address}",
                daemon=True,
            )
            self._reconnector.start()

    def _reconnect_loop(self) -> None:
        """Dial → ``HELLO`` → resync until streaming resumes.

        Gives up only on :meth:`detach` or when the store refuses the
        standby permanently (divergence, exhausted resync window) — in
        that case the link deregisters itself so quorum counting and
        journal trimming stop waiting for it.
        """
        ladder = Backoff(self.reconnect_backoff, self.reconnect_cap)
        self._publish(LINK_RECONNECTING)
        try:
            while not self._closed:
                delay = ladder.next()
                if delay > 0:
                    time.sleep(delay)
                if self._closed:
                    return
                injected = failpoints.fail("replica.reconnect")
                if injected is not None:
                    continue  # the attempt "failed" before dialing
                if not self._health.allow(self.address):
                    continue
                store = self._store
                if store is None:
                    return
                try:
                    conn, applied, seeding = self._dial()
                except TransportError:
                    self._health.failure(self.address)
                    continue
                self._health.success(self.address)
                if seeding:
                    # Permanent refusal: a previous catch-up was severed
                    # mid-stream, so the standby holds an unknown prefix
                    # of the history — replaying anything onto it would
                    # diverge.  It must be restarted empty.
                    conn.close()
                    self.connected = False
                    self._conn = None
                    store.remove_replication_sink(self)
                    self._publish(LINK_DETACHED)
                    return

                def adopt() -> None:
                    self._conn = conn
                    self.connected = True

                try:
                    store.resync(self, applied, adopt=adopt)
                except ServiceError:
                    # Permanent refusal: the standby must be re-seeded.
                    self.connected = False
                    conn.close()
                    self._conn = None
                    store.remove_replication_sink(self)
                    self._publish(LINK_DETACHED)
                    return
                except (ConnectionError, TransportError, OSError):
                    self.connected = False
                    conn.close()
                    self._conn = None
                    continue
                with self._reconnect_lock:
                    if self.connected:
                        # Release the reconnector slot *inside* this
                        # critical section: a ship fault that fires the
                        # instant we return must see the slot free and
                        # spawn a fresh thread, not no-op against this
                        # dying one (which would leave the link down
                        # forever — on_push never reschedules).
                        self._reconnector = None
                        self._publish(LINK_CONNECTED)
                        return
                # A ship fault raced the resync; go around again.
        finally:
            # Whatever the exit path (healed, detached, permanently
            # refused), stop owning the reconnector slot — but never
            # clobber a newer thread a fresh ship fault scheduled.
            with self._reconnect_lock:
                if self._reconnector is threading.current_thread():
                    self._reconnector = None

    def _publish(self, value: int) -> None:
        _metrics.gauge(
            "repro_replica_link_state",
            "Replication link per standby: 0 detached, 1 reconnecting, "
            "2 connected.",
            peer=self.address,
        ).set(value)


class _StandbyHandler(socketserver.BaseRequestHandler):
    server: "StandbyServer"

    def handle(self) -> None:
        sock: socket.socket = self.request
        sock.settimeout(self.server.read_timeout)
        while True:
            try:
                kind, payload = recv_frame(sock)
            except (TransportError, OSError):
                return  # peer gone or torn frame: drop the connection
            try:
                self._handle_frame(sock, kind, payload)
            except OSError:
                return  # the answer could not be written; drop the peer
            except (ServiceError, WireError, TransportError) as error:
                if not self._answer_error(sock, str(error), "bad_request"):
                    return
            except Exception as error:  # noqa: BLE001 — the internal arm
                if not self._answer_error(
                    sock, f"{type(error).__name__}: {error}", "internal"
                ):
                    return

    def _handle_frame(
        self, sock: socket.socket, kind: int, payload: bytes
    ) -> None:
        server = self.server
        if kind == KIND_HELLO:
            # The answer carries the standby's replication frontier —
            # the resume cursor a reconnecting link hands to
            # ``SessionStore.resync`` (-1 = no committed progress, full
            # catch-up) — and its seeding taint: a catch-up severed
            # mid-stream left this store holding an unknown prefix of
            # the history, which the primary must refuse to replay onto.
            with server.apply_lock:
                applied = server.applied_seq
                seeding = server.seeding
            send_frame(
                sock,
                KIND_OK,
                b'{"applied_seq": %d, "seeding": %s}'
                % (applied, b"true" if seeding else b"false"),
            )
            return
        if kind == KIND_CATCHUP:
            # End-of-catch-up marker: the whole history arrived, so the
            # resume cursor may finally advance to the frontier and the
            # seeding taint clears.
            meta = decode_json(payload, "end-of-catch-up marker")
            seq = meta.get("seq")
            if not isinstance(seq, int) or seq < 0:
                raise TransportError(
                    "end-of-catch-up marker must carry a non-negative "
                    "integer seq"
                )
            with server.apply_lock:
                if server.promoted:
                    self._answer_promoted(sock)
                    return
                server.applied_seq = max(server.applied_seq, seq)
                server.seeding = False
            send_frame(sock, KIND_ACK, b'{"seq": %d}' % seq)
            return
        if kind not in (KIND_PUSH, KIND_FREEZE, KIND_FROZEN):
            send_frame(
                sock,
                KIND_ERROR,
                error_payload(
                    f"unsupported frame kind {kind}", "bad_request"
                ),
            )
            return
        meta, body = _split(kind, payload)
        key = meta.get("key")
        seq = meta.get("seq")
        if not isinstance(key, str) or not isinstance(seq, int):
            raise TransportError(
                "replication frame envelope must carry a string key "
                "and an integer seq"
            )
        # Apply-then-ack under the apply lock: an acked sequence number
        # is always durable in the standby's store, and promotion (which
        # takes the same lock) can never interleave with a half-applied
        # frame.
        with server.apply_lock:
            if server.promoted:
                self._answer_promoted(sock)
                return
            if seq == CATCH_UP_SEQ:
                # Catch-up stream: apply without advancing the resume
                # cursor — only the end-of-catch-up marker commits it.
                # The taint set here clears with that marker; a severed
                # catch-up leaves this standby loudly half-seeded
                # instead of silently claiming the frontier.
                server.seeding = True
                self._apply(kind, key, body)
            elif seq <= server.applied_seq:
                # Already applied (an ack was lost in transit): ack
                # again without re-applying.
                pass
            else:
                self._apply(kind, key, body)
                server.applied_seq = seq
        send_frame(sock, KIND_ACK, b'{"seq": %d}' % seq)

    def _apply(self, kind: int, key: str, body: bytes) -> None:
        if kind == KIND_PUSH:
            self.server.store.push(key, decode_segments(body, copy=False))
        elif kind == KIND_FREEZE:
            self.server.store.freeze(key)
        else:
            self.server.store.install_frozen(key, decode_result(body))

    def _answer_promoted(self, sock: socket.socket) -> None:
        send_frame(
            sock,
            KIND_ERROR,
            error_payload(
                "this replica was promoted to primary and no "
                "longer applies replication frames",
                "not_standby",
            ),
        )

    @staticmethod
    def _answer_error(sock: socket.socket, message: str, code: str) -> bool:
        try:
            send_frame(sock, KIND_ERROR, error_payload(message, code))
            return True
        except OSError:
            return False


def _split(kind: int, payload: bytes) -> Tuple[dict, bytes]:
    from .transport import unpack_envelope

    what = {
        KIND_PUSH: "replicated push",
        KIND_FREEZE: "replicated freeze",
        KIND_FROZEN: "replicated frozen epoch",
    }[kind]
    meta, body = unpack_envelope(payload, what)
    if kind in (KIND_PUSH, KIND_FROZEN) and not body:
        raise TransportError(f"{what} frame carries no payload body")
    return meta, body


class StandbyServer(socketserver.ThreadingTCPServer):
    """A warm standby: applies replicated frames until promoted.

    Owns (or is handed) a standby-configured :class:`SessionStore` and
    listens for :class:`ReplicationLink` frames; ``server.address`` is
    what the link's constructor takes.  Queries may be served from the
    standby at any time (its store trails the primary by exactly the
    un-acked frames); pushes must not go to it until :meth:`promote`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        store: SessionStore,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
    ) -> None:
        super().__init__((host, port), _StandbyHandler)
        store.role = "standby"
        self.store = store
        self.read_timeout = read_timeout
        self.apply_lock = threading.Lock()
        self.promoted = False
        #: Highest replication sequence number applied and acked.
        #: Catch-up frames (``seq == CATCH_UP_SEQ``) never advance it —
        #: only the end-of-catch-up marker commits the frontier.
        self.applied_seq = -1
        #: True while a catch-up stream is in flight (set by its first
        #: frame, cleared by its end marker).  Reported in the ``HELLO``
        #: answer: a standby still seeding holds an unknown prefix of
        #: the history, and the primary refuses to replay onto it.
        self.seeding = False

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def address(self) -> str:
        return f"{self.server_address[0]}:{self.port}"

    def promote(self) -> SessionStore:
        """Failover: stop applying frames, serve as primary.

        Every frame acked before this call is applied (acks are sent
        after application, under the same lock promotion takes), so the
        returned store answers queries bit-identically to the failed
        primary at every acknowledged push generation.  The socket
        server keeps listening only to answer late frames with a
        ``not_standby`` error; call :meth:`shutdown` to stop it.
        """
        with self.apply_lock:
            self.promoted = True
            self.store.role = "primary"
        return self.store


def start_standby(
    store: SessionStore,
    host: str = "127.0.0.1",
    port: int = 0,
    read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
) -> Tuple[StandbyServer, threading.Thread]:
    """Start a standby server on a daemon thread; returns (server, thread)."""
    server = StandbyServer(store, host, port, read_timeout)
    thread = threading.Thread(
        target=server.serve_forever,
        name=f"pta-standby-{server.port}",
        daemon=True,
    )
    thread.start()
    return server, thread
