"""Length-prefixed, CRC-checked socket transport of the cluster tier.

Every byte that crosses a host boundary in :mod:`repro.cluster` travels
in one **frame**::

    magic    4 bytes  b"PTAF"
    version  u16      1
    kind     u8       frame kind (the KIND_* constants below)
    reserved u8       0
    length   u32      payload byte count
    crc32    u32      zlib.crc32 of the payload
    payload  ...      kind-specific bytes

The framing deliberately mirrors the WAL frame layout of
:mod:`repro.storage.wal` — length prefix + CRC — because the failure
modes are the same: a peer can die mid-write, so the reader must detect
a torn or corrupt frame instead of deserialising garbage.  Payloads are
not a new format either: data frames nest the existing ``PTAS``/``PTAR``
column codecs of :mod:`repro.service.wire` (a shard request is a
``PTAS`` container with a ``w2`` side column, a shipped frozen epoch is
a ``PTAR`` container with routing side columns), control frames carry
UTF-8 JSON, and **error frames** carry the same structured
``{"error": message, "code": slug}`` shape as the HTTP front end.

Client plumbing: :class:`Connection` wraps a socket with a connect
timeout, a per-read deadline, and a ``request()`` round trip that raises
:class:`RemoteError` when the peer answers with an error frame;
:func:`request_with_retries` adds the bounded retry ladder (the network
face of ``parallel.py``'s pool-rebuild ladder) with exponential backoff
plus decorrelated jitter (:mod:`repro.util.backoff`).  Two optional
cross-cutting inputs harden it further: a
:class:`~repro.util.health.PeerHealth` tracker skips peers whose
circuit breaker is open (and ``PING``-probes half-open ones before
trusting them with the real request), and a
:class:`~repro.util.deadline.Deadline` bounds every sleep and socket
timeout by the request's remaining end-to-end budget.

Failpoints (``repro.util.failpoints``): ``transport.connect``,
``transport.send`` and ``transport.recv`` sit on the three fragile
operations, so the fault suites can tear a frame, time out a connect or
kill a peer at exactly one deterministic point.  The normative framing
spec with per-rule test citations lives in ``docs/FORMATS.md``.
"""

from __future__ import annotations

import json
import random
import socket
import socketserver
import struct
import threading
import time
import zlib
from typing import Any, Dict, Optional, Sequence, Tuple

from ..obs import metrics as _metrics
from ..util import failpoints
from ..util.backoff import DEFAULT_CAP_S as DEFAULT_BACKOFF_CAP_S
from ..util.backoff import Backoff
from ..util.deadline import Deadline
from ..util.health import PeerHealth

#: Magic tag and version of transport frames.  Bump the version on any
#: layout change; readers reject every other version.
FRAME_MAGIC = b"PTAF"
FRAME_VERSION = 1

_FRAME_HEADER = struct.Struct("<4sHBBII")

#: Frame kinds.  Adding a kind is backwards compatible (unknown kinds
#: are answered with an error frame); changing the layout of an existing
#: kind requires a version bump.
KIND_ERROR = 0       #: JSON ``{"error": message, "code": slug}``
KIND_PING = 1        #: empty payload (liveness probe)
KIND_PONG = 2        #: empty payload (liveness answer)
KIND_REDUCE = 3      #: PTAS container + ``w2`` side column (one shard)
KIND_TRAJECTORY = 4  #: PTAT container (the shard's merge schedule)
KIND_HELLO = 5       #: JSON (replication stream header)
KIND_PUSH = 6        #: PTAS container + ``key``/``seq`` side columns
KIND_FREEZE = 7      #: JSON ``{"key": ..., "seq": ...}``
KIND_FROZEN = 8      #: PTAR container + ``key``/``epoch``/``seq`` columns
KIND_ACK = 9         #: JSON ``{"seq": ...}``
KIND_OK = 10         #: JSON (generic success answer)
KIND_CATCHUP = 11    #: JSON ``{"seq": ...}`` (end-of-catch-up marker)

#: Largest accepted frame payload.  The length field is peer-controlled,
#: so the reader bounds it before allocating anything.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Client-side defaults: TCP connect deadline, per-read deadline, retry
#: attempts and the base of the exponential backoff between rounds
#: (decorrelated jitter, capped at ``DEFAULT_BACKOFF_CAP_S``).
DEFAULT_CONNECT_TIMEOUT = 2.0
DEFAULT_READ_TIMEOUT = 30.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_S = 0.05


class TransportError(RuntimeError):
    """A transport-level failure: torn/corrupt frame, timeout, refused
    or dropped connection, or a malformed peer address."""


class RemoteError(TransportError):
    """The peer answered with a structured error frame.

    ``code`` carries the same slug vocabulary as the HTTP front end
    (``bad_request``, ``internal``, ...) so a caller can tell a payload
    it must not retry (``bad_request``) from a peer fault it may.
    """

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


def parse_address(address: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` into a socket address tuple."""
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise TransportError(
            f"worker address must be 'host:port', got {address!r}"
        )
    try:
        number = int(port)
    except ValueError:
        raise TransportError(
            f"invalid port in worker address {address!r}"
        ) from None
    if not 0 < number < 65536:
        raise TransportError(f"port out of range in address {address!r}")
    return host, number


# ----------------------------------------------------------------------
# Frame I/O
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, kind: int, payload: bytes = b"") -> None:
    """Write one frame; any socket fault surfaces as the raw ``OSError``."""
    failpoints.fail("transport.send")
    header = _FRAME_HEADER.pack(
        FRAME_MAGIC, FRAME_VERSION, kind, 0, len(payload), zlib.crc32(payload)
    )
    sock.sendall(header + payload)


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one frame, validating magic, version, bounds and CRC.

    Raises :class:`TransportError` for a torn header/payload (the peer
    died mid-write), a CRC mismatch, an oversized length field, or a
    wrong magic/version — malformed bytes are never deserialised.
    """
    failpoints.fail("transport.recv")
    header = _recv_exact(sock, _FRAME_HEADER.size, "frame header")
    magic, version, kind, _, length, crc = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise TransportError(
            f"wrong frame magic {magic!r} (expected {FRAME_MAGIC!r})"
        )
    if version != FRAME_VERSION:
        raise TransportError(
            f"unsupported frame version {version}; this peer understands "
            f"version {FRAME_VERSION}"
        )
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} limit"
        )
    payload = _recv_exact(sock, length, "frame payload")
    if zlib.crc32(payload) != crc:
        raise TransportError("frame payload failed its CRC check")
    return kind, payload


def _recv_exact(sock: socket.socket, count: int, what: str) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except socket.timeout as error:
            raise TransportError(
                f"read timed out awaiting {what} "
                f"({count - remaining}/{count} bytes)"
            ) from error
        if not chunk:
            raise TransportError(
                f"connection closed mid-{what}: expected {count} bytes, "
                f"got {count - remaining}"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def error_payload(message: str, code: str) -> bytes:
    """Encode a structured error frame payload (the HTTP error shape)."""
    return json.dumps({"error": message, "code": code}).encode("utf-8")


def decode_json(payload: bytes, what: str) -> Dict[str, Any]:
    """Parse a JSON control payload into a dict, loudly."""
    try:
        value = json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise TransportError(f"malformed {what} payload: {error}") from error
    if not isinstance(value, dict):
        raise TransportError(f"{what} payload must be a JSON object")
    return value


# ----------------------------------------------------------------------
# Payload envelopes and the trajectory codec
# ----------------------------------------------------------------------
#: Magic tag and version of trajectory payloads (a worker's answer to a
#: shard request): one column container holding
#: :data:`TRAJECTORY_COLUMNS` in that order.  Version 2 added ``heads``
#: and ``rows``; version 3 dropped ``sse_max``, since the coordinator
#: takes its budget from the input, never from a worker.
TRAJECTORY_MAGIC = b"PTAT"
TRAJECTORY_VERSION = 3

#: The ``PTAT`` columns: name, dtype and number of dimensions, each with
#: one entry per merge step.
TRAJECTORY_COLUMNS = (
    ("boundaries", "<i8", 1),
    ("keys", "<f8", 1),
    ("heads", "<i8", 1),
    ("rows", "<f8", 2),
)

_ENVELOPE_LEN = struct.Struct("<I")


def pack_envelope(meta: Dict[str, Any], body: bytes) -> bytes:
    """Prefix opaque codec bytes with a small JSON routing header.

    Data frames ship existing ``PTAS``/``PTAR`` payloads **verbatim** —
    a replicated push frame's body is byte-identical to the primary's
    WAL frame payload — so the routing information (key, sequence
    number, shard weights) travels in a length-prefixed JSON envelope
    in front of the body instead of being repacked into it.
    """
    blob = json.dumps(meta, allow_nan=False).encode("utf-8")
    return _ENVELOPE_LEN.pack(len(blob)) + blob + body


def unpack_envelope(payload: bytes, what: str) -> Tuple[Dict[str, Any], bytes]:
    """Split an enveloped payload back into (meta, body), loudly."""
    if len(payload) < _ENVELOPE_LEN.size:
        raise TransportError(f"{what} payload too short for an envelope")
    (length,) = _ENVELOPE_LEN.unpack_from(payload, 0)
    begin = _ENVELOPE_LEN.size
    if begin + length > len(payload):
        raise TransportError(
            f"{what} envelope promises {length} header bytes, "
            f"{len(payload) - begin} remain"
        )
    meta = decode_json(payload[begin:begin + length], what)
    return meta, payload[begin + length:]


def encode_trajectory(trajectory: Tuple[Any, ...]) -> bytes:
    """Pack one shard's merge schedule into a ``PTAT`` payload.

    ``trajectory`` is a :data:`repro.parallel.ShardTrajectory`:
    ``(boundaries, keys, heads, rows)``.
    """
    import numpy as np

    from ..storage.columns import pack_columns

    return pack_columns(
        {
            name: np.asarray(array, dtype=dtype)
            for (name, dtype, _), array in zip(TRAJECTORY_COLUMNS, trajectory)
        },
        TRAJECTORY_MAGIC,
        TRAJECTORY_VERSION,
    )


def decode_trajectory(payload: bytes) -> Tuple[Any, ...]:
    """Unpack a ``PTAT`` payload into ``(boundaries, keys, heads, rows)``.

    Raises :class:`TransportError` unless the payload is version
    :data:`TRAJECTORY_VERSION` and holds exactly
    :data:`TRAJECTORY_COLUMNS`, in order, each with its dtype and number
    of dimensions, one entry per step.
    Whether the indices fit the shard is the caller's check: only it
    knows the shard.
    """
    from ..storage.columns import ColumnCodecError, unpack_columns

    try:
        columns = unpack_columns(
            payload, TRAJECTORY_MAGIC, TRAJECTORY_VERSION
        )
    except ColumnCodecError as error:
        raise TransportError(str(error)) from error
    names = [name for name, _, _ in TRAJECTORY_COLUMNS]
    missing = [name for name in names if name not in columns]
    if missing:
        raise TransportError(
            f"trajectory payload is missing columns {missing}"
        )
    if list(columns) != names:
        raise TransportError(
            f"trajectory payload columns are {list(columns)}, "
            f"expected {names}"
        )
    for name, dtype, ndim in TRAJECTORY_COLUMNS:
        column = columns[name]
        if column.dtype.str != dtype or column.ndim != ndim:
            raise TransportError(
                f"trajectory column {name!r} is {column.ndim}-d "
                f"{column.dtype.str}, expected {ndim}-d {dtype}"
            )
    boundaries, keys, heads, rows = (columns[name] for name in names)
    if not len(boundaries) == len(keys) == len(heads) == len(rows):
        raise TransportError("trajectory payload columns are malformed")
    return boundaries, keys, heads, rows


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class Connection:
    """One client connection with connect/read deadlines.

    ``request(kind, payload)`` performs a frame round trip and raises
    :class:`RemoteError` when the answer is an error frame — so callers
    only ever see either the expected response frame or an exception.
    Usable as a context manager.
    """

    def __init__(
        self,
        address: str,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
    ) -> None:
        self.address = address
        host, port = parse_address(address)
        injected = failpoints.fail("transport.connect")
        if injected is not None:
            raise TransportError(
                f"connect to {address} failed: {injected}"
            )
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=connect_timeout
            )
        except OSError as error:
            raise TransportError(
                f"connect to {address} failed: {error}"
            ) from error
        self.read_timeout = read_timeout
        self._sock.settimeout(read_timeout)

    def send(self, kind: int, payload: bytes = b"") -> None:
        try:
            send_frame(self._sock, kind, payload)
        except OSError as error:
            raise TransportError(
                f"send to {self.address} failed: {error}"
            ) from error

    def recv(self) -> Tuple[int, bytes]:
        try:
            return recv_frame(self._sock)
        except OSError as error:
            raise TransportError(
                f"read from {self.address} failed: {error}"
            ) from error

    def request(
        self,
        kind: int,
        payload: bytes = b"",
        *,
        timeout: Optional[float] = None,
    ) -> Tuple[int, bytes]:
        """One round trip; error frames become :class:`RemoteError`.

        ``timeout`` overrides the connection's per-read deadline for
        just this round trip — the replication links pass the ambient
        end-to-end deadline's remaining budget through it, so no ack
        wait outlives the request that triggered it.
        """
        if timeout is not None and timeout != self.read_timeout:
            try:
                self._sock.settimeout(timeout)
            except OSError as error:
                raise TransportError(
                    f"read from {self.address} failed: {error}"
                ) from error
            try:
                self.send(kind, payload)
                answer_kind, answer = self.recv()
            finally:
                try:
                    self._sock.settimeout(self.read_timeout)
                except OSError:
                    pass  # the socket died; close() follows anyway
        else:
            self.send(kind, payload)
            answer_kind, answer = self.recv()
        if answer_kind == KIND_ERROR:
            detail = decode_json(answer, "error frame")
            raise RemoteError(
                str(detail.get("error", "unspecified peer error")),
                str(detail.get("code", "internal")),
            )
        return answer_kind, answer

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


#: RemoteError codes that no amount of retrying can fix: the payload is
#: at fault (``bad_request``) or the request's budget is spent
#: (``deadline_exceeded``) — re-raised immediately, no peer rotation.
NON_RETRYABLE_CODES = frozenset({"bad_request", "deadline_exceeded"})


def request_with_retries(
    addresses: Sequence[str],
    kind: int,
    payload: bytes,
    expect: int,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF_S,
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
    deadline: Optional[Deadline] = None,
    health: Optional[PeerHealth] = None,
    backoff_cap: float = DEFAULT_BACKOFF_CAP_S,
    rng: Optional[random.Random] = None,
) -> bytes:
    """One request, tried against ``addresses`` with bounded retries.

    Attempt ``1 + retries`` rounds; within a round every address is
    tried once (rotated so consecutive rounds lead with different
    peers), with exponential backoff plus decorrelated jitter between
    rounds (:class:`repro.util.backoff.Backoff`; ``rng`` makes the
    schedule deterministic in tests, ``backoff=0`` disables sleeping
    entirely).  A :class:`RemoteError` whose code is in
    :data:`NON_RETRYABLE_CODES` is re-raised immediately; everything
    else rotates to the next peer.  Raises the last failure when every
    attempt is exhausted.

    ``deadline`` bounds the whole ladder: sleeps and socket timeouts
    are clamped to the remaining budget, and an expired deadline raises
    :class:`~repro.util.deadline.DeadlineExceeded` instead of starting
    another attempt.

    ``health`` consults a per-peer circuit breaker before every dial:
    open peers are skipped without burning a connect timeout, half-open
    peers get a ``PING`` probe before being trusted with the real
    request, and every outcome is recorded (a :class:`RemoteError`
    counts as *success* — the peer is alive, it just disliked the
    request).  When every address is breaker-blocked the call fails
    fast with :class:`TransportError`.
    """
    if not addresses:
        raise TransportError("no addresses to send to")
    retried = _metrics.counter(
        "repro_shard_retries_total",
        "Failed request attempts rotated to another peer.",
        tier="cluster",
    )
    skipped = _metrics.counter(
        "repro_peer_breaker_skips_total",
        "Dial attempts skipped because the peer's breaker was open.",
        tier="cluster",
    )
    ladder = Backoff(backoff, max(backoff_cap, backoff), rng=rng)
    last: Optional[Exception] = None
    for round_index in range(1 + max(retries, 0)):
        if round_index:
            delay = ladder.next()
            if deadline is not None:
                deadline.check(f"retry round {round_index}")
                delay = min(delay, max(deadline.remaining(), 0.0))
            if delay > 0:
                time.sleep(delay)
        for step in range(len(addresses)):
            address = addresses[(round_index + step) % len(addresses)]
            if deadline is not None:
                deadline.check(f"dialing {address}")
            if health is not None and not health.allow(address):
                skipped.inc()
                continue
            probing = health is not None and health.probation(address)
            if deadline is not None:
                dial_timeout = deadline.clamp(connect_timeout)
                wait_timeout: Optional[float] = deadline.clamp(read_timeout)
            else:
                dial_timeout = connect_timeout
                wait_timeout = read_timeout
            try:
                with Connection(
                    address, dial_timeout, wait_timeout
                ) as connection:
                    if probing:
                        probe_kind, _ = connection.request(KIND_PING)
                        if probe_kind != KIND_PONG:
                            raise TransportError(
                                f"{address} answered frame kind "
                                f"{probe_kind} to the half-open PING probe"
                            )
                    answer_kind, answer = connection.request(kind, payload)
            except RemoteError as error:
                # The peer is alive enough to answer an error frame.
                if health is not None:
                    health.success(address)
                if error.code in NON_RETRYABLE_CODES:
                    raise
                last = error
                retried.inc()
                continue
            except TransportError as error:
                if health is not None:
                    health.failure(address)
                last = error
                retried.inc()
                continue
            if health is not None:
                health.success(address)
            if answer_kind != expect:
                last = TransportError(
                    f"{address} answered frame kind {answer_kind}, "
                    f"expected {expect}"
                )
                retried.inc()
                continue
            return answer
    if last is None:
        raise TransportError(
            "every peer's circuit breaker is open "
            f"({', '.join(addresses)})"
        )
    raise last


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
class FrameServer(socketserver.ThreadingTCPServer):
    """A threaded server that answers each frame on a connection in turn.

    The base of the reducer worker and the standby server.  Subclasses
    implement :meth:`handle_frame`; an exception it raises is answered
    with a structured error frame: the classes in :attr:`error_codes`
    with their code (matched in order), any other ``OSError`` drops the
    peer (the answer could not be written), and anything else is
    answered ``internal`` after :meth:`log_internal`.  A torn or corrupt
    request frame drops the connection.  ``server.address`` is the
    ``"host:port"`` string its clients dial.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: ``(exception classes, error code)`` pairs, matched in order.
    error_codes: Tuple[Tuple[Tuple[type, ...], str], ...] = ()

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
    ) -> None:
        super().__init__((host, port), _FrameHandler)
        self.read_timeout = read_timeout

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def address(self) -> str:
        return f"{self.server_address[0]}:{self.port}"

    def handle_frame(
        self, sock: socket.socket, kind: int, payload: bytes
    ) -> None:
        """Answer one request frame on ``sock``."""
        raise NotImplementedError

    def log_internal(self, error: Exception) -> None:
        """Called inside the ``except`` block of an ``internal`` answer."""

    def serve_in_thread(self, name: str) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread named
        ``name-<port>``; :meth:`shutdown` stops it."""
        from ..service.http import SERVE_POLL_INTERVAL

        thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": SERVE_POLL_INTERVAL},
            name=f"{name}-{self.port}",
            daemon=True,
        )
        thread.start()
        return thread

    def _error_answer(self, error: Exception) -> Optional[Tuple[str, str]]:
        for classes, code in self.error_codes:
            if isinstance(error, classes):
                return str(error), code
        if isinstance(error, OSError):
            return None
        self.log_internal(error)
        return f"{type(error).__name__}: {error}", "internal"


class _FrameHandler(socketserver.BaseRequestHandler):
    server: FrameServer

    def handle(self) -> None:
        sock: socket.socket = self.request
        sock.settimeout(self.server.read_timeout)
        while True:
            try:
                kind, payload = recv_frame(sock)
            except (TransportError, OSError):
                return  # peer gone or torn frame: drop the connection
            try:
                self.server.handle_frame(sock, kind, payload)
            except Exception as error:  # noqa: BLE001 — answered below
                answer = self.server._error_answer(error)
                if answer is None:
                    return
                try:
                    send_frame(sock, KIND_ERROR, error_payload(*answer))
                except OSError:
                    return


__all__ = [
    "Connection",
    "DEFAULT_BACKOFF_CAP_S",
    "DEFAULT_BACKOFF_S",
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_READ_TIMEOUT",
    "DEFAULT_RETRIES",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "FrameServer",
    "KIND_ACK",
    "KIND_CATCHUP",
    "KIND_ERROR",
    "KIND_FREEZE",
    "KIND_FROZEN",
    "KIND_HELLO",
    "KIND_OK",
    "KIND_PING",
    "KIND_PONG",
    "KIND_PUSH",
    "KIND_REDUCE",
    "KIND_TRAJECTORY",
    "MAX_FRAME_BYTES",
    "NON_RETRYABLE_CODES",
    "RemoteError",
    "TRAJECTORY_MAGIC",
    "TRAJECTORY_VERSION",
    "TransportError",
    "decode_json",
    "decode_trajectory",
    "encode_trajectory",
    "error_payload",
    "pack_envelope",
    "parse_address",
    "recv_frame",
    "request_with_retries",
    "send_frame",
    "unpack_envelope",
]
