"""Cluster tier: transport framing, remote shard reduction, fault paths.

The normative transport framing rules live in ``docs/FORMATS.md`` § 8;
each rule there cites its enforcing test in this file.  The distributed
reduction contract under test is the one the coordinator promises:
``reduce_cluster(...)`` is bit-identical to ``run_sharded(workers=1)``
for every cluster size, worker placement, and mid-job worker death.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib

import numpy as np
import pytest

from repro.api import ExecutionPolicy
from repro.api.plan import PlanError
from repro.cluster import (
    Connection,
    RemoteError,
    TransportError,
    parse_address,
    recv_frame,
    reduce_cluster,
    request_with_retries,
    send_frame,
    start_worker,
)
from repro.cluster.transport import (
    FRAME_MAGIC,
    FRAME_VERSION,
    KIND_PING,
    KIND_PONG,
    KIND_REDUCE,
    KIND_TRAJECTORY,
    MAX_FRAME_BYTES,
    decode_trajectory,
    encode_trajectory,
    error_payload,
    pack_envelope,
    unpack_envelope,
)
from repro.cluster.coordinator import encode_shard_request
from repro.datasets import synthetic_sequential_segments
from repro.obs import metrics as _metrics
from repro.parallel import encode_segments, run_sharded
from repro.pipeline import compress
from repro.util import failpoints
from repro.util.deadline import DeadlineExceeded, deadline_scope
from repro.util.health import SHARED as SHARED_HEALTH
from repro.util.health import PeerHealth

_HEADER = struct.Struct("<4sHBBII")

#: An address nothing listens on: port 1 is privileged and unbound.
DEAD = "127.0.0.1:1"


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


def _raw_frame(magic=FRAME_MAGIC, version=FRAME_VERSION, kind=KIND_PING,
               payload=b"", length=None, crc=None):
    if length is None:
        length = len(payload)
    if crc is None:
        crc = zlib.crc32(payload)
    return _HEADER.pack(magic, version, kind, 0, length, crc) + payload


@pytest.fixture
def workers():
    """Start reducer workers on demand; shut every one down afterwards."""
    started = []

    def _start(count=2):
        for _ in range(count):
            worker, _ = start_worker()
            started.append(worker)
        return [worker.address for worker in started]

    yield _start
    for worker in started:
        worker.shutdown()
        worker.server_close()


# ----------------------------------------------------------------------
# Frame layout (FORMATS.md § 8.1)
# ----------------------------------------------------------------------
class TestFraming:
    def test_frame_roundtrip(self):
        left, right = _pair()
        send_frame(left, KIND_REDUCE, b"shard bytes")
        kind, payload = recv_frame(right)
        assert (kind, payload) == (KIND_REDUCE, b"shard bytes")

    def test_header_is_sixteen_little_endian_bytes(self):
        left, right = _pair()
        send_frame(left, KIND_PING, b"abc")
        raw = right.recv(1 << 16)
        assert len(raw) == _HEADER.size + 3 == 19
        magic, version, kind, reserved, length, crc = _HEADER.unpack(
            raw[: _HEADER.size]
        )
        assert magic == FRAME_MAGIC == b"PTAF"
        assert version == FRAME_VERSION == 1
        assert (kind, reserved, length) == (KIND_PING, 0, 3)
        assert crc == zlib.crc32(b"abc")

    def test_torn_header_raises(self):
        left, right = _pair()
        left.sendall(_raw_frame(payload=b"xyz")[:7])
        left.close()
        with pytest.raises(TransportError, match="mid-frame header"):
            recv_frame(right)

    def test_torn_payload_raises(self):
        left, right = _pair()
        left.sendall(_raw_frame(payload=b"promised-bytes")[:-4])
        left.close()
        with pytest.raises(TransportError, match="mid-frame payload"):
            recv_frame(right)

    def test_crc_mismatch_raises(self):
        left, right = _pair()
        frame = bytearray(_raw_frame(payload=b"sensitive"))
        frame[-1] ^= 0xFF  # flip one payload bit
        left.sendall(bytes(frame))
        with pytest.raises(TransportError, match="CRC"):
            recv_frame(right)

    def test_wrong_magic_raises(self):
        left, right = _pair()
        left.sendall(_raw_frame(magic=b"NOPE"))
        with pytest.raises(TransportError, match="magic"):
            recv_frame(right)

    def test_wrong_version_raises(self):
        left, right = _pair()
        left.sendall(_raw_frame(version=FRAME_VERSION + 1))
        with pytest.raises(TransportError, match="version"):
            recv_frame(right)

    def test_oversized_length_rejected_before_reading_payload(self):
        left, right = _pair()
        left.sendall(_raw_frame(length=MAX_FRAME_BYTES + 1, crc=0))
        with pytest.raises(TransportError, match="exceeds"):
            recv_frame(right)


# ----------------------------------------------------------------------
# Envelope and trajectory payloads (FORMATS.md § 8.2–8.3)
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_envelope_roundtrip_keeps_body_verbatim(self):
        meta = {"key": "sensor", "seq": 41}
        body = bytes(range(256))
        restored_meta, restored_body = unpack_envelope(
            pack_envelope(meta, body), "test"
        )
        assert restored_meta == meta
        assert restored_body == body

    def test_truncated_envelope_raises(self):
        with pytest.raises(TransportError, match="too short"):
            unpack_envelope(b"\x07", "test")

    def test_envelope_length_overrun_raises(self):
        blob = pack_envelope({"key": "k"}, b"")[:-2]
        with pytest.raises(TransportError, match="promises"):
            unpack_envelope(blob, "test")

    def test_non_object_json_raises(self):
        payload = struct.pack("<I", 2) + b"[]"
        with pytest.raises(TransportError, match="JSON object"):
            unpack_envelope(payload, "test")


class TestTrajectoryCodec:
    def test_trajectory_roundtrip(self):
        boundaries = np.array([3, 7, 11], dtype=np.int64)
        keys = np.array([0.5, 1.25, 9.75], dtype=np.float64)
        restored = decode_trajectory(
            encode_trajectory((boundaries, keys, 42.5))
        )
        np.testing.assert_array_equal(restored[0], boundaries)
        np.testing.assert_array_equal(restored[1], keys)
        assert restored[2] == 42.5

    def test_missing_column_raises(self):
        from repro.cluster.transport import (
            TRAJECTORY_MAGIC,
            TRAJECTORY_VERSION,
        )
        from repro.storage.columns import pack_columns

        payload = pack_columns(
            {"boundaries": np.array([1], dtype=np.int64)},
            TRAJECTORY_MAGIC,
            TRAJECTORY_VERSION,
        )
        with pytest.raises(TransportError, match="missing columns"):
            decode_trajectory(payload)

    def test_mismatched_columns_raise(self):
        blob = encode_trajectory(
            (np.array([1, 2], dtype=np.int64), np.array([0.5]), 1.0)
        )
        with pytest.raises(TransportError, match="malformed"):
            decode_trajectory(blob)


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.1.2.3:9041") == ("10.1.2.3", 9041)

    @pytest.mark.parametrize(
        "address", ["localhost", ":9041", "host:", "host:abc", "host:0",
                    "host:70000"]
    )
    def test_malformed_addresses_are_rejected(self, address):
        with pytest.raises(TransportError):
            parse_address(address)


# ----------------------------------------------------------------------
# Connection, error frames, retry ladder (FORMATS.md § 8.4)
# ----------------------------------------------------------------------
class TestConnection:
    def test_ping_pong(self, workers):
        (address,) = workers(1)
        with Connection(address) as connection:
            kind, payload = connection.request(KIND_PING)
        assert (kind, payload) == (KIND_PONG, b"")

    def test_error_frame_becomes_remote_error_with_code(self, workers):
        (address,) = workers(1)
        with Connection(address) as connection:
            with pytest.raises(RemoteError) as excinfo:
                connection.request(77, b"")
        assert excinfo.value.code == "bad_request"
        assert "unsupported frame kind" in str(excinfo.value)

    def test_unreachable_peer_raises_transport_error(self):
        with pytest.raises(TransportError, match="connect"):
            Connection(DEAD, connect_timeout=0.2)

    def test_connect_failpoint_injects_failure(self, workers):
        (address,) = workers(1)
        with failpoints.activated(
            {"transport.connect": failpoints.Return("injected refusal")}
        ):
            with pytest.raises(TransportError, match="injected refusal"):
                Connection(address)

    def test_send_failpoint_surfaces_as_transport_error(self, workers):
        (address,) = workers(1)
        with Connection(address) as connection:
            with failpoints.activated(
                {"transport.send": failpoints.Raise(
                    OSError(32, "Broken pipe"))}
            ):
                with pytest.raises(TransportError, match="send"):
                    connection.send(KIND_PING)

    def test_error_payload_matches_http_error_shape(self):
        import json

        decoded = json.loads(error_payload("boom", "internal"))
        assert decoded == {"error": "boom", "code": "internal"}


class TestRetries:
    def test_rotation_reaches_the_live_peer(self, workers):
        (address,) = workers(1)
        answer = request_with_retries(
            [DEAD, address], KIND_PING, b"", expect=KIND_PONG,
            retries=0, connect_timeout=0.2,
        )
        assert answer == b""

    def test_bad_request_is_raised_immediately(self, workers):
        (address,) = workers(1)
        with pytest.raises(RemoteError) as excinfo:
            request_with_retries(
                [address, address], KIND_REDUCE, b"garbage",
                expect=KIND_TRAJECTORY, retries=2, backoff=0.0,
            )
        assert excinfo.value.code == "bad_request"

    def test_exhausted_retries_raise_the_last_failure(self):
        with pytest.raises(TransportError):
            request_with_retries(
                [DEAD], KIND_PING, b"", expect=KIND_PONG,
                retries=1, backoff=0.0, connect_timeout=0.2,
            )

    def test_no_addresses_is_refused(self):
        with pytest.raises(TransportError, match="no addresses"):
            request_with_retries([], KIND_PING, b"", expect=KIND_PONG)

    def test_recv_failpoint_is_retried_to_success(self, workers):
        (address,) = workers(1)
        # First receive tears; the retry round succeeds against the same
        # (healed) peer.  The worker-side handler also evaluates the
        # site, hence the generous budget accounting: one client firing.
        with failpoints.activated(
            {"transport.recv": failpoints.Raise(
                TransportError("injected torn read"), times=1)}
        ):
            answer = request_with_retries(
                [address], KIND_PING, b"", expect=KIND_PONG,
                retries=2, backoff=0.0,
            )
        assert answer == b""


# ----------------------------------------------------------------------
# Distributed reduction: bit-identity and fault fallbacks
# ----------------------------------------------------------------------
def _stream(n=3000, dims=2, seed=11):
    return synthetic_sequential_segments(n, dims, seed=seed)


def _assert_same(result, oracle):
    assert result.segments == oracle.segments
    assert result.error == oracle.error
    assert result.size == oracle.size
    assert result.input_size == oracle.input_size


class TestClusterReduction:
    def test_bit_identical_to_sharded_size_budget(self, workers):
        addresses = workers(2)
        stream = _stream()
        oracle = run_sharded(stream, size=120, workers=1, shard_size=256)
        result = reduce_cluster(
            stream, size=120, cluster=addresses, shard_size=256
        )
        _assert_same(result, oracle)

    def test_bit_identical_to_sharded_error_budget(self, workers):
        addresses = workers(2)
        stream = _stream()
        oracle = run_sharded(
            stream, max_error=0.05, workers=1, shard_size=256
        )
        result = reduce_cluster(
            stream, max_error=0.05, cluster=addresses, shard_size=256
        )
        _assert_same(result, oracle)

    def test_worker_count_does_not_change_the_answer(self, workers):
        addresses = workers(3)
        stream = _stream(1500)
        single = reduce_cluster(
            stream, size=90, cluster=addresses[:1], shard_size=200
        )
        many = reduce_cluster(
            stream, size=90, cluster=addresses, shard_size=200
        )
        _assert_same(many, single)

    def test_dead_address_falls_back_to_live_peers(self, workers):
        addresses = workers(1)
        stream = _stream(1500)
        oracle = run_sharded(stream, size=90, workers=1, shard_size=200)
        result = reduce_cluster(
            stream, size=90, cluster=[DEAD] + addresses, shard_size=200,
            connect_timeout=0.2, shard_retries=1, retry_backoff=0.0,
        )
        _assert_same(result, oracle)

    def test_all_peers_dead_reduces_locally(self):
        stream = _stream(1500)
        oracle = run_sharded(stream, size=90, workers=1, shard_size=200)
        result = reduce_cluster(
            stream, size=90, cluster=[DEAD], shard_size=200,
            connect_timeout=0.2, shard_retries=0, retry_backoff=0.0,
        )
        _assert_same(result, oracle)

    def test_mid_job_worker_failures_stay_bit_identical(self, workers):
        # The first three shard requests blow up inside the worker (the
        # cluster.worker failpoint); retries and the local fallback must
        # still produce the exact plain-GMS reduction.
        addresses = workers(2)
        stream = _stream()
        oracle = run_sharded(stream, size=120, workers=1, shard_size=256)
        with failpoints.activated(
            {"cluster.worker": failpoints.Raise(times=3)}
        ):
            result = reduce_cluster(
                stream, size=120, cluster=addresses, shard_size=256,
                shard_retries=1, retry_backoff=0.0,
            )
        _assert_same(result, oracle)

    def test_empty_stream_returns_empty_result(self, workers):
        addresses = workers(1)
        result = reduce_cluster([], size=5, cluster=addresses)
        assert result.segments == []
        assert result.size == 0

    def test_cluster_must_not_be_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            reduce_cluster(_stream(10), size=5, cluster=[])

    def test_malformed_address_fails_before_any_network_io(self):
        with pytest.raises(TransportError, match="host:port"):
            reduce_cluster(_stream(10), size=5, cluster=["nonsense"])


# ----------------------------------------------------------------------
# Policy plumbing: compress(..., cluster=[...])
# ----------------------------------------------------------------------
class TestClusterPolicy:
    def test_compress_cluster_matches_workers(self, workers):
        addresses = workers(2)
        stream = _stream(1500)
        local = compress(stream, size=90, workers=1)
        remote = compress(stream, size=90, cluster=addresses)
        assert remote.segments == local.segments
        assert remote.error == local.error
        assert remote.backend == "numpy"

    def test_policy_rejects_a_bare_string(self):
        with pytest.raises(PlanError, match="not a single string"):
            ExecutionPolicy(cluster="127.0.0.1:9041")

    def test_policy_rejects_an_empty_cluster(self):
        with pytest.raises(PlanError, match="at least one address"):
            ExecutionPolicy(cluster=())

    def test_policy_rejects_workers_and_cluster_together(self):
        with pytest.raises(PlanError, match="mutually exclusive"):
            ExecutionPolicy(workers=2, cluster=("127.0.0.1:9041",))

    def test_cluster_requires_the_greedy_method(self):
        with pytest.raises(PlanError, match="only supported for"):
            compress(
                _stream(10), size=5, method="dp",
                cluster=["127.0.0.1:9041"],
            )


# ----------------------------------------------------------------------
# Peer health circuit breakers in the retry ladder
# ----------------------------------------------------------------------
class TestBreakers:
    def test_failures_open_the_breaker(self):
        health = PeerHealth(threshold=2, cooldown=60.0)
        for _ in range(2):
            with pytest.raises(TransportError):
                request_with_retries(
                    [DEAD], KIND_PING, b"", expect=KIND_PONG,
                    retries=0, connect_timeout=0.2, health=health,
                )
        assert health.state(DEAD) == "open"

    def test_open_breaker_refuses_without_burning_the_timeout(self):
        health = PeerHealth(threshold=1, cooldown=60.0)
        health.failure(DEAD)  # opened by an earlier caller
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="circuit breaker"):
            request_with_retries(
                [DEAD], KIND_PING, b"", expect=KIND_PONG,
                retries=0, connect_timeout=5.0, health=health,
            )
        # No dial happened: the refusal is instant, not a connect
        # timeout's worth of waiting.
        assert time.monotonic() - t0 < 1.0

    def test_half_open_probe_readmits_a_revived_peer(self, workers):
        (address,) = workers(1)
        health = PeerHealth(threshold=1, cooldown=0.01)
        health.failure(address)  # the peer "died" once
        assert health.state(address) == "open"
        time.sleep(0.02)  # cooldown elapses; next caller gets the probe
        answer = request_with_retries(
            [address], KIND_PING, b"", expect=KIND_PONG,
            retries=0, health=health,
        )
        assert answer == b""
        assert health.state(address) == "closed"
        # The lifecycle is visible on the metrics surface.
        assert _metrics.value(
            "repro_peer_breaker_state", peer=address
        ) == 0
        assert "repro_peer_breaker_state" in _metrics.render()

    def test_reduce_cluster_skips_peers_with_open_breakers(self, workers):
        addresses = workers(1)
        stream = _stream(1500)
        oracle = run_sharded(stream, size=90, workers=1, shard_size=200)
        for _ in range(3):
            SHARED_HEALTH.failure(DEAD)  # written off by earlier traffic
        t0 = time.monotonic()
        result = reduce_cluster(
            stream, size=90, cluster=[DEAD] + addresses, shard_size=200,
            connect_timeout=5.0, shard_retries=0, retry_backoff=0.0,
        )
        _assert_same(result, oracle)
        # Seven shards, each rotated through DEAD first: without the
        # breaker that is 7 connect timeouts of dead waiting.
        assert time.monotonic() - t0 < 5.0
        assert SHARED_HEALTH.state(DEAD) == "open"


# ----------------------------------------------------------------------
# End-to-end deadlines across the cluster hop
# ----------------------------------------------------------------------
class TestClusterDeadlines:
    def test_an_expired_deadline_fails_before_dialing(self):
        with deadline_scope(0.001):
            time.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                reduce_cluster(
                    _stream(100), size=10, cluster=[DEAD],
                    connect_timeout=0.2, retry_backoff=0.0,
                )

    def test_a_live_deadline_keeps_the_answer_bit_identical(self, workers):
        addresses = workers(2)
        stream = _stream(1500)
        oracle = run_sharded(stream, size=90, workers=1, shard_size=200)
        with deadline_scope(30.0):
            result = reduce_cluster(
                stream, size=90, cluster=addresses, shard_size=200
            )
        _assert_same(result, oracle)

    def _shard_payload(self, deadline_budget):
        stream = _stream(100)
        encoded = encode_segments(stream)
        w2 = np.ones(encoded.dimensions, dtype=np.float64)
        return encode_shard_request(
            encoded, 0, len(encoded), w2, None, deadline_budget
        )

    def test_worker_refuses_an_exhausted_budget(self, workers):
        (address,) = workers(1)
        with Connection(address) as connection:
            with pytest.raises(RemoteError) as excinfo:
                connection.request(
                    KIND_REDUCE, self._shard_payload(0.0)
                )
        assert excinfo.value.code == "deadline_exceeded"

    def test_deadline_exceeded_is_not_retried(self, workers):
        (address,) = workers(1)
        with pytest.raises(RemoteError) as excinfo:
            request_with_retries(
                [address, address], KIND_REDUCE,
                self._shard_payload(0.0), expect=KIND_TRAJECTORY,
                retries=3, backoff=0.0,
            )
        assert excinfo.value.code == "deadline_exceeded"

    def test_reversed_interval_is_a_bad_request(self, workers):
        (address,) = workers(1)
        encoded = encode_segments(_stream(10))
        encoded.ends[3] = encoded.starts[3] - 1
        payload = encode_shard_request(
            encoded, 0, len(encoded), np.ones(encoded.dimensions)
        )
        with Connection(address) as connection:
            with pytest.raises(RemoteError, match="ends before") as excinfo:
                connection.request(KIND_REDUCE, payload)
        assert excinfo.value.code == "bad_request"

    def test_non_numeric_budget_is_a_bad_request(self, workers):
        (address,) = workers(1)
        with Connection(address) as connection:
            with pytest.raises(RemoteError) as excinfo:
                connection.request(
                    KIND_REDUCE, self._shard_payload("soon")
                )
        assert excinfo.value.code == "bad_request"
