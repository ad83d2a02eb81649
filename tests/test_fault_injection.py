"""Injected disk faults, worker kills, and the hardened HTTP surface.

Satellite coverage for ISSUE 7: ENOSPC/EIO failpoints on WAL append,
fsync and checkpoint rename; push atomicity (memory never diverges from
the log); recovery bit-identity after a fault-then-crash sequence on
both backends; the degraded-mode state machine; per-shard retry and
in-process fallback under worker crashes; and the structured error
surface of the HTTP front end (400/413/429/500/503).
"""

from __future__ import annotations

import json
import random
import socket
import urllib.error
import urllib.request

import pytest

from repro import Interval, compress
from repro.core import AggregateSegment
from repro.obs import metrics
from repro.api import ExecutionPolicy
from repro.parallel import run_sharded
from repro.service import (
    Durability,
    DurabilityError,
    Service,
    SessionStore,
    encode_result,
    start_in_background,
)
from repro.storage.wal import WalError, WalWriter, read_wal, write_checkpoint
from repro.util import failpoints
from repro.util.failpoints import Exit, Raise, activated

BACKENDS = ["python", "numpy"]

ENOSPC = OSError(28, "No space left on device")
EIO = OSError(5, "Input/output error")


def stream(count: int, seed: int) -> list[AggregateSegment]:
    rng = random.Random(seed)
    segments: list[AggregateSegment] = []
    t = 1
    for _ in range(count):
        end = t + rng.randint(0, 3)
        segments.append(
            AggregateSegment(
                ("g",),
                (float(rng.randint(0, 50)), rng.random() * 10.0),
                Interval(t, end),
            )
        )
        t = end + 1 + (rng.randint(1, 4) if rng.random() < 0.2 else 0)
    return segments


def chunked(segments, size):
    return [segments[i: i + size] for i in range(0, len(segments), size)]


def snapshot_bytes(store: SessionStore, key: str) -> bytes:
    return encode_result(store.snapshot(key))


# ----------------------------------------------------------------------
# WAL-level faults
# ----------------------------------------------------------------------
class TestWalFaults:
    def test_failed_append_truncates_itself_back(self, tmp_path):
        path = tmp_path / "a.wal"
        with WalWriter(path) as wal:
            wal.append(b"first")
            mark = wal.tell()
            with activated({"wal.append": Raise(ENOSPC, times=1)}):
                with pytest.raises(OSError):
                    wal.append(b"second")
            assert wal.tell() == mark
            assert not wal.broken
            wal.append(b"third")  # the tail stayed byte-clean
        assert read_wal(path) == [b"first", b"third"]

    def test_fsync_fault_leaves_the_appended_frame_in_place(self, tmp_path):
        path = tmp_path / "a.wal"
        wal = WalWriter(path, fsync_every=1)
        with activated({"wal.fsync": Raise(EIO, times=1)}):
            with pytest.raises(OSError):
                wal.append(b"frame")
        # The write itself landed; only its durability is in doubt.
        assert read_wal(path) == [b"frame"]
        wal.close()

    def test_failed_rollback_marks_the_writer_broken(self, tmp_path):
        path = tmp_path / "a.wal"
        wal = WalWriter(path)
        wal.append(b"first")
        with activated(
            {
                "wal.append": Raise(ENOSPC, times=1),
                "wal.rollback": Raise(EIO, times=1),
            }
        ):
            with pytest.raises(OSError):
                wal.append(b"second")
        assert wal.broken
        with pytest.raises(WalError, match="rotate the epoch"):
            wal.append(b"third")  # a torn tail must never be appended after

    def test_checkpoint_write_fault_leaves_no_file_behind(self, tmp_path):
        target = tmp_path / "epoch-00000000.ckpt"
        import numpy as np

        columns = {"starts": np.asarray([1], dtype=np.int64)}
        with activated({"checkpoint.write": Raise(ENOSPC, times=1)}):
            with pytest.raises(OSError):
                write_checkpoint(target, columns)
        assert not target.exists()
        assert not target.with_name(target.name + ".tmp").exists()

    def test_checkpoint_rename_fault_leaves_only_a_tmp_file(self, tmp_path):
        target = tmp_path / "epoch-00000000.ckpt"
        import numpy as np

        columns = {"starts": np.asarray([1], dtype=np.int64)}
        with activated({"checkpoint.rename": Raise(EIO, times=1)}):
            with pytest.raises(OSError):
                write_checkpoint(target, columns)
        assert not target.exists()
        assert target.with_name(target.name + ".tmp").exists()


# ----------------------------------------------------------------------
# Durability-tier faults
# ----------------------------------------------------------------------
class TestDurabilityFaults:
    def test_log_push_wraps_disk_faults_and_stays_clean(self, tmp_path):
        durability = Durability(tmp_path, fsync_every=1)
        payload = b"pta-payload"
        durability.log_push("k", 0, payload)
        with activated({"wal.append": Raise(ENOSPC, times=1)}):
            with pytest.raises(DurabilityError, match="append failed"):
                durability.log_push("k", 0, payload)
        durability.log_push("k", 0, payload)  # healed: appends again
        durability.close()
        assert read_wal(durability.wal_path("k", 0)) == [payload, payload]

    def test_group_commit_counts_pushes_not_frames(self, tmp_path):
        durability = Durability(tmp_path, fsync_every=3)
        with activated({}):  # counting only: no armed actions
            for index in range(7):
                durability.log_push("ab"[index % 2], 0, b"x")
                durability.commit()
            # Sweeps after pushes 3 and 6; each syncs both dirty writers.
            assert failpoints.evaluations("wal.fsync") == 4
        durability.close()

    def test_probe_fault_is_wrapped(self, tmp_path):
        durability = Durability(tmp_path)
        with activated({"durability.probe": Raise(EIO, times=1)}):
            with pytest.raises(DurabilityError, match="probe failed"):
                durability.probe()
        durability.probe()  # healed
        assert not (tmp_path / ".probe").exists()


# ----------------------------------------------------------------------
# Store push atomicity + recovery bit-identity after fault-then-crash
# ----------------------------------------------------------------------
class TestPushAtomicity:
    def test_failed_push_leaves_memory_and_counters_untouched(self, tmp_path):
        store = SessionStore(size=10, data_dir=tmp_path / "d")
        chunks = chunked(stream(40, seed=1), 8)
        store.push("k", chunks[0])
        before = snapshot_bytes(store, "k")
        pushed = store.pushed("k")
        with activated({"wal.append": Raise(ENOSPC, times=1)}):
            with pytest.raises(DurabilityError):
                store.push("k", chunks[1])
        assert store.pushed("k") == pushed
        assert snapshot_bytes(store, "k") == before
        store.push("k", chunks[1])  # safe retry
        assert store.pushed("k") == pushed + len(chunks[1])
        store.close()

    def test_failed_first_push_leaves_no_phantom_key(self, tmp_path):
        store = SessionStore(size=10, data_dir=tmp_path / "d")
        with activated({"wal.append": Raise(ENOSPC, times=1)}):
            with pytest.raises(DurabilityError):
                store.push("ghost", stream(5, seed=2))
        assert "ghost" not in store
        assert len(store) == 0
        store.close()

    def test_fsync_fault_still_acknowledges_the_push(self, tmp_path):
        store = SessionStore(size=10, data_dir=tmp_path / "d", fsync_every=1)
        with activated({"wal.fsync": Raise(EIO, times=1)}):
            consumed = store.push("k", stream(6, seed=3))
        assert consumed == 6
        assert store.pushed("k") == 6
        assert store.stats().disk_errors == 1
        assert not store.degraded
        store.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recovery_bit_identity_after_fault_then_crash(
        self, tmp_path, backend
    ):
        """Faults, retries, then a crash: recovery matches memory exactly."""
        policy = ExecutionPolicy(backend=backend)
        data_dir = tmp_path / "d"
        store = SessionStore(size=12, policy=policy, data_dir=data_dir)
        chunks = chunked(stream(60, seed=4), 6)
        with activated(
            {"wal.append": Raise(ENOSPC, probability=0.4, times=2)},
            seed=11,
        ):
            for chunk in chunks:
                while True:
                    try:
                        store.push("k", chunk)
                        break
                    except DurabilityError:
                        pass  # retry is safe: the push was not acked
        live = snapshot_bytes(store, "k")
        del store  # crash: no close(); acknowledged frames are on disk

        recovered = SessionStore(
            size=12, policy=policy, data_dir=data_dir
        )
        assert snapshot_bytes(recovered, "k") == live
        recovered.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_rename_fault_then_crash_recovers(
        self, tmp_path, backend
    ):
        """A demotion interrupted by a rename fault keeps the WAL, so a
        crash right after still recovers every acknowledged push."""
        policy = ExecutionPolicy(backend=backend)
        data_dir = tmp_path / "d"
        store = SessionStore(
            size=12, policy=policy, data_dir=data_dir, degrade_after=5
        )
        store.push("k", stream(30, seed=5))
        with activated({"checkpoint.rename": Raise(EIO, times=1)}):
            store.freeze("k")  # falls back to a resident frozen epoch
        assert store.stats().disk_errors == 1
        live = snapshot_bytes(store, "k")
        del store  # crash with the demotion incomplete

        recovered = SessionStore(
            size=12, policy=policy, data_dir=data_dir
        )
        assert snapshot_bytes(recovered, "k") == live
        recovered.close()

    def test_pending_demotion_retries_on_the_next_durable_push(
        self, tmp_path
    ):
        data_dir = tmp_path / "d"
        store = SessionStore(size=12, data_dir=data_dir, degrade_after=5)
        store.push("k", stream(30, seed=6))
        with activated({"checkpoint.write": Raise(ENOSPC, times=1)}):
            store.freeze("k")
        [epoch] = store.frozen_epochs("k")
        assert epoch.resident  # checkpoint failed: kept in memory
        store.push("k", stream(5, seed=7))  # success retries the demotion
        [epoch] = store.frozen_epochs("k")
        assert not epoch.resident
        assert epoch.path is not None and epoch.path.exists()
        store.close()


# ----------------------------------------------------------------------
# Degraded mode
# ----------------------------------------------------------------------
class TestDegradedMode:
    def test_enters_after_consecutive_faults_and_keeps_serving(
        self, tmp_path
    ):
        store = SessionStore(
            size=10, data_dir=tmp_path / "d", degrade_after=3,
            reprobe_every=0,
        )
        chunks = chunked(stream(40, seed=8), 5)
        store.push("k", chunks[0])
        with activated({"wal.append": Raise(ENOSPC)}):
            for index in range(1, 4):
                with pytest.raises(DurabilityError):
                    store.push("k", chunks[index])
            assert store.degraded
            # Degraded pushes are acknowledged memory-only, no failpoint
            # evaluations because nothing touches the disk.
            consumed = store.push("k", chunks[4])
        assert consumed == len(chunks[4])
        stats = store.stats()
        assert stats.degraded and stats.durable
        assert stats.disk_errors == 3
        # The WAL still only holds the one acknowledged durable push.
        wal = Durability(tmp_path / "d").wal_path("k", 0)
        assert len(read_wal(wal)) == 1
        store.close()

    def test_reprobe_reattaches_and_recovery_matches_memory(self, tmp_path):
        data_dir = tmp_path / "d"
        store = SessionStore(
            size=10, data_dir=data_dir, degrade_after=2, reprobe_every=0
        )
        chunks = chunked(stream(50, seed=9), 10)
        store.push("k", chunks[0])
        with activated({"wal.append": Raise(ENOSPC)}):
            for index in (1, 2):
                with pytest.raises(DurabilityError):
                    store.push("k", chunks[index])
        assert store.degraded
        store.push("k", chunks[1])  # memory-only
        store.push("k", chunks[2])
        assert store.reprobe()  # disk healed: re-attach demotes dirty keys
        assert not store.degraded
        store.push("k", chunks[3])  # durable again
        live = snapshot_bytes(store, "k")
        del store  # crash

        recovered = SessionStore(size=10, data_dir=data_dir)
        assert snapshot_bytes(recovered, "k") == live
        recovered.close()

    def test_automatic_reprobe_after_reprobe_every_pushes(self, tmp_path):
        store = SessionStore(
            size=10, data_dir=tmp_path / "d", degrade_after=1,
            reprobe_every=2,
        )
        with activated({"wal.append": Raise(ENOSPC, times=1)}):
            with pytest.raises(DurabilityError):
                store.push("k", stream(4, seed=10))
        assert store.degraded
        store.push("k", stream(4, seed=11))  # degraded push 1
        assert store.degraded
        store.push("k", stream(4, seed=12))  # push 2 triggers the probe
        assert not store.degraded
        store.close()

    def test_probe_failure_keeps_the_store_degraded(self, tmp_path):
        store = SessionStore(
            size=10, data_dir=tmp_path / "d", degrade_after=1,
            reprobe_every=0,
        )
        with activated({"wal.append": Raise(ENOSPC, times=1)}):
            with pytest.raises(DurabilityError):
                store.push("k", stream(4, seed=13))
        assert store.degraded
        with activated({"durability.probe": Raise(EIO)}):
            assert not store.reprobe()
        assert store.degraded
        assert store.reprobe()  # healed
        store.close()

    def test_broken_writer_rotates_only_the_poisoned_key(self, tmp_path):
        store = SessionStore(
            size=10, data_dir=tmp_path / "d", degrade_after=4,
            reprobe_every=0,
        )
        store.push("k", stream(10, seed=14))
        store.push("other", stream(10, seed=15))
        with activated(
            {
                "wal.append": Raise(ENOSPC, times=1),
                "wal.rollback": Raise(EIO, times=1),
            }
        ):
            with pytest.raises(DurabilityError):
                store.push("k", stream(5, seed=16))
        # The torn tail is quarantined: the key's epoch rotated at once
        # (the acknowledged data was frozen), the store is not degraded,
        # and both keys keep accepting durable pushes on fresh WALs.
        assert not store.degraded
        assert len(store.frozen_epochs("k")) == 1
        store.push("k", stream(5, seed=17))
        store.push("other", stream(5, seed=18))
        assert store.stats().disk_errors == 1
        store.close()


# ----------------------------------------------------------------------
# Sharded engine under worker crashes
# ----------------------------------------------------------------------
class TestWorkerCrashes:
    SEGMENTS = 180
    SHARD = 30

    def _input(self):
        return stream(self.SEGMENTS, seed=20)

    def test_bounded_kills_heal_and_output_is_bit_identical(self, tmp_path):
        segments = self._input()
        baseline = run_sharded(segments, size=15, shard_size=self.SHARD)
        with activated(
            {
                "parallel.worker": Exit(
                    code=9, limit=2, limit_dir=str(tmp_path)
                )
            },
            propagate=True,
        ):
            survived = run_sharded(
                segments,
                size=15,
                workers=2,
                shard_size=self.SHARD,
                retry_backoff=0.01,
            )
        assert survived.segments == baseline.segments
        assert survived.error == baseline.error
        assert survived.merges == baseline.merges

    def test_unbounded_kills_fall_back_in_process(self):
        segments = self._input()
        baseline = run_sharded(segments, size=15, shard_size=self.SHARD)
        with activated({"parallel.worker": Exit(code=9)}, propagate=True):
            survived = run_sharded(
                segments,
                size=15,
                workers=2,
                shard_size=self.SHARD,
                shard_retries=1,
                retry_backoff=0.01,
            )
            # The in-process fallback evaluated the site in this process
            # (where Exit never fires) once per shard.
            assert failpoints.evaluations("parallel.worker") >= (
                self.SEGMENTS // self.SHARD
            )
        assert survived.segments == baseline.segments
        assert survived.error == baseline.error

    def test_worker_exceptions_propagate_not_retry(self):
        segments = self._input()
        with activated(
            {"parallel.worker": Raise(ValueError("injected worker error"))},
            propagate=True,
        ):
            with pytest.raises(ValueError, match="injected worker error"):
                run_sharded(
                    segments, size=15, workers=2, shard_size=self.SHARD
                )

    def test_compress_entry_point_survives_kills(self, tmp_path):
        segments = self._input()
        baseline = compress(
            segments, size=15, workers=1, shard_size=self.SHARD
        )
        with activated(
            {
                "parallel.worker": Exit(
                    code=9, limit=1, limit_dir=str(tmp_path)
                )
            },
            propagate=True,
        ):
            survived = compress(
                segments, size=15, workers=2, shard_size=self.SHARD
            )
        assert survived.segments == baseline.segments
        assert survived.error == baseline.error


# ----------------------------------------------------------------------
# HTTP fault surface
# ----------------------------------------------------------------------
def expect_http_error(call, status: int, code: str):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    assert excinfo.value.code == status
    body = json.load(excinfo.value)
    assert body["code"] == code
    assert "error" in body
    return excinfo.value


def post_json(port: int, path: str, body: bytes, headers=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method="POST",
        headers=headers or {},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def get(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}"
    ) as response:
        return json.load(response)


SEGMENT_JSON = json.dumps(
    [{"group": [], "values": [1.0], "start": 0, "end": 3}]
).encode()


def recv_all(sock: socket.socket) -> str:
    """Drain a socket until the server closes it (responses can split
    across TCP segments; a single recv races the second one)."""
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data.decode()


class TestHTTPFaultSurface:
    @pytest.fixture()
    def durable_server(self, tmp_path):
        service = Service(
            size=10,
            data_dir=tmp_path / "d",
            degrade_after=2,
            reprobe_every=0,
        )
        server, _ = start_in_background(
            service, max_body=4096, request_timeout=2.0
        )
        yield server, service
        server.shutdown()
        server.server_close()

    def test_oversized_content_length_is_413(self, durable_server):
        server, _ = durable_server
        expect_http_error(
            lambda: post_json(
                server.port,
                "/push/k",
                SEGMENT_JSON,
                headers={"Content-Length": str(50 * 1024 * 1024)},
            ),
            413,
            "payload_too_large",
        )

    def test_invalid_content_length_is_400(self, durable_server):
        server, _ = durable_server
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /push/k HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Connection: close\r\n"
                b"Content-Length: banana\r\n"
                b"\r\n"
            )
            text = recv_all(sock)
        assert " 400 " in text.splitlines()[0]
        assert "bad_request" in text

    def test_truncated_body_is_400(self, durable_server):
        server, _ = durable_server
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /push/k HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Content-Length: 100\r\n"
                b"\r\n"
                b"short"
            )
            sock.shutdown(socket.SHUT_WR)
            text = recv_all(sock)
        assert " 400 " in text.splitlines()[0]
        assert "truncated" in text

    @pytest.mark.parametrize(
        "raw, status, code",
        [
            (b"GET /stats HTTP/2.0\r\n\r\n", 505, "version_not_supported"),
            (b"GARBAGE\r\n\r\n", 400, "bad_request"),
            (b"GET /stats\r\n\r\n", 400, "bad_request"),  # HTTP/0.9
            (b"GET /stats HTTP/1.0\r\n"
             + b"".join(b"X-H%d: v\r\n" % i for i in range(101))
             + b"\r\n", 431, "headers_too_large"),
            (b"GET /" + b"a" * 65537 + b" HTTP/1.0\r\n\r\n",
             414, "uri_too_long"),
            (b"PUT /x HTTP/1.0\r\n\r\n", 501, "not_implemented"),
        ],
        ids=["http2", "garbage", "http09", "101_headers", "long_line", "put"],
    )
    def test_protocol_errors_are_structured_and_counted(
        self, durable_server, caplog, raw, status, code
    ):
        server, _ = durable_server
        before = metrics.value("repro_http_errors_total", code=code)
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(raw)
            text = recv_all(sock)
        head, _, body = text.partition("\r\n\r\n")
        assert head.splitlines()[0].startswith(f"HTTP/1.0 {status} ")
        assert "Content-Type: application/json" in head
        payload = json.loads(body)
        assert payload["code"] == code and payload["error"]
        assert metrics.value("repro_http_errors_total", code=code) == before + 1
        # A client's malformed request is not a server fault.
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    @pytest.mark.parametrize(
        "partial",
        [
            b"POST /push/k HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: 100\r\n"
            b"\r\n"
            b"partial",
            b"GET /stats HTTP/1.0\r\nHost: x\r\n",
        ],
        ids=["body", "headers"],
    )
    def test_slow_client_hits_the_deadline(self, tmp_path, partial):
        service = Service(size=10)
        server, _ = start_in_background(service, request_timeout=0.4)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as sock:
                sock.sendall(partial)  # then stall: never send the rest
                text = recv_all(sock)
            assert " 400 " in text.splitlines()[0]
            assert "deadline_exceeded" in text
        finally:
            server.shutdown()
            server.server_close()

    def test_backpressure_is_429_with_retry_after(self, durable_server):
        server, _ = durable_server
        # Fill every push slot so the next push is shed immediately.
        while server.push_slots.acquire(blocking=False):
            pass
        try:
            error = expect_http_error(
                lambda: post_json(server.port, "/push/k", SEGMENT_JSON),
                429,
                "backpressure",
            )
            assert error.headers["Retry-After"] == "1"
        finally:
            for _ in range(64):
                try:
                    server.push_slots.release()
                except ValueError:
                    break

    def test_unexpected_exception_is_structured_500(self, durable_server):
        server, service = durable_server

        def explode(key, segments):
            raise KeyError("internal bug")

        original = service.push
        service.push = explode
        try:
            error = expect_http_error(
                lambda: post_json(server.port, "/push/k", SEGMENT_JSON),
                500,
                "internal",
            )
            assert "internal bug" not in error.read().decode()
        finally:
            service.push = original

    def test_durable_faults_then_degraded_healthz(self, durable_server):
        server, service = durable_server
        assert get(server.port, "/healthz") == {"status": "ok"}
        with activated({"wal.append": Raise(ENOSPC)}):
            for _ in range(2):  # degrade_after=2
                expect_http_error(
                    lambda: post_json(
                        server.port, "/push/k", SEGMENT_JSON
                    ),
                    503,
                    "durability",
                )
        expect_http_error(
            lambda: get(server.port, "/healthz"), 503, "degraded"
        )
        stats = get(server.port, "/stats")
        assert stats["degraded"] == 1 and stats["durable"] == 1
        assert stats["disk_errors"] == 2
        # Degraded pushes are still acknowledged (memory-only).
        reply = post_json(server.port, "/push/k", SEGMENT_JSON)
        assert reply["pushed"] == 1
        # The disk healed: a manual reprobe re-attaches, healthz recovers.
        assert service.store.reprobe()
        assert get(server.port, "/healthz") == {"status": "ok"}
        assert get(server.port, "/stats")["degraded"] == 0
