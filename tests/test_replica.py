"""Warm-standby replication: streaming, catch-up, failover bit-identity.

The contract under test is the failover guarantee of
:mod:`repro.cluster.replica`: a standby promoted after the primary dies
answers ``value_at`` / ``range_agg`` / ``window`` **bit-identically** to
an uncrashed oracle at every acknowledged push generation — on both
compute backends, across randomized streams, freeze schedules and crash
points.  Around it: the replication-lag surface of ``stats()`` and the
HTTP front end, WAL compaction (checkpoint-then-truncate), and the
standby's refusal to accept direct pushes.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import ExecutionPolicy
from repro.cluster import (
    Connection,
    RemoteError,
    ReplicationLink,
    standby_store,
    start_standby,
)
from repro.cluster.replica import (
    LINK_CONNECTED,
    LINK_DETACHED,
)
from repro.cluster.transport import (
    KIND_ACK,
    KIND_CATCHUP,
    KIND_HELLO,
    KIND_OK,
    KIND_PUSH,
    pack_envelope,
    recv_frame,
    send_frame,
)
from repro.datasets import synthetic_sequential_segments
from repro.obs import metrics as _metrics
from repro.service import (
    QueryEngine,
    ReplicationError,
    Service,
    ServiceError,
    SessionStore,
    WIRE_CONTENT_TYPE,
    encode_segments,
    start_in_background,
)
from repro.service import durability, wire
from repro.service.durability import FrozenEpoch
from repro.service.store import WAL_COMPACT_FLOOR_BYTES
from repro.service.wire import result_columns
from repro.util import failpoints
from repro.util.deadline import Deadline, DeadlineExceeded, deadline_scope
from repro.util.health import PeerHealth


def _wait_until(predicate, timeout=8.0, interval=0.01):
    """Poll ``predicate`` until it holds or ``timeout`` elapses."""
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


def _chunks(n=600, dims=2, seed=3, chunk=40):
    stream = synthetic_sequential_segments(n, dims, seed=seed)
    return [stream[i: i + chunk] for i in range(0, n, chunk)]


@pytest.fixture
def standbys():
    """Start standby servers on demand; shut every one down afterwards."""
    servers = []

    def _start(size=80, policy=None):
        server, _ = start_standby(standby_store(size=size, policy=policy))
        servers.append(server)
        return server

    yield _start
    for server in servers:
        server.shutdown()
        server.server_close()


def _assert_same_answers(promoted, oracle, hi):
    """Drive both stores through their own engines over the same probes."""
    left, right = QueryEngine(promoted), QueryEngine(oracle)
    for t in (0, 1, hi // 3, hi // 2, hi - 1, hi):
        assert left.value_at("k", t) == right.value_at("k", t)
    assert left.range_agg("k", 0, hi, "avg") == right.range_agg(
        "k", 0, hi, "avg"
    )
    assert left.range_agg("k", hi // 4, 3 * hi // 4, "sum") == (
        right.range_agg("k", hi // 4, 3 * hi // 4, "sum")
    )
    assert left.window("k", 0, hi, max(hi // 7, 1)) == right.window(
        "k", 0, hi, max(hi // 7, 1)
    )


# ----------------------------------------------------------------------
# Streaming replication and the lag surface
# ----------------------------------------------------------------------
class TestReplicationStream:
    def test_streamed_pushes_reach_the_standby(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(standby.address)
        link.attach(primary)
        for chunk in _chunks():
            primary.push("k", chunk)
        assert link.connected
        assert standby.applied_seq == link.acked_seq >= 0
        assert standby.store.pushed("k") == primary.pushed("k")

    def test_stats_report_role_replicas_and_lag(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(standby.address)
        link.attach(primary)
        for chunk in _chunks(n=200, chunk=50):
            primary.push("k", chunk)
        stats = primary.stats()
        assert stats.role == "primary"
        assert stats.replicas == 1
        # Every ship waits for its ack, so a healthy link never lags.
        assert stats.replication_lag == 0
        assert stats.last_acked_generation == link.acked_seq
        assert standby.store.stats().role == "standby"
        assert stats.as_dict()["replication_lag"] == 0

    def test_freeze_events_replicate(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        oracle = SessionStore(size=80)
        link = ReplicationLink(standby.address)
        link.attach(primary)
        for index, chunk in enumerate(_chunks()):
            primary.push("k", chunk)
            oracle.push("k", chunk)
            if index in (4, 9):
                primary.freeze("k")
                oracle.freeze("k")
        # The standby's epoch boundaries must mirror the primary's —
        # they come exclusively from replicated freeze events.
        assert len(standby.store.frozen_epochs("k")) == 2
        _assert_same_answers(standby.promote(), oracle, hi=599)

    def test_detach_stops_streaming_without_failing_pushes(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(standby.address)
        link.attach(primary)
        chunks = _chunks(n=200, chunk=50)
        primary.push("k", chunks[0])
        applied = standby.store.pushed("k")
        link.detach()
        for chunk in chunks[1:]:
            primary.push("k", chunk)
        assert standby.store.pushed("k") == applied
        stats = primary.stats()
        assert stats.replicas == 0 and stats.replication_lag == 0

    def test_transport_fault_disconnects_link_not_primary(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        # auto_resync off: this test pins the *disconnect* behaviour —
        # with it on, the link would quietly rejoin the live standby.
        link = ReplicationLink(standby.address, auto_resync=False)
        link.attach(primary)
        chunks = _chunks(n=200, chunk=50)
        primary.push("k", chunks[0])
        applied = standby.store.pushed("k")
        with failpoints.activated(
            {"transport.send": failpoints.Raise(
                OSError(32, "Broken pipe"), times=1)}
        ):
            primary.push("k", chunks[1])  # ship fails; push must not
        for chunk in chunks[2:]:  # the link is down, pushes still land
            primary.push("k", chunk)
        assert not link.connected
        assert primary.stats().replicas == 0
        assert primary.pushed("k") == 200
        assert standby.store.pushed("k") == applied

    def test_attach_refused_when_standby_is_unreachable(self):
        primary = SessionStore(size=80)
        link = ReplicationLink("127.0.0.1:1", connect_timeout=0.2)
        from repro.cluster import TransportError

        with pytest.raises(TransportError):
            link.attach(primary)
        assert primary.stats().replicas == 0


# ----------------------------------------------------------------------
# Catch-up: attaching mid-history
# ----------------------------------------------------------------------
class TestCatchUp:
    def test_attach_after_history_replays_the_wal(self, standbys, tmp_path):
        primary = SessionStore(size=80, data_dir=tmp_path / "p")
        oracle = SessionStore(size=80)
        chunks = _chunks()
        for index, chunk in enumerate(chunks):
            if index == 8:  # attach mid-history: catch-up + live stream
                standby = standbys()
                link = ReplicationLink(standby.address)
                link.attach(primary)
            primary.push("k", chunk)
            oracle.push("k", chunk)
            if index == 3:
                primary.freeze("k")
                oracle.freeze("k")
        _assert_same_answers(standby.promote(), oracle, hi=599)
        primary.close()

    def test_memory_primary_with_live_pushes_is_refused(self, standbys):
        primary = SessionStore(size=80)
        primary.push("k", _chunks(n=80, chunk=80)[0])
        standby = standbys()
        link = ReplicationLink(standby.address)
        with pytest.raises(ServiceError, match="write-ahead log"):
            link.attach(primary)
        assert not link.connected
        assert primary.stats().replicas == 0

    def test_frozen_only_memory_primary_can_catch_up(self, standbys):
        # No WAL needed when every epoch is already frozen: the summaries
        # ship as FROZEN frames and the live stream continues from there.
        primary = SessionStore(size=80)
        oracle = SessionStore(size=80)
        chunks = _chunks()
        for chunk in chunks[:8]:
            primary.push("k", chunk)
            oracle.push("k", chunk)
        primary.freeze("k")
        oracle.freeze("k")
        standby = standbys()
        link = ReplicationLink(standby.address)
        link.attach(primary)
        for chunk in chunks[8:]:
            primary.push("k", chunk)
            oracle.push("k", chunk)
        _assert_same_answers(standby.promote(), oracle, hi=599)

    def test_durable_standby_queues_an_install_whose_checkpoint_fails(
        self, tmp_path
    ):
        # install_frozen runs the freeze path's epoch ladder: a failed
        # checkpoint write keeps the epoch resident and queued, the next
        # healthy push demotes it, and recovery serves the same bytes.
        primary = SessionStore(size=80)
        chunks = _chunks()
        for chunk in chunks[:8]:
            primary.push("k", chunk)
        frozen = primary.freeze("k")
        standby = standby_store(size=80, data_dir=tmp_path / "s")
        enospc = OSError(28, "No space left on device")
        with failpoints.activated(
            {"checkpoint.write": failpoints.Raise(enospc, times=1)}
        ):
            standby.install_frozen("k", result_columns(frozen))
        [epoch] = standby.frozen_epochs("k")
        assert epoch.resident
        assert standby._pending_demote == [("k", 0, 0)]
        assert standby.stats().disk_errors == 1
        assert not standby.degraded
        for chunk in chunks[8:]:
            primary.push("k", chunk)
            standby.push("k", chunk)
        [epoch] = standby.frozen_epochs("k")
        assert not epoch.resident
        assert epoch.path is not None and epoch.path.exists()
        assert standby._pending_demote == []
        served = encode_segments(standby.snapshot_columns("k"))
        assert served == encode_segments(primary.snapshot_columns("k"))
        standby.close()
        recovered = standby_store(size=80, data_dir=tmp_path / "s")
        assert encode_segments(recovered.snapshot_columns("k")) == served
        recovered.close()


    def test_catch_up_ships_checkpoints_without_segment_objects(
        self, tmp_path, monkeypatch
    ):
        # Three demoted epochs, the first of 20,000 segments, then a live
        # tail.  Catch-up ships each epoch's image as it is held, and the
        # durable standby installs it as it arrives: its checkpoints are
        # the primary's bytes, and no Result or segment list is built.
        policy = ExecutionPolicy(backend="numpy")
        primary = SessionStore(
            size=20_000, policy=policy, data_dir=tmp_path / "p"
        )
        stream = synthetic_sequential_segments(21_000, 2, seed=9)
        for start, stop in ((0, 20_000), (20_000, 20_400), (20_400, 20_800)):
            for at in range(start, stop, 2_000):
                primary.push("k", stream[at: min(at + 2_000, stop)])
            primary.freeze("k")
        primary.push("k", stream[20_800:])
        assert primary.frozen_epochs("k")[0].size >= 20_000
        server, _ = start_standby(
            standby_store(size=20_000, policy=policy, data_dir=tmp_path / "s")
        )

        def no_segments(*args, **kwargs):
            raise AssertionError("catch-up built segment objects")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(FrozenEpoch, "result", no_segments)
                patch.setattr(wire, "result_from_columns", no_segments)
                patch.setattr(durability, "result_from_columns", no_segments)
                ReplicationLink(server.address).attach(primary)
            shipped = sorted((tmp_path / "p" / "k").glob("*.ckpt"))
            assert len(shipped) == 3
            for path in shipped:
                mirror = tmp_path / "s" / "k" / path.name
                assert mirror.read_bytes() == path.read_bytes()
            promoted = server.promote()
            assert encode_segments(promoted.snapshot_columns("k")) == (
                encode_segments(primary.snapshot_columns("k"))
            )
            _assert_same_answers(promoted, primary, hi=int(stream[-1].interval.end))
        finally:
            server.shutdown()
            server.server_close()
            server.store.close()
            primary.close()


# ----------------------------------------------------------------------
# Failover: the randomized bit-identity suite
# ----------------------------------------------------------------------
class TestPromotion:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_promoted_standby_matches_uncrashed_oracle(
        self, standbys, backend
    ):
        policy = ExecutionPolicy(backend=backend)
        standby = standbys(policy=policy)
        primary = SessionStore(size=80, policy=policy)
        oracle = SessionStore(size=80, policy=policy)
        link = ReplicationLink(standby.address)
        link.attach(primary)
        rng = random.Random(4 if backend == "python" else 5)
        chunks = _chunks(seed=13)
        crash_at = rng.randrange(3, len(chunks))
        pushed = 0
        for index, chunk in enumerate(chunks):
            if index == crash_at:
                break  # the primary "crashes": no further frames ship
            primary.push("k", chunk)
            oracle.push("k", chunk)
            pushed += len(chunk)
            if rng.random() < 0.2:
                primary.freeze("k")
                oracle.freeze("k")
        promoted = standby.promote()
        # Every push the primary acknowledged is on the standby.
        assert promoted.pushed("k") == pushed
        _assert_same_answers(promoted, oracle, hi=pushed - 1)

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_randomized_crash_sweep(self, standbys, backend):
        policy = ExecutionPolicy(backend=backend)
        for seed in range(6):
            rng = random.Random(1000 + seed)
            standby = standbys(size=60, policy=policy)
            primary = SessionStore(size=60, policy=policy)
            oracle = SessionStore(size=60, policy=policy)
            link = ReplicationLink(standby.address)
            link.attach(primary)
            chunks = _chunks(n=400, seed=seed, chunk=25)
            crash_at = rng.randrange(1, len(chunks) + 1)
            pushed = 0
            for index, chunk in enumerate(chunks):
                if index == crash_at:
                    break
                primary.push("k", chunk)
                oracle.push("k", chunk)
                pushed += len(chunk)
                if rng.random() < 0.25:
                    primary.freeze("k")
                    oracle.freeze("k")
            promoted = standby.promote()
            assert promoted.pushed("k") == pushed
            _assert_same_answers(promoted, oracle, hi=pushed - 1)

    def test_late_frames_after_promotion_are_refused(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(standby.address)
        link.attach(primary)
        chunk = _chunks(n=40, chunk=40)[0]
        primary.push("k", chunk)
        standby.promote()
        # A split-brain primary shipping a frame after failover must get
        # a structured refusal, not a silent double apply.
        payload = pack_envelope(
            {"key": "k", "seq": 99}, encode_segments(chunk)
        )
        with Connection(standby.address) as connection:
            with pytest.raises(RemoteError) as excinfo:
                connection.request(KIND_PUSH, payload)
        assert excinfo.value.code == "not_standby"
        assert standby.store.pushed("k") == len(chunk)


# ----------------------------------------------------------------------
# HTTP surface: /role, /healthz lag threshold, standby push refusal
# ----------------------------------------------------------------------
def _get(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}"
    ) as response:
        return json.load(response)


class _StuckSink:
    """A registered replica that never acknowledges (lag generator).

    Starts in sync (``acked_seq = 0``, what :meth:`replicate_to` leaves
    behind on an empty store) and then ignores every frame.
    """

    connected = True
    acked_seq = 0

    def on_push(self, key, payload, seq):
        pass

    def on_freeze(self, key, seq):
        pass

    def on_frozen(self, key, payload, seq):
        pass

    def on_catch_up(self, seq):
        pass


class TestReplicationHTTP:
    def test_role_endpoint_reports_replication_state(self):
        store = SessionStore(size=12)
        service = Service(store=store)
        server, _ = start_in_background(service)
        try:
            body = _get(server, "/role")
            assert body == {
                "role": "primary",
                "replicas": 0,
                "replication_lag": 0,
                "last_acked_generation": -1,
            }
        finally:
            server.shutdown()
            server.server_close()

    def test_standby_store_rejects_http_pushes(self):
        service = Service(store=standby_store(size=12))
        server, _ = start_in_background(service)
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/push/k",
                data=b"[]",
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            assert json.load(excinfo.value)["code"] == "not_primary"
        finally:
            server.shutdown()
            server.server_close()

    def test_healthz_degrades_when_lag_exceeds_threshold(self):
        store = SessionStore(size=12)
        store.add_replication_sink(_StuckSink())
        service = Service(store=store, max_replication_lag=0)
        server, _ = start_in_background(service)
        try:
            assert _get(server, "/healthz")["status"] == "ok"
            store.push("k", _chunks(n=40, chunk=40)[0])
            assert store.stats().replication_lag > 0
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/healthz"
                )
            assert excinfo.value.code == 503
            body = json.load(excinfo.value)
            assert body["status"] == "degraded"
            assert "replication lag" in body["error"]
        finally:
            server.shutdown()
            server.server_close()

    def test_healthz_ignores_lag_without_a_threshold(self):
        store = SessionStore(size=12)
        store.add_replication_sink(_StuckSink())
        service = Service(store=store)
        server, _ = start_in_background(service)
        try:
            store.push("k", _chunks(n=40, chunk=40)[0])
            assert store.stats().replication_lag > 0
            assert _get(server, "/healthz")["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# WAL compaction: checkpoint-then-truncate
# ----------------------------------------------------------------------
class TestWalCompaction:
    def test_wal_stays_bounded_by_the_compact_factor(self, tmp_path):
        store = SessionStore(
            size=40, data_dir=tmp_path, wal_compact_factor=1.0
        )
        for chunk in _chunks(n=2000, chunk=100, seed=8):
            store.push("k", chunk)
        # The trigger froze epochs long before 2000 pushes of WAL could
        # pile up, and the live WAL never exceeds factor * reference.
        epochs = store.frozen_epochs("k")
        assert len(epochs) >= 1
        assert store._durability is not None
        live_wal = store._durability.wal_size("k", len(epochs))
        reference = max(
            store._durability.latest_checkpoint_size("k"),
            WAL_COMPACT_FLOOR_BYTES,
        )
        assert live_wal <= reference
        store.close()

    def test_recovery_after_compaction_is_bit_identical(self, tmp_path):
        store = SessionStore(
            size=40, data_dir=tmp_path, wal_compact_factor=1.0
        )
        for chunk in _chunks(n=1000, chunk=100, seed=9):
            store.push("k", chunk)
        assert len(store.frozen_epochs("k")) >= 1  # compaction fired
        before_crash = QueryEngine(store).range_agg("k", 0, 999, "avg")
        del store  # crash without close()
        revived = SessionStore(
            size=40, data_dir=tmp_path, wal_compact_factor=1.0
        )
        after = QueryEngine(revived).range_agg("k", 0, 999, "avg")
        assert after == before_crash
        revived.close()

    def test_compaction_freezes_are_replicated(self, standbys, tmp_path):
        standby = standbys(size=40)
        store = SessionStore(
            size=40, data_dir=tmp_path, wal_compact_factor=1.0
        )
        link = ReplicationLink(standby.address)
        link.attach(store)
        for chunk in _chunks(n=1000, chunk=100, seed=10):
            store.push("k", chunk)
        assert len(store.frozen_epochs("k")) >= 1
        # The standby saw the same compaction freezes, so its epoch
        # structure — and hence every answer — mirrors the primary's.
        assert len(standby.store.frozen_epochs("k")) == len(
            store.frozen_epochs("k")
        )
        _assert_same_answers(standby.promote(), store, hi=999)
        store.close()

    def test_wal_compact_factor_requires_durable_mode(self):
        with pytest.raises(ServiceError, match="data_dir"):
            SessionStore(size=10, wal_compact_factor=2.0)

    def test_wal_compact_factor_must_be_positive(self, tmp_path):
        with pytest.raises(ServiceError, match="positive"):
            SessionStore(
                size=10, data_dir=tmp_path, wal_compact_factor=0.0
            )


# ----------------------------------------------------------------------
# Quorum replication: sync_replicas=k gates the push acknowledgement
# ----------------------------------------------------------------------
class _RecordingSink:
    """An in-process sink that applies and acks every frame it is shipped."""

    def __init__(self):
        self.connected = True
        self.acked_seq = -1
        self.events = []

    def on_push(self, key, payload, seq):
        self.events.append(("push", key, seq))
        self.acked_seq = seq

    def on_freeze(self, key, seq):
        self.events.append(("freeze", key, seq))
        self.acked_seq = seq

    def on_frozen(self, key, payload, seq):
        self.events.append(("frozen", key, seq))
        self.acked_seq = seq

    def on_catch_up(self, seq):
        self.events.append(("catch_up", None, seq))
        self.acked_seq = seq


class _BrokenSink(_RecordingSink):
    """A sink whose apply path blows up (exercises the disconnect arm)."""

    def on_push(self, key, payload, seq):
        raise RuntimeError("standby apply failed")


class TestQuorum:
    def test_sync_replica_acks_gate_every_push(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80, sync_replicas=1)
        link = ReplicationLink(standby.address, auto_resync=False)
        link.attach(primary)
        total = 0
        for chunk in _chunks(n=200, chunk=50):
            primary.push("k", chunk)
            total += len(chunk)
            # The ack the caller got covers the standby: the push is
            # already applied there, not merely queued.
            assert standby.store.pushed("k") == total
        assert primary.stats().replication_lag == 0
        assert "repro_quorum_wait_seconds" in _metrics.render()

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_randomized_crash_sweep_with_quorum(self, standbys, backend):
        # With sync_replicas=1, every push acked to the client is
        # servable bit-identically from a promoted standby even when
        # the primary dies immediately after the ack — the ack itself
        # certifies the standby applied it.
        policy = ExecutionPolicy(backend=backend)
        for seed in range(4):
            rng = random.Random(3000 + seed)
            standby = standbys(size=60, policy=policy)
            primary = SessionStore(size=60, policy=policy, sync_replicas=1)
            oracle = SessionStore(size=60, policy=policy)
            link = ReplicationLink(standby.address)
            link.attach(primary)
            chunks = _chunks(n=400, seed=seed, chunk=25)
            crash_at = rng.randrange(1, len(chunks) + 1)
            pushed = 0
            for index, chunk in enumerate(chunks):
                if index == crash_at:
                    break  # dies right after the last acked push
                primary.push("k", chunk)
                oracle.push("k", chunk)
                pushed += len(chunk)
                if rng.random() < 0.25:
                    primary.freeze("k")
                    oracle.freeze("k")
            promoted = standby.promote()
            assert promoted.pushed("k") == pushed
            _assert_same_answers(promoted, oracle, hi=pushed - 1)

    def test_sync_replicas_without_sinks_stays_async(self):
        # Bootstrapping: quorum counting starts once replicas attach;
        # a freshly-started primary accepts writes alone.
        primary = SessionStore(size=80, sync_replicas=1)
        chunk = _chunks(n=40, chunk=40)[0]
        primary.push("k", chunk)
        assert primary.pushed("k") == 40

    def test_quorum_failure_rolls_back_without_divergence(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80, sync_replicas=1)
        link = ReplicationLink(standby.address, auto_resync=False)
        link.attach(primary)
        chunks = _chunks(n=120, chunk=40)
        primary.push("k", chunks[0])
        with failpoints.activated(
            {"transport.send": failpoints.Raise(
                OSError(32, "Broken pipe"), times=1)}
        ):
            with pytest.raises(ReplicationError, match="rolled back"):
                primary.push("k", chunks[1])
        # Neither side moved: the primary's memory did not diverge from
        # what its replicas acknowledged.
        assert primary.pushed("k") == 40
        assert standby.store.pushed("k") == 40
        # The store is not wedged — the next push fails the same way
        # (the link is down) without corrupting anything.
        with pytest.raises(ReplicationError):
            primary.push("k", chunks[2])
        assert primary.pushed("k") == 40

    def test_quorum_abort_rolls_back_the_wal(self, standbys, tmp_path):
        standby = standbys()
        primary = SessionStore(
            size=80, sync_replicas=1, data_dir=tmp_path
        )
        link = ReplicationLink(standby.address, auto_resync=False)
        link.attach(primary)
        chunks = _chunks(n=120, chunk=40)
        primary.push("k", chunks[0])
        with failpoints.activated(
            {"transport.send": failpoints.Raise(
                OSError(32, "Broken pipe"), times=1)}
        ):
            with pytest.raises(ReplicationError):
                primary.push("k", chunks[1])
        primary.close()
        # Crash-recover: the aborted push must not resurrect.
        revived = SessionStore(size=80, data_dir=tmp_path)
        assert revived.pushed("k") == 40
        revived.close()

    def test_quorum_larger_than_fleet_is_refused(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80, sync_replicas=2)
        link = ReplicationLink(standby.address, auto_resync=False)
        link.attach(primary)
        with pytest.raises(ReplicationError, match="sync_replicas"):
            primary.push("k", _chunks(n=40, chunk=40)[0])
        # The rollback was complete: the key never existed.
        assert primary.stats().live_sessions == 0
        assert standby.store.stats().live_sessions == 0

    def test_partial_quorum_disconnects_the_diverged_sink(self):
        # One of two sinks applies the push, the other blows up: the
        # quorum of 2 fails, and the sink that *did* apply now holds a
        # sequence number the primary rolled back — it must be cut off
        # and refused at resync (it has diverged).
        store = SessionStore(size=80, sync_replicas=2)
        good, broken = _RecordingSink(), _BrokenSink()
        store.add_replication_sink(good)
        store.add_replication_sink(broken)
        with pytest.raises(ReplicationError, match="1 of the 2"):
            store.push("k", _chunks(n=40, chunk=40)[0])
        assert store.stats().live_sessions == 0  # fully rolled back
        assert not good.connected
        good.connected = True
        with pytest.raises(ServiceError, match="diverged"):
            store.resync(good, applied_seq=good.acked_seq)

    def test_sink_raising_during_catch_up_is_disconnected(self, tmp_path):
        # Catch-up delivers through the same path as fan-out, quorum and
        # resync: a raising sink is cut off, and replicate_to reports it
        # as a ServiceError instead of leaking the sink's exception.
        store = SessionStore(size=80, data_dir=tmp_path / "p")
        for chunk in _chunks(n=120, chunk=40):
            store.push("k", chunk)
        broken = _BrokenSink()
        with pytest.raises(ServiceError, match="during catch-up"):
            store.replicate_to(broken)
        assert not broken.connected
        assert store.stats().sinks == ()
        store.close()

    def test_http_push_answers_503_replication_quorum(self, standbys):
        standby = standbys()
        store = SessionStore(size=80, sync_replicas=1)
        link = ReplicationLink(standby.address, auto_resync=False)
        link.attach(store)
        service = Service(store=store)
        server, _ = start_in_background(service)
        try:
            link.connected = False  # the standby "died" mid-stream
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/push/k",
                data=encode_segments(_chunks(n=40, chunk=40)[0]),
                headers={"Content-Type": WIRE_CONTENT_TYPE},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            assert json.load(excinfo.value)["code"] == "replication_quorum"
            assert store.stats().live_sessions == 0  # fully rolled back
        finally:
            server.shutdown()
            server.server_close()

    def test_healthz_and_stats_report_per_sink_lag(self, standbys):
        standby = standbys()
        store = SessionStore(size=80, sync_replicas=1)
        link = ReplicationLink(standby.address, auto_resync=False)
        link.attach(store)
        store.push("k", _chunks(n=40, chunk=40)[0])
        service = Service(store=store)
        server, _ = start_in_background(service)
        try:
            body = _get(server, "/healthz")
            assert body["status"] == "ok"
            (entry,) = body["sinks"]
            assert entry["address"] == standby.address
            assert entry["connected"] == 1
            assert entry["lag"] == 0
            (stat,) = _get(server, "/stats")["sinks"]
            assert stat == entry
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# Resync journal semantics (store level)
# ----------------------------------------------------------------------
class TestResyncJournal:
    def test_resync_replays_exactly_the_gap(self):
        store = SessionStore(size=80)
        sink = _RecordingSink()
        store.add_replication_sink(sink)
        chunks = _chunks(n=240, chunk=40)
        for chunk in chunks[:2]:
            store.push("k", chunk)
        store.freeze("k")
        sink.connected = False  # the standby "crashes"
        frontier = sink.acked_seq
        before = len(sink.events)
        for chunk in chunks[2:]:
            store.push("k", chunk)
        assert len(sink.events) == before  # nothing shipped while down
        sink.connected = True
        store.resync(sink, applied_seq=frontier)
        replayed = [event[-1] for event in sink.events[before:]]
        assert replayed == list(
            range(frontier + 1, store.stats().last_acked_generation + 1)
        )
        # Live streaming resumes after the gap is closed.
        store.push("k", chunks[0])
        assert sink.events[-1][-1] == store.stats().last_acked_generation

    def test_resync_refuses_a_sink_from_the_future(self):
        store = SessionStore(size=80)
        with pytest.raises(ServiceError, match="different primary"):
            store.resync(_RecordingSink(), applied_seq=7)

    def test_resync_window_exhausts_permanently(self):
        store = SessionStore(size=80)
        sink = _RecordingSink()
        store.add_replication_sink(sink)
        for chunk in _chunks(n=240, chunk=40):
            store.push("k", chunk)
        # The journal trimmed everything the (only, fully-acked) sink
        # acknowledged, so a standby claiming an ancient frontier is
        # past the window and must be re-seeded.
        with pytest.raises(ServiceError, match="window exhausted"):
            store.resync(_RecordingSink(), applied_seq=1)

    def test_journal_stays_within_its_byte_budget(self):
        store = SessionStore(size=80, resync_journal_bytes=4096)
        lagger = _RecordingSink()
        lagger.connected = False  # never acks: only the cap trims
        store.add_replication_sink(lagger)
        for chunk in _chunks(n=400, chunk=40):
            store.push("k", chunk)
        assert (
            store._journal_bytes <= 4096 or len(store._journal) == 1
        )
        assert store._journal_floor >= 0

    def test_empty_sink_resyncs_via_full_catch_up(self, tmp_path):
        # applied_seq == -1 (a restarted, empty standby) takes the
        # catch-up path — frozen epochs first, then the live WAL —
        # rather than a journal replay.
        store = SessionStore(size=80, data_dir=tmp_path)
        chunks = _chunks(n=240, chunk=40)
        for chunk in chunks[:3]:
            store.push("k", chunk)
        store.freeze("k")
        for chunk in chunks[3:]:
            store.push("k", chunk)
        sink = _RecordingSink()
        store.resync(sink, applied_seq=-1)
        kinds = [event[0] for event in sink.events]
        assert kinds[0] == "frozen"
        assert kinds.count("frozen") == 1
        assert kinds.count("push") == 3  # the live epoch's WAL frames
        # The sink is registered and streaming resumes live.
        assert store.stats().replicas == 1
        store.push("k", chunks[0])
        assert sink.events[-1][0] == "push"
        store.close()


# ----------------------------------------------------------------------
# Replica auto-resync: the reconnect loop
# ----------------------------------------------------------------------
class TestAutoResync:
    def test_severed_link_reconnects_and_replays_the_gap(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        oracle = SessionStore(size=80)
        link = ReplicationLink(standby.address, reconnect_backoff=0.01)
        link.attach(primary)
        chunks = _chunks()
        for index, chunk in enumerate(chunks):
            if index == 5:  # sever the stream mid-flight
                with failpoints.activated(
                    {"transport.send": failpoints.Raise(
                        OSError(32, "Broken pipe"), times=1)}
                ):
                    primary.push("k", chunk)
            else:
                primary.push("k", chunk)
            oracle.push("k", chunk)
            if index == 8:
                primary.freeze("k")
                oracle.freeze("k")
        # No manual replicate_to: the link heals itself and closes the
        # gap from the resync journal.
        assert _wait_until(
            lambda: link.connected
            and standby.store.pushed("k") == primary.pushed("k")
        )
        assert primary.stats().replicas == 1
        _assert_same_answers(standby.promote(), oracle, hi=599)

    def test_quorum_pushes_resume_after_auto_resync(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80, sync_replicas=1)
        link = ReplicationLink(standby.address, reconnect_backoff=0.01)
        link.attach(primary)
        chunks = _chunks(n=200, chunk=40)
        primary.push("k", chunks[0])
        with failpoints.activated(
            {"transport.send": failpoints.Raise(
                OSError(32, "Broken pipe"), times=1)}
        ):
            with pytest.raises(ReplicationError):
                primary.push("k", chunks[1])
        assert _wait_until(lambda: link.connected)
        for chunk in chunks[1:]:
            primary.push("k", chunk)
        assert primary.pushed("k") == 200
        assert standby.store.pushed("k") == 200

    def test_reconnect_failpoint_stalls_the_loop(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(standby.address, reconnect_backoff=0.01)
        link.attach(primary)
        chunks = _chunks(n=120, chunk=40)
        primary.push("k", chunks[0])  # the standby applies a frontier
        with failpoints.activated(
            {
                "transport.send": failpoints.Raise(
                    OSError(32, "Broken pipe"), times=1
                ),
                "replica.reconnect": failpoints.Return(True, times=3),
            }
        ):
            primary.push("k", chunks[1])  # severs the link
            assert not link.connected
        # Once the failpoint budget is spent the loop proceeds normally.
        assert _wait_until(lambda: link.connected)
        primary.push("k", chunks[2])
        assert _wait_until(
            lambda: standby.store.pushed("k") == primary.pushed("k")
        )

    def test_link_state_gauge_tracks_the_lifecycle(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(standby.address, reconnect_backoff=0.01)
        link.attach(primary)
        assert _metrics.value(
            "repro_replica_link_state", peer=standby.address
        ) == LINK_CONNECTED
        link.detach()
        assert _metrics.value(
            "repro_replica_link_state", peer=standby.address
        ) == LINK_DETACHED

    def test_restarted_empty_standby_rejoins_via_catch_up(
        self, standbys, tmp_path
    ):
        primary = SessionStore(size=80, data_dir=tmp_path)
        oracle = SessionStore(size=80)
        standby = standbys()
        port = standby.port
        # A private breaker with a short cooldown: the dials that fail
        # while the replacement standby boots must not gate the test on
        # the shared tracker's 5 s default.
        link = ReplicationLink(
            standby.address,
            reconnect_backoff=0.01,
            health=PeerHealth(cooldown=0.05),
        )
        link.attach(primary)
        chunks = _chunks()
        for chunk in chunks[:6]:
            primary.push("k", chunk)
            oracle.push("k", chunk)
        # "Restart" the standby: kill the server, bring up an *empty*
        # one at the same address.  Its HELLO answers applied_seq=-1,
        # so the reconnect loop re-seeds it with the full history from
        # the primary's WAL.
        standby.shutdown()
        standby.server_close()
        with failpoints.activated(
            {"transport.send": failpoints.Raise(
                OSError(32, "Broken pipe"), times=1)}
        ):
            primary.push("k", chunks[6])  # discovers the dead standby
        oracle.push("k", chunks[6])
        replacement, _ = start_standby(
            standby_store(size=80), port=port
        )
        try:
            for chunk in chunks[7:]:
                primary.push("k", chunk)
                oracle.push("k", chunk)
            assert _wait_until(
                lambda: link.connected
                and replacement.store.pushed("k") == primary.pushed("k")
            )
            _assert_same_answers(replacement.promote(), oracle, hi=599)
        finally:
            replacement.shutdown()
            replacement.server_close()
        primary.close()

    def test_detach_stops_the_reconnect_loop(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(standby.address, reconnect_backoff=0.01)
        link.attach(primary)
        with failpoints.activated(
            {
                "transport.send": failpoints.Raise(
                    OSError(32, "Broken pipe"), times=1
                ),
                "replica.reconnect": failpoints.Return(True, times=200),
            }
        ):
            primary.push("k", _chunks(n=40, chunk=40)[0])
            link.detach()
        assert _wait_until(lambda: link._reconnector is None)
        assert not link.connected
        assert primary.stats().replicas == 0

    def test_link_heals_repeatedly_across_consecutive_faults(
        self, standbys
    ):
        # Regression: after the reconnect loop healed, its slot must be
        # free *before* the loop thread exits — a ship fault firing the
        # instant streaming resumed used to see the dying thread still
        # registered, skip scheduling, and leave the link down forever.
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(
            standby.address,
            reconnect_backoff=0.01,
            health=PeerHealth(cooldown=0.01),
        )
        link.attach(primary)
        chunks = _chunks(n=240, chunk=40)
        for index, chunk in enumerate(chunks):
            if index in (1, 3):
                with failpoints.activated(
                    {"transport.send": failpoints.Raise(
                        OSError(32, "Broken pipe"), times=1)}
                ):
                    primary.push("k", chunk)
                assert _wait_until(lambda: link.connected)
            else:
                primary.push("k", chunk)
        assert _wait_until(
            lambda: standby.store.pushed("k") == primary.pushed("k")
        )
        assert _wait_until(lambda: link._reconnector is None)


# ----------------------------------------------------------------------
# Catch-up cursor discipline: a severed catch-up must never look done
# ----------------------------------------------------------------------
class _DroppingSink(_RecordingSink):
    """Disconnects itself after applying ``survive`` catch-up pushes."""

    def __init__(self, survive):
        super().__init__()
        self._survive = survive

    def on_push(self, key, payload, seq):
        super().on_push(key, payload, seq)
        self._survive -= 1
        if self._survive <= 0:
            self.connected = False


class TestCatchUpCursor:
    def test_catch_up_streams_sentinels_then_commits_the_frontier(
        self, tmp_path
    ):
        store = SessionStore(size=80, data_dir=tmp_path)
        chunks = _chunks(n=240, chunk=40)
        for chunk in chunks[:3]:
            store.push("k", chunk)
        store.freeze("k")
        for chunk in chunks[3:5]:
            store.push("k", chunk)
        sink = _RecordingSink()
        store.replicate_to(sink)
        *history, end = sink.events
        # Every history frame carries the sentinel — none of them may
        # advance the standby's resume cursor …
        assert history and all(event[-1] == -1 for event in history)
        # … and only the explicit end marker commits the frontier.
        assert end[0] == "catch_up"
        assert end[-1] == sink.acked_seq >= 0
        store.close()

    def test_catch_up_frontier_skips_aborted_sequence_numbers(
        self, tmp_path
    ):
        # A quorum push that failed while the only sink was down aborts
        # its sequence number.  An empty standby caught up afterwards
        # must not report that number as its frontier, or the next
        # resync would refuse it as diverged.
        store = SessionStore(size=80, sync_replicas=1, data_dir=tmp_path)
        chunks = _chunks(n=120, chunk=40)
        dropped = _RecordingSink()
        store.replicate_to(dropped)
        store.push("k", chunks[0])
        dropped.connected = False
        with pytest.raises(ReplicationError):
            store.push("k", chunks[1])
        fresh = _RecordingSink()
        store.resync(fresh, applied_seq=-1)
        frontier = fresh.events[-1][-1]
        assert fresh.events[-1][0] == "catch_up"
        assert frontier == dropped.acked_seq  # the last committed push
        store.resync(fresh, applied_seq=frontier)  # not "diverged"
        store.push("k", chunks[2])
        assert store.pushed("k") == 80
        store.close()

    def test_severed_catch_up_commits_nothing(self, tmp_path):
        store = SessionStore(size=80, data_dir=tmp_path)
        chunks = _chunks(n=240, chunk=40)
        for chunk in chunks[:4]:
            store.push("k", chunk)
        sink = _DroppingSink(survive=2)  # dies mid-stream
        with pytest.raises(ServiceError):
            store.replicate_to(sink)
        assert all(event[0] != "catch_up" for event in sink.events)
        assert store.stats().replicas == 0  # never registered
        store.close()

    def test_half_seeded_standby_reports_taint_and_refuses_attach(
        self, standbys
    ):
        # A catch-up frame (sentinel seq) arrives, then the primary dies
        # before the end marker: the standby must answer HELLO with no
        # frontier plus the seeding taint — not claim the history it
        # only partially holds — and a fresh attach must refuse it.
        standby = standbys()
        payload = encode_segments(_chunks(n=40, chunk=40)[0])
        with Connection(standby.address) as conn:
            kind, _ = conn.request(
                KIND_PUSH, pack_envelope({"key": "k", "seq": -1}, payload)
            )
            assert kind == KIND_ACK
        assert standby.applied_seq == -1  # no false frontier
        assert standby.seeding
        link = ReplicationLink(standby.address, auto_resync=False)
        with pytest.raises(ServiceError, match="half-seeded"):
            link.attach(SessionStore(size=80))

    def test_end_of_catch_up_marker_clears_the_taint(self, standbys):
        standby = standbys()
        payload = encode_segments(_chunks(n=40, chunk=40)[0])
        with Connection(standby.address) as conn:
            conn.request(
                KIND_PUSH, pack_envelope({"key": "k", "seq": -1}, payload)
            )
            kind, _ = conn.request(KIND_CATCHUP, b'{"seq": 5}')
            assert kind == KIND_ACK
        assert standby.applied_seq == 5
        assert not standby.seeding

    def test_reconnect_loop_refuses_a_half_seeded_standby(self, standbys):
        standby = standbys()
        primary = SessionStore(size=80)
        link = ReplicationLink(
            standby.address,
            reconnect_backoff=0.01,
            health=PeerHealth(cooldown=0.01),
        )
        link.attach(primary)
        chunks = _chunks(n=120, chunk=40)
        primary.push("k", chunks[0])
        # Taint the standby as an interrupted catch-up would.
        with standby.apply_lock:
            standby.seeding = True
        with failpoints.activated(
            {"transport.send": failpoints.Raise(
                OSError(32, "Broken pipe"), times=1)}
        ):
            primary.push("k", chunks[1])  # severs the link
        # The loop dials, sees the taint, and gives up permanently
        # (replaying anything onto an unknown prefix would diverge).
        assert _wait_until(lambda: link._reconnector is None)
        assert not link.connected
        assert primary.stats().replicas == 0
        assert _metrics.value(
            "repro_replica_link_state", peer=standby.address
        ) == LINK_DETACHED


# ----------------------------------------------------------------------
# Quorum waits bounded by the end-to-end deadline
# ----------------------------------------------------------------------
class TestQuorumDeadline:
    def test_fan_out_stops_at_the_deadline_between_sinks(self):
        # The first sink's ack wait eats the whole budget: the second
        # sink must never see the sequence number, and the push rolls
        # back as deadline_exceeded instead of waiting on every sink.
        clock = [0.0]

        class _SlowSink(_RecordingSink):
            def on_push(self, key, payload, seq):
                clock[0] += 10.0
                super().on_push(key, payload, seq)

        store = SessionStore(size=80, sync_replicas=2)
        slow, starved = _SlowSink(), _RecordingSink()
        store.add_replication_sink(slow)
        store.add_replication_sink(starved)
        with deadline_scope(
            Deadline(expires_at=1.0, clock=lambda: clock[0])
        ):
            with pytest.raises(DeadlineExceeded):
                store.push("k", _chunks(n=40, chunk=40)[0])
        assert starved.events == []  # never shipped past the deadline
        assert store.stats().live_sessions == 0  # fully rolled back

    def test_ack_wait_is_clamped_to_the_request_deadline(self):
        # A standby that accepts the push frame but never acks must hold
        # the store for at most the deadline's remaining budget — not
        # the full 30 s transport read timeout.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        stall = threading.Event()

        def serve():
            conn, _ = listener.accept()
            try:
                while True:
                    kind, payload = recv_frame(conn)
                    if kind == KIND_HELLO:
                        send_frame(
                            conn,
                            KIND_OK,
                            b'{"applied_seq": -1, "seeding": false}',
                        )
                    elif kind == KIND_CATCHUP:
                        seq = json.loads(payload)["seq"]
                        send_frame(conn, KIND_ACK, b'{"seq": %d}' % seq)
                    else:
                        stall.wait(30.0)  # swallow the push, never ack
                        return
            except OSError:
                pass
            finally:
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        store = SessionStore(size=80, sync_replicas=1)
        link = ReplicationLink(f"127.0.0.1:{port}", auto_resync=False)
        try:
            link.attach(store)
            t0 = time.monotonic()
            with deadline_scope(0.3):
                with pytest.raises(ReplicationError):
                    store.push("k", _chunks(n=40, chunk=40)[0])
            elapsed = time.monotonic() - t0
            assert elapsed < 5.0  # nowhere near the read timeout
            assert not link.connected  # the stalled standby was cut off
            assert store.stats().live_sessions == 0  # fully rolled back
        finally:
            stall.set()
            link.detach()
            listener.close()
