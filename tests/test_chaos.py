"""Seeded chaos: random operation schedules under probabilistic faults.

The capstone of ISSUE 7.  Each test drives a long, seed-determined
schedule of operations (pushes, queries, freezes, reprobes; HTTP
requests; sharded computes) while disk faults and worker kills fire
probabilistically, then checks the system-level invariants:

* the store never wedges — after the disk heals, every key accepts
  pushes again and pending checkpoint demotions drain;
* every acknowledged push is recoverable bit-identically after a crash
  (frozen + live, via :func:`encode_result` over :meth:`snapshot`);
* the HTTP surface only ever answers with structured JSON errors from
  the documented set (400/404/413/429/500/503), never a hung socket or
  an unframed traceback;
* ``compress(..., workers=N)`` stays bit-identical to the fault-free
  run under injected worker crashes.

Seeds come from ``REPRO_CHAOS_SEED`` (comma-separated) so CI can fan a
matrix of schedules across jobs; the default keeps local runs fast.
"""

from __future__ import annotations

import json
import os
import random
import socket
import socketserver
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import compress
from repro.cluster import (
    ReplicationLink,
    StandbyServer,
    reduce_cluster,
    standby_store,
    start_worker,
)
from repro.parallel import run_sharded
from repro.service import (
    DurabilityError,
    ReplicationError,
    Service,
    SessionStore,
    encode_result,
    start_in_background,
)
from repro.service.http import SERVE_POLL_INTERVAL
from repro.service.store import CATCH_UP_SEQ
from repro.util.failpoints import Exit, Raise, activated
from repro.util.health import PeerHealth

from test_fault_injection import SEGMENT_JSON, stream

SEEDS = [
    int(raw)
    for raw in os.environ.get("REPRO_CHAOS_SEED", "0,7").split(",")
    if raw.strip()
]

KEYS = ["alpha", "beta", "gamma"]


def disk_faults() -> dict:
    """Every durability failpoint, firing with moderate probability.

    Exceptions are factories, not shared instances, so concurrent
    firings never race on one object's traceback.
    """
    enospc = lambda: OSError(28, "No space left on device")  # noqa: E731
    eio = lambda: OSError(5, "Input/output error")  # noqa: E731
    return {
        "wal.append": Raise(enospc, probability=0.15),
        "wal.fsync": Raise(eio, probability=0.10),
        "wal.rollback": Raise(eio, probability=0.05),
        "checkpoint.write": Raise(enospc, probability=0.20),
        "checkpoint.rename": Raise(eio, probability=0.20),
        "durability.probe": Raise(eio, probability=0.30),
    }


@pytest.mark.parametrize("seed", SEEDS)
class TestStoreChaos:
    OPS = 80

    def test_acked_pushes_survive_chaos_then_crash(self, tmp_path, seed):
        rng = random.Random(seed)
        data_dir = tmp_path / "d"
        store = SessionStore(
            size=12,
            data_dir=data_dir,
            fsync_every=3,
            degrade_after=3,
            reprobe_every=5,
        )
        feed = iter(range(10_000))
        with activated(disk_faults(), seed=seed):
            for _ in range(self.OPS):
                key = rng.choice(KEYS)
                op = rng.random()
                if op < 0.70:
                    chunk = stream(rng.randint(1, 6), seed=next(feed))
                    try:
                        store.push(key, chunk)
                    except DurabilityError:
                        pass  # not acknowledged; memory unchanged
                elif op < 0.85:
                    if key in store:
                        encode_result(store.snapshot(key))  # never raises
                elif op < 0.95:
                    if key in store and store.is_live(key):
                        store.freeze(key)  # demote faults are absorbed
                else:
                    store.reprobe()  # probe faults just report False

        # Heal: faults are gone.  One durable push per key proves the
        # store never wedged and drains any pending demotions; a reprobe
        # re-attaches if the schedule ended degraded.
        if store.degraded:
            assert store.reprobe()
        for key in KEYS:
            store.push(key, stream(2, seed=next(feed)))
        assert not store.degraded
        assert store._pending_demote == []  # every epoch is on disk

        live = {key: encode_result(store.snapshot(key)) for key in KEYS}
        pushed = {key: store.pushed(key) for key in KEYS}
        del store  # crash without close(): only acked frames are on disk

        recovered = SessionStore(size=12, data_dir=data_dir)
        for key in KEYS:
            assert recovered.pushed(key) == pushed[key]
            assert encode_result(recovered.snapshot(key)) == live[key]
        recovered.close()


ALLOWED_HTTP_ERRORS = {400, 404, 413, 429, 503}


@pytest.mark.parametrize("seed", SEEDS)
class TestHTTPChaos:
    REQUESTS = 60

    def test_only_structured_errors_ever_escape(self, tmp_path, seed):
        rng = random.Random(seed)
        service = Service(
            size=10,
            data_dir=tmp_path / "d",
            degrade_after=2,
            reprobe_every=4,
        )
        server, _ = start_in_background(
            service, max_body=4096, request_timeout=5.0
        )
        statuses: list[int] = []
        try:
            with activated(disk_faults(), seed=seed):
                for _ in range(self.REQUESTS):
                    statuses.append(self._request(server.port, rng))
            # Heal and re-attach; the service must come back clean.
            if service.store.degraded:
                assert service.store.reprobe()
            reply = self._get(server.port, "/healthz")
            assert reply == (200, {"status": "ok"})
            assert self._post(server.port, "/push/alpha", SEGMENT_JSON)[0] == 200
        finally:
            server.shutdown()
            server.server_close()

        assert statuses.count(200) > 0  # chaos did not refuse everything
        errors = {code for code in statuses if code != 200}
        assert errors <= ALLOWED_HTTP_ERRORS, statuses

    def _request(self, port: int, rng: random.Random) -> int:
        choice = rng.random()
        if choice < 0.50:
            key = rng.choice(KEYS)
            return self._post(port, f"/push/{key}", SEGMENT_JSON)[0]
        if choice < 0.65:
            key = rng.choice(KEYS)
            return self._get(port, f"/summary?key={key}")[0]
        if choice < 0.75:
            return self._get(port, "/stats")[0]
        if choice < 0.82:
            return self._get(port, "/healthz")[0]
        if choice < 0.90:
            return self._post(port, "/push/alpha", b"not json at all")[0]
        if choice < 0.96:
            huge = {"Content-Length": str(64 * 1024 * 1024)}
            return self._post(port, "/push/alpha", SEGMENT_JSON, huge)[0]
        return self._get(port, f"/nowhere/{rng.randint(0, 9)}")[0]

    @staticmethod
    def _open(request) -> tuple:
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.load(response)
        except urllib.error.HTTPError as error:
            body = json.load(error)
            # Structured error contract: JSON carrying "error" + "code"
            # (degraded /healthz adds a "status" field on top).
            assert "error" in body and "code" in body, body
            return error.code, body

    def _get(self, port: int, path: str) -> tuple:
        return self._open(
            urllib.request.Request(f"http://127.0.0.1:{port}{path}")
        )

    def _post(self, port, path, body, headers=None) -> tuple:
        return self._open(
            urllib.request.Request(
                f"http://127.0.0.1:{port}{path}",
                data=body,
                method="POST",
                headers=headers or {},
            )
        )


@pytest.mark.parametrize("seed", SEEDS)
class TestComputeChaos:
    def test_sharded_compress_is_bit_identical_under_kills(
        self, tmp_path, seed
    ):
        rng = random.Random(seed)
        segments = stream(150, seed=seed)
        baseline = compress(segments, size=15, workers=1, shard_size=25)
        with activated(
            {
                "parallel.worker": Exit(
                    code=9,
                    limit=rng.randint(1, 3),
                    limit_dir=str(tmp_path),
                )
            },
            seed=seed,
            propagate=True,
        ):
            survived = compress(segments, size=15, workers=2, shard_size=25)
        assert survived.segments == baseline.segments
        assert survived.error == baseline.error
        assert survived.merges == baseline.merges


# ----------------------------------------------------------------------
# Cluster chaos: quorum replication under link faults and standby kills
# ----------------------------------------------------------------------
class _PrimaryFramesOnly(Raise):
    """A ``Raise`` that breaks only the primary's streamed frames.

    The standby writes its ACKs through the same ``transport.send`` site
    as the primary's frames.  A fault on an ACK after the standby applied
    the frame makes the primary roll the push back while the standby keeps
    it; the standby has diverged, and resync rightly refuses it for good.
    That models a standby-side fault, not a link fault, so the standby's
    answers are spared.

    Catch-up frames (``seq == CATCH_UP_SEQ`` and the closing
    ``on_catch_up`` marker) are spared too: a catch-up severed mid-stream
    leaves the standby half-seeded, and the link refuses such a standby
    until it is restarted empty — a manual step this test's invariant
    rules out.
    """

    def fire(self, site):
        frame = sys._getframe(1)
        while frame is not None:
            caller = frame.f_locals.get("self")
            if isinstance(caller, socketserver.BaseRequestHandler):
                return None  # the standby answering: let it through
            if isinstance(caller, ReplicationLink) and (
                frame.f_code.co_name == "on_catch_up"
                or frame.f_locals.get("seq") == CATCH_UP_SEQ
            ):
                return None  # a catch-up frame: let it through
            frame = frame.f_back
        return super().fire(site)


class _KillableStandby(StandbyServer):
    """A standby whose :meth:`kill` drops every connection it accepted.

    ``shutdown`` plus ``server_close`` only stop accepting; a handler
    thread keeps serving the link it already holds, so a "killed"
    standby could still apply and ack frames.  A dead process closes
    all its sockets, and so does :meth:`kill`.
    """

    def __init__(self, store, port):
        super().__init__(store, port=port)
        self._accepted = []
        threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": SERVE_POLL_INTERVAL},
            daemon=True,
        ).start()

    def get_request(self):
        request = super().get_request()
        self._accepted.append(request[0])
        return request

    def kill(self):
        self.shutdown()
        self.server_close()
        for connection in self._accepted:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler


def _wait_until(predicate, timeout=30.0, interval=0.01):
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return bool(predicate())


@pytest.mark.parametrize("seed", SEEDS)
class TestClusterChaos:
    """One durable primary (``sync_replicas=1``) and a standby under a
    seeded transport-fault schedule on the primary's frames: links drop
    mid-stream (including mid-quorum-wait, rolling the push back), a
    standby is killed while disconnected and an empty replacement binds
    its address.  The invariants: every *acknowledged* push is servable
    bit-identically from the live standby, the one the acks covered, and
    the store never wedges — once the faults stop, the link re-homes
    itself and acks resume with no manual ``replicate_to``.
    """

    OPS = 30

    def test_acked_pushes_stay_bit_identical_under_link_chaos(
        self, tmp_path, seed
    ):
        rng = random.Random(seed)
        servers = []

        def boot(port=0):
            server = _KillableStandby(standby_store(size=30), port)
            servers.append(server)
            return server

        standby = boot()
        port = standby.port
        primary = SessionStore(
            size=30, sync_replicas=1, data_dir=tmp_path / "p"
        )
        oracle = SessionStore(size=30)
        link = ReplicationLink(
            standby.address,
            reconnect_backoff=0.01,
            health=PeerHealth(cooldown=0.05),
        )
        link.attach(primary)
        feed = iter(range(10_000))
        acked = 0
        killed = False
        kill_from = rng.randrange(5, self.OPS - 5)
        broken = lambda: OSError(32, "Broken pipe")  # noqa: E731
        try:
            with activated(
                {
                    "transport.send": _PrimaryFramesOnly(
                        broken, probability=0.12
                    )
                },
                seed=seed,
            ):
                for op in range(self.OPS):
                    if op >= kill_from and not killed and not link.connected:
                        # The standby dies for real while the link is
                        # down; an *empty* replacement takes over its
                        # address and must be re-seeded by auto-resync.
                        standby.kill()
                        standby = boot(port)
                        killed = True
                    chunk = stream(rng.randint(1, 6), seed=next(feed))
                    try:
                        primary.push("k", chunk)
                    except ReplicationError:
                        continue  # rolled back: neither side moved
                    oracle.push("k", chunk)
                    acked += len(chunk)
                    if rng.random() < 0.15 and primary.is_live("k"):
                        primary.freeze("k")
                        oracle.freeze("k")
                    if rng.random() < 0.3:
                        time.sleep(0.01)  # give the reconnect loop air

            # Heal: faults are gone.  The link must re-home itself and
            # synchronous acks must resume — the store never wedged.
            assert _wait_until(lambda: link.connected)
            final = stream(3, seed=next(feed))
            primary.push("k", final)
            oracle.push("k", final)
            acked += 3

            # The live standby, the one the primary's acks covered, holds
            # every acknowledged push bit-identically.  A killed standby
            # may hold as many tuples by coincidence, so it is never the
            # one promoted.
            assert acked == primary.pushed("k")
            assert _wait_until(
                lambda: "k" in standby.store
                and standby.store.pushed("k") == acked
            )
            promoted = standby.promote()
            assert encode_result(promoted.snapshot("k")) == encode_result(
                oracle.snapshot("k")
            )
        finally:
            for server in servers:
                server.kill()
            primary.close()


@pytest.mark.parametrize("seed", SEEDS)
class TestClusterComputeChaos:
    def test_reduce_cluster_bit_identical_under_worker_faults(self, seed):
        # Probabilistic worker deaths (the cluster.worker failpoint) on
        # both reducers: retries, peer rotation and the local fallback
        # must keep the distributed answer bit-identical.
        segments = stream(150, seed=seed)
        oracle = run_sharded(segments, size=15, workers=1, shard_size=25)
        reducers = [start_worker()[0] for _ in range(2)]
        try:
            with activated(
                {"cluster.worker": Raise(probability=0.25)}, seed=seed
            ):
                result = reduce_cluster(
                    segments,
                    size=15,
                    cluster=[worker.address for worker in reducers],
                    shard_size=25,
                    shard_retries=1,
                    retry_backoff=0.0,
                )
        finally:
            for worker in reducers:
                worker.shutdown()
                worker.server_close()
        assert result.segments == oracle.segments
        assert result.error == oracle.error
        assert result.size == oracle.size
