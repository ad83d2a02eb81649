"""Cluster demo: remote reduction + warm-standby failover, end to end.

Boots the whole cluster tier in one process (every role on its own
thread, talking over real TCP sockets on localhost) and proves the two
distribution contracts the tier makes:

1. **Distributed reduction is placement-invariant.**  A coordinator
   (``compress(..., cluster=[...])``) ships shards to two reducer
   workers and k-way-merges their trajectory frontiers; the result must
   be bit-identical to the single-process ``workers=1`` reduction —
   including after one worker is killed mid-fleet (retry across peers,
   then local fallback).
2. **Failover loses nothing acknowledged.**  A primary
   :class:`repro.service.SessionStore` streams its per-push delta log to
   a warm standby over a :class:`repro.cluster.ReplicationLink`; after
   the primary "dies", :meth:`StandbyServer.promote` turns the standby
   into a serving primary whose ``value_at`` / ``range_agg`` / ``window``
   answers are bit-identical to the failed primary's at every
   acknowledged push generation.
3. **The cluster self-heals.**  A durable primary with *two* standbys
   and ``sync_replicas=1`` keeps acknowledging pushes while one standby
   is killed mid-stream (the quorum is satisfied by the survivor), and
   when an *empty* replacement comes back at the dead standby's address
   the severed link re-seeds it on its own — auto-resync, no manual
   ``replicate_to``, the frozen epoch shipped as its checkpoint image —
   until the replacement serves the full history bit-identically.

Run with::

    python examples/cluster_demo.py [--readings N]

Exits non-zero if any answer diverges, which is what makes it the CI
``cluster-smoke`` job.
"""

import argparse
import math
import random
import shutil
import tempfile
import time

from repro import Interval
from repro.core import AggregateSegment
from repro.cluster import ReplicationLink, start_standby, start_worker
from repro.cluster.replica import standby_store
from repro.pipeline import compress
from repro.service import QueryEngine, SessionStore
from repro.util import failpoints
from repro.util.health import PeerHealth

SUMMARY_SIZE = 48
CHUNK = 32
SHARD_SIZE = 64


def sensor_stream(readings: int) -> list[AggregateSegment]:
    """A drifting noisy series with occasional outages (temporal gaps)."""
    rng = random.Random(4100)
    segments, t = [], 0
    for i in range(readings):
        value = 20.0 + 8.0 * math.sin(i / 40.0) + rng.gauss(0.0, 1.5)
        segments.append(AggregateSegment((), (value,), Interval(t, t)))
        t += 1
        if rng.random() < 0.01:
            t += rng.randrange(2, 10)  # outage
    return segments


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--readings", type=int, default=600,
                        help="readings in the stream (default 600)")
    arguments = parser.parse_args()
    stream = sensor_stream(arguments.readings)

    # ------------------------------------------------------------------
    # 1. Distributed reduction: coordinator + two reducer workers.
    # ------------------------------------------------------------------
    worker_a, _ = start_worker()
    worker_b, _ = start_worker()
    addresses = [worker_a.address, worker_b.address]
    print(f"reducer workers listening on {addresses}")

    # Same shard plan on both sides: the reduction is bit-identical for
    # every worker placement and count, while the reported SSE statistic
    # is only exact per shard plan (floating-point summation order).
    local = compress(stream, size=SUMMARY_SIZE, workers=1,
                     shard_size=SHARD_SIZE)
    remote = compress(stream, size=SUMMARY_SIZE, cluster=addresses,
                      shard_size=SHARD_SIZE)
    match = remote.segments == local.segments and remote.error == local.error
    print(f"cluster reduction: {len(remote.segments)} segments, "
          f"error {remote.error:.6f}, bit-identical={match}")
    assert match, "cluster reduction diverged from workers=1"

    # Kill one worker mid-fleet: retries rotate to the surviving peer
    # (and would fall back to local reduction if every peer were gone).
    worker_b.shutdown()
    worker_b.server_close()
    print(f"killed worker {worker_b.address}")
    degraded = compress(stream, size=SUMMARY_SIZE, cluster=addresses,
                        shard_size=SHARD_SIZE)
    match = (degraded.segments == local.segments
             and degraded.error == local.error)
    print(f"after worker death: bit-identical={match}")
    assert match, "reduction diverged after a worker death"
    worker_a.shutdown()
    worker_a.server_close()

    # ------------------------------------------------------------------
    # 2. Replication: primary streams its delta log to a warm standby.
    # ------------------------------------------------------------------
    standby, _ = start_standby(standby_store(size=SUMMARY_SIZE))
    print(f"\nwarm standby listening on {standby.address}")

    primary = SessionStore(size=SUMMARY_SIZE)
    link = ReplicationLink(standby.address)
    link.attach(primary)

    chunks = [stream[lo: lo + CHUNK] for lo in range(0, len(stream), CHUNK)]
    for index, chunk in enumerate(chunks):
        primary.push("sensor", chunk)
        if index == len(chunks) // 2:
            primary.freeze("sensor")  # an epoch boundary mid-stream
    stats = primary.stats()
    print(f"primary pushed {primary.pushed('sensor')} readings "
          f"(replicas={stats.replicas}, lag={stats.replication_lag}, "
          f"acked seq={stats.last_acked_generation})")
    assert stats.replication_lag == 0, "healthy link must not lag"

    # Capture what the primary would answer, then "kill" it.
    hi = stream[-1].interval.end
    probes = [0, hi // 3, hi // 2, hi]
    engine = QueryEngine(primary)
    expected_values = [engine.value_at("sensor", t) for t in probes]
    expected_range = engine.range_agg("sensor", 0, hi, "avg")
    expected_window = engine.window("sensor", 0, hi, max(hi // 8, 1))
    del engine, primary  # the primary is gone
    print("primary killed")

    # ------------------------------------------------------------------
    # 3. Failover: promote the standby, compare every answer.
    # ------------------------------------------------------------------
    promoted = standby.promote()
    served = QueryEngine(promoted)
    values = [served.value_at("sensor", t) for t in probes]
    range_agg = served.range_agg("sensor", 0, hi, "avg")
    window = served.window("sensor", 0, hi, max(hi // 8, 1))
    match = (values == expected_values and range_agg == expected_range
             and window == expected_window)
    print(f"promoted standby serves {promoted.pushed('sensor')} readings, "
          f"answers bit-identical={match}")
    assert match, "promoted standby diverged from the failed primary"
    standby.shutdown()
    standby.server_close()

    # ------------------------------------------------------------------
    # 4. Self-healing: quorum acks through a standby kill + auto-resync.
    # ------------------------------------------------------------------
    data_dir = tempfile.mkdtemp(prefix="pta-cluster-demo-")
    doomed, _ = start_standby(standby_store(size=SUMMARY_SIZE))
    survivor, _ = start_standby(standby_store(size=SUMMARY_SIZE))
    doomed_port = doomed.port
    print(f"\nquorum primary with standbys on "
          f"[{doomed.address}, {survivor.address}], sync_replicas=1")

    primary = SessionStore(size=SUMMARY_SIZE, sync_replicas=1,
                           data_dir=data_dir)
    # Short cooldowns keep the demo snappy; the first-attached link is
    # the one a single injected socket fault will sever below.
    doomed_link = ReplicationLink(doomed.address, reconnect_backoff=0.05,
                                  health=PeerHealth(cooldown=0.05))
    survivor_link = ReplicationLink(survivor.address, reconnect_backoff=0.05,
                                    health=PeerHealth(cooldown=0.05))
    doomed_link.attach(primary)
    survivor_link.attach(primary)

    half = len(chunks) // 2
    for chunk in chunks[:half]:
        primary.push("sensor", chunk)  # each ack waited for a standby ack
    # One demoted epoch: the replacement's catch-up below ships its
    # checkpoint image through the socket as a FROZEN frame.
    primary.freeze("sensor")

    # Kill one standby mid-stream: close its server, then sever the
    # established link with a one-shot socket fault (the in-process
    # stand-in for the peer dying).  The push still acks — the quorum
    # is satisfied by the survivor.
    doomed.shutdown()
    doomed.server_close()
    with failpoints.activated(
        {"transport.send": failpoints.Raise(
            OSError(32, "Broken pipe"), times=1)}
    ):
        primary.push("sensor", chunks[half])
    print(f"killed standby {doomed.address} mid-stream; "
          f"push {half} still acked (quorum via the survivor)")
    for chunk in chunks[half + 1:]:
        primary.push("sensor", chunk)

    # An *empty* replacement takes over the dead standby's address; the
    # severed link finds it on its own and re-seeds it from the
    # primary's WAL — full catch-up, then live streaming again.
    replacement, _ = start_standby(
        standby_store(size=SUMMARY_SIZE), port=doomed_port)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and not (
        doomed_link.connected
        and "sensor" in replacement.store
        and replacement.store.pushed("sensor") == primary.pushed("sensor")
    ):
        time.sleep(0.05)
    lags = {entry["address"]: entry["lag"] for entry in primary.stats().sinks}
    print(f"replacement re-seeded by auto-resync; per-sink lag: {lags}")
    assert doomed_link.connected, "auto-resync never reconnected"
    assert all(lag == 0 for lag in lags.values()), f"sinks still lag: {lags}"

    engine = QueryEngine(primary)
    expected_values = [engine.value_at("sensor", t) for t in probes]
    healed = QueryEngine(replacement.promote())
    match = [healed.value_at("sensor", t) for t in probes] == expected_values
    print(f"promoted replacement answers bit-identical={match}")
    assert match, "auto-resynced replacement diverged from the primary"

    for server in (survivor, replacement):
        server.shutdown()
        server.server_close()
    primary.close()
    shutil.rmtree(data_dir, ignore_errors=True)

    print("\nOK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
