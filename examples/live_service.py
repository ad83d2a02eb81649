"""Live serving demo: push streams over HTTP, query bounded summaries.

Boots the serving layer end to end, all inside one process and with
nothing beyond the standard library on the wire:

1. a :class:`repro.service.Service` (session store + query engine) fronted
   by the stdlib ``ThreadingHTTPServer`` on an ephemeral port;
2. three simulated sensor streams pushed chunk by chunk over HTTP (JSON
   bodies — the binary wire format is exercised for the summary download);
3. live queries between pushes: ``value_at``, ``range_agg`` and a
   ``window`` sweep, answered from cached ``summary()`` snapshots;
4. the serving contract check the CI smoke job relies on: the served
   ``range_agg`` answer is **bit-identical** to computing the same query
   on batch :func:`repro.compress` output over the same tuples;
5. TTL eviction: an idle sensor's session is frozen into a summary that
   stays queryable — no pushed tuple is ever dropped;
6. a ``GET /metrics`` scrape: the key Prometheus series of every tier
   (HTTP latency histograms, store push counters, query cache counters,
   the delta-snapshot fallback and mirror-rebuild counters) are present
   and every sample line parses.

Run with::

    python examples/live_service.py [--readings N]

Exits non-zero if any serving answer diverges from its batch reference,
which is what makes it a usable CI smoke check.
"""

import argparse
import json
import math
import random
import re
import time
import urllib.request

from repro import Interval, compress
from repro.core import AggregateSegment
from repro.service import (
    Service,
    SessionStore,
    SnapshotIndex,
    WIRE_CONTENT_TYPE,
    decode_result,
    start_in_background,
)

SUMMARY_SIZE = 48
CHUNK = 64


def sensor_stream(sensor: int, readings: int) -> list[AggregateSegment]:
    """A drifting noisy series with occasional outages (temporal gaps)."""
    rng = random.Random(1000 + sensor)
    segments, t = [], 0
    for i in range(readings):
        value = (
            20.0
            + 8.0 * math.sin(i / 40.0 + sensor)
            + rng.gauss(0.0, 1.5)
        )
        segments.append(AggregateSegment((), (value,), Interval(t, t)))
        t += 1
        if rng.random() < 0.01:
            t += rng.randrange(2, 10)  # outage
    return segments


def post_json(base: str, path: str, payload) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(), method="POST"
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path) as response:
        return json.load(response)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--readings", type=int, default=600,
                        help="readings per sensor (default 600)")
    arguments = parser.parse_args()

    # TTL eviction via an injected clock so the demo is deterministic.
    clock = [0.0]
    store = SessionStore(
        size=SUMMARY_SIZE, ttl=30.0, clock=lambda: clock[0]
    )
    service = Service(store=store)
    server, _ = start_in_background(service)
    base = f"http://127.0.0.1:{server.port}"
    print(f"serving on {base}")

    streams = {
        f"sensor-{i}": sensor_stream(i, arguments.readings) for i in range(3)
    }

    # ------------------------------------------------------------------
    # Push chunk by chunk over HTTP, querying while data arrives.
    # ------------------------------------------------------------------
    started = time.perf_counter()
    for key, stream in streams.items():
        for lo in range(0, len(stream), CHUNK):
            chunk = stream[lo : lo + CHUNK]
            post_json(base, f"/push/{key}", [
                {"group": [], "values": list(s.values),
                 "start": s.interval.start, "end": s.interval.end}
                for s in chunk
            ])
            clock[0] += 1.0
        last = stream[-1].interval.end
        point = get_json(base, f"/value_at?key={key}&t={last}")
        print(f"  {key}: pushed {len(stream)} readings, "
              f"value_at(t={last}) = {point['values'][0]:.2f}")
    elapsed = time.perf_counter() - started
    total = sum(len(s) for s in streams.values())
    print(f"pushed {total} readings over HTTP in {elapsed:.2f}s "
          f"({total / elapsed:,.0f} readings/s)")

    # ------------------------------------------------------------------
    # The serving contract: served range_agg == the same query on batch
    # compress output of the same tuples, bit for bit.
    # ------------------------------------------------------------------
    print("\nserving contract (served answer vs batch compress):")
    for key, stream in streams.items():
        lo = stream[0].interval.start
        hi = stream[-1].interval.end
        served = get_json(
            base, f"/range_agg?key={key}&t1={lo}&t2={hi}&fn=avg"
        )["values"]
        batch = compress(stream, size=SUMMARY_SIZE)
        reference = SnapshotIndex(batch.segments).resolve(None).range_agg(
            lo, hi, "avg"
        )
        match = tuple(served) == reference
        print(f"  {key}: range_agg[{lo},{hi}] served={served[0]:.6f} "
              f"batch={reference[0]:.6f} bit-identical={match}")
        assert match, f"serving diverged from batch compress for {key}"

    # A window sweep — the dashboard query shape.
    key = "sensor-0"
    stride = max(arguments.readings // 8, 1)
    sweep = get_json(
        base,
        f"/window?key={key}&t1=0&t2={arguments.readings - 1}"
        f"&stride={stride}",
    )
    cells = [
        f"{bucket['values'][0]:.1f}" if bucket["values"] else "gap"
        for bucket in sweep["buckets"]
    ]
    print(f"\n{key} windowed avg (stride {stride}): {' | '.join(cells)}")

    # ------------------------------------------------------------------
    # Binary wire format: download the summary as bytes, decode exactly.
    # ------------------------------------------------------------------
    request = urllib.request.Request(
        f"{base}/summary?key={key}", headers={"Accept": WIRE_CONTENT_TYPE}
    )
    with urllib.request.urlopen(request) as response:
        payload = response.read()
    result = decode_result(payload)
    print(f"\nwire summary of {key}: {len(payload)} bytes for "
          f"{result.size} segments covering {result.input_size} readings "
          f"(error {result.error:.1f})")

    # ------------------------------------------------------------------
    # TTL eviction freezes idle sessions; their data stays queryable.
    # ------------------------------------------------------------------
    clock[0] += 100.0  # everything is now idle past the 30s TTL
    store.evict_idle()
    stats = get_json(base, "/stats")
    print(f"\nafter TTL sweep: {stats}")
    assert stats["live_sessions"] == 0 and stats["evictions"] == 3
    frozen_point = get_json(base, "/value_at?key=sensor-1&t=0")
    assert frozen_point["values"] is not None
    print(f"frozen sensor-1 still answers value_at(0) = "
          f"{frozen_point['values'][0]:.2f} — eviction lost nothing")

    # ------------------------------------------------------------------
    # /metrics: the key series are present and every line parses.
    # ------------------------------------------------------------------
    with urllib.request.urlopen(f"{base}/metrics") as response:
        assert response.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        exposition = response.read().decode("utf-8")
    for needle in (
        "# TYPE repro_http_request_seconds histogram",
        'repro_http_request_seconds_bucket{endpoint="push"',
        "repro_store_pushed_segments_total",
        "repro_store_evictions_total",
        "repro_query_cache_hits_total",
        "repro_query_cache_misses_total",
        "repro_snapshot_oracle_fallbacks_total",
        "repro_snapshot_mirror_rebuilds_total",
    ):
        assert needle in exposition, f"missing from /metrics: {needle}"
    sample_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$")
    samples = 0
    for line in exposition.splitlines():
        if line.startswith("#"):
            continue
        assert sample_re.match(line), f"unparseable metrics line: {line}"
        samples += 1
    pushed = next(
        line for line in exposition.splitlines()
        if line.startswith("repro_store_pushed_segments_total")
    )
    print(f"\n/metrics: {samples} Prometheus samples, e.g. {pushed}")

    server.shutdown()
    print("\nOK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
