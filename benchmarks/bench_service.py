"""Serving-layer benchmark: snapshot queries versus batch recompression.

The point of the serving layer is that answering a query from a cached
``summary()`` snapshot is orders of magnitude cheaper than the alternative
a server without it would face — re-running batch ``compress`` over the
key's accumulated history on every read.  This benchmark measures that gap
and keeps it honest across PRs:

* **cold query** — first read after the engine's index cache is dropped:
  the snapshot comes from the session's delta-patched, generation-cached
  column snapshot and only the query index is rebuilt (before PR 5 this
  cloned and finalized the whole live heap — ~28 ms at n=200k against
  ~0.3 ms now);
* **snapshot delta** — a genuinely cold snapshot at a *fresh* push
  generation (k new tuples since the last snapshot): the delta path
  (patch the mirror with the merge log, finalize the mirror, index the
  columns) against the clone+finalize oracle (clone the live heap,
  finalize, materialise segments, index them);
* **warm query** — subsequent reads at the same push generation: pure
  binary search + prefix-sum arithmetic on the cached index;
* **metrics disabled overhead** — the disarmed observability layer
  (``repro.obs``) on that warm path versus the pre-observability path
  reconstructed inline: one global read plus the unconditional cache
  counters must stay within 1.05x;
* **batch recompression** — ``compress`` over the same stream plus the
  same query, i.e. the no-serving-layer baseline;
* **wire codec** — encode/decode throughput of the binary segment
  format, plus the zero-copy column decode (``copy=False`` views over
  the payload, the cluster tier's receive path) against the copying
  decode;
* **durable push** — the same chunked ingest against a ``data_dir=``
  store (WAL append + fsync per push, periodic checkpoint demotion)
  versus the in-memory store: the price of durability per acknowledged
  push (must stay within 1.5x of memory);
* **group commit** — the same durable ingest in many small pushes with
  ``fsync_every=8`` (one fsync sweep per 8 acknowledged pushes,
  store-wide) versus ``fsync_every=1``: what amortising the fsync
  cadence buys on the ingest hot path;
* **quorum ack overhead** — the same chunked ingest replicated to a
  warm standby over a local socket with ``sync_replicas=1`` (every push
  acknowledgement waits for the standby's ack) versus the asynchronous
  stream: the price of the quorum machinery itself (must stay within
  1.5x);
* **recovery** — time to boot a ready-to-serve store from the surviving
  checkpoints + WAL (crash without ``close()``), versus batch
  recompression of the same history.

Ratios are persisted in ``BENCH_service.json`` (same machine-normalized
scheme as ``BENCH_parallel.json``)::

    python benchmarks/bench_service.py record [--scale full]
    python benchmarks/bench_service.py check  [--scale smoke]

``check`` re-measures and fails when the warm-query advantage dropped more
than 50% below the recorded value (micro-latency ratios are noisier than
the kernel throughput ratios, hence the wider gate).  The CI service job
runs it at the smoke scale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_service.json"

#: Warm-query ratios are micro-latencies (microseconds against tens of
#: milliseconds); allow a wider regression band than the kernel gates.
REGRESSION_TOLERANCE = 0.50

SCALES = {
    "smoke": {"stream": 20_000, "summary": 200, "queries": 200, "delta": 50,
              "push_chunk": 1024},
    "full": {"stream": 200_000, "summary": 1_000, "queries": 1_000,
             "delta": 200, "push_chunk": 1024},
}


def measure(scale: str) -> dict:
    """Measure the serving ratios at the given scale."""
    from repro.datasets import synthetic_sequential_segments
    from repro.evaluation import best_of, speedup
    from repro.pipeline import compress
    from repro.service import (
        QueryEngine,
        SessionStore,
        SnapshotIndex,
        decode_segments,
        encode_segments,
    )

    config = SCALES[scale]
    n, summary_size = config["stream"], config["summary"]
    queries = config["queries"]
    stream = synthetic_sequential_segments(n, 2, seed=77)
    lo, hi = 1, n  # unit intervals starting at 1
    spans = [
        (lo + (i * 131) % (n // 2), lo + (i * 131) % (n // 2) + n // 4)
        for i in range(queries)
    ]

    from repro.api import ExecutionPolicy

    store = SessionStore(
        size=summary_size, policy=ExecutionPolicy(backend="numpy")
    )
    engine = QueryEngine(store)
    store.push("k", stream)

    # Cold: every query pays the snapshot finalization + index build.
    def cold_query():
        engine._cache.clear()
        return engine.range_agg("k", lo, hi, "avg")

    cold = best_of(cold_query, repeats=3)

    # Warm: the per-generation cache answers from prefix sums.
    engine.range_agg("k", lo, hi, "avg")  # prime

    def warm_queries():
        for t1, t2 in spans:
            engine.range_agg("k", t1, t2, "avg")

    warm = best_of(warm_queries, repeats=3)
    warm_per_query = warm.seconds / queries

    # Disabled-instrumentation overhead: the PR 9 observability layer
    # promises the disarmed hot path costs one global read plus the
    # unconditional /stats counters.  An uninstrumented build no longer
    # exists, so the pre-observability warm path is reconstructed inline
    # (generation check + cache lookup + index arithmetic, no counters)
    # and raced against the disarmed public path over the same spans.
    from repro.obs import metrics as obs_metrics
    from repro.service import ServiceError
    from repro.service.query import RANGE_FUNCTIONS

    store_ref, cache_ref = engine._store, engine._cache

    def uninstrumented_index(key):
        generation = store_ref.generation(key)
        cached = cache_ref.get(key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        index = SnapshotIndex.from_columns(store_ref.snapshot_columns(key))
        cache_ref[key] = (generation, index)
        return index

    def uninstrumented_range_agg(key, t1, t2, fn="avg", group=None):
        if fn not in RANGE_FUNCTIONS:
            raise ServiceError(f"fn must be one of {RANGE_FUNCTIONS}")
        t1, t2 = int(t1), int(t2)
        if t2 < t1:
            raise ServiceError(f"empty range: t2={t2} precedes t1={t1}")
        return uninstrumented_index(key).resolve(group).range_agg(t1, t2, fn)

    def uninstrumented_queries():
        for t1, t2 in spans:
            uninstrumented_range_agg("k", t1, t2, "avg")

    # The two sides differ by far less than the run-to-run drift of a
    # busy machine, so neither sequential best_of blocks nor min-over-
    # rounds converge.  Instead each round runs the sides back to back
    # in an A-B-B-A palindrome (alternating which side leads across
    # rounds): the min per side within a round rejects intra-round
    # hiccups and cancels ordering effects, the per-round ratio cancels
    # drift common to the round, and the *median of the per-round
    # ratios* rejects the rounds a scheduler preemption still skewed.
    import statistics
    import time as _clock

    round_ratios = []
    round_times = {"uninstrumented": [], "disarmed": []}
    with obs_metrics.disabled():
        for round_index in range(21):
            pair = (
                (uninstrumented_queries, warm_queries)
                if round_index % 2 == 0
                else (warm_queries, uninstrumented_queries)
            )
            best: dict = {}
            for side in pair + tuple(reversed(pair)):
                began = _clock.perf_counter()
                side()
                elapsed = _clock.perf_counter() - began
                key = side is uninstrumented_queries
                best[key] = min(best.get(key, elapsed), elapsed)
            round_ratios.append(best[True] / best[False])
            round_times["uninstrumented"].append(best[True])
            round_times["disarmed"].append(best[False])
    overhead_ratio = statistics.median(round_ratios)
    uninstrumented_s = min(round_times["uninstrumented"])
    disarmed_s = min(round_times["disarmed"])

    # The no-serving-layer baseline: recompress the history, then query.
    def batch_recompress():
        result = compress(stream, size=summary_size, backend="numpy")
        index = SnapshotIndex(result.segments).resolve(None)
        return index.range_agg(lo, hi, "avg")

    batch = best_of(batch_recompress, repeats=3)

    # Snapshot-delta series: a genuinely cold snapshot at a *fresh* push
    # generation — k new tuples since the last snapshot — served by the
    # delta path (mirror patch + tail + column index) versus the
    # clone+finalize oracle (heap clone + finalize + segment objects +
    # index).  Each repeat pushes a fresh chunk so neither side can hit
    # the per-generation cache.
    import time as _time

    from repro.api import Compressor
    from repro.core.merge import AggregateSegment
    from repro.temporal import Interval

    delta_k = config["delta"]
    session = Compressor(
        size=summary_size, policy=ExecutionPolicy(backend="numpy")
    )
    session.push(stream)
    session.summary_columns()  # first snapshot: materialises the mirror

    def shifted_chunk(count, offset, seed):
        raw = synthetic_sequential_segments(count, 2, seed=seed)
        return [
            AggregateSegment(
                s.group,
                s.values,
                Interval(s.interval.start + offset, s.interval.end + offset),
            )
            for s in raw
        ]

    delta_seconds = []
    clone_seconds = []
    offset = n + 10
    for repeat in range(5):
        session.push(shifted_chunk(delta_k, offset, seed=100 + repeat))
        offset += delta_k + 5
        began = _time.perf_counter()
        index = SnapshotIndex.from_columns(session.summary_columns())
        index.resolve(None).range_agg(lo, hi, "avg")
        delta_seconds.append(_time.perf_counter() - began)
        began = _time.perf_counter()
        oracle = session.summary_oracle()
        SnapshotIndex(oracle.segments).resolve(None).range_agg(lo, hi, "avg")
        clone_seconds.append(_time.perf_counter() - began)
    snapshot_delta_s = min(delta_seconds)
    snapshot_clone_s = min(clone_seconds)

    # Wire codec throughput.
    blob = encode_segments(stream)
    encode_run = best_of(encode_segments, stream, repeats=3)
    decode_run = best_of(
        lambda data: list(decode_segments(data)), blob, repeats=3
    )

    # Zero-copy column decode: the receive path of the cluster tier and
    # of HTTP pushes (`decode_segments(copy=False)`) aliases the payload
    # buffer instead of copying every column — what a reducer worker
    # pays per shard before the kernels run.

    # Single decodes are sub-millisecond at smoke scale; amortise the
    # timer jitter over a batch of decodes per repeat.
    decode_batch = 10

    def decode_copying():
        for _ in range(decode_batch):
            decode_segments(blob)

    def decode_zero_copy():
        for _ in range(decode_batch):
            decode_segments(blob, copy=False)

    decode_copy_run = best_of(decode_copying, repeats=5)
    decode_zero_run = best_of(decode_zero_copy, repeats=5)

    # Durable push overhead: the same chunked ingest against a durable
    # store (WAL append + fsync per acknowledged push, checkpoint
    # demotion every quarter of the stream) versus the in-memory store.
    import shutil
    import tempfile

    push_chunk = config["push_chunk"]
    chunks = [stream[i: i + push_chunk] for i in range(0, n, push_chunk)]
    checkpoint_every = max(n // 4, push_chunk)

    def memory_pushes():
        memory_store = SessionStore(
            size=summary_size, policy=ExecutionPolicy(backend="numpy")
        )
        for piece in chunks:
            memory_store.push("k", piece)

    memory_push = best_of(memory_pushes, repeats=5)

    def durable_pushes():
        data_dir = tempfile.mkdtemp(prefix="repro-bench-durable-")
        try:
            durable_store = SessionStore(
                size=summary_size,
                policy=ExecutionPolicy(backend="numpy"),
                data_dir=data_dir,
                checkpoint_every=checkpoint_every,
            )
            for piece in chunks:
                durable_store.push("k", piece)
            durable_store.close()
        finally:
            shutil.rmtree(data_dir)

    durable_push = best_of(durable_pushes, repeats=5)

    # Group commit: the fsync cadence is counted in acknowledged pushes
    # (store-wide), so many small pushes are where it pays.  Same stream,
    # small chunks, fsync_every=8 versus the per-push default.
    group_chunk = max(push_chunk // 4, 1)
    small_chunks = [
        stream[i: i + group_chunk] for i in range(0, n, group_chunk)
    ]

    def cadence_pushes(fsync_every: int) -> None:
        data_dir = tempfile.mkdtemp(prefix="repro-bench-cadence-")
        try:
            cadence_store = SessionStore(
                size=summary_size,
                policy=ExecutionPolicy(backend="numpy"),
                data_dir=data_dir,
                fsync_every=fsync_every,
                checkpoint_every=checkpoint_every,
            )
            for piece in small_chunks:
                cadence_store.push("k", piece)
            cadence_store.close()
        finally:
            shutil.rmtree(data_dir)

    per_push_fsync = best_of(cadence_pushes, 1, repeats=5)
    grouped_fsync = best_of(cadence_pushes, 8, repeats=5)

    # Quorum ack overhead: the same chunked ingest replicated to a warm
    # standby over a real local socket, with the push acknowledgement
    # gated on the standby's ack (`sync_replicas=1`) versus the
    # asynchronous stream.  Frames already ship synchronously per push
    # either way, so the quorum machinery itself — sequencing into the
    # resync journal, counting acks, rollback bookkeeping — is what this
    # ratio isolates.
    from repro.cluster import ReplicationLink, start_standby
    from repro.cluster.replica import standby_store

    def replicated_pushes(sync_replicas: int) -> None:
        standby, _ = start_standby(
            standby_store(
                size=summary_size, policy=ExecutionPolicy(backend="numpy")
            )
        )
        try:
            replicated_store = SessionStore(
                size=summary_size,
                policy=ExecutionPolicy(backend="numpy"),
                sync_replicas=sync_replicas,
            )
            link = ReplicationLink(standby.address, auto_resync=False)
            link.attach(replicated_store)
            for piece in chunks:
                replicated_store.push("k", piece)
            link.detach()
        finally:
            standby.shutdown()
            standby.server_close()

    async_replicated = best_of(replicated_pushes, 0, repeats=3)
    quorum_replicated = best_of(replicated_pushes, 1, repeats=3)

    # Recovery: crash a durable store (no close()) and time how long a
    # fresh store takes to become ready to serve from the surviving
    # checkpoints + WAL — checkpoint mmap + torn-tail scan + replay +
    # first query.  The no-durability alternative after a crash is batch
    # recompression of the (re-sent) history, measured above.
    crash_dir = tempfile.mkdtemp(prefix="repro-bench-recover-")
    try:
        crashed = SessionStore(
            size=summary_size,
            policy=ExecutionPolicy(backend="numpy"),
            data_dir=crash_dir,
            checkpoint_every=checkpoint_every,
        )
        for piece in chunks:
            crashed.push("k", piece)
        del crashed  # crash: the WAL writers are dropped without close()

        recovery_seconds = []
        for _ in range(3):
            began = _time.perf_counter()
            revived = SessionStore(
                size=summary_size,
                policy=ExecutionPolicy(backend="numpy"),
                data_dir=crash_dir,
                checkpoint_every=checkpoint_every,
            )
            QueryEngine(revived).range_agg("k", lo, hi, "avg")
            recovery_seconds.append(_time.perf_counter() - began)
            revived.close()
        recovery_s = min(recovery_seconds)
    finally:
        shutil.rmtree(crash_dir)

    return {
        "durable_push_vs_memory": speedup(
            memory_push.seconds, durable_push.seconds
        ),
        "group_commit_vs_per_push_fsync": speedup(
            per_push_fsync.seconds, grouped_fsync.seconds
        ),
        "quorum_ack_overhead": speedup(
            async_replicated.seconds, quorum_replicated.seconds
        ),
        "recovery_vs_batch_recompress": speedup(
            batch.seconds, recovery_s
        ),
        "warm_query_vs_batch_recompress": speedup(
            batch.seconds, warm_per_query
        ),
        "metrics_disabled_overhead": overhead_ratio,
        "cold_query_vs_batch_recompress": speedup(
            batch.seconds, cold.seconds
        ),
        "snapshot_delta_vs_clone": speedup(
            snapshot_clone_s, snapshot_delta_s
        ),
        "snapshot_delta_vs_batch_recompress": speedup(
            batch.seconds, snapshot_delta_s
        ),
        "wire_decode_vs_encode": speedup(
            encode_run.seconds, decode_run.seconds
        ),
        "wire_decode_zero_copy": speedup(
            decode_copy_run.seconds, decode_zero_run.seconds
        ),
        "raw": {
            "stream": n,
            "summary": summary_size,
            "batch_recompress_s": batch.seconds,
            "cold_query_s": cold.seconds,
            "snapshot_delta_k": delta_k,
            "snapshot_delta_cold_s": snapshot_delta_s,
            "snapshot_clone_cold_s": snapshot_clone_s,
            "warm_query_us": warm_per_query * 1e6,
            "warm_query_uninstrumented_us": (
                uninstrumented_s / queries * 1e6
            ),
            "warm_query_disarmed_us": disarmed_s / queries * 1e6,
            "wire_bytes": len(blob),
            "wire_encode_s": encode_run.seconds,
            "wire_decode_s": decode_run.seconds,
            "wire_decode_copy_s": decode_copy_run.seconds / decode_batch,
            "wire_decode_zero_copy_s": decode_zero_run.seconds / decode_batch,
            "push_chunk": push_chunk,
            "checkpoint_every": checkpoint_every,
            "memory_push_s": memory_push.seconds,
            "durable_push_s": durable_push.seconds,
            "group_chunk": group_chunk,
            "per_push_fsync_s": per_push_fsync.seconds,
            "grouped_fsync_s": grouped_fsync.seconds,
            "async_replicated_push_s": async_replicated.seconds,
            "quorum_replicated_push_s": quorum_replicated.seconds,
            "recovery_s": recovery_s,
        },
    }


def bench_service(benchmark):
    """Pytest-benchmark entry point (smoke table; used by `pytest benchmarks`)."""
    from paperbench import publish

    # Always the smoke workload: the pytest entry point guards the code
    # path and the caching invariant; the record/check CLI below owns the
    # full-scale numbers.
    ratios = measure("smoke")
    raw = ratios["raw"]
    lines = [
        "Serving layer: snapshot queries vs batch recompression",
        f"  stream n={raw['stream']}, summary c={raw['summary']}",
        f"  batch recompress + query : {raw['batch_recompress_s'] * 1e3:9.2f} ms",
        f"  cold snapshot query      : {raw['cold_query_s'] * 1e3:9.2f} ms "
        f"({ratios['cold_query_vs_batch_recompress']:.0f}x cheaper)",
        f"  delta snapshot (k={raw['snapshot_delta_k']})   : "
        f"{raw['snapshot_delta_cold_s'] * 1e3:9.2f} ms "
        f"(clone oracle {raw['snapshot_clone_cold_s'] * 1e3:.2f} ms, "
        f"{ratios['snapshot_delta_vs_clone']:.1f}x)",
        f"  warm snapshot query      : {raw['warm_query_us']:9.2f} us "
        f"({ratios['warm_query_vs_batch_recompress']:.0f}x cheaper)",
        f"  disarmed obs overhead    : "
        f"{raw['warm_query_disarmed_us']:9.2f} us "
        f"(uninstrumented {raw['warm_query_uninstrumented_us']:.2f} us, "
        f"{1.0 / ratios['metrics_disabled_overhead']:.3f}x)",
        f"  wire payload             : {raw['wire_bytes']:,} bytes "
        f"(encode {raw['wire_encode_s'] * 1e3:.1f} ms, "
        f"decode {raw['wire_decode_s'] * 1e3:.1f} ms)",
        f"  zero-copy column decode  : "
        f"{raw['wire_decode_zero_copy_s'] * 1e3:9.2f} ms "
        f"(copying {raw['wire_decode_copy_s'] * 1e3:.2f} ms, "
        f"{ratios['wire_decode_zero_copy']:.1f}x)",
        f"  durable chunked ingest   : {raw['durable_push_s'] * 1e3:9.2f} ms "
        f"(memory {raw['memory_push_s'] * 1e3:.2f} ms, "
        f"{raw['durable_push_s'] / raw['memory_push_s']:.2f}x)",
        f"  group commit (every 8)   : {raw['grouped_fsync_s'] * 1e3:9.2f} ms "
        f"(per-push fsync {raw['per_push_fsync_s'] * 1e3:.2f} ms, "
        f"{ratios['group_commit_vs_per_push_fsync']:.2f}x, "
        f"chunk={raw['group_chunk']})",
        f"  quorum-acked ingest      : "
        f"{raw['quorum_replicated_push_s'] * 1e3:9.2f} ms "
        f"(async replication {raw['async_replicated_push_s'] * 1e3:.2f} ms, "
        f"{raw['quorum_replicated_push_s'] / raw['async_replicated_push_s']:.2f}x)",
        f"  crash recovery to serve  : {raw['recovery_s'] * 1e3:9.2f} ms "
        f"({ratios['recovery_vs_batch_recompress']:.1f}x vs recompress)",
    ]
    publish("service", "\n".join(lines))
    # The serving layer must beat recompression by a wide margin even at
    # smoke scale; anything less means snapshot caching is broken.
    assert ratios["warm_query_vs_batch_recompress"] >= 50.0
    # Disarmed observability must stay within 1.05x of the reconstructed
    # uninstrumented warm path (the zero-cost-when-disabled promise).
    assert ratios["metrics_disabled_overhead"] >= 1.0 / 1.05
    # A genuinely cold snapshot at a fresh generation (the delta path)
    # must also stay far cheaper than recompressing the history.
    assert ratios["snapshot_delta_vs_batch_recompress"] >= 50.0
    # Durability is a WAL append + fsync per acknowledged push; it must
    # not cost more than 1.5x the in-memory ingest at smoke scale.
    assert ratios["durable_push_vs_memory"] >= 1.0 / 1.5
    # Group commit amortises the fsync; it must never make ingest slower
    # than per-push fsync (wide band: fsync cost varies across CI disks).
    assert ratios["group_commit_vs_per_push_fsync"] >= 0.8
    # Frames ship synchronously either way; waiting for the quorum ack
    # (sync_replicas=1) adds only sequencing + ack bookkeeping and must
    # stay within 1.5x of the asynchronous stream over local sockets.
    assert ratios["quorum_ack_overhead"] >= 1.0 / 1.5
    # Zero-copy decode aliases the payload instead of copying every
    # column; if it stops being cheaper, copy=False has silently started
    # copying (measured ~2.8x at smoke scale; wide band for CI noise).
    assert ratios["wire_decode_zero_copy"] >= 1.2

    from repro.service import QueryEngine, SessionStore
    from repro.datasets import synthetic_sequential_segments
    from repro.api import ExecutionPolicy

    store = SessionStore(size=64, policy=ExecutionPolicy(backend="numpy"))
    store.push("k", synthetic_sequential_segments(2_000, 1, seed=3))
    engine = QueryEngine(store)
    engine.range_agg("k", 1, 2_000)
    benchmark(lambda: engine.range_agg("k", 1, 2_000))


# ----------------------------------------------------------------------
# Baseline record / check CLI (mirrors perf_baseline.py)
# ----------------------------------------------------------------------
def _load() -> dict:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return {"schema": 1, "scales": {}}


def _ratio_items(ratios: dict) -> dict:
    return {k: v for k, v in ratios.items() if k != "raw"}


def _print_ratios(title: str, ratios: dict, recorded: dict | None = None):
    print(f"\n{title}")
    for name, value in sorted(_ratio_items(ratios).items()):
        line = f"  {name:36s} {value:10.2f}x"
        if recorded and name in recorded:
            line += f"   (recorded {recorded[name]:.2f}x)"
        print(line)


def record(scale: str) -> None:
    ratios = measure(scale)
    data = _load()
    data.setdefault("scales", {})[scale] = _ratio_items(ratios)
    data["meta"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        # Fresh measurement wins over any previously recorded raw numbers.
        "raw": {**data.get("meta", {}).get("raw", {}), scale: ratios["raw"]},
    }
    BASELINE_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _print_ratios(f"recorded baseline ({scale}) -> {BASELINE_PATH.name}",
                  ratios)


def check(scale: str) -> int:
    data = _load()
    recorded = data.get("scales", {}).get(scale)
    if not recorded:
        print(f"no recorded baseline for scale {scale!r} in "
              f"{BASELINE_PATH.name}; run 'record' first", file=sys.stderr)
        return 2
    ratios = measure(scale)
    _print_ratios(f"measured ratios ({scale})", ratios, recorded)
    regressions = []
    for name, reference in sorted(recorded.items()):
        measured = _ratio_items(ratios).get(name)
        if measured is None:
            regressions.append(f"{name}: not measured anymore")
        elif measured < reference * (1.0 - REGRESSION_TOLERANCE):
            regressions.append(
                f"{name}: {measured:.2f}x is more than "
                f"{REGRESSION_TOLERANCE:.0%} below the recorded "
                f"{reference:.2f}x"
            )
    if regressions:
        print("\nserving performance regression detected:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno regression: all ratios within "
          f"{REGRESSION_TOLERANCE:.0%} of the recorded baseline")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "check"))
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="smoke",
        help="workload scale (default: smoke)",
    )
    arguments = parser.parse_args()
    if arguments.mode == "record":
        record(arguments.scale)
        return 0
    return check(arguments.scale)


if __name__ == "__main__":
    raise SystemExit(main())
