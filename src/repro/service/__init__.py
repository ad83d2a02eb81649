"""The serving layer: multi-session store, wire format, snapshot queries.

The paper's point is that parsimonious summaries are small enough to
*serve*.  This package is the subsystem that does so, one layer per
concern:

* :mod:`~repro.service.store` — :class:`SessionStore`, a keyed registry of
  live :class:`~repro.api.Compressor` sessions with pluggable LRU + TTL
  eviction that *freezes* evicted sessions into queryable summaries
  (pushed tuples are never dropped);
* :mod:`~repro.service.wire` — the versioned binary wire format for
  segment streams and result payloads (the sharded engine's flat column
  layout, made byte-portable) plus a JSON-lines debug encoding;
* :mod:`~repro.service.query` — :class:`QueryEngine`, answering
  ``value_at`` / ``range_agg`` / ``window`` from ``summary()`` snapshots
  via binary search and the Proposition 1/2 prefix-sum identities, with a
  per-key snapshot cache invalidated by push generation;
* :mod:`~repro.service.http` — the in-process :class:`Service` facade and
  a dependency-free HTTP/1.0 JSON front end on reused handler threads;
* :mod:`~repro.service.durability` — the durability tier: per-key
  write-ahead logs, frozen epochs demoted to mmap-backed checkpoint
  files, and bit-identical crash recovery (enable with ``data_dir=``).

Quickstart::

    from repro.service import Service, start_in_background

    service = Service(size=128, max_sessions=1000, ttl=300.0)
    service.push("sensor-1", segments)
    service.range_agg("sensor-1", t1=0, t2=99, fn="avg")

    server, _ = start_in_background(service)   # JSON over HTTP
"""

from .durability import (
    Durability,
    DurabilityError,
    FrozenEpoch,
    RecoveredKey,
)
from .http import (
    Service,
    ServiceHTTPServer,
    WIRE_CONTENT_TYPE,
    serve,
    start_in_background,
)
from .query import QueryEngine, RANGE_FUNCTIONS, SnapshotIndex, WindowBucket
from .store import (
    Key,
    LRUTTLEviction,
    ReplicationError,
    ServiceError,
    SessionStore,
    StoreStats,
)
from .wire import (
    RESULT_MAGIC,
    SEGMENTS_MAGIC,
    WIRE_VERSION,
    WireError,
    decode_result,
    decode_segments,
    encode_result,
    encode_segments,
    segments_from_jsonl,
    segments_to_jsonl,
)

__all__ = [
    "Durability",
    "DurabilityError",
    "FrozenEpoch",
    "Key",
    "LRUTTLEviction",
    "RecoveredKey",
    "ReplicationError",
    "QueryEngine",
    "RANGE_FUNCTIONS",
    "RESULT_MAGIC",
    "SEGMENTS_MAGIC",
    "Service",
    "ServiceError",
    "ServiceHTTPServer",
    "SessionStore",
    "SnapshotIndex",
    "StoreStats",
    "WIRE_CONTENT_TYPE",
    "WIRE_VERSION",
    "WindowBucket",
    "WireError",
    "decode_result",
    "decode_segments",
    "encode_result",
    "encode_segments",
    "segments_from_jsonl",
    "segments_to_jsonl",
    "serve",
    "start_in_background",
]
