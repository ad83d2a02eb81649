"""Temporal queries over summary snapshots (the read path of serving).

The paper's premise is that a parsimonious summary is small enough to
*serve from*: point lookups and range aggregates over the reduced relation
answer the original workload within the bounded error of the reduction.
:class:`QueryEngine` implements that read path over a
:class:`~repro.service.store.SessionStore`:

* ``value_at(key, t)`` — the aggregate values at chronon ``t``: one binary
  search over the snapshot's segment starts
  (:func:`repro.core.kernels.instant_index`);
* ``range_agg(key, t1, t2, fn)`` — a range aggregate over ``[t1, t2]``:
  ``avg`` and ``sum`` are answered in ``O(log n + p)`` from the snapshot's
  time-weighted prefix sums (:func:`repro.core.kernels.range_weighted_sum`
  — the same Proposition 1/2 identities the merge kernels use), ``min`` /
  ``max`` scan only the overlapped rows;
* ``window(key, t1, t2, stride)`` — a fixed-stride sweep of range
  aggregates, the shape dashboards poll for.

Snapshots are cached per key and invalidated by the store's push
*generation*: between pushes, repeated queries reuse one prepared index
(sorted arrays + prefix sums).  A cache miss consumes the store's
*snapshot columns* — the session's delta-patched, generation-cached column
snapshot — and builds the index with one stable ``lexsort``
(:meth:`SnapshotIndex.from_columns`), so even a cold read after ``k``
pushes costs O(k + tail merges) Python work rather than O(live heap), and no
per-segment objects are materialised on the way.  Keys that serve several
aggregation groups expose them via the ``group=`` parameter.

Answers are float-exact with respect to the snapshot: running the same
query against the batch ``compress`` output of the same prefix yields
bit-identical numbers, because snapshots are bit-identical to batch
summaries (the PR 3 session contract) and the query arithmetic is shared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.kernels import (
    EncodedSegments,
    instant_index,
    range_weighted_sum,
    time_weighted_prefix,
)
from ..core.merge import AggregateSegment
from ..obs import metrics as _metrics
from .store import Key, ServiceError, SessionStore

#: Range-aggregate functions:``avg`` is the chronon-weighted mean (what the
#: summary's merge operator preserves), ``sum`` the value·chronon integral,
#: ``min``/``max`` the extreme segment values touching the range.
RANGE_FUNCTIONS = ("avg", "sum", "min", "max")


@dataclass(frozen=True)
class WindowBucket:
    """One stride of a :meth:`QueryEngine.window` sweep.

    ``values`` is ``None`` when the bucket lies entirely in a temporal gap.
    """

    start: int
    end: int
    values: Optional[Tuple[float, ...]]


class _GroupIndex:
    """Query-ready arrays of one group's snapshot segments."""

    __slots__ = ("starts", "ends", "values", "length_prefix", "weighted_prefix")

    def __init__(self, segments: Sequence[AggregateSegment]) -> None:
        count = len(segments)
        starts = np.fromiter(
            (s.interval.start for s in segments), np.int64, count
        )
        ends = np.fromiter(
            (s.interval.end for s in segments), np.int64, count
        )
        dimensions = segments[0].dimensions if count else 0
        values = np.array(
            [s.values for s in segments], dtype=np.float64
        ).reshape(count, dimensions)
        self._finish(starts, ends, values)

    @classmethod
    def from_arrays(
        cls, starts: np.ndarray, ends: np.ndarray, values: np.ndarray
    ) -> "_GroupIndex":
        """Build directly from snapshot columns (no segment objects)."""
        index = cls.__new__(cls)
        index._finish(starts, ends, values)
        return index

    def _finish(
        self, starts: np.ndarray, ends: np.ndarray, values: np.ndarray
    ) -> None:
        self.starts = starts
        self.ends = ends
        self.values = values
        self.length_prefix, self.weighted_prefix = time_weighted_prefix(
            starts, ends, values
        )

    def value_at(self, t: int) -> Optional[Tuple[float, ...]]:
        index = instant_index(self.starts, self.ends, t)
        if index < 0:
            return None
        return tuple(float(v) for v in self.values[index])

    def range_agg(
        self, t1: int, t2: int, fn: str
    ) -> Optional[Tuple[float, ...]]:
        # Overlapping segment index range: first segment ending at/after t1,
        # last segment starting at/before t2.
        lo = int(np.searchsorted(self.ends, t1, side="left"))
        hi = int(np.searchsorted(self.starts, t2, side="right")) - 1
        if lo > hi or lo >= len(self.starts) or hi < 0:
            return None
        if fn == "min":
            return tuple(
                float(v) for v in self.values[lo : hi + 1].min(axis=0)
            )
        if fn == "max":
            return tuple(
                float(v) for v in self.values[lo : hi + 1].max(axis=0)
            )
        covered, weighted = range_weighted_sum(
            self.starts,
            self.ends,
            self.values,
            self.length_prefix,
            self.weighted_prefix,
            lo,
            hi,
            t1,
            t2,
        )
        if fn == "sum":
            return tuple(float(v) for v in weighted)
        return tuple(float(v) for v in weighted / covered)

    def cost_rows(self, t1: int, t2: int) -> int:
        """Estimated rows a range query over ``[t1, t2]`` touches.

        The window span measured against the snapshot index — the same
        two binary searches :meth:`range_agg` opens with, so the
        estimate is exact for ``min``/``max`` scans and an upper bound
        for the prefix-sum path.  This is the per-query cost accounting
        a cost-aware scheduler consumes (ROADMAP direction 2).
        """
        lo = int(np.searchsorted(self.ends, t1, side="left"))
        hi = int(np.searchsorted(self.starts, t2, side="right")) - 1
        lo = max(lo, 0)
        hi = min(hi, len(self.starts) - 1)
        return max(0, hi - lo + 1)


class SnapshotIndex:
    """A whole snapshot prepared for querying, one sub-index per group."""

    def __init__(self, segments: Sequence[AggregateSegment]) -> None:
        grouped: Dict[Tuple[Any, ...], List[AggregateSegment]] = {}
        for segment in segments:
            grouped.setdefault(segment.group, []).append(segment)
        for members in grouped.values():
            members.sort(key=lambda s: s.interval.start)
        self._groups = {
            group: _GroupIndex(members) for group, members in grouped.items()
        }

    @classmethod
    def from_columns(cls, columns: EncodedSegments) -> "SnapshotIndex":
        """Build the index straight from snapshot columns, vectorized.

        The column twin of the segment constructor: rows are partitioned
        by group and time-ordered with one stable ``lexsort`` instead of a
        per-segment Python pass — this is what makes a *cold* query after
        a delta-patched snapshot cost about the same as a warm one.
        """
        index = cls.__new__(cls)
        index._groups = {}
        if len(columns):
            order = np.lexsort((columns.starts, columns.groups))
            ordered_ids = columns.groups[order]
            boundaries = np.flatnonzero(np.diff(ordered_ids)) + 1
            for rows in np.split(order, boundaries):
                group = columns.group_keys[int(columns.groups[rows[0]])]
                index._groups[group] = _GroupIndex.from_arrays(
                    columns.starts[rows],
                    columns.ends[rows],
                    columns.values[rows],
                )
        return index

    @property
    def groups(self) -> List[Tuple[Any, ...]]:
        return list(self._groups)

    def resolve(self, group: Optional[Sequence[Any]]) -> _GroupIndex:
        if group is None:
            if len(self._groups) == 1:
                return next(iter(self._groups.values()))
            if not self._groups:
                raise ServiceError("the snapshot is empty")
            raise ServiceError(
                f"the key serves {len(self._groups)} aggregation groups; "
                f"pass group= to select one of {sorted(self._groups)}"
            )
        wanted = tuple(group)
        index = self._groups.get(wanted)
        if index is None:
            raise ServiceError(
                f"unknown group {wanted!r}; known: {sorted(self._groups)}"
            )
        return index


#: Distinguishes engine instances in the shared metrics registry.
_ENGINE_IDS = itertools.count()


class QueryEngine:
    """Answer temporal queries from a store's summary snapshots.

    Every engine registers per-instance children in the process-global
    metrics registry (label ``engine=<n>``).  While observability is
    armed, snapshot-cache hits and misses are counted on every
    ``_index`` resolution and each query additionally records its wall
    time in ``repro_query_seconds`` and its estimated row cost
    (:meth:`_GroupIndex.cost_rows`) in ``repro_query_cost_rows_total``,
    the accounting a cost-aware scheduler needs.  When disarmed the
    warm path pays exactly one global read — no locks, no clock calls
    (the ``metrics_disabled_overhead`` gate in
    ``benchmarks/bench_service.py``).  The same numbers are read back
    by :meth:`counters` for the HTTP ``/stats`` document.
    """

    def __init__(self, store: SessionStore) -> None:
        self._store = store
        self._cache: Dict[Key, Tuple[int, SnapshotIndex]] = {}
        engine = str(next(_ENGINE_IDS))
        self._hits = _metrics.counter(
            "repro_query_cache_hits_total",
            "Snapshot-cache hits (index reused at the same generation).",
            engine=engine,
        )
        self._misses = _metrics.counter(
            "repro_query_cache_misses_total",
            "Snapshot-cache misses (index rebuilt from snapshot columns).",
            engine=engine,
        )
        self._queries = _metrics.counter(
            "repro_queries_total",
            "Queries answered while observability was armed.",
            engine=engine,
        )
        self._cost_rows = _metrics.counter(
            "repro_query_cost_rows_total",
            "Estimated snapshot rows touched by cost-accounted queries.",
            engine=engine,
        )
        self._latency = _metrics.histogram(
            "repro_query_seconds",
            "Query wall time (value_at / range_agg / window).",
            engine=engine,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def value_at(
        self, key: Key, t: int, group: Optional[Sequence[Any]] = None
    ) -> Optional[Tuple[float, ...]]:
        """Aggregate values at chronon ``t``, or ``None`` in a gap."""
        index = self._index(key).resolve(group)
        if not _metrics.armed:  # one attribute read on the hot path
            return index.value_at(int(t))
        t0 = perf_counter()
        result = index.value_at(int(t))
        self._account(1, perf_counter() - t0)
        return result

    def range_agg(
        self,
        key: Key,
        t1: int,
        t2: int,
        fn: str = "avg",
        group: Optional[Sequence[Any]] = None,
    ) -> Optional[Tuple[float, ...]]:
        """Range aggregate over ``[t1, t2]`` (inclusive chronons).

        Returns one float per aggregate dimension, or ``None`` when the
        range lies entirely in temporal gaps.  ``fn`` is one of
        :data:`RANGE_FUNCTIONS`; gaps inside the range simply contribute
        nothing (the aggregate is over the covered chronons).
        """
        if fn not in RANGE_FUNCTIONS:
            raise ServiceError(
                f"fn must be one of {RANGE_FUNCTIONS}, got {fn!r}"
            )
        t1, t2 = int(t1), int(t2)
        if t2 < t1:
            raise ServiceError(f"empty range: t2={t2} precedes t1={t1}")
        index = self._index(key).resolve(group)
        if not _metrics.armed:  # one attribute read on the hot path
            return index.range_agg(t1, t2, fn)
        t0 = perf_counter()
        result = index.range_agg(t1, t2, fn)
        self._account(index.cost_rows(t1, t2), perf_counter() - t0)
        return result

    def window(
        self,
        key: Key,
        t1: int,
        t2: int,
        stride: int,
        fn: str = "avg",
        group: Optional[Sequence[Any]] = None,
    ) -> List[WindowBucket]:
        """Fixed-stride sweep of range aggregates across ``[t1, t2]``.

        Buckets are ``[t, t + stride - 1]`` clipped to ``t2``; each bucket
        is one :meth:`range_agg` answer (``None`` values inside gaps).
        """
        if stride < 1:
            raise ServiceError(f"stride must be at least 1, got {stride}")
        if fn not in RANGE_FUNCTIONS:
            raise ServiceError(
                f"fn must be one of {RANGE_FUNCTIONS}, got {fn!r}"
            )
        t1, t2 = int(t1), int(t2)
        if t2 < t1:
            raise ServiceError(f"empty range: t2={t2} precedes t1={t1}")
        index = self._index(key).resolve(group)
        armed = _metrics.armed
        t0 = perf_counter() if armed else 0.0
        buckets: List[WindowBucket] = []
        start = t1
        while start <= t2:
            end = min(start + stride - 1, t2)
            buckets.append(
                WindowBucket(start, end, index.range_agg(start, end, fn))
            )
            start += stride
        if armed:
            self._account(index.cost_rows(t1, t2), perf_counter() - t0)
        return buckets

    def groups(self, key: Key) -> List[Tuple[Any, ...]]:
        """The aggregation groups served under ``key``."""
        return self._index(key).groups

    # ------------------------------------------------------------------
    # Snapshot cache
    # ------------------------------------------------------------------
    def _index(self, key: Key) -> SnapshotIndex:
        generation = self._store.generation(key)
        cached = self._cache.get(key)
        if cached is not None and cached[0] == generation:
            if _metrics.armed:  # keep the disarmed hot path lock-free
                self._hits.inc()
            return cached[1]
        # Cache miss: consume the store's snapshot columns — the live part
        # is the session's delta-patched, generation-cached snapshot, so a
        # cold read after k pushes costs O(k + summary) instead of
        # O(live heap), and repeated reads at one generation are free.
        if _metrics.armed:
            self._misses.inc()
        index = SnapshotIndex.from_columns(
            self._store.snapshot_columns(key)
        )
        self._cache[key] = (generation, index)
        return index

    def _account(self, cost_rows: int, seconds: float) -> None:
        """Record one armed query: count, estimated row cost, latency."""
        self._queries.inc()
        self._cost_rows.inc(cost_rows)
        self._latency.observe(seconds)

    def cache_info(self) -> Dict[Key, int]:
        """Cached generation per key (monitoring/test hook)."""
        return {key: gen for key, (gen, _) in self._cache.items()}

    def counters(self) -> Dict[str, int]:
        """The engine's registry-backed counters (the ``/stats`` view).

        All four accumulate only while observability is armed (the
        default) — the disarmed warm path is lock-free.  The
        ``cost_rows``/``queries`` ratio is the mean estimated rows per
        query — the direction-2 scheduling signal.
        """
        return {
            "cache_hits": int(self._hits.value),
            "cache_misses": int(self._misses.value),
            "queries": int(self._queries.value),
            "cost_rows": int(self._cost_rows.value),
        }


__all__ = [
    "QueryEngine",
    "RANGE_FUNCTIONS",
    "SnapshotIndex",
    "WindowBucket",
]
