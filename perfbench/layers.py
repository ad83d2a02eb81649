"""Traced-run instrumentation: nested spans around each layer's entry points.

The package under test is never edited.  :meth:`Tracer.install` replaces
each boundary function *at every site where it is looked up* — the
defining module or class plus every module that bound it with
``from … import`` — by a wrapper that records one span, and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
(``(id, name, start, end, parent, tag, units)`` tuples) and are written
out once, when the traced phase ends.

A span's *self time* is its duration minus the part of it covered by its
child spans.  ``tag`` carries the serving key down the call tree so the
read path can be split by float and integer keys; ``units`` is the work
a span did (tuples, bytes), so per-tuple costs are measured where the
work happens.

Pool workers of the sharded engine are forked with the wrappers in
place: their spans travel back to the parent on the shard result and
are re-parented under the ``run_sharded`` span that dispatched them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import ratio

from repro.storage.wal import frame_overhead

Span = Tuple[int, str, float, float, int, Optional[str], float]
Hook = Callable[[tuple], Any]


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.

    ``sites`` are ``"module:attribute"`` or ``"module:Class.method"``
    lookups that all hold the same function.  ``name`` is the span name,
    or ``namer(args)`` picks it per call (``None`` = call unrecorded).
    ``tag(args)`` sets the span's tag (children inherit it),
    ``units(args, result)`` its work count, and ``after(tracer, result,
    tag)`` may count events.
    """

    sites: Tuple[str, ...]
    name: str = ""
    namer: Optional[Hook] = None
    tag: Optional[Hook] = None
    units: Optional[Callable[[tuple, Any], float]] = None
    after: Optional[Callable[["Tracer", Any, Optional[str]], None]] = None
    kind: str = "span"  # "span" | "shard" (pool-aware) | "pool" (adopts)


class ShardResult(tuple):
    """A shard trajectory that carries the spans its pool worker recorded."""


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: Counter = Counter()
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self, boundaries: Sequence[Boundary]) -> None:
        for boundary in boundaries:
            wrapped: Dict[int, Any] = {}
            for site in boundary.sites:
                owner, attribute = _resolve(site)
                original = owner.__dict__[attribute]
                is_classmethod = isinstance(original, classmethod)
                function = original.__func__ if is_classmethod else original
                if id(function) not in wrapped:
                    wrapper = self._wrap(function, boundary)
                    wrapped[id(function)] = (
                        classmethod(wrapper) if is_classmethod else wrapper
                    )
                setattr(owner, attribute, wrapped[id(function)])
                self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def count(self, event: str, tag: Optional[str] = None) -> None:
        with self._lock:
            self.events[(event, tag_class(tag))] += 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, boundary: Boundary) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            name = boundary.namer(args) if boundary.namer else boundary.name
            if name is None:
                return function(*args, **kwargs)
            stack = stack_of()
            parent, parent_tag = stack[-1] if stack else (-1, None)
            tag = boundary.tag(args) if boundary.tag else parent_tag
            sid = next(ids)
            stack.append((sid, tag))
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, name, start, perf_counter(), parent, tag, 0))
                raise
            end = perf_counter()
            stack.pop()
            units = boundary.units(args, result) if boundary.units else 0
            spans.append((sid, name, start, end, parent, tag, units))
            if boundary.after is not None:
                boundary.after(self, result, tag)
            return result

        if boundary.kind == "shard":
            return self._shard_wrapper(function, traced)
        if boundary.kind == "pool":
            return self._pool_wrapper(function)
        return traced

    def _shard_wrapper(self, function: Callable, traced: Callable) -> Callable:
        """In a forked pool worker, ship the recorded spans home."""
        spans = self.spans

        @functools.wraps(function)
        def shard(payload: Any) -> Any:
            if os.getpid() == self.pid:
                return traced(payload)
            mark = len(spans)
            result = ShardResult(traced(payload))
            result.spans = spans[mark:]  # type: ignore[attr-defined]
            del spans[mark:]
            return result

        return shard

    def _pool_wrapper(self, function: Callable) -> Callable:
        """Adopt worker spans under the dispatching span; plain results."""

        @functools.wraps(function)
        def pooled(*args: Any, **kwargs: Any) -> Any:
            results = function(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1][0] if stack else -1
            plain = []
            for result in results:
                self._adopt(getattr(result, "spans", ()), parent)
                plain.append(tuple(result))
            return plain

        return pooled

    def _adopt(self, shipped: Sequence[Span], parent: int) -> None:
        renumbered = {span[0]: next(self._ids) for span in shipped}
        for sid, name, start, end, old_parent, tag, units in shipped:
            self.spans.append(
                (
                    renumbered[sid],
                    name,
                    start,
                    end,
                    renumbered.get(old_parent, parent),
                    tag,
                    units,
                )
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per span name (and ``name@tagclass``): count, total and self
        seconds, units; plus the event counters."""
        spans = list(self.spans)
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in spans:
            if span[4] >= 0:
                children[span[4]].append((span[2], span[3]))
        table: Dict[str, Dict[str, float]] = {}
        for sid, name, start, end, _, tag, units in spans:
            duration = end - start
            own = duration - _covered(children.get(sid, ()), start, end)
            keys = [name] if tag is None else [name, f"{name}@{tag_class(tag)}"]
            for key in keys:
                row = table.setdefault(
                    key, {"n": 0, "total_s": 0.0, "self_s": 0.0, "units": 0.0}
                )
                row["n"] += 1
                row["total_s"] += duration
                row["self_s"] += own
                row["units"] += units
        events = {f"{event}@{cls}": n for (event, cls), n in self.events.items()}
        return {"spans": table, "events": events}

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (the phase's raw trace)."""
        with open(path, "w", encoding="utf-8") as file:
            for sid, name, start, end, parent, tag, units in self.spans:
                file.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "tag": tag,
                            "units": units,
                        }
                    )
                    + "\n"
                )


def tag_class(tag: Optional[str]) -> str:
    """Integer-valued keys are named ``i…``; every other key is float."""
    if tag is None:
        return "-"
    return "int" if tag.startswith("i") else "float"


def _covered(
    intervals: Sequence[Tuple[float, float]], low: float, high: float
) -> float:
    """Length of the union of ``intervals`` inside ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def _resolve(site: str) -> Tuple[Any, str]:
    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


# ----------------------------------------------------------------------
# The boundaries, named after the modules that own them
# ----------------------------------------------------------------------
def _size(index: int) -> Callable[[tuple, Any], float]:
    return lambda args, result: len(args[index])


def _key(args: tuple) -> str:
    return str(args[1])


def _fallback(tracer: Tracer, result: Any, tag: Optional[str]) -> None:
    if result is None:
        tracer.count("reducer.oracle_fallback", tag)


_WAL_FRAME_HEADER = frame_overhead()[1]

ENGINE = [
    Boundary(("repro.api.session:Compressor.push",), "session.push",
             units=_size(1)),
    Boundary(("repro.api.session:Compressor.summary_columns",),
             "session.summary_columns"),
    Boundary(("repro.core.greedy:OnlineReducer.push_chunk",),
             "reducer.push_chunk", units=_size(1)),
    Boundary(("repro.core.greedy:OnlineReducer.extend",), "reducer.extend"),
    Boundary(("repro.core.greedy:OnlineReducer.snapshot",), "reducer.snapshot"),
    Boundary(("repro.core.kernels:NumpyMergeHeap.stage_chunk",),
             "kernels.stage", units=_size(1)),
    Boundary(("repro.core.kernels:NumpyMergeHeap.activate_staged_all",),
             "kernels.activate"),
    Boundary(("repro.core.kernels:SnapshotMirror.from_heap",),
             "kernels.mirror_from_heap"),
    Boundary(("repro.core.greedy:finalize_mirror",), "kernels.finalize_mirror",
             after=_fallback),
]


def server_boundaries(store: Any) -> List[Boundary]:
    """The primary's push and read paths, HTTP handler down to kernels."""

    def warm_or_cold(args: tuple) -> str:
        engine, key = args[0], args[1]
        cached = engine.cache_info().get(key)
        return "query.warm" if cached == store.generation(key) else "query.cold"

    return [
        Boundary(("repro.service.http:_Handler.do_POST",), "http.post"),
        Boundary(("repro.service.http:_Handler.do_GET",), "http.get"),
        Boundary(("repro.service.http:decode_segments",), "wire.decode",
                 units=lambda args, result: len(result)),
        Boundary(("repro.service.http:_segments_from_json_body",),
                 "wire.json_decode", units=lambda args, result: len(result)),
        Boundary(("repro.service.http:Service.push",), "service.push"),
        Boundary(("repro.service.http:Service.range_agg",
                  "repro.service.http:Service.value_at",
                  "repro.service.http:Service.window"), "service.query"),
        Boundary(("repro.service.store:SessionStore.push",), "store.push",
                 units=lambda args, result: result),
        Boundary(("repro.service.store:encode_segments",), "wire.encode",
                 units=_size(0)),
        Boundary(("repro.service.store:SessionStore.snapshot_columns",),
                 "store.snapshot_columns", tag=_key),
        Boundary(("repro.service.store:SessionStore._freeze_state",),
                 "store.freeze"),
        Boundary(("repro.service.query:QueryEngine.range_agg",
                  "repro.service.query:QueryEngine.value_at",
                  "repro.service.query:QueryEngine.window"),
                 namer=warm_or_cold, tag=_key),
        Boundary(("repro.service.query:SnapshotIndex.from_columns",),
                 "query.index_build"),
        Boundary(("repro.service.durability:Durability.log_push",),
                 "durability.log_push",
                 units=lambda args, result: len(args[3]) + _WAL_FRAME_HEADER),
        Boundary(("repro.service.durability:Durability.commit",),
                 "durability.commit"),
        Boundary(("repro.service.durability:write_checkpoint",),
                 "durability.checkpoint"),
        Boundary(("repro.storage.wal:_datasync",), "durability.fdatasync"),
        Boundary(("repro.cluster.replica:ReplicationLink.on_push",),
                 "replica.ship", units=lambda args, result: len(args[2])),
        *ENGINE,
    ]


STANDBY = [
    Boundary(("repro.service.store:SessionStore.push",), "store.push",
             units=lambda args, result: result),
    Boundary(("repro.cluster.replica:decode_segments",), "wire.decode",
             units=lambda args, result: len(result)),
]

BATCH = [
    Boundary(("repro.api.executor:execute", "repro.api:execute",
              "repro.pipeline:execute"), "api.execute"),
    Boundary(("repro.parallel:run_sharded",), "parallel.run_sharded"),
    Boundary(("repro.parallel:reduce_shard", "repro.parallel:_reduce_shard"),
             "parallel.reduce_shard", units=lambda args, result: len(args[0][0]),
             kind="shard"),
    Boundary(("repro.parallel:_reduce_shards_pooled",), kind="pool"),
    Boundary(("repro.parallel:assemble_result",), "parallel.assemble"),
    Boundary(("repro.parallel:greedy_merge_trajectory",), "kernels.trajectory",
             units=_size(0)),
    Boundary(("repro.core.dp:reduce_to_size",), "dp.reduce_to_size",
             units=_size(0)),
    *ENGINE,
]

#: Spans that must fire on each workload's traced phase, or the run fails.
REQUIRED = {
    "ingest": [
        "http.post", "wire.decode", "wire.json_decode", "service.push",
        "store.push", "session.push", "reducer.push_chunk", "kernels.stage",
        "kernels.activate",
    ],
    "durable_ingest": [
        "http.post", "wire.decode", "service.push", "store.push",
        "wire.encode", "session.push", "reducer.push_chunk",
        "kernels.activate", "durability.log_push", "durability.commit",
        "durability.fdatasync", "store.freeze", "durability.checkpoint",
        "replica.ship", "standby:store.push",
    ],
    "query_mixed": [
        "http.get", "http.post", "service.query", "query.warm", "query.cold",
        "store.snapshot_columns", "session.summary_columns",
        "reducer.snapshot", "kernels.finalize_mirror", "query.index_build",
        "store.push", "reducer.push_chunk",
    ],
    "batch": [
        "api.execute", "parallel.run_sharded", "parallel.reduce_shard",
        "parallel.assemble", "kernels.trajectory", "dp.reduce_to_size",
        "reducer.extend", "reducer.push_chunk", "kernels.activate",
    ],
}


#: Counter and event metrics that must read non-zero on each workload's
#: traced run, or the run fails: a renamed ``/stats`` key or an event that
#: no longer fires stops the run instead of reading 0.
NONZERO = {
    "ingest": ["http.connections_per_req"],
    "durable_ingest": [
        "http.connections_per_req", "durability.disk_bytes_per_tuple",
        "durability.fsyncs_per_push", "replica.bytes_per_tuple",
    ],
    "query_mixed": [
        "http.connections_per_req", "query.cache_hit_ratio",
        "query.cost_rows_per_query",
        "reducer.oracle_fallbacks_per_snapshot.int",
    ],
    "batch": [],
}


def missing_spans(workload: str, primary: Dict, standby: Dict) -> List[str]:
    """Required boundaries that recorded no span on the traced phase."""
    missing = []
    for name in REQUIRED[workload]:
        table = primary
        if name.startswith("standby:"):
            table, name = standby, name.split(":", 1)[1]
        if not table.get("spans", {}).get(name, {}).get("n"):
            missing.append(name)
    return missing


def zero_metrics(workload: str, metrics: Dict[str, float]) -> List[str]:
    """``NONZERO`` metrics of the workload that read 0."""
    return [name for name in NONZERO[workload] if not metrics[name]]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_values(
    primary: Dict, standby: Dict, context: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer numbers from the traced phase's span summaries.

    ``primary`` is the summary of the process that ran the layers (the
    server, or the benchmark process itself on ``batch``); ``standby``
    the warm standby's; ``context`` carries the client-side and
    ``/stats`` figures (see ``run.py``).
    """
    spans = primary.get("spans", {})
    events = primary.get("events", {})
    standby_spans = standby.get("spans", {})

    def n(name: str) -> float:
        return spans.get(name, {}).get("n", 0)

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def units(name: str) -> float:
        return spans.get(name, {}).get("units", 0.0)

    def mean_us(name: str) -> float:
        return ratio(total(name), n(name)) * 1e6

    requests = n("http.post") + n("http.get")
    pushed = units("store.push")
    values = {
        "http.self_us_per_req": ratio(own("http.post") + own("http.get"),
                                      requests) * 1e6,
        "wire.decode_us_per_tuple": ratio(total("wire.decode"),
                                          units("wire.decode")) * 1e6,
        "wire.json_decode_us_per_tuple": ratio(
            total("wire.json_decode"), units("wire.json_decode")) * 1e6,
        "wire.encode_calls_per_push": ratio(n("wire.encode"), n("store.push")),
        "wire.encode_us_per_tuple": ratio(total("wire.encode"),
                                          units("wire.encode")) * 1e6,
        "store.push_self_us_per_tuple": ratio(own("store.push"), pushed) * 1e6,
        "store.snapshot_columns_us": mean_us("store.snapshot_columns"),
        "store.freezes_per_ktuple": ratio(n("store.freeze"), pushed) * 1e3,
        "session.push_self_us_per_tuple": ratio(own("session.push"),
                                                units("session.push")) * 1e6,
        "session.summary_columns_us": mean_us("session.summary_columns"),
        "reducer.push_chunk_self_us_per_tuple": ratio(
            own("reducer.push_chunk"), units("reducer.push_chunk")) * 1e6,
        "reducer.snapshot_us": mean_us("reducer.snapshot"),
        "reducer.oracle_fallbacks_per_snapshot.float": ratio(
            events.get("reducer.oracle_fallback@float", 0),
            n("reducer.snapshot@float")),
        "reducer.oracle_fallbacks_per_snapshot.int": ratio(
            events.get("reducer.oracle_fallback@int", 0),
            n("reducer.snapshot@int")),
        "reducer.mirror_rebuilds_per_snapshot": ratio(
            n("kernels.mirror_from_heap"), n("reducer.snapshot")),
        "kernels.stage_us_per_tuple": ratio(total("kernels.stage"),
                                            units("kernels.stage")) * 1e6,
        "kernels.activate_us_per_tuple": ratio(total("kernels.activate"),
                                               units("kernels.stage")) * 1e6,
        "kernels.finalize_mirror_us": mean_us("kernels.finalize_mirror"),
        "kernels.trajectory_us_per_tuple": ratio(
            total("kernels.trajectory"), units("kernels.trajectory")) * 1e6,
        "query.warm_us": mean_us("query.warm"),
        "query.cold_us": mean_us("query.cold"),
        "query.index_build_us": mean_us("query.index_build"),
        "durability.log_push_us": mean_us("durability.log_push"),
        "durability.commit_us": mean_us("durability.commit"),
        "durability.fsyncs_per_push": ratio(n("durability.fdatasync"),
                                            n("store.push")),
        "durability.checkpoint_ms": mean_us("durability.checkpoint") / 1e3,
        "durability.checkpoints": n("durability.checkpoint"),
        "durability.wal_bytes_per_tuple": ratio(units("durability.log_push"),
                                                pushed),
        "replica.ship_us_per_push": mean_us("replica.ship"),
        "replica.standby_apply_us_per_tuple": ratio(
            standby_spans.get("store.push", {}).get("total_s", 0.0),
            standby_spans.get("store.push", {}).get("units", 0.0)) * 1e6,
        "replica.bytes_per_tuple": ratio(units("replica.ship"), pushed),
        "parallel.self_ms": ratio(own("parallel.run_sharded"),
                                  n("parallel.run_sharded")) * 1e3,
        "parallel.reduce_shard_us_per_tuple": ratio(
            total("parallel.reduce_shard"), units("parallel.reduce_shard")) * 1e6,
        "parallel.assemble_ms": mean_us("parallel.assemble") / 1e3,
        "dp.us_per_tuple": ratio(total("dp.reduce_to_size"),
                                 units("dp.reduce_to_size")) * 1e6,
        "api.execute_self_us": ratio(own("api.execute"), n("api.execute")) * 1e6,
    }
    values.update(context)
    return values
