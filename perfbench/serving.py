"""Serving workloads: server processes, the closed-loop load generator and
the correctness check.

Each workload is a fixed, seeded sequence of operations per client.  A
client owns its keys (no two clients push to or read one key), so the
state behind every answer it gets is a function of its own sequence and
the whole run can be replayed and checked afterwards.  Push bodies and
request paths are built before the clock starts.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from common import Check, out_dir, pin, quantile, ratio, tail_mean
from inputs import JSON, WIRE, body, decode, stream, total_sum_of_squares

from repro.api import ExecutionPolicy
from repro.service import QueryEngine, SessionStore
from repro.service.wire import decode_result, encode_result

SIZE = 1000
BACKEND = "numpy"
CHUNK = 256
QUERY_PUSH = 64
SEED_CHUNK = 2500
SERVER = Path(__file__).resolve().parent / "server.py"
REPLY_TIMEOUT = 120.0


#: Requests per second per client that the pre-built inputs cover: three
#: to seven times the fastest rates seen when the benchmark was written
#: (about 125 pushes, 45 durable pushes and 420 queries per client and
#: second).  A client that runs out stops early and fails the run.
INGEST_RATE = 400
DURABLE_RATE = 300
QUERY_RATE = 3000


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``tiny`` is the self-test's."""

    query_setup: int = 25_000  # tuples per key pushed before the clock
    checkpoint_every: int = 4096
    # Set-ups per run, ``setup_s`` being their median.  Booting a server
    # process takes 0.3-0.45 s by itself, so the cheap set-ups repeat
    # five times; ``query_mixed``'s pushes 200k tuples and takes ~4 s.
    setup_reps: int = 5
    query_setup_reps: int = 3


SCALES = {
    "full": Scale(),
    "tiny": Scale(query_setup=3000, checkpoint_every=512, setup_reps=1,
                  query_setup_reps=1),
}


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    kind: str  # push | range_agg | value_at | window
    key: str
    path: str
    body: Optional[bytes] = None
    ctype: Optional[str] = None
    tuples: int = 0
    params: Tuple[Any, ...] = ()

    @property
    def method(self) -> str:
        return "POST" if self.body is not None else "GET"


def push_op(key: str, start: int, values: np.ndarray, ctype: str) -> Op:
    return Op("push", key, f"/push/{key}", body(start, values, ctype), ctype,
              len(values))


@dataclass
class Plan:
    """A serving workload: server configuration plus per-client ops."""

    keys: List[str]
    clients: List[List[Op]]
    setup_reps: int
    seed_ops: List[Op] = field(default_factory=list)
    durable: bool = False
    checkpoint_every: Optional[int] = None


KEYS = [f"k{index}" for index in range(8)]


def ingest_plan(seed: int, budget_s: float, scale: Scale) -> Plan:
    """256-tuple chunks round-robin over 8 keys; keys 0–5 send PTAS
    bodies, keys 6–7 JSON arrays.  2 clients, each with three PTAS keys
    and one JSON key: with a single client the loop is a ping-pong whose
    pace hangs on cross-CPU wake-ups, and its figures spread 2–4× wider
    between runs."""
    rounds = math.ceil(budget_s * INGEST_RATE / 4)
    clients = [
        _round_robin(seed, owned, [WIRE] * 3 + [JSON], rounds)
        for owned in ([0, 1, 2, 6], [3, 4, 5, 7])
    ]
    return Plan(KEYS, clients, scale.setup_reps)


def durable_plan(seed: int, budget_s: float, scale: Scale) -> Plan:
    """2 clients with 4 keys each, binary bodies, durable + standby."""
    rounds = math.ceil(budget_s * DURABLE_RATE / 4)
    clients = [
        _round_robin(seed, owned, [WIRE] * 4, rounds)
        for owned in ([0, 1, 2, 3], [4, 5, 6, 7])
    ]
    return Plan(KEYS, clients, scale.setup_reps, durable=True,
                checkpoint_every=scale.checkpoint_every)


def _round_robin(
    seed: int, owned: List[int], ctypes: List[str], rounds: int
) -> List[Op]:
    values = [stream(seed, key, rounds * CHUNK, integer=False) for key in owned]
    return [
        push_op(KEYS[key], r * CHUNK, values[index][r * CHUNK:(r + 1) * CHUNK],
                ctypes[index])
        for r in range(rounds)
        for index, key in enumerate(owned)
    ]


FUNCTIONS = ("avg", "avg", "avg", "sum", "max")


def query_plan(seed: int, budget_s: float, scale: Scale) -> Plan:
    """Setup: 8 keys × ``query_setup`` tuples (keys ``i4``–``i7`` integer
    valued).  Then 2 clients, each owning two float and two integer keys,
    run ~80% range_agg, 8% value_at, 7% window (20 buckets) and 5%
    64-tuple pushes to their own keys."""
    keys = ["f0", "f1", "f2", "f3", "i4", "i5", "i6", "i7"]
    setup = scale.query_setup
    capacity = math.ceil(budget_s * QUERY_RATE)
    extra = capacity * QUERY_PUSH // 8 + QUERY_PUSH  # ≥ 2x expected pushes
    values = {
        key: stream(seed, index, setup + extra, integer=key.startswith("i"))
        for index, key in enumerate(keys)
    }
    seed_ops = [
        push_op(key, start, values[key][start:start + SEED_CHUNK], WIRE)
        for key in keys
        for start in range(0, setup, SEED_CHUNK)
    ]
    owned = [["f0", "f1", "i4", "i5"], ["f2", "f3", "i6", "i7"]]
    clients = [
        _query_ops(seed, c, owned[c], values, setup, capacity)
        for c in range(2)
    ]
    return Plan(keys, clients, scale.query_setup_reps, seed_ops=seed_ops)


def _query_ops(
    seed: int,
    client: int,
    keys: List[str],
    values: Dict[str, np.ndarray],
    setup: int,
    capacity: int,
) -> List[Op]:
    draws = np.random.default_rng([seed, 1000 + client]).random((capacity, 5))
    end = {key: setup for key in keys}
    ops: List[Op] = []
    for u, pick, which, a, b in draws.tolist():
        key = keys[int(pick * len(keys))]
        top = end[key]
        fn = FUNCTIONS[int(which * len(FUNCTIONS))]
        if u < 0.80:
            span = 1 + int(a * 4096)
            t1 = int(b * (top - span))
            t2 = t1 + span - 1
            ops.append(Op("range_agg", key,
                          f"/range_agg?key={key}&t1={t1}&t2={t2}&fn={fn}",
                          params=(t1, t2, fn)))
        elif u < 0.88:
            t = int(a * top)
            ops.append(Op("value_at", key, f"/value_at?key={key}&t={t}",
                          params=(t,)))
        elif u < 0.95:
            stride = 50 + int(a * 200)
            t1 = int(b * (top - 20 * stride))
            t2 = t1 + 20 * stride - 1
            ops.append(Op("window", key,
                          f"/window?key={key}&t1={t1}&t2={t2}"
                          f"&stride={stride}&fn={fn}",
                          params=(t1, t2, stride, fn)))
        else:
            chunk = values[key][top:top + QUERY_PUSH]
            if len(chunk) < QUERY_PUSH:
                break  # inputs exhausted; the run stops here
            ops.append(push_op(key, top, chunk, WIRE))
            end[key] = top + QUERY_PUSH
    return ops


PLANS = {
    "ingest": ingest_plan,
    "durable_ingest": durable_plan,
    "query_mixed": query_plan,
}


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
class ServerProc:
    """A ``server.py`` child, driven by JSON lines over its stdin/stdout."""

    def __init__(self, config: Dict[str, Any]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._pump_thread = threading.Thread(target=self._pump, daemon=True)
        self._pump_thread.start()
        self.booted = self._read()

    def _pump(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def _read(self) -> Dict[str, Any]:
        try:
            line = self._lines.get(timeout=REPLY_TIMEOUT)
        except queue.Empty:
            raise RuntimeError("server did not answer in time") from None
        if not line:
            raise RuntimeError(f"server exited ({self.proc.poll()})")
        return json.loads(line)

    def call(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    @property
    def port(self) -> int:
        return int(self.booted["port"])

    def quit(self) -> None:
        """Close the command pipe: the process shuts down and exits."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass  # the process is gone already

    def close(self) -> None:
        self.quit()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._pump_thread.join(timeout=5)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Servers:
    """The primary (and standby) of one setup, plus their data directory."""

    def __init__(self, plan: Plan, tag: str) -> None:
        self.primary: Optional[ServerProc] = None
        self.standby: Optional[ServerProc] = None
        self.data_dir: Optional[Path] = None
        config: Dict[str, Any] = {"size": SIZE, "backend": BACKEND}
        try:
            if plan.durable:
                self.data_dir = out_dir() / f"data-{os.getpid()}-{tag}"
                shutil.rmtree(self.data_dir, ignore_errors=True)
                self.standby = ServerProc({**config, "role": "standby"})
                config.update(
                    data_dir=str(self.data_dir),
                    fsync_every=1,
                    checkpoint_every=plan.checkpoint_every,
                    standby=self.standby.booted["replication"],
                )
            self.primary = ServerProc({**config, "role": "primary"})
            if plan.seed_ops:
                seeder = Client(self.primary.port, plan.seed_ops)
                seeder.run(math.inf)
                bad = [entry for entry in seeder.log if entry[3] != 200]
                if bad:
                    raise RuntimeError(f"setup push failed: {bad[0][4]!r}")
        except BaseException:
            self.close()
            raise

    def processes(self) -> List[ServerProc]:
        return [p for p in (self.primary, self.standby) if p is not None]

    def close(self) -> None:
        # Each process takes about a second to stop its HTTP loop: ask
        # them all first, then wait.
        for proc in self.processes():
            proc.quit()
        for proc in self.processes():
            proc.close()
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
class Connection(http.client.HTTPConnection):
    """A persistent client connection that counts how often it (re)opens.

    The front end answers HTTP/1.0 and closes after every response, so
    ``http.client`` reconnects on the next request; a keep-alive server
    shows up here as fewer opens with no benchmark change.
    """

    def __init__(self, port: int) -> None:
        super().__init__("127.0.0.1", port, timeout=60)
        self.opened = 0

    def connect(self) -> None:
        self.opened += 1
        super().connect()


#: One completed operation: (op index, start, end, HTTP status, body).
Entry = Tuple[int, float, float, int, bytes]


class Client:
    """One closed-loop client: sends its next op when the last answered."""

    def __init__(self, port: int, ops: Sequence[Op]) -> None:
        self.conn = Connection(port)
        self.ops = ops
        self.next = 0
        self.log: List[Entry] = []

    def run(self, deadline: float) -> None:
        conn, ops, log = self.conn, self.ops, self.log
        index = self.next
        while index < len(ops):
            start = perf_counter()
            if start >= deadline:
                break
            op = ops[index]
            headers = {"Content-Type": op.ctype} if op.ctype else {}
            try:
                conn.request(op.method, op.path, op.body, headers)
                response = conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as error:
                conn.close()
                status, data = -1, repr(error).encode()
            log.append((index, start, perf_counter(), status, data))
            index += 1
        self.next = index

    @property
    def exhausted(self) -> bool:
        return self.next >= len(self.ops)


@dataclass
class Phase:
    """What one timed phase did, from the clients' side."""

    seconds: float
    entries: List[Tuple[Op, Entry]]
    connections: int

    def ok(self, kinds: Sequence[str]) -> List[Tuple[Op, Entry]]:
        return [(op, e) for op, e in self.entries
                if op.kind in kinds and e[3] == 200]

    def latencies(self, kinds: Sequence[str]) -> List[float]:
        return [e[2] - e[1] for op, e in self.entries if op.kind in kinds]

    @property
    def failed(self) -> int:
        return sum(1 for _, e in self.entries if e[3] != 200)

    @property
    def pushed_tuples(self) -> int:
        return sum(op.tuples for op, _ in self.ok(["push"]))

    @property
    def queries(self) -> int:
        return len(self.ok(QUERIES))


QUERIES = ("range_agg", "value_at", "window")
ALL = ("push",) + QUERIES


def run_phase(
    clients: Sequence[Client], seconds: float, cpus: Set[int]
) -> Phase:
    """Run every client on a thread of its own, on ``cpus``, until
    ``seconds`` have passed."""
    marks = [len(client.log) for client in clients]
    opened = [client.conn.opened for client in clients]
    start = perf_counter()

    def drive(client: Client) -> None:
        pin(cpus)
        client.run(start + seconds)

    threads = [threading.Thread(target=drive, args=(client,))
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    entries = [
        (client.ops[entry[0]], entry)
        for client, mark in zip(clients, marks)
        for entry in client.log[mark:]
    ]
    end = max((entry[2] for _, entry in entries), default=start)
    connections = sum(
        client.conn.opened - before for client, before in zip(clients, opened)
    )
    return Phase(max(end - start, 1e-9), entries, connections)


def cpu_marks(servers: "Servers") -> List[Dict[str, Any]]:
    """Each server process's CPU reading (primary first); also restarts
    the per-request record."""
    return [proc.call("cpu") for proc in servers.processes()]


def cpu_figures(
    phase: Phase, before: List[Dict[str, Any]], after: List[Dict[str, Any]]
) -> Dict[str, float]:
    """CPU time of one phase: of the serving processes (primary and
    standby; the load generator is not counted) per answered request,
    and the median and slowest-tenth mean of the primary's per-request
    handler CPU.  ``before`` / ``after`` are :func:`cpu_marks` taken
    around the phase."""
    spent = sum(a["process_s"] - b["process_s"] for b, a in zip(before, after))
    requests = after[0]["request_s"]
    return {
        "cpu_ms_per_op": ratio(spent, len(phase.ok(ALL))) * 1e3,
        "op_cpu_p50_ms": quantile(requests, 0.5) * 1e3,
        "op_cpu_tail_ms": tail_mean(requests) * 1e3,
    }


def per_operation(phase: Phase) -> Dict[str, float]:
    """Push and query figures of one phase, reported per layer."""
    pushes = phase.latencies(["push"])
    queries = phase.latencies(QUERIES)
    return {
        "push_tuples_per_s": phase.pushed_tuples / phase.seconds,
        "push_p50_ms": quantile(pushes, 0.5) * 1e3,
        "push_p90_ms": quantile(pushes, 0.9) * 1e3,
        "query_per_s": phase.queries / phase.seconds,
        "query_p50_us": quantile(queries, 0.5) * 1e6,
        "query_p99_us": quantile(queries, 0.99) * 1e6,
        "failed_ratio": ratio(phase.failed, len(phase.entries)),
    }


def get(port: int, path: str, accept: Optional[str] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path, headers={"Accept": accept} if accept else {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def scrape(port: int) -> Dict[str, float]:
    """Counters read from outside: ``/stats`` and ``/metrics``.

    A key or series missing from either page raises: a renamed counter
    must stop the run, not read 0.  ``repro_http_errors_total`` is the
    exception, since its series appear with the first error response.
    """
    _, raw = get(port, "/stats")
    stats = json.loads(raw)
    _, body_ = get(port, "/metrics")
    text = body_.decode("utf-8")
    if "repro_http_request_seconds" not in text:
        raise RuntimeError("/metrics has no repro_http_request_seconds")
    errors = sum(
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_http_errors_total")
    )
    query = stats["query"]
    return {
        "cache_hits": query["cache_hits"],
        "cache_misses": query["cache_misses"],
        "queries": query["queries"],
        "cost_rows": query["cost_rows"],
        "evictions": stats["evictions"],
        "disk_errors": stats["disk_errors"],
        "pushed_segments": stats["pushed_segments"],
        "sinks": len(stats["sinks"]),
        "sink_lag_max": max((sink["lag"] for sink in stats["sinks"]), default=0),
        "http_errors": errors,
    }


# ----------------------------------------------------------------------
# Correctness check
# ----------------------------------------------------------------------
def reference_store(plan: Plan, tag: str) -> Tuple[SessionStore, Optional[Path]]:
    """An in-process store configured like the served one (no fsync: the
    flush policy does not change answers)."""
    policy = ExecutionPolicy(backend=BACKEND)
    if not plan.durable:
        return SessionStore(size=SIZE, policy=policy), None
    directory = out_dir() / f"reference-{os.getpid()}-{tag}"
    shutil.rmtree(directory, ignore_errors=True)
    store = SessionStore(
        size=SIZE,
        policy=policy,
        data_dir=directory,
        fsync_every=0,
        checkpoint_every=plan.checkpoint_every,
    )
    return store, directory


def expected(engine: QueryEngine, op: Op) -> Any:
    """The JSON document the server should have answered ``op`` with."""
    if op.kind == "range_agg":
        t1, t2, fn = op.params
        values = engine.range_agg(op.key, t1, t2, fn)
        return {"t1": t1, "t2": t2, "fn": fn,
                "values": list(values) if values else None}
    if op.kind == "value_at":
        (t,) = op.params
        values = engine.value_at(op.key, t)
        return {"t": t, "values": list(values) if values else None}
    t1, t2, stride, fn = op.params
    return {
        "buckets": [
            {"start": b.start, "end": b.end,
             "values": list(b.values) if b.values is not None else None}
            for b in engine.window(op.key, t1, t2, stride, fn)
        ]
    }


def verify(
    plan: Plan,
    clients: Sequence[Client],
    servers: Servers,
    seed: int,
    corrupt: bool,
) -> Tuple[Check, float]:
    """Replay every acknowledged chunk, per key and in order, into a
    reference store and compare what the server answered with it.

    Checks: every push answer; every in-run query answer (the reference
    is replayed in each client's order); a fixed set of ``range_agg``
    spans per key after the run; the served ``/summary`` bytes against
    the reference's, and the standby's against the primary's.  Returns
    the check and the reduction error (summed summary error over summed
    per-key sum of squares about the mean).
    """
    check = Check()
    store, directory = reference_store(plan, "check")
    engine = QueryEngine(store)
    acked: Dict[str, List[np.ndarray]] = {key: [] for key in plan.keys}

    def apply(op: Op) -> None:
        chunk = decode(op.body, op.ctype)
        store.push(op.key, chunk)
        acked[op.key].append(np.array([s.values for s in chunk]))

    try:
        for op in plan.seed_ops:
            apply(op)
        for client in clients:
            for index, _, _, status, data in client.log:
                op = client.ops[index]
                if status != 200:
                    continue  # counted as failed by the phase
                answer = json.loads(data)
                if op.kind == "push":
                    check.expect(answer.get("pushed") == op.tuples,
                                 f"push {op.key}: {answer}")
                    apply(op)
                else:
                    check.expect(answer == expected(engine, op),
                                 f"{op.path}: {answer}")
        assert servers.primary is not None
        port = servers.primary.port
        spans = np.random.default_rng([seed, 7]).random((len(plan.keys), 8, 2))
        error = total = 0.0
        for key, fractions in zip(plan.keys, spans):
            top = sum(len(part) for part in acked[key])
            for a, b in fractions.tolist():
                t1 = int(min(a, b) * top)
                t2 = max(t1, int(max(a, b) * top) - 1)
                op = Op("range_agg", key,
                        f"/range_agg?key={key}&t1={t1}&t2={t2}&fn=avg",
                        params=(t1, t2, "avg"))
                want = expected(engine, op)
                if corrupt and want["values"]:
                    corrupt = False  # one wrong oracle answer is enough
                    want = {**want, "values": [v + 1.0 for v in want["values"]]}
                status, data = get(port, op.path)
                check.expect(status == 200 and json.loads(data) == want,
                             f"final {op.path}")
            status, served = get(port, f"/summary?key={key}", WIRE)
            reference = encode_result(store.snapshot(key))
            check.expect(status == 200 and served == reference,
                         f"summary {key} differs from the reference")
            if servers.standby is not None:
                _, mirrored = get(servers.standby.port,
                                  f"/summary?key={key}", WIRE)
                check.expect(mirrored == served,
                             f"standby summary {key} differs from primary")
            error += decode_result(served).error if status == 200 else 0.0
            total += total_sum_of_squares(np.concatenate(acked[key]))
    finally:
        store.close()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
    return check, ratio(error, total)
