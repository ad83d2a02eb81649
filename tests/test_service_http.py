"""The HTTP front end: push/query over the wire, errors, content types.

Boots a real :class:`~repro.service.ServiceHTTPServer` on an ephemeral
port and drives it with :mod:`urllib` — no test-only fakes between the
handler and the store, so these tests cover exactly what the CI service
smoke job exercises: a stream pushed over HTTP answers the same
``range_agg`` as batch :func:`repro.compress` over the same tuples.
"""

from __future__ import annotations

import json
import random
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Interval, compress
from repro.core import AggregateSegment
from repro.service import (
    Service,
    SnapshotIndex,
    WIRE_CONTENT_TYPE,
    decode_result,
    encode_segments,
    segments_to_jsonl,
    start_in_background,
)


def make_stream(count: int, seed: int) -> list[AggregateSegment]:
    rng = random.Random(seed)
    time = 0
    out = []
    for _ in range(count):
        length = rng.randrange(1, 3)
        out.append(
            AggregateSegment(
                (), (rng.uniform(0.0, 10.0),), Interval(time, time + length - 1)
            )
        )
        time += length
        if rng.random() < 0.1:
            time += 1
    return out


@pytest.fixture()
def server():
    service = Service(size=12)
    http_server, thread = start_in_background(service)
    yield http_server
    http_server.shutdown()
    http_server.server_close()


def get_json(server, path: str, headers: dict | None = None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def post(server, path: str, body: bytes, content_type: str | None = None):
    headers = {"Content-Type": content_type} if content_type else {}
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        method="POST",
        headers=headers,
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


class TestHTTPEndpoints:
    def test_push_then_query_matches_batch(self, server):
        stream = make_stream(60, seed=31)
        body = json.dumps(
            [
                {
                    "group": list(s.group),
                    "values": list(s.values),
                    "start": s.interval.start,
                    "end": s.interval.end,
                }
                for s in stream
            ]
        ).encode()
        reply = post(server, "/push/sensor", body)
        assert reply == {"pushed": 60, "generation": 1}

        lo = stream[0].interval.start
        hi = stream[-1].interval.end
        answer = get_json(
            server, f"/range_agg?key=sensor&t1={lo}&t2={hi}&fn=avg"
        )
        batch = compress(stream, size=12)
        expected = SnapshotIndex(batch.segments).resolve(None).range_agg(
            lo, hi, "avg"
        )
        # JSON floats roundtrip by repr, so equality is exact.
        assert tuple(answer["values"]) == expected

        point = get_json(server, f"/value_at?key=sensor&t={lo}")
        assert tuple(point["values"]) == SnapshotIndex(
            batch.segments
        ).resolve(None).value_at(lo)

    def test_push_jsonl_and_single_object(self, server):
        stream = make_stream(10, seed=32)
        assert post(
            server, "/push/a", segments_to_jsonl(stream).encode()
        )["pushed"] == 10
        one = {
            "group": [],
            "values": [1.5],
            "start": 1000,
            "end": 1001,
        }
        assert post(server, "/push/a", json.dumps(one).encode())["pushed"] == 1
        # Pretty-printed variants (embedded newlines) are the same object.
        two = {"group": [], "values": [1.5], "start": 1002, "end": 1003}
        assert post(
            server, "/push/a", json.dumps(two, indent=2).encode()
        )["pushed"] == 1

    def test_push_rejects_non_object_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/push/a", b'"just a string"')
        assert excinfo.value.code == 400

    def test_push_binary_wire_body(self, server):
        stream = make_stream(25, seed=33)
        reply = post(
            server,
            "/push/wirekey",
            encode_segments(stream),
            content_type=WIRE_CONTENT_TYPE,
        )
        assert reply["pushed"] == 25
        stats = get_json(server, "/stats")
        assert stats["pushed_segments"] == 25

    def test_window_endpoint(self, server):
        post(
            server,
            "/push/w",
            json.dumps(
                [{"group": [], "values": [2.0], "start": 0, "end": 9}]
            ).encode(),
        )
        reply = get_json(server, "/window?key=w&t1=0&t2=9&stride=5")
        assert [b["start"] for b in reply["buckets"]] == [0, 5]
        assert all(b["values"] == [2.0] for b in reply["buckets"])

    def test_summary_json_and_wire(self, server):
        stream = make_stream(30, seed=34)
        post(server, "/push/s", segments_to_jsonl(stream).encode())
        summary = get_json(server, "/summary?key=s")
        assert summary["input_size"] == 30
        assert len(summary["segments"]) == summary["size"] <= 12

        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/summary?key=s",
            headers={"Accept": WIRE_CONTENT_TYPE},
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers["Content-Type"] == WIRE_CONTENT_TYPE
            result = decode_result(response.read())
        assert result.input_size == 30
        assert result.segments == compress(stream, size=12).segments

    def test_health_and_stats(self, server):
        assert get_json(server, "/healthz") == {"status": "ok"}
        stats = get_json(server, "/stats")
        # The legacy store keys are a stable contract; the "query" sub-dict
        # (engine counters, PR 9) and per-sink replication lag ("sinks",
        # PR 10) are the additive extensions.
        query = stats.pop("query")
        assert stats.pop("sinks") == []
        assert stats == {
            "live_sessions": 0,
            "frozen_summaries": 0,
            "pushed_segments": 0,
            "evictions": 0,
            "durable": 0,
            "degraded": 0,
            "disk_errors": 0,
            "role": "primary",
            "replicas": 0,
            "replication_lag": 0,
            "last_acked_generation": -1,
        }
        assert query == {
            "cache_hits": 0,
            "cache_misses": 0,
            "queries": 0,
            "cost_rows": 0,
        }

    def test_metrics_endpoint(self, server):
        import re

        stream = make_stream(20, seed=35)
        post(server, "/push/m", segments_to_jsonl(stream).encode())
        lo = stream[0].interval.start
        hi = stream[-1].interval.end
        get_json(server, f"/range_agg?key=m&t1={lo}&t2={hi}&fn=avg")
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/metrics"
        )
        with urllib.request.urlopen(request) as response:
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        # The key families of every instrumented tier are present...
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert 'repro_http_request_seconds_bucket{endpoint="push"' in text
        assert "# TYPE repro_store_pushed_segments_total counter" in text
        assert "# TYPE repro_query_cache_hits_total counter" in text
        assert "# TYPE repro_query_cache_misses_total counter" in text
        # ... and every non-comment line is Prometheus-parseable.
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$"
        )
        for line in text.splitlines():
            if not line.startswith("#"):
                assert line_re.match(line), line


class TestSnapshotCounters:
    def test_tie_fallback_counts_on_metrics(self):
        """An integer-valued stream ties merge keys exactly; the snapshot
        that meets the tie is served by the oracle and counted."""
        service = Service(size=2)
        http_server, _ = start_in_background(service)
        try:
            def unit(values, start):
                return segments_to_jsonl([
                    AggregateSegment(
                        (), (float(v),), Interval(start + i, start + i)
                    )
                    for i, v in enumerate(values)
                ]).encode()

            def counter(name):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{http_server.port}/metrics"
                )
                with urllib.request.urlopen(request) as response:
                    text = response.read().decode("utf-8")
                return float(next(
                    line.split()[1] for line in text.splitlines()
                    if line.startswith(name + " ")
                ))

            fallbacks = counter("repro_snapshot_oracle_fallbacks_total")
            rebuilds = counter("repro_snapshot_mirror_rebuilds_total")
            post(http_server, "/push/t", unit([1, 1, 2, 2, 1, 1, 0, 0], 0))
            get_json(http_server, "/value_at?key=t&t=0")
            post(http_server, "/push/t", unit([2], 8))
            get_json(http_server, "/value_at?key=t&t=0")
            assert counter("repro_snapshot_oracle_fallbacks_total") > fallbacks
            assert counter("repro_snapshot_mirror_rebuilds_total") == rebuilds + 1
        finally:
            http_server.shutdown()
            http_server.server_close()


class TestHTTPErrors:
    def expect_error(self, server, path: str, status: int, needle: str):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, path)
        assert excinfo.value.code == status
        assert needle in json.load(excinfo.value)["error"]

    def test_unknown_route_404(self, server):
        self.expect_error(server, "/nope", 404, "unknown route")

    def test_unknown_key_400(self, server):
        self.expect_error(server, "/value_at?key=ghost&t=0", 400,
                          "unknown stream key")

    def test_missing_parameter_400(self, server):
        self.expect_error(server, "/value_at?key=k", 400, "missing required")

    def test_bad_fn_400(self, server):
        post(
            server,
            "/push/k",
            json.dumps(
                [{"group": [], "values": [1.0], "start": 0, "end": 0}]
            ).encode(),
        )
        self.expect_error(
            server, "/range_agg?key=k&t1=0&t2=1&fn=median", 400, "fn must be"
        )

    def test_malformed_push_body_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/push/k", b'{"values": [1.0]}')
        assert excinfo.value.code == 400

    def test_empty_key_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/push/", b"[]")
        assert excinfo.value.code == 400


class TestHandlerThreads:
    @staticmethod
    def workers(server) -> list:
        name = f"pta-service-http-{server.port}-worker"
        return [t for t in threading.enumerate() if t.name == name]

    def test_sequential_connections_reuse_handler_threads(self, server):
        for _ in range(20):
            assert get_json(server, "/healthz") == {"status": "ok"}
        assert 1 <= len(self.workers(server)) <= 4

    def test_a_stalled_connection_pins_only_its_own_thread(self, server):
        with socket.create_connection(("127.0.0.1", server.port)):
            # This connection never sends its request line; the next
            # one is still answered at once, on another thread.
            began = time.perf_counter()
            assert get_json(server, "/healthz") == {"status": "ok"}
            assert time.perf_counter() - began < 5.0
            assert len(self.workers(server)) >= 2

    def test_concurrent_clients_are_all_answered(self, server):
        """More clients than cores with a short switch interval: a
        connection handed to a thread that then exits would never be
        answered, and a client would time out."""
        answers: list = []

        def client() -> None:
            for _ in range(25):
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/healthz", timeout=10
                ) as response:
                    answers.append(response.status)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert answers == [200] * 200

    def test_server_close_releases_the_idle_threads(self):
        http_server, _ = start_in_background(Service(size=4))
        for _ in range(5):
            get_json(http_server, "/healthz")
        assert self.workers(http_server)
        http_server.shutdown()
        http_server.server_close()
        deadline = time.monotonic() + 5.0
        while self.workers(http_server) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not self.workers(http_server)


# ----------------------------------------------------------------------
# End-to-end deadlines: the X-Repro-Deadline header
# ----------------------------------------------------------------------
class TestRequestDeadlines:
    def test_a_generous_budget_changes_nothing(self, server):
        assert get_json(
            server, "/healthz", headers={"X-Repro-Deadline": "30"}
        ) == {"status": "ok"}

    def test_an_exhausted_budget_is_refused_before_any_work(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(server, "/stats", headers={"X-Repro-Deadline": "0"})
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["code"] == "deadline_exceeded"

    def test_a_negative_budget_is_refused(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(
                server, "/stats", headers={"X-Repro-Deadline": "-1.5"}
            )
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["code"] == "deadline_exceeded"

    @pytest.mark.parametrize("budget", ["soon", "nan", "inf", "-inf"])
    def test_a_malformed_budget_is_a_bad_request(self, server, budget):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(
                server, "/stats", headers={"X-Repro-Deadline": budget}
            )
        assert excinfo.value.code == 400
        body = json.load(excinfo.value)
        assert body["code"] == "bad_request"
        assert "X-Repro-Deadline" in body["error"]
