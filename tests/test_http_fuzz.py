"""Fuzzing the HTTP front end over raw sockets.

Every request a client can put on the wire — a mangled request line,
odd header names and values, duplicate headers, fuzzed query parameters,
``Content-Length``, ``X-Repro-Deadline`` and ``X-Repro-Trace`` — must be
answered with a well-formed HTTP response whose body is either a 2xx
payload or the structured ``{"error", "code"}`` shape with a code from
the table in :mod:`repro.service.http`'s docstring.  Never a 500, never
a connection closed without a response, and ``/healthz`` keeps
answering afterwards.  This is the specification of the front end's
request parser.
"""

from __future__ import annotations

import json
import math
import re
import socket
import string
from typing import List, Optional, Tuple
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import Interval
from repro.core import AggregateSegment
from repro.service import Service, WIRE_CONTENT_TYPE, encode_segments, start_in_background
from repro.service import http as service_http

#: The error codes documented in the front end's status table.
DOCUMENTED_CODES = frozenset(
    re.findall(r"^\d{3}\s+``(\w+)``", service_http.__doc__ or "", re.M)
)

STATUS_LINE = re.compile(r"HTTP/1\.[01] (\d{3}) [^\r\n]*")
HEADER_LINE = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+: [^\r\n]*")

#: Query routes and their required parameters.
QUERY_ROUTES = {
    "/value_at": ["key", "t"],
    "/range_agg": ["key", "t1", "t2"],
    "/window": ["key", "t1", "t2", "stride"],
    "/summary": ["key"],
}
GET_ROUTES = ("/healthz", "/stats", "/metrics", "/role", "//stats")
PUSH_ROUTES = ("/push/k", "/push/fresh", "/push/")
ODD_ROUTES = ("/nope", "/", "*", "http://host/stats", "/push", "/stats/")
TOKEN = st.text(
    alphabet=string.ascii_letters + string.digits + "-_", min_size=1, max_size=10
)
#: Anything a header value or a raw query may carry short of a line break.
LATIN1 = st.text(
    alphabet=st.characters(
        min_codepoint=0, max_codepoint=0xFF, blacklist_characters="\r\n"
    ),
    max_size=16,
)
VALID_VERSIONS = ("HTTP/1.0", "HTTP/1.1")

odd_methods = st.one_of(
    st.sampled_from(["PUT", "HEAD", "DELETE", "get", "OPTIONS", "do_GET"]),
    TOKEN,
)
odd_versions = st.sampled_from(
    ["HTTP/2.0", "HTTP/3.1", "HTTP/0.9", "HTTP/1", "HTTP/x.y", "http/1.0",
     "HTTP/1.1.1", "HTTP/\u00b2.0", "HTTP/12345678901.0", "HTTP/1.0 extra",
     ""]
)
#: Query parameter values: mostly sensible, sometimes anything.
normal_values = {
    "key": st.sampled_from(["k", "k", "g", "ghost"]),
    "t": st.integers(-5, 60).map(str),
    "t1": st.integers(-5, 60).map(str),
    "t2": st.integers(-5, 60).map(str),
    "stride": st.integers(-2, 30).map(str),
    "fn": st.sampled_from(["avg", "sum", "min", "max", "count", "median"]),
    "group": st.sampled_from(["[]", '["a"]', '["b"]']),
}
odd_values = st.one_of(
    st.sampled_from(
        ["", "[1, 2]", '[{"a": 1}]', "{}", "[[]]", "1e3", "nan", "0x1f",
         "[", "null"]
    ),
    st.integers(-(2**70), 2**70).map(str),
    LATIN1.map(quote),
    LATIN1,
)
deadline_values = st.one_of(
    st.sampled_from(
        ["0", "-1", "-0", "nan", "NaN", "inf", "-inf", "Infinity", "soon",
         "", "1e309", " 5 ", "1e-300", "1_0"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    LATIN1,
)
odd_header_fields = st.one_of(
    st.tuples(
        st.sampled_from(["Content-Length", "content-length"]),
        st.one_of(
            st.integers(-5, 10**10).map(str),
            st.sampled_from(["", "abc", "1e3", " 7 ", "0x10", "+3"]),
        ),
    ),
    st.tuples(
        st.sampled_from(["X-Repro-Deadline", "x-repro-deadline"]),
        deadline_values,
    ),
    st.tuples(
        st.sampled_from(["X-Repro-Trace", "x-REPRO-trace"]),
        st.one_of(st.sampled_from(["fuzz-1", "x" * 65, "a b", ""]), LATIN1),
    ),
    st.tuples(
        st.sampled_from(["Content-Type", "Accept"]),
        st.sampled_from(
            [WIRE_CONTENT_TYPE, "application/json", "text/plain", ""]
        ),
    ),
    st.tuples(TOKEN, LATIN1),
)
normal_header_fields = st.sampled_from(
    [("Host", "localhost"), ("X-Repro-Deadline", "30"),
     ("X-Repro-Trace", "fuzz-trace"), ("Accept", "*/*"),
     ("Accept", WIRE_CONTENT_TYPE), ("Content-Type", WIRE_CONTENT_TYPE)]
)
#: Header lines no parser should accept: no colon, and obs-fold
#: continuations.
malformed_lines = st.sampled_from(
    ["NoColonHere", " folded-continuation", "\tfolded: too"]
)

SEGMENTS = [
    AggregateSegment((), (float(index),), Interval(4 * index, 4 * index + 3))
    for index in range(12)
]
bodies = st.one_of(
    st.just(json.dumps(
        [{"values": [1.5], "start": 1000, "end": 1002}]
    ).encode()),
    st.just(encode_segments(SEGMENTS[:2])),
    st.binary(max_size=48),
)


@st.composite
def requests(draw) -> Tuple[bytes, bool, List[Tuple[str, str]]]:
    """A raw request, whether its request line and header lines are
    well formed, and its header fields in order.

    Most parts are sensible and each is mangled now and then, so that
    many requests get past the parser into the routes."""

    def odd() -> bool:
        return draw(st.integers(0, 5)) == 0

    method = draw(odd_methods) if odd() else draw(
        st.sampled_from(["GET", "GET", "POST"])
    )
    version = draw(odd_versions) if odd() else draw(
        st.sampled_from(VALID_VERSIONS)
    )
    if odd():
        route = draw(st.one_of(
            st.sampled_from(ODD_ROUTES), TOKEN.map(lambda word: "/" + word)
        ))
    elif method == "POST":
        route = draw(st.sampled_from(PUSH_ROUTES))
    else:
        route = draw(st.sampled_from(sorted(QUERY_ROUTES) + list(GET_ROUTES)))
    names = list(QUERY_ROUTES.get(route, []))
    names += draw(st.lists(st.sampled_from(["fn", "group"]), max_size=2))
    if odd():
        names = draw(st.permutations(names + ["key", "t", "stride"]))[:-2]
    params = [
        (name, draw(odd_values if odd() else normal_values[name]))
        for name in names
    ]
    target = route + (
        "?" + "&".join(f"{name}={value}" for name, value in params)
        if params else ""
    )
    fields = draw(st.lists(
        st.one_of(normal_header_fields, odd_header_fields), max_size=5
    ))
    lines = [f"{name}: {value}" for name, value in fields]
    malformed = draw(malformed_lines) if odd() and odd() else None
    if malformed is not None:
        lines.insert(draw(st.integers(0, len(lines))), malformed)
    body = draw(bodies)
    if not odd():
        lines.append(f"Content-Length: {len(body)}")
    request_line = " ".join(word for word in (method, target, version) if word)
    raw = "\r\n".join([request_line, *lines, "", ""]).encode("latin-1") + body
    well_formed = (
        method in ("GET", "POST")
        and version in VALID_VERSIONS
        and len(request_line.split()) == 3
        and malformed is None
    )
    return raw, well_formed, fields


def exchange(port: int, raw: bytes) -> bytes:
    """Send one request, half-close, and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


def parse_response(data: bytes) -> Tuple[int, dict, bytes]:
    """Split a response, asserting it is well formed."""
    assert data, "the connection closed without a response"
    head, separator, body = data.partition(b"\r\n\r\n")
    assert separator, f"no end of headers in {data[:200]!r}"
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    match = STATUS_LINE.fullmatch(status_line)
    assert match, f"bad status line {status_line!r}"
    headers = {}
    for line in header_lines:
        assert HEADER_LINE.fullmatch(line), f"bad header line {line!r}"
        name, _, value = line.partition(": ")
        headers[name.lower()] = value
    assert int(headers["content-length"]) == len(body)
    assert "content-type" in headers
    return int(match.group(1)), headers, body


def deadline_verdict(fields: List[Tuple[str, str]]) -> Optional[str]:
    """The error code the first ``X-Repro-Deadline`` field must draw, if
    it is not a positive finite number of seconds."""
    for name, value in fields:
        if name.lower() == "x-repro-deadline":
            try:
                budget = float(value)
            except ValueError:
                return "bad_request"
            if not math.isfinite(budget):
                return "bad_request"
            return "deadline_exceeded" if budget <= 0 else None
    return None


@pytest.fixture(scope="module")
def fuzz_server():
    service = Service(size=8)
    service.push("k", SEGMENTS)
    service.push(
        "g",
        [AggregateSegment(("a",), (2.0,), Interval(0, 9))],
    )
    server, _ = start_in_background(service, max_body=4096, request_timeout=5.0)
    yield server
    server.shutdown()
    server.server_close()


def test_the_documented_code_table_is_found():
    assert {"bad_request", "not_found", "internal"} <= DOCUMENTED_CODES


@settings(
    max_examples=250,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(request=requests())
def test_every_request_gets_a_well_formed_structured_answer(fuzz_server, request):
    raw, well_formed, fields = request
    status, headers, body = parse_response(exchange(fuzz_server.port, raw))
    event(f"status {status}")
    assert status != 500, body
    if 200 <= status < 300:
        if headers["content-type"] == "application/json":
            json.loads(body)
    else:
        payload = json.loads(body)
        assert {"error", "code"} <= payload.keys(), payload
        assert payload["code"] in DOCUMENTED_CODES, payload
        assert isinstance(payload["error"], str)
    verdict = deadline_verdict(fields)
    if well_formed and verdict is not None:
        assert status == 400 and json.loads(body)["code"] == verdict, (
            status, body,
        )
    health, _, health_body = parse_response(
        exchange(fuzz_server.port, b"GET /healthz HTTP/1.0\r\n\r\n")
    )
    assert health == 200 and json.loads(health_body) == {"status": "ok"}
