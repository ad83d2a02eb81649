"""Columnar ingest: every push body becomes heap columns the same way.

A chunk pushed as ``PTAS`` bytes, as a JSON array or as in-process
:class:`~repro.core.AggregateSegment` objects must leave the key in the
same state, and a chunk that does not fit the key (another value width)
must be refused before anything is logged, shipped or staged.
"""

from __future__ import annotations

import itertools
import json
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Interval, compress
from repro.api import Compressor, ExecutionPolicy
from repro.core import AggregateSegment
from repro.core.greedy import OnlineReducer
from repro.core.kernels import EncodedSegments, NumpyMergeHeap, ValueWidthError
from repro.service import (
    SEGMENTS_MAGIC,
    Service,
    WIRE_CONTENT_TYPE,
    WIRE_VERSION,
    WireError,
    encode_segments,
    start_in_background,
)
from repro.service.wire import segment_to_obj
from repro.storage import pack_columns

BACKENDS = ("python", "numpy")


def _request(server, path, body=None, content_type=None, accept=None):
    headers = {}
    if content_type:
        headers["Content-Type"] = content_type
    if accept:
        headers["Accept"] = accept
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        method="POST" if body is not None else "GET",
        headers=headers,
    )
    with urllib.request.urlopen(request) as response:
        return response.read()


def _summary_bytes(server, key):
    return _request(server, f"/summary?key={key}", accept=WIRE_CONTENT_TYPE)


def _json_body(chunk):
    return json.dumps([segment_to_obj(segment) for segment in chunk]).encode()


def _unit_chunk(start, count, width):
    return [
        AggregateSegment(
            (), tuple(float(t % 7 + d) for d in range(width)), Interval(t, t)
        )
        for t in range(start, start + count)
    ]


def _wal_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*.wal"))


@pytest.fixture(scope="module")
def servers():
    running = {}
    for backend in BACKENDS:
        service = Service(size=5, policy=ExecutionPolicy(backend=backend))
        running[backend] = start_in_background(service)[0]
    yield running
    for server in running.values():
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------------
# Three body forms, one state
# ----------------------------------------------------------------------
_GROUPS = st.sampled_from([(), ("a",), ("b", 1), ("c", "d")])
_VALUES = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def chunk_streams(draw):
    """Chunks of one value width, mixing groups, gaps and lengths."""
    width = draw(st.integers(min_value=1, max_value=3))
    time = 0
    chunks = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        chunk = []
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            time += draw(st.integers(min_value=0, max_value=2))
            length = draw(st.integers(min_value=1, max_value=3))
            chunk.append(
                AggregateSegment(
                    draw(_GROUPS),
                    tuple(draw(_VALUES) for _ in range(width)),
                    Interval(time, time + length - 1),
                )
            )
            time += length
        chunks.append(chunk)
    return chunks


def _shuffled_columns(chunk, draw):
    """PTAS columns whose group table lists the chunk's groups out of
    appearance order, plus one group no row uses."""
    used = list(dict.fromkeys(segment.group for segment in chunk))
    keys = draw(st.permutations(used + [("unused", 0)]))
    ids = {key: index for index, key in enumerate(keys)}
    width = len(chunk[0].values) if chunk else 0
    return EncodedSegments(
        np.array([s.interval.start for s in chunk], dtype=np.int64),
        np.array([s.interval.end for s in chunk], dtype=np.int64),
        np.array([s.values for s in chunk], dtype=np.float64).reshape(
            len(chunk), width
        ),
        np.array([ids[s.group] for s in chunk], dtype=np.int64),
        list(keys),
    )


_KEYS = itertools.count()  # fresh keys per example on the shared servers


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(stream=chunk_streams(), data=st.data())
def test_wire_json_and_objects_give_byte_identical_summaries(
    servers, stream, data
):
    for backend, server in servers.items():
        n = next(_KEYS)
        wire_key, json_key, object_key = f"w{n}", f"j{n}", f"o{n}"
        for chunk in stream:
            columns = _shuffled_columns(chunk, data.draw)
            assert columns == chunk  # the same tuples, another group table
            _request(
                server, f"/push/{wire_key}", encode_segments(columns),
                WIRE_CONTENT_TYPE,
            )
            _request(server, f"/push/{json_key}", _json_body(chunk))
            server.service.push(object_key, chunk)
        expected = _summary_bytes(server, object_key)
        assert _summary_bytes(server, wire_key) == expected, backend
        assert _summary_bytes(server, json_key) == expected, backend


# ----------------------------------------------------------------------
# A value-width change never poisons a key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("form", ["wire", "json"])
def test_value_width_change_is_refused_and_the_key_keeps_serving(
    tmp_path, backend, durable, form
):
    service = Service(
        size=10,
        policy=ExecutionPolicy(backend=backend),
        data_dir=tmp_path if durable else None,
    )
    server = start_in_background(service)[0]

    def push(chunk):
        if form == "wire":
            return _request(
                server, "/push/k", encode_segments(chunk), WIRE_CONTENT_TYPE
            )
        return _request(server, "/push/k", _json_body(chunk))

    try:
        push(_unit_chunk(0, 40, width=2))
        before = _summary_bytes(server, "k")
        wal = _wal_bytes(tmp_path)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            push(_unit_chunk(40, 40, width=3))
        assert excinfo.value.code == 400
        answer = json.load(excinfo.value)
        assert answer["code"] == "bad_request"
        assert "aggregate values" in answer["error"]
        assert _wal_bytes(tmp_path) == wal  # no frame was logged
        assert _summary_bytes(server, "k") == before
        assert json.loads(push(_unit_chunk(40, 40, width=2)))["pushed"] == 40
        assert json.loads(_request(server, "/summary?key=k"))[
            "input_size"
        ] == 80
        assert json.loads(
            _request(server, "/range_agg?key=k&t1=0&t2=79&fn=avg")
        )["values"] is not None
    finally:
        server.shutdown()
        server.server_close()
        service.close()


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_nested_group_key_is_refused_and_the_key_keeps_serving(
    tmp_path, backend, durable
):
    service = Service(
        size=10,
        policy=ExecutionPolicy(backend=backend),
        data_dir=tmp_path if durable else None,
    )
    server = start_in_background(service)[0]
    nested = pack_columns(
        {
            "starts": np.array([40], np.int64),
            "ends": np.array([40], np.int64),
            "values": np.ones((1, 2)),
            "groups": np.zeros(1, np.int64),
            "group_keys": np.frombuffer(b"[[[1]]]", np.uint8),
        },
        SEGMENTS_MAGIC,
        WIRE_VERSION,
    )
    try:
        _request(
            server, "/push/k", encode_segments(_unit_chunk(0, 40, width=2)),
            WIRE_CONTENT_TYPE,
        )
        before = _summary_bytes(server, "k")
        wal = _wal_bytes(tmp_path)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _request(server, "/push/k", nested, WIRE_CONTENT_TYPE)
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["code"] == "bad_request"
        with pytest.raises(WireError, match="hashable"):
            service.push(
                "k", [AggregateSegment(([1],), (1.0, 1.0), Interval(40, 40))]
            )
        assert _wal_bytes(tmp_path) == wal  # no frame was logged
        assert _summary_bytes(server, "k") == before
        follow_up = _json_body(_unit_chunk(40, 5, width=2))
        assert json.loads(_request(server, "/push/k", follow_up))["pushed"] == 5
        assert json.loads(
            _request(server, "/range_agg?key=k&t1=0&t2=44&fn=avg")
        )["values"] is not None
    finally:
        server.shutdown()
        server.server_close()
        service.close()


@pytest.mark.parametrize(
    "checkpoint_every", [None, 20], ids=["live-wal", "checkpoint"]
)
def test_width_is_pinned_across_recovery(tmp_path, checkpoint_every):
    first = Service(size=10, data_dir=tmp_path, checkpoint_every=checkpoint_every)
    first.push("k", _unit_chunk(0, 30, width=2))
    first.close()
    recovered = Service(
        size=10, data_dir=tmp_path, checkpoint_every=checkpoint_every
    )
    try:
        with pytest.raises(ValueWidthError, match="2 aggregate values"):
            recovered.push("k", _unit_chunk(30, 5, width=1))
        assert recovered.push("k", _unit_chunk(30, 5, width=2))["pushed"] == 5
    finally:
        recovered.close()


def test_heap_refuses_a_chunk_of_another_width_before_staging():
    heap = NumpyMergeHeap()
    heap.stage_chunk(_unit_chunk(0, 8, width=2))
    heap.activate_staged_all(size=100)
    count = heap._count
    with pytest.raises(ValueWidthError):
        heap.stage_chunk(_unit_chunk(8, 8, width=3))
    assert heap._count == count and len(heap._start) == count
    heap.stage_chunk(_unit_chunk(8, 8, width=2))
    heap.activate_staged_all(size=100)
    assert len(heap) == 16


# ----------------------------------------------------------------------
# The online reducer pins the value width on its first tuple
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("form", ["single", "chunk"])
@pytest.mark.parametrize("size", [1, 5])
def test_session_refuses_another_width_and_keeps_its_state(
    backend, form, size
):
    session = Compressor(size=size, policy=ExecutionPolicy(backend=backend))
    session.push(_unit_chunk(0, 8, width=1))
    before = session.summary()
    wrong = _unit_chunk(8, 3, width=2)
    with pytest.raises(ValueWidthError, match="holds 1 per tuple"):
        session.push(wrong[0] if form == "single" else wrong)
    assert session.summary() == before
    right = _unit_chunk(8, 3, width=1)
    session.push(right[0] if form == "single" else right)
    expected = compress(
        _unit_chunk(0, 9 if form == "single" else 11, width=1),
        size=size,
        backend=backend,
    )
    assert session.summary().segments == expected.segments


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", [1, 5])
def test_compress_refuses_a_stream_of_mixed_widths(backend, size):
    stream = [
        AggregateSegment((), (1.0,), Interval(0, 0)),
        AggregateSegment((), (2.0, 3.0), Interval(1, 1)),
    ]
    with pytest.raises(ValueWidthError):
        compress(stream, size=size, backend=backend)


def _columns(first, count, value_rows=None, values_shape=None):
    times = np.arange(first, first + count, dtype=np.int64)
    values = np.ones((count if value_rows is None else value_rows, 1))
    if values_shape is not None:
        values = np.ones(values_shape)
    return EncodedSegments(
        times, times.copy(), values, np.zeros(count, np.int64), [()]
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "malformed",
    [{"value_rows": 40}, {"value_rows": 80}, {"values_shape": (64,)}],
)
def test_malformed_columns_are_refused_before_any_state_changes(
    backend, malformed
):
    """Regression: 64 starts against 40 value rows made the numpy backend
    raise from the compiled loop after staging (every later push then
    raised ``staged tuples are pending``) and the python backend consume
    40 of the 64 tuples.  ``encode_segments`` now refuses such columns
    before the reducer is touched."""
    reducer = OnlineReducer(size=10, backend=backend)
    reducer.push_chunk(_columns(0, 64))
    with pytest.raises(ValueError, match="malformed columns"):
        reducer.push_chunk(_columns(64, 64, **malformed))
    assert reducer.consumed == 64
    reducer.push_chunk(_columns(64, 64))
    assert reducer.consumed == 128
    expected = compress(list(_columns(0, 128)), size=10, backend=backend)
    assert reducer.finalize().segments == expected.segments


# ----------------------------------------------------------------------
# Columns read as a segment sequence
# ----------------------------------------------------------------------
def test_encoded_segments_is_a_lazy_segment_sequence():
    chunk = [
        AggregateSegment(("a",), (1.0, 2.0), Interval(0, 1)),
        AggregateSegment(("b",), (3.0, 4.0), Interval(2, 2)),
        AggregateSegment(("a",), (5.0, 6.0), Interval(3, 5)),
    ]
    columns = _shuffled_columns(chunk, lambda strategy: [("b",), ("a",)])
    assert len(columns) == 3
    assert list(columns) == chunk and columns == chunk
    assert columns[1] == chunk[1] and columns[-1] == chunk[-1]
    assert columns[1:] == chunk[1:]
    assert isinstance(columns[1:], EncodedSegments)
    assert columns != chunk[:2]
