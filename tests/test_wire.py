"""Wire-format roundtrips and rejection paths (repro.service.wire).

The acceptance criterion: ``decode(encode(x)) == x`` exactly — same float
bits, same groups, same intervals — for every payload shape the serving
layer produces, and every malformed buffer (non-finite values, foreign
magic, future versions, truncation) is rejected with a clear error instead
of deserialising garbage.
"""

from __future__ import annotations

import math
import random
import struct

import numpy as np
import pytest

from repro import Interval, compress
from repro.core import AggregateSegment
from repro.parallel import EncodedSegments, encode_segments as to_columns
from repro.service import (
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
from repro.service.wire import (
    checked_segments,
    segment_from_obj,
    segments_from_objs,
)
from repro.storage import ColumnCodecError, pack_columns, unpack_columns


def random_segments(
    count: int, seed: int, groups: int = 1, dimensions: int = 1
) -> list[AggregateSegment]:
    rng = random.Random(seed)
    stream: list[AggregateSegment] = []
    for g in range(groups):
        group = (f"g{g}", g) if groups > 1 else ()
        time = rng.randrange(0, 5)
        for _ in range(count // groups):
            length = rng.randrange(1, 4)
            stream.append(
                AggregateSegment(
                    group,
                    tuple(
                        rng.uniform(-100.0, 100.0) for _ in range(dimensions)
                    ),
                    Interval(time, time + length - 1),
                )
            )
            time += length + (rng.randrange(1, 4) if rng.random() < 0.2 else 0)
    return stream


# ----------------------------------------------------------------------
# Exact roundtrips
# ----------------------------------------------------------------------
class TestSegmentRoundtrip:
    def test_empty_stream(self):
        blob = encode_segments([])
        assert decode_segments(blob) == []
        encoded = decode_segments(blob)
        assert len(encoded) == 0
        assert encoded.group_keys == []

    def test_empty_group_tuples(self):
        stream = random_segments(40, seed=1)
        assert all(segment.group == () for segment in stream)
        assert decode_segments(encode_segments(stream)) == stream

    def test_single_segment_runs(self):
        # Every segment is its own maximal run (gaps everywhere).
        stream = [
            AggregateSegment((), (float(i),), Interval(3 * i, 3 * i + 1))
            for i in range(10)
        ]
        assert decode_segments(encode_segments(stream)) == stream
        single = [AggregateSegment(("only",), (1.25,), Interval(0, 9))]
        assert decode_segments(encode_segments(single)) == single

    @pytest.mark.parametrize("dimensions", [1, 3, 10])
    def test_p_dimensional_values(self, dimensions):
        stream = random_segments(60, seed=2, dimensions=dimensions)
        back = decode_segments(encode_segments(stream))
        assert back == stream  # dataclass equality = exact float equality

    def test_grouped_mixed_key_types(self):
        stream = random_segments(60, seed=3, groups=4, dimensions=2)
        back = decode_segments(encode_segments(stream))
        assert back == stream
        assert back[0].group == stream[0].group
        assert isinstance(back[0].group[1], int)

    def test_float_bit_patterns_survive(self):
        # Exact-roundtrip stress: denormals, negative zero, ulp neighbours.
        values = (5e-324, -0.0, math.nextafter(1.0, 2.0), 1e308)
        stream = [AggregateSegment((), values, Interval(0, 3))]
        back = decode_segments(encode_segments(stream))
        assert struct.pack("<4d", *back[0].values) == struct.pack(
            "<4d", *values
        )

    def test_accepts_preencoded_columns(self):
        stream = random_segments(50, seed=4, groups=2)
        encoded = to_columns(stream)
        assert decode_segments(encode_segments(encoded)) == stream

    def test_decoded_columns_feed_the_sharded_engine(self):
        stream = random_segments(80, seed=5, groups=2)
        decoded = decode_segments(encode_segments(stream))
        assert isinstance(decoded, EncodedSegments)
        via_wire = compress(decoded, size=10, workers=1)
        direct = compress(stream, size=10, workers=1)
        assert via_wire.segments == direct.segments


class TestResultRoundtrip:
    def test_result_payload_exact(self):
        stream = random_segments(70, seed=6, groups=2, dimensions=2)
        result = compress(stream, size=9)
        back = decode_result(encode_result(result))
        assert back.segments == result.segments
        assert back.error == result.error  # exact float equality
        assert (back.size, back.input_size) == (result.size, result.input_size)
        assert (back.merges, back.max_heap_size) == (
            result.merges, result.max_heap_size,
        )
        assert (back.method, back.backend) == (result.method, result.backend)
        assert back.group_columns == result.group_columns
        assert back.value_columns == result.value_columns
        assert back.timestamp_name == result.timestamp_name

    def test_empty_result(self):
        result = compress([], size=5)
        back = decode_result(encode_result(result))
        assert back.segments == [] and back.size == 0


class TestJsonlRoundtrip:
    def test_roundtrip_exact(self):
        stream = random_segments(50, seed=7, groups=3, dimensions=2)
        assert segments_from_jsonl(segments_to_jsonl(stream)) == stream

    def test_empty(self):
        assert segments_to_jsonl([]) == ""
        assert segments_from_jsonl("") == []

    def test_rejects_non_finite(self):
        bad = [AggregateSegment((), (math.nan,), Interval(0, 1))]
        with pytest.raises(WireError, match="non-finite"):
            segments_to_jsonl(bad)

    def test_rejects_malformed_lines(self):
        with pytest.raises(WireError, match="line 1"):
            segments_from_jsonl("not json\n")
        with pytest.raises(WireError, match="JSON object"):
            segments_from_jsonl("[1, 2]\n")
        with pytest.raises(WireError, match="malformed segment"):
            segments_from_jsonl('{"values": [1.0]}\n')


# ----------------------------------------------------------------------
# Rejection paths
# ----------------------------------------------------------------------
class TestRejection:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected_with_clear_error(self, bad):
        stream = [
            AggregateSegment((), (1.0,), Interval(0, 0)),
            AggregateSegment((), (bad,), Interval(1, 1)),
        ]
        with pytest.raises(WireError, match="non-finite"):
            encode_segments(stream)
        result = compress([AggregateSegment((), (1.0,), Interval(0, 0))],
                          size=1)
        result.segments[0] = AggregateSegment((), (bad,), Interval(0, 0))
        with pytest.raises(WireError, match="non-finite"):
            encode_result(result)

    def test_cross_version_header_rejected(self):
        blob = bytearray(encode_segments(random_segments(10, seed=8)))
        # The uint16 version field sits right after the 4-byte magic.
        struct.pack_into("<H", blob, 4, WIRE_VERSION + 1)
        with pytest.raises(WireError, match="version"):
            decode_segments(bytes(blob))

    def test_wrong_magic_rejected(self):
        blob = b"XXXX" + encode_segments([])[4:]
        with pytest.raises(WireError, match="magic"):
            decode_segments(blob)

    def test_result_magic_is_not_a_segment_payload(self):
        result = compress(random_segments(10, seed=9), size=3)
        with pytest.raises(WireError, match="magic"):
            decode_segments(encode_result(result))

    def test_truncated_buffer_rejected(self):
        blob = encode_segments(random_segments(20, seed=10))
        with pytest.raises(WireError, match="truncated|too short"):
            decode_segments(blob[: len(blob) // 2])
        with pytest.raises(WireError, match="too short"):
            decode_segments(b"PT")

    def test_trailing_garbage_rejected(self):
        blob = encode_segments(random_segments(5, seed=11))
        with pytest.raises(WireError, match="trailing"):
            decode_segments(blob + b"\x00\x01")

    def test_malformed_column_shapes_rejected(self):
        # A structurally valid container whose columns have the wrong
        # dtype/ndim must fail as WireError, not as a downstream TypeError.
        from repro.service import SEGMENTS_MAGIC, WIRE_VERSION

        good = {
            "starts": np.zeros(1, np.int64),
            "ends": np.zeros(1, np.int64),
            "values": np.zeros((1, 1)),
            "groups": np.zeros(1, np.int64),
            "group_keys": np.frombuffer(b"[[]]", np.uint8),
        }
        for name, bad in (
            ("starts", np.zeros((1, 1))),        # float, 2-D
            ("ends", np.zeros(1)),               # float
            ("groups", np.zeros((1, 1), np.int64)),  # 2-D
            ("values", np.zeros(1)),             # 1-D
        ):
            columns = dict(good)
            columns[name] = bad
            blob = pack_columns(columns, SEGMENTS_MAGIC, WIRE_VERSION)
            with pytest.raises(WireError, match=f"{name} column"):
                decode_segments(blob)

    def test_reversed_interval_rejected(self):
        # end < start passes neither the PTAS decoder (the cluster
        # worker's REDUCE path) nor the JSON body parser.
        blob = pack_columns(
            {
                "starts": np.array([0, 5], np.int64),
                "ends": np.array([0, 4], np.int64),
                "values": np.zeros((2, 1)),
                "groups": np.zeros(2, np.int64),
                "group_keys": np.frombuffer(b"[[]]", np.uint8),
            },
            SEGMENTS_MAGIC,
            WIRE_VERSION,
        )
        for copy in (True, False):
            with pytest.raises(WireError, match="segment 1 ends before"):
                decode_segments(blob, copy=copy)
        with pytest.raises(WireError, match="segment 0 ends before"):
            segments_from_objs([{"start": 3, "end": 2, "values": [1.0]}])

    @pytest.mark.parametrize(
        "obj, needle",
        [
            ({"start": 0.5, "end": 1, "values": [1.0]}, "integers"),
            ({"start": 0, "end": "1", "values": [1.0]}, "integers"),
            ({"start": 0, "end": 1, "values": [math.inf]}, "non-finite"),
            ({"start": 0, "end": 1, "values": 1.0}, "arrays of numbers"),
            ({"start": 0, "values": [1.0]}, "malformed segment"),
            ({"start": 0, "end": 1, "values": [1.0], "group": 7},
             "malformed segment"),
        ],
    )
    def test_json_objects_get_the_column_checks(self, obj, needle):
        with pytest.raises(WireError, match=needle):
            segments_from_objs([obj])
        with pytest.raises(WireError, match=needle):
            segment_from_obj(obj)  # the single-object door, same rules

    def test_nested_group_keys_rejected(self):
        # A list member would decode to an unhashable group tuple that
        # breaks every later read of the key.
        blob = pack_columns(
            {
                "starts": np.array([0], np.int64),
                "ends": np.array([0], np.int64),
                "values": np.zeros((1, 1)),
                "groups": np.zeros(1, np.int64),
                "group_keys": np.frombuffer(b"[[[1]]]", np.uint8),
            },
            SEGMENTS_MAGIC,
            WIRE_VERSION,
        )
        with pytest.raises(WireError, match="JSON-encodable scalars"):
            decode_segments(blob)
        with pytest.raises(WireError, match="malformed segment"):
            segments_from_objs([{"start": 0, "end": 0, "values": [1.0],
                                 "group": [[1]]}])
        # Hashable in process, but it would come back from disk as a list.
        nested = [AggregateSegment(((1, 2),), (1.0,), Interval(0, 0))]
        with pytest.raises(WireError, match="JSON-encodable scalars"):
            encode_segments(nested)

    @pytest.mark.parametrize("rows", [1, 2], ids=["one-group", "two-groups"])
    def test_unhashable_object_groups_rejected(self, rows):
        chunk = [
            AggregateSegment(([t],), (1.0,), Interval(t, t))
            for t in range(rows)
        ]
        with pytest.raises(WireError, match="hashable"):
            checked_segments(chunk)

    def test_json_rows_of_different_widths_rejected(self):
        with pytest.raises(WireError, match="equal-length"):
            segments_from_objs(
                [
                    {"start": 0, "end": 0, "values": [1.0]},
                    {"start": 1, "end": 1, "values": [1.0, 2.0]},
                ]
            )

    def test_unencodable_group_values_rejected(self):
        stream = [
            AggregateSegment((object(),), (1.0,), Interval(0, 0)),
        ]
        with pytest.raises(WireError, match="JSON-encodable"):
            encode_segments(stream)


# ----------------------------------------------------------------------
# The underlying column container
# ----------------------------------------------------------------------
class TestColumnContainer:
    def test_dtype_and_shape_preserved(self):
        columns = {
            "a": np.arange(6, dtype=np.int32).reshape(2, 3),
            "b": np.array([1.5, 2.5], dtype=np.float32),
            "c": np.zeros((0, 4), dtype=np.float64),
        }
        back = unpack_columns(
            pack_columns(columns, b"TEST", 7), b"TEST", 7
        )
        for name, array in columns.items():
            assert back[name].dtype == array.dtype
            assert back[name].shape == array.shape
            assert np.array_equal(back[name], array)

    def test_version_gate(self):
        blob = pack_columns({"a": np.zeros(1)}, b"TEST", 1)
        with pytest.raises(ColumnCodecError, match="version 1"):
            unpack_columns(blob, b"TEST", 2)

    def test_payload_size_mismatch(self):
        blob = bytearray(pack_columns({"a": np.zeros(4)}, b"TEST", 1))
        # Corrupt the payload-size field of the only column: it sits 8
        # bytes before the payload, which occupies the last 32 bytes.
        struct.pack_into("<Q", blob, len(blob) - 32 - 8, 24)
        with pytest.raises(ColumnCodecError):
            unpack_columns(bytes(blob), b"TEST", 1)

    def test_decoded_arrays_are_writable(self):
        back = unpack_columns(
            pack_columns({"a": np.arange(3.0)}, b"TEST", 1), b"TEST", 1
        )
        back["a"][0] = 42.0  # frombuffer views are read-only; copies not
