"""Fuzzing the ``PTAS`` and ``PTAR`` wire decoders and ``PTAC`` reads.

A push body, a replicated frame and a shipped frozen epoch are
peer-controlled bytes.  Hypothesis takes valid payloads and mutates
them: bit flips, truncation, inflated length fields and a swapped magic
or version.  :func:`decode_segments` and :func:`decode_result` must
either return columns (a result) that re-encode to exactly the mutated
bytes, or raise :class:`WireError` — never another exception.  So each
payload has one spelling: a decoder that accepted a byte-swapped column,
a non-canonical JSON number or a zero-row value matrix of another width
would hand the WAL, a standby or a checkpoint bytes that do not
describe what was accepted (``docs/FORMATS.md`` §§ 2–3).  A checkpoint
file is the same image under another tag (§ 5): read through
:func:`load_checkpoint` and :class:`FrozenEpoch`, a mutated one gives back
exactly its bytes or raises :class:`WalError` / :class:`DurabilityError`.
"""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import Interval
from repro.api.result import Result
from repro.core import AggregateSegment
from repro.service.durability import DurabilityError, FrozenEpoch
from repro.service.wire import (
    RESULT_MAGIC,
    WIRE_VERSION,
    WireError,
    decode_result,
    decode_segments,
    encode_result,
    encode_segments,
)
from repro.storage.wal import CHECKPOINT_MAGIC, WalError, load_checkpoint
from test_ptat_fuzz import _FIELDS, layout

_MUTATIONS = ["flip"] * 4 + ["truncate", "inflate", "magic", "version"]
_OTHER_VERSIONS = [v for v in (0, 2, 3, 0xFFFF) if v != WIRE_VERSION]

#: Group members, floats among them whose ``repr`` has an exponent or
#: many digits: a bit flip there is most likely to stay valid JSON.
_MEMBERS = st.one_of(
    st.sampled_from(["a", "b", "", True, False, None, 0, 7, -3]),
    st.sampled_from([1e-05, 1.5e-05, 0.1, 2.5, 1e22, 1.0000000000000002]),
    st.integers(-(2**40), 2**40),
)


@st.composite
def segment_lists(draw):
    count = draw(st.integers(0, 5))
    dims = draw(st.integers(1, 3))
    groups = draw(
        st.lists(st.tuples(_MEMBERS), min_size=1, max_size=3, unique=True)
    )
    values = st.floats(allow_nan=False, allow_infinity=False)
    segments = []
    start = draw(st.integers(-100, 100))
    for _ in range(count):
        length = draw(st.integers(1, 4))
        segments.append(
            AggregateSegment(
                draw(st.sampled_from(groups)),
                tuple(draw(values) for _ in range(dims)),
                Interval(start, start + length - 1),
            )
        )
        start += length
    return segments


@st.composite
def results(draw):
    segments = draw(segment_lists())
    return Result(
        segments=segments,
        error=draw(st.floats(0.0, 1e6) | st.sampled_from([1e-05, 0.1])),
        size=len(segments),
        input_size=len(segments) + draw(st.integers(0, 50)),
        method=draw(st.sampled_from(["greedy", "dp"])),
        backend=draw(st.sampled_from(["python", "numpy"])),
        max_heap_size=draw(st.integers(0, 60)),
        merges=draw(st.integers(0, 50)),
    )


def mutate(draw, blob: bytes) -> bytes:
    """One to three mutations of a valid container (see the PTAT fuzz)."""
    blob = bytearray(blob)
    spans = layout(bytes(blob))
    spans += [span for span in spans if span[0] == "payload"] * 4
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        event(kind)
        field, start, end = draw(st.sampled_from(spans))
        if kind == "flip" and end <= len(blob):
            position = draw(st.integers(start, end - 1))
            blob[position] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":
            del blob[draw(st.integers(0, len(blob))):]
        elif kind == "inflate" and field in _FIELDS and end <= len(blob):
            (current,) = struct.unpack_from(_FIELDS[field], blob, start)
            top = 2 ** (8 * (end - start)) - 1
            inflated = draw(
                st.sampled_from([top, top // 2 + 1, min(current + 1, top)])
                | st.integers(current, top)
            )
            struct.pack_into(_FIELDS[field], blob, start, inflated)
        elif kind == "magic" and len(blob) >= 4:
            blob[:4] = draw(
                st.sampled_from([b"PTAS", b"PTAR", b"PTAW", b"PTAT", b"SATP"])
            )
        elif kind == "version" and len(blob) >= 6:
            version = draw(st.sampled_from(_OTHER_VERSIONS))
            struct.pack_into("<H", blob, 4, version)
    return bytes(blob)


@st.composite
def mutated_segment_payloads(draw):
    return mutate(draw, encode_segments(draw(segment_lists())))


@st.composite
def mutated_result_payloads(draw):
    return mutate(draw, encode_result(draw(results())))


@st.composite
def mutated_checkpoints(draw):
    blob = encode_result(draw(results()))
    return mutate(draw, CHECKPOINT_MAGIC + blob[len(RESULT_MAGIC):])


@given(segments=segment_lists())
@settings(max_examples=200, deadline=None, database=None)
def test_valid_segment_payloads_roundtrip_byte_for_byte(segments):
    blob = encode_segments(segments)
    assert encode_segments(decode_segments(blob)) == blob


@given(result=results())
@settings(max_examples=200, deadline=None, database=None)
def test_valid_result_payloads_roundtrip_byte_for_byte(result):
    blob = encode_result(result)
    assert encode_result(decode_result(blob)) == blob


@settings(max_examples=1500, deadline=None, database=None)
@given(blob=mutated_segment_payloads())
def test_mutated_segment_payload_reencodes_or_raises_wire_error(blob):
    try:
        columns = decode_segments(blob)
    except WireError:
        event("rejected")
        return
    event("accepted")
    assert encode_segments(columns) == blob


@settings(max_examples=1500, deadline=None, database=None)
@given(blob=mutated_result_payloads())
def test_mutated_result_payload_reencodes_or_raises_wire_error(blob):
    try:
        result = decode_result(blob)
    except WireError:
        event("rejected")
        return
    event("accepted")
    assert encode_result(result) == blob


@settings(max_examples=200, deadline=None, database=None)
@given(blob=mutated_checkpoints())
def test_mutated_checkpoint_reads_back_or_raises_durability_error(blob):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "epoch-00000000.ckpt"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
            epoch = FrozenEpoch.from_checkpoint(path)
            result = epoch.result()
        except (WalError, DurabilityError):
            event("rejected")
            return
        event("accepted")
        assert (epoch.error, epoch.size) == (result.error, result.size)
        tagged = RESULT_MAGIC + blob[len(CHECKPOINT_MAGIC):]
        assert encode_result(result) == tagged


def _column_dtype(blob: bytes, name: bytes) -> int:
    """Offset of the dtype string of column ``name`` in a container."""
    spans = layout(blob)
    for index, (field, start, end) in enumerate(spans):
        if field == "name" and blob[start:end] == name:
            return spans[index + 2][1]
    raise AssertionError(name)


@pytest.mark.parametrize("column", [b"starts", b"values"])
def test_big_endian_columns_rejected(column):
    blob = bytearray(
        encode_segments([AggregateSegment((), (1.5,), Interval(0, 3))])
    )
    offset = _column_dtype(bytes(blob), column)
    assert blob[offset:offset + 1] == b"<"
    blob[offset:offset + 1] = b">"  # same bytes, read byte-swapped
    with pytest.raises(WireError, match="little-endian"):
        decode_segments(bytes(blob))


@pytest.mark.parametrize(
    "group, canonical, spelling",
    [
        ((1e-05,), b"1e-05", b"1E-05"),
        ((1e-05,), b"1e-05", b"1.0e-05"),
        ((0.1,), b"0.1", b"0.10000000000000001"),
        (("a",), b'[["a"]]', b'[[ "a"]]'),
    ],
)
def test_non_canonical_group_key_json_rejected(group, canonical, spelling):
    blob = encode_segments([AggregateSegment(group, (1.0,), Interval(0, 0))])
    assert blob.count(canonical) == 1
    with pytest.raises(WireError, match="canonical JSON"):
        decode_segments(_respell(blob, canonical, spelling))


def test_non_canonical_meta_json_rejected():
    result = Result(segments=[], error=1e-05, size=0, input_size=0)
    blob = encode_result(result)
    forged = _respell(blob, b"1e-05", b"1E-05")
    with pytest.raises(WireError, match="canonical JSON"):
        decode_result(forged)


def test_zero_row_result_of_nonzero_width_rejected():
    blob = bytearray(encode_result(Result(segments=[], error=0.0)))
    offset = _column_dtype(bytes(blob), b"values") + 3  # past "<f8"
    assert blob[offset] == 2  # ndim
    # The second extent: (0, 0) -> (0, 2**58); nbytes stays 0.
    struct.pack_into("<Q", blob, offset + 1 + 8, 2**58)
    with pytest.raises(WireError, match="zero-row"):
        decode_result(bytes(blob))


def _respell(blob: bytes, old: bytes, new: bytes) -> bytes:
    """Replace a JSON fragment and fix the column's byte count and extent."""
    at = blob.index(old)
    spans = layout(blob)
    for index, (field, start, end) in enumerate(spans):
        if field == "payload" and start <= at < end:
            extent_at, nbytes_at = spans[index - 2][1], spans[index - 1][1]
            break
    else:
        raise AssertionError(old)
    grown = len(new) - len(old)
    out = bytearray(blob[:at] + new + blob[at + len(old):])
    for offset in (extent_at, nbytes_at):
        (value,) = struct.unpack_from("<Q", out, offset)
        struct.pack_into("<Q", out, offset, value + grown)
    return bytes(out)


def test_result_groups_out_of_first_appearance_order_rejected():
    segments = [
        AggregateSegment(("a",), (1.0,), Interval(0, 0)),
        AggregateSegment(("b",), (2.0,), Interval(1, 1)),
    ]
    blob = bytearray(encode_result(Result(segments=segments, size=2)))
    spans = layout(bytes(blob))
    for index, (field, start, end) in enumerate(spans):
        if field == "name" and blob[start:end] == b"groups":
            payload = next(s for s in spans[index:] if s[0] == "payload")
            break
    blob[payload[1]] ^= 1  # groups [0, 1] -> [1, 1]: key "a" unused
    with pytest.raises(WireError, match="first appearance"):
        decode_result(bytes(blob))


def test_result_meta_of_another_type_rejected():
    blob = encode_result(Result(segments=[], error=0.0))
    forged = _respell(blob, b'"error": 0.0', b'"error": 0')
    with pytest.raises(WireError, match="malformed result metadata"):
        decode_result(forged)
