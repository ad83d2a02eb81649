"""Fuzzing the ``PTAT`` trajectory codec.

A remote worker's answer is peer-controlled bytes, and a ``PTAT``
payload that survives its frame's CRC can still be garbage (a buggy or
hostile worker, another version).  Hypothesis takes valid version-3
payloads and mutates them: bit flips, truncation, inflated length fields
and a swapped magic or version.  :func:`decode_trajectory` must either
return a trajectory that re-encodes to exactly the mutated bytes, or
raise :class:`TransportError` — never ``IndexError``, ``struct.error``,
``OverflowError``, ``MemoryError`` or any other exception.  This is the
specification of the decoder (``docs/FORMATS.md`` § 8.3); whether the
decoded indices fit the shard is the coordinator's check
(``tests/test_cluster.py::TestGarbageAnswers``).
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster.transport import (
    TRAJECTORY_MAGIC,
    TRAJECTORY_VERSION,
    TransportError,
    decode_trajectory,
    encode_trajectory,
)

#: Struct formats of the container's count and length fields
#: (``docs/FORMATS.md`` § 1), by field name.
_FIELDS = {
    "ncols": "<H", "name_len": "<H", "dtype_len": "<H", "ndim": "<B",
    "extent": "<Q", "nbytes": "<Q",
}
#: Mutations, bit flips weighted up: many of them keep a payload
#: decodable, while every magic or version swap is a rejection.
_MUTATIONS = ["flip"] * 4 + ["truncate", "inflate", "magic", "version"]
_OTHER_VERSIONS = [
    v for v in (0, 1, 2, 3, 0xFFFF) if v != TRAJECTORY_VERSION
]


def layout(blob: bytes) -> List[Tuple[str, int, int]]:
    """``(field, start, end)`` of every field of a valid container."""
    spans = [("magic", 0, 4), ("version", 4, 6), ("ncols", 6, 8)]
    (ncols,) = struct.unpack_from("<H", blob, 6)
    offset = 8
    for _ in range(ncols):
        for field in ("name", "dtype"):
            (length,) = struct.unpack_from("<H", blob, offset)
            spans.append((field + "_len", offset, offset + 2))
            spans.append((field, offset + 2, offset + 2 + length))
            offset += 2 + length
        ndim = blob[offset]
        spans.append(("ndim", offset, offset + 1))
        offset += 1
        for _ in range(ndim):
            spans.append(("extent", offset, offset + 8))
            offset += 8
        (nbytes,) = struct.unpack_from("<Q", blob, offset)
        spans.append(("nbytes", offset, offset + 8))
        spans.append(("payload", offset + 8, offset + 8 + nbytes))
        offset += 8 + nbytes
    assert offset == len(blob)
    return [span for span in spans if span[2] > span[1]]


@st.composite
def trajectories(draw):
    steps = draw(st.integers(0, 6))
    dims = draw(st.integers(1, 3))
    indices = st.integers(-(2**63), 2**63 - 1)
    floats = st.floats(allow_nan=True, allow_infinity=True)
    return (
        np.array(draw(st.lists(indices, min_size=steps, max_size=steps)),
                 dtype=np.int64),
        np.array(draw(st.lists(floats, min_size=steps, max_size=steps)),
                 dtype=np.float64),
        np.array(draw(st.lists(indices, min_size=steps, max_size=steps)),
                 dtype=np.int64),
        np.array(
            draw(st.lists(floats, min_size=steps * dims,
                          max_size=steps * dims)),
            dtype=np.float64,
        ).reshape(steps, dims),
    )


@st.composite
def mutated_payloads(draw):
    """A valid payload after one to three mutations.

    Positions are drawn field first, then byte within the field, so a
    flip is as likely to land in a 4-byte name as in a long payload.
    Payload fields are drawn five times as often: flips there decode.
    """
    blob = bytearray(encode_trajectory(draw(trajectories())))
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
                st.sampled_from([b"PTAS", b"PTAR", b"PTAW", b"PTAF", b"TAPT"])
            )
        elif kind == "version" and len(blob) >= 6:
            version = draw(st.sampled_from(_OTHER_VERSIONS))
            struct.pack_into("<H", blob, 4, version)
    return bytes(blob)


def test_valid_payloads_roundtrip_byte_for_byte():
    blob = encode_trajectory(
        (
            np.array([1, 2], dtype=np.int64),
            np.array([0.5, 2.0]),
            np.array([0, 0], dtype=np.int64),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
    )
    assert blob[:4] == TRAJECTORY_MAGIC
    assert encode_trajectory(decode_trajectory(blob)) == blob


@settings(max_examples=1000, deadline=None, database=None)
@given(blob=mutated_payloads())
def test_mutated_payload_reencodes_or_raises_transport_error(blob):
    try:
        trajectory = decode_trajectory(blob)
    except TransportError:
        event("rejected")
        return
    event("accepted")
    assert encode_trajectory(trajectory) == blob
