"""Fuzzing the ``PTAW`` write-ahead-log readers.

A WAL file on disk may end in a torn frame (a crash mid-append) or hold
flipped bits (a bad disk), and recovery reads it before the store serves
anything.  Hypothesis writes valid files with :class:`WalWriter` and
mutates them: bit flips, truncation, an inflated frame length, and a
swapped magic or version.  On every mutated file:

* ``read_wal(recover=False)`` returns frames or raises :class:`WalError`;
* ``read_wal(recover=True)`` returns exactly the payloads
  :func:`iter_wal_frames` yields, and leaves the file at the last offset
  it yielded (just past the header when it yields none), after which a
  plain read returns the same frames;
* a wrong magic or version always raises :class:`WalError`, from all
  three readers;
* no other exception escapes.

This is the specification of the readers (``docs/FORMATS.md`` § 4).
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import List, Tuple

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.storage.wal import (
    WAL_MAGIC,
    WAL_VERSION,
    WalError,
    WalWriter,
    frame_overhead,
    iter_wal_frames,
    read_wal,
)

HEADER, FRAME = frame_overhead()
#: Mutations, bit flips weighted up: a flip in a payload or CRC is the
#: common case of a bad disk.
_MUTATIONS = ["flip"] * 3 + ["truncate", "inflate", "magic", "version"]
_OTHER_VERSIONS = [v for v in (0, 2, 3, 0xFFFF) if v != WAL_VERSION]


def layout(blob: bytes) -> List[Tuple[str, int, int]]:
    """``(field, start, end)`` of every field of a valid WAL file."""
    spans = [("magic", 0, 4), ("version", 4, HEADER)]
    offset = HEADER
    while offset < len(blob):
        (length,) = struct.unpack_from("<I", blob, offset)
        spans.append(("length", offset, offset + 4))
        spans.append(("crc", offset + 4, offset + FRAME))
        spans.append(("payload", offset + FRAME, offset + FRAME + length))
        offset += FRAME + length
    assert offset == len(blob)
    return [span for span in spans if span[2] > span[1]]


def write(path: str, payloads: List[bytes]) -> bytes:
    with WalWriter(path, fsync_every=0) as wal:
        for payload in payloads:
            wal.append(payload)
    with open(path, "rb") as file:
        return file.read()


@st.composite
def mutated_files(draw):
    """The payloads of a valid file and its bytes after one to three
    mutations."""
    payloads = draw(st.lists(st.binary(max_size=40), max_size=5))
    with tempfile.TemporaryDirectory() as directory:
        blob = bytearray(write(os.path.join(directory, "w.wal"), payloads))
    spans = layout(bytes(blob))
    # Frame fields drawn four times as often as the file header's.
    spans += [span for span in spans if span[1] >= HEADER] * 3
    boundaries = [start for field, start, _ in spans if field == "length"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        event(kind)
        field, start, end = draw(st.sampled_from(spans))
        if kind == "flip" and end <= len(blob):
            position = draw(st.integers(start, end - 1))
            blob[position] ^= 1 << draw(st.integers(0, 7))
        elif kind == "truncate":  # anywhere, or at a frame boundary
            del blob[draw(
                st.integers(0, len(blob)) | st.sampled_from(boundaries or [0])
            ):]
        elif kind == "inflate" and field == "length" and end <= len(blob):
            (current,) = struct.unpack_from("<I", blob, start)
            inflated = draw(
                st.sampled_from([2**32 - 1, 2**31, current + 1])
                | st.integers(current, 2**32 - 1)
            )
            struct.pack_into("<I", blob, start, min(inflated, 2**32 - 1))
        elif kind == "magic" and len(blob) >= 4:
            blob[:4] = draw(
                st.sampled_from([b"PTAS", b"PTAT", b"PTAC", b"WATP"])
            )
        elif kind == "version" and len(blob) >= HEADER:
            version = draw(st.sampled_from(_OTHER_VERSIONS))
            struct.pack_into("<H", blob, 4, version)
    return payloads, bytes(blob)


def read_all(path: str):
    """Every reader's answer: a value, or the WalError it raised."""
    answers = {}
    for name, read in (
        ("tail", lambda: list(iter_wal_frames(path))),
        ("strict", lambda: read_wal(path, recover=False)),
        ("recover", lambda: read_wal(path, recover=True)),
    ):
        try:
            answers[name] = read()
        except WalError as error:
            answers[name] = error
    return answers


def test_valid_files_read_back():
    payloads = [b"", b"one", bytes(range(256))]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "w.wal")
        blob = write(path, payloads)
        assert blob[:4] == WAL_MAGIC
        assert read_wal(path) == payloads
        assert [payload for _, payload in iter_wal_frames(path)] == payloads
        assert [end for end, _ in iter_wal_frames(path)][-1] == len(blob)


@settings(max_examples=600, deadline=None, database=None)
@given(drawn=mutated_files())
def test_mutated_file_reads_as_the_tailer_walks_it(drawn):
    payloads, blob = drawn
    foreign = len(blob) < HEADER or blob[:HEADER] != struct.pack(
        "<4sH", WAL_MAGIC, WAL_VERSION
    )
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "w.wal")
        with open(path, "wb") as file:
            file.write(blob)
        answers = read_all(path)
        size = os.path.getsize(path)
        again = None if foreign else read_wal(path)
    tail, strict, recover = (
        answers["tail"], answers["strict"], answers["recover"]
    )
    if foreign:
        event("no valid header")
        assert all(isinstance(a, WalError) for a in answers.values())
        assert size == len(blob)  # recovery never touches such a file
        return
    assert not isinstance(tail, WalError)
    frames = [payload for _, payload in tail]
    assert recover == frames
    assert size == (tail[-1][0] if tail else HEADER)
    assert again == frames
    if isinstance(strict, WalError):
        event("strict read refused")
        assert size < len(blob)
    else:
        event("strict read accepted")
        assert strict == frames and size == len(blob)
    assert frames == payloads[: len(frames)]
