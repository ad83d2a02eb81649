"""Write-ahead-log segment files and mmap-backed checkpoint files.

This module is the byte-level half of the durability tier
(:mod:`repro.service.durability`): append-only **WAL segment files** that
record every acknowledged push, and atomically-written **checkpoint
files** that hold a finalized epoch's summary columns.  Together they
carry the *replay invariant* the recovery path relies on:

    loading the last checkpoint and replaying the WAL tail through
    :meth:`repro.core.greedy.OnlineReducer.replay` reproduces the live
    reducer state **bit-identically** — the recovered store serves the
    same summary bytes the uncrashed process would have served.

**WAL layout** (all integers little-endian; normative spec in
``docs/FORMATS.md``)::

    file header   magic  4 bytes  b"PTAW"
                  version u16     1
    then frames:  length  u32     payload byte count
                  crc32   u32     zlib.crc32 of the payload
                  payload ...     opaque bytes (the serving layer nests a
                                  PTAS segment payload per push generation)

A crash can only tear the *final* frame (appends are sequential), so
:func:`read_wal` stops at the first frame whose header or payload is
short or whose CRC mismatches; with ``recover=True`` the file is
truncated back to the last intact frame — a torn tail is *dropped*, never
propagated and never an error.  Without ``recover`` the same condition
raises :class:`WalError`, which is how tests distinguish "dirty but
recoverable" from silent data loss.

**Checkpoint files** are one :func:`repro.storage.columns.pack_columns`
buffer (magic ``b"PTAC"``) written via *temp file + fsync + atomic
rename*, so a checkpoint either exists completely or not at all.
:func:`load_checkpoint` maps the file read-only (``mmap=True``) and
returns zero-copy column views over the mapping — frozen epochs are paged
in by the OS on demand instead of occupying private process memory.

Doctest — a torn final frame is truncated, the intact prefix survives:

>>> import tempfile, os
>>> from repro.storage.wal import WalWriter, read_wal
>>> path = os.path.join(tempfile.mkdtemp(), "epoch-00000001.wal")
>>> with WalWriter(path) as wal:
...     wal.append(b"first push")
...     wal.append(b"second push")
>>> with open(path, "ab") as f:        # simulate a crash mid-append
...     _ = f.write(b"\\x99\\x00\\x00\\x00torn")
>>> read_wal(path, recover=True)
[b'first push', b'second push']
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from pathlib import Path
from typing import (
    Dict, Generator, Iterator, List, Mapping, Optional, Tuple, Union,
)

import numpy as np

from ..util import failpoints
from .columns import ColumnCodecError, pack_columns, unpack_columns

#: Magic tag and version of WAL segment files.  Bump the version on any
#: frame-layout change; readers reject every other version.
WAL_MAGIC = b"PTAW"
WAL_VERSION = 1

#: Magic tag and version of checkpoint files (one packed column buffer).
CHECKPOINT_MAGIC = b"PTAC"
CHECKPOINT_VERSION = 1

_FILE_HEADER = struct.Struct("<4sH")
_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

PathLike = Union[str, Path]


class WalError(ValueError):
    """A malformed WAL file: wrong magic/version, or a corrupt frame that
    the caller did not ask to recover from."""


# Per-frame durability only needs the data (and the size, which every
# fdatasync implementation flushes when it changed) on stable storage —
# not atime/mtime.  fdatasync is what production WALs use; fall back to
# fsync on platforms without it.
_datasync = getattr(os, "fdatasync", os.fsync)


class WalWriter:
    """Appender for one WAL segment file.

    Opens the file for appending (creating it with a header when new or
    empty) and writes one length-prefixed, CRC-checked frame per
    :meth:`append`.  ``fsync_every=n`` issues an ``fsync`` after every
    ``n``-th frame (``1`` — the default — makes every acknowledged append
    durable; ``0`` leaves flushing to the OS, trading the tail of the log
    on power loss for append latency).  Usable as a context manager.

    **Failed appends never poison the tail.**  If the frame write raises
    (``ENOSPC``, ``EIO``, an injected fault), the writer truncates the
    file back to the end of the last complete frame before re-raising,
    so the log stays byte-clean and later appends stay readable.  Only
    if that rollback truncation *itself* fails does the writer mark
    itself :attr:`broken` and refuse further appends — a torn tail must
    never be appended after, because readers stop at the first torn
    frame and would silently drop everything behind it.
    """

    def __init__(self, path: PathLike, fsync_every: int = 1) -> None:
        if fsync_every < 0:
            raise WalError(
                f"fsync_every must be a non-negative integer, got {fsync_every}"
            )
        self.path = Path(path)
        self.fsync_every = fsync_every
        self._since_sync = 0
        #: Set when a failed append could not be rolled back: the file may
        #: end in a torn frame, so appending after it would hide data.
        self.broken = False
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        # Unbuffered: each frame is handed to the kernel as ONE write, so
        # there is no buffered copy to flush before the datasync and a
        # crash can only ever tear the final frame.
        self._file = open(self.path, "ab", buffering=0)
        if fresh:
            self._file.write(_FILE_HEADER.pack(WAL_MAGIC, WAL_VERSION))
            _datasync(self._file.fileno())
        self._offset = os.fstat(self._file.fileno()).st_size

    def tell(self) -> int:
        """Byte offset of the end of the last complete frame."""
        return self._offset

    def append(self, payload: bytes) -> None:
        """Append one frame; durable per the ``fsync_every`` cadence.

        On a write error the file is truncated back to :meth:`tell`
        (see the class docstring) and the error propagates.
        """
        if self.broken:
            raise WalError(
                f"{self.path}: writer is broken (an earlier failed append "
                f"could not be rolled back); rotate the epoch"
            )
        file = self._file
        begin = self._offset
        try:
            failpoints.fail("wal.append")
            file.write(
                _FRAME_HEADER.pack(len(payload), zlib.crc32(payload))
                + payload
            )
        except OSError:
            self.truncate_to(begin)
            raise
        self._offset = begin + _FRAME_HEADER.size + len(payload)
        if self.fsync_every:
            self._since_sync += 1
            if self._since_sync >= self.fsync_every:
                self.sync()

    def truncate_to(self, offset: int) -> None:
        """Truncate the file back to ``offset`` (a frame boundary).

        The rollback half of the append contract — also used by the
        store to undo a durably-appended frame whose in-memory
        application failed.  Failure marks the writer :attr:`broken`
        and re-raises.
        """
        try:
            failpoints.fail("wal.rollback")
            os.ftruncate(self._file.fileno(), offset)
            _datasync(self._file.fileno())
        except OSError:
            self.broken = True
            raise
        self._offset = offset

    def sync(self) -> None:
        """Force an fsync now, regardless of the cadence."""
        failpoints.fail("wal.fsync")
        _datasync(self._file.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if not self._file.closed:
            _datasync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


def read_wal(path: PathLike, recover: bool = False) -> List[bytes]:
    """Read every intact frame of a WAL segment file, in append order.

    Validation stops at the first frame that is torn (header or payload
    runs past end-of-file) or corrupt (CRC mismatch).  With
    ``recover=True`` the file is truncated back to the end of the last
    intact frame and the intact prefix is returned — the crash-recovery
    contract: a torn final frame is dropped, never served.  With
    ``recover=False`` the same condition raises :class:`WalError`.
    A wrong magic tag or version always raises — recovery must never
    reinterpret a foreign or future-format file.  The frames are those
    :func:`iter_wal_frames` yields: both take them from one walk.
    """
    data = _read_file(path)
    frames: List[bytes] = []
    good_end = _FILE_HEADER.size
    walk = _walk(data, good_end)
    while True:
        try:
            good_end, payload = next(walk)
        except StopIteration as stop:
            why = stop.value
            break
        frames.append(payload)
    if why:
        if not recover:
            raise WalError(f"{path}: {why}")
        with open(path, "r+b") as file:
            file.truncate(good_end)
            file.flush()
            os.fsync(file.fileno())
    return frames


def iter_wal_frames(
    path: PathLike, offset: Optional[int] = None
) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(next_offset, payload)`` for every intact frame — tailing.

    The incremental cousin of :func:`read_wal`, built for readers that
    *follow* a live WAL (the replication tier streams a primary's frames
    to a warm standby from here): start at ``offset`` — ``None`` means
    just past the file header, anything else must be a frame boundary a
    previous call yielded — and stop silently at the first torn or
    CRC-mismatching frame.  A torn tail is not an error for a tailer:
    the writer may be mid-append, and the next call resumes from the
    last yielded offset to pick the frame up once it is complete.
    Wrong magic/version still raise :class:`WalError` — tailing a
    foreign file is never recoverable.
    """
    data = _read_file(path)
    position = _FILE_HEADER.size if offset is None else offset
    if position < _FILE_HEADER.size:
        raise WalError(
            f"{path}: offset {position} is inside the file header"
        )
    yield from _walk(data, position)


def _read_file(path: PathLike) -> bytes:
    """The bytes of a WAL file whose header has the magic and version."""
    data = Path(path).read_bytes()
    if len(data) < _FILE_HEADER.size:
        raise WalError(
            f"{path}: too short for a WAL header ({len(data)} bytes)"
        )
    magic, version = _FILE_HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise WalError(
            f"{path}: wrong magic tag {magic!r} (expected {WAL_MAGIC!r})"
        )
    if version != WAL_VERSION:
        raise WalError(
            f"{path}: unsupported WAL version {version}; this reader "
            f"understands version {WAL_VERSION}"
        )
    return data


def _walk(
    data: bytes, position: int
) -> Generator[Tuple[int, bytes], None, str]:
    """Yield ``(next_offset, payload)`` for every intact frame from
    ``position`` on; return why the walk stopped short of the end, or
    ``""`` if it reached it.

    The walk stops at the first frame whose header or payload runs past
    the end (torn: the writer may be mid-append, or crashed there) or
    whose CRC does not match.
    """
    size = len(data)
    while position < size:
        if position + _FRAME_HEADER.size > size:
            return f"torn frame header at offset {position}"
        length, crc = _FRAME_HEADER.unpack_from(data, position)
        begin = position + _FRAME_HEADER.size
        end = begin + length
        if end > size:
            return (
                f"torn frame payload at offset {position}: header promises "
                f"{length} bytes, {size - begin} remain"
            )
        payload = data[begin:end]
        if zlib.crc32(payload) != crc:
            return f"CRC mismatch in the frame at offset {position}"
        position = end
        yield position, payload
    return ""


# ----------------------------------------------------------------------
# Checkpoint files
# ----------------------------------------------------------------------
def write_checkpoint(
    path: PathLike,
    columns: Mapping[str, np.ndarray],
    magic: bytes = CHECKPOINT_MAGIC,
    version: int = CHECKPOINT_VERSION,
) -> None:
    """Atomically persist packed columns: temp file, fsync, rename.

    After the rename is durable (the directory is fsynced too), the
    checkpoint is visible under ``path`` completely or not at all — a
    crash mid-write leaves only a stale ``.tmp`` file, which recovery
    ignores and the next checkpoint overwrites.
    """
    target = Path(path)
    payload = pack_columns(columns, magic, version)
    temp = target.with_name(target.name + ".tmp")
    failpoints.fail("checkpoint.write")
    with open(temp, "wb") as file:
        file.write(payload)
        file.flush()
        os.fsync(file.fileno())
    failpoints.fail("checkpoint.rename")
    os.replace(temp, target)
    directory_fd = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def load_checkpoint(
    path: PathLike,
    magic: bytes = CHECKPOINT_MAGIC,
    version: int = CHECKPOINT_VERSION,
    use_mmap: bool = True,
) -> Dict[str, np.ndarray]:
    """Load a checkpoint's columns, mmap-backed by default.

    With ``use_mmap=True`` the returned arrays are read-only views over a
    private read-only memory map of the file: loading costs one header
    parse, the payload is paged in lazily by the OS, and the mapping
    stays alive exactly as long as the arrays reference it.  With
    ``use_mmap=False`` the arrays are ordinary owning copies.  Malformed,
    truncated, cross-version or wrong-magic files raise
    :class:`WalError` naming the first mismatch.
    """
    try:
        if not use_mmap:
            return unpack_columns(Path(path).read_bytes(), magic, version)
        with open(path, "rb") as file:
            mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        return unpack_columns(memoryview(mapped), magic, version, copy=False)
    except ColumnCodecError as error:
        raise WalError(f"{path}: {error}") from error
    except ValueError as error:
        # mmap of an empty file raises a bare ValueError.
        raise WalError(f"{path}: {error}") from error


def frame_overhead() -> Tuple[int, int]:
    """(file header bytes, per-frame header bytes) — for capacity math."""
    return _FILE_HEADER.size, _FRAME_HEADER.size


__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "WAL_MAGIC",
    "WAL_VERSION",
    "WalError",
    "WalWriter",
    "frame_overhead",
    "iter_wal_frames",
    "load_checkpoint",
    "read_wal",
    "write_checkpoint",
]
