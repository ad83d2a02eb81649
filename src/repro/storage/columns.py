"""Versioned binary container for flat NumPy column sets.

The sharded engine (:mod:`repro.parallel`) established flat column arrays —
``int64`` interval endpoints, a ``float64`` value matrix, dense group ids —
as the internal representation a segment stream travels in.  This module
gives that representation a *byte-level* form: a self-describing, versioned
container that packs any mapping of named arrays into one buffer and
restores it dtype- and shape-preserving.  The serving wire format
(:mod:`repro.service.wire`) builds on it, so the columns that cross a
process boundary today are byte-for-byte the columns that would cross a
network boundary in a multi-host reduction.

Layout (all integers little-endian)::

    magic    4 bytes   caller-chosen tag, e.g. b"PTAS"
    version  u16       caller-chosen format version
    ncols    u16       number of columns
    then per column:
      name_len   u16   UTF-8 byte length of the column name
      name       ...   column name
      dtype_len  u16   ASCII byte length of the NumPy dtype string
      dtype      ...   e.g. "<f8", "<i8", "|u1"
      ndim       u8    number of dimensions
      shape      u64 × ndim
      nbytes     u64   payload size
      payload    ...   raw C-order array bytes

Decoding validates the magic, the version, every length field and the
total size, and raises :class:`ColumnCodecError` with a message naming the
first mismatch, so corrupted or cross-version buffers fail loudly instead
of deserialising garbage.
"""

from __future__ import annotations

import math
import re
import struct
from typing import Dict, Mapping

import numpy as np

_HEADER = struct.Struct("<4sHH")
_U16 = struct.Struct("<H")
_U8 = struct.Struct("<B")
_U64 = struct.Struct("<Q")
#: The byte order and kind letter every ``dtype.str`` starts with.
_DTYPE_PREFIX = re.compile(rb"[<>|][biufcmMOSUV]")


class ColumnCodecError(ValueError):
    """A malformed, truncated, or wrong-magic/version column buffer."""


def pack_columns(
    columns: Mapping[str, np.ndarray], magic: bytes, version: int
) -> bytes:
    """Serialise named arrays into one self-describing binary buffer."""
    if len(magic) != 4:
        raise ColumnCodecError(
            f"magic tag must be exactly 4 bytes, got {magic!r}"
        )
    if not 0 <= version <= 0xFFFF:
        raise ColumnCodecError(f"version must fit in uint16, got {version}")
    parts = [_HEADER.pack(magic, version, len(columns))]
    for name, array in columns.items():
        array = np.ascontiguousarray(array)
        encoded_name = name.encode("utf-8")
        encoded_dtype = array.dtype.str.encode("ascii")
        parts.append(_U16.pack(len(encoded_name)))
        parts.append(encoded_name)
        parts.append(_U16.pack(len(encoded_dtype)))
        parts.append(encoded_dtype)
        parts.append(_U8.pack(array.ndim))
        for extent in array.shape:
            parts.append(_U64.pack(extent))
        payload = array.tobytes()
        parts.append(_U64.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def unpack_columns(
    data: "bytes | memoryview", magic: bytes, version: int, copy: bool = True
) -> Dict[str, np.ndarray]:
    """Restore the named arrays packed by :func:`pack_columns`.

    The caller states which ``magic`` tag and ``version`` it understands;
    buffers carrying anything else are rejected (that is how a future
    format revision keeps old readers from misinterpreting new bytes).

    With ``copy=False`` the returned arrays are *views* into ``data``
    instead of owning copies: zero deserialisation cost, but the arrays
    are read-only whenever the buffer is (and they keep ``data`` alive).
    This is what lets the durability tier serve frozen-epoch checkpoints
    straight out of an ``mmap`` of the file — the OS pages columns in on
    demand and they never occupy private process memory
    (:func:`repro.storage.wal.load_checkpoint`).
    """
    if len(data) < _HEADER.size:
        raise ColumnCodecError(
            f"buffer too short for a column header: {len(data)} bytes"
        )
    found_magic, found_version, ncols = _HEADER.unpack_from(data, 0)
    if found_magic != magic:
        raise ColumnCodecError(
            f"wrong magic tag: expected {magic!r}, found {found_magic!r}"
        )
    if found_version != version:
        raise ColumnCodecError(
            f"unsupported format version {found_version}; this reader "
            f"understands version {version}"
        )
    offset = _HEADER.size
    columns: Dict[str, np.ndarray] = {}
    for _ in range(ncols):
        name, offset = _read_sized(data, offset, "column name")
        dtype_str, offset = _read_sized(data, offset, "dtype string")
        offset = _check_room(data, offset, _U8.size, "ndim")
        (ndim,) = _U8.unpack_from(data, offset - _U8.size)
        shape = []
        for _ in range(ndim):
            offset = _check_room(data, offset, _U64.size, "shape extent")
            shape.append(_U64.unpack_from(data, offset - _U64.size)[0])
        offset = _check_room(data, offset, _U64.size, "payload size")
        (nbytes,) = _U64.unpack_from(data, offset - _U64.size)
        offset = _check_room(data, offset, nbytes, "column payload")
        try:
            text = name.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ColumnCodecError(
                f"column name {name!r} is not UTF-8"
            ) from error
        # pack_columns writes ``dtype.str``; another spelling of the same
        # dtype (``=f8``, ``<d``), a structured one (``f8,i4``) or a
        # string NumPy cannot parse (``(2,``) is corrupt.  A kind letter
        # that no ``dtype.str`` carries (the deprecated alias ``a``) is
        # refused before NumPy sees it: its DeprecationWarning would
        # escape as an exception where warnings are errors, and the
        # decoder cannot change warning filters on a server thread.
        if not _DTYPE_PREFIX.match(dtype_str):
            raise ColumnCodecError(f"invalid dtype string {dtype_str!r}")
        try:
            dtype = np.dtype(dtype_str.decode("ascii"))
        except (TypeError, ValueError, SyntaxError) as error:
            raise ColumnCodecError(
                f"invalid dtype string {dtype_str!r}"
            ) from error
        if dtype.str.encode("ascii") != dtype_str:
            raise ColumnCodecError(f"invalid dtype string {dtype_str!r}")
        # Python integers: a corrupt u64 extent must not wrap around.
        elements = math.prod(shape)
        if dtype.itemsize * elements != nbytes:
            raise ColumnCodecError(
                f"column {text!r}: payload of "
                f"{nbytes} bytes does not match dtype {dtype.str} and "
                f"shape {tuple(shape)}"
            )
        try:
            array = np.frombuffer(
                data, dtype=dtype, count=elements, offset=offset - nbytes,
            ).reshape(tuple(shape))
        except (ValueError, OverflowError) as error:
            # Zero-size or object dtypes, extents past the address space.
            raise ColumnCodecError(
                f"column {text!r}: cannot view {nbytes} bytes as "
                f"{dtype.str} {tuple(shape)}: {error}"
            ) from error
        if copy:
            array = array.copy()  # writable, owns its data
        columns[text] = array
    if offset != len(data):
        raise ColumnCodecError(
            f"{len(data) - offset} trailing bytes after the last column"
        )
    return columns


def _read_sized(data: "bytes | memoryview", offset: int, what: str) -> tuple:
    offset = _check_room(data, offset, _U16.size, f"{what} length")
    (length,) = _U16.unpack_from(data, offset - _U16.size)
    offset = _check_room(data, offset, length, what)
    return bytes(data[offset - length : offset]), offset


def _check_room(
    data: "bytes | memoryview", offset: int, need: int, what: str
) -> int:
    if offset + need > len(data):
        raise ColumnCodecError(
            f"truncated buffer: expected {need} more bytes for {what} at "
            f"offset {offset}, only {len(data) - offset} remain"
        )
    return offset + need


__all__ = ["ColumnCodecError", "pack_columns", "unpack_columns"]
