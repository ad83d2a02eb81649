"""Binary wire format for segment streams and result payloads.

The serving layer needs summaries to *leave the process* — to be persisted,
shipped to a cache, or exchanged between hosts of a future distributed
reduction.  This module gives :class:`~repro.core.merge.AggregateSegment`
streams and :class:`~repro.api.result.Result` payloads a compact, versioned
binary representation:

* the column layout is exactly the flat-array encoding the sharded engine
  already uses internally (:class:`repro.core.kernels.EncodedSegments` —
  ``int64`` interval endpoints, a ``float64`` value matrix, dense interned
  group ids), so a wire payload *is* a valid unit of work for the shard
  planner, byte-layout included;
* the byte-level container is the versioned column codec of
  :mod:`repro.storage.columns`; a 4-byte magic tag distinguishes segment
  payloads (``PTAS``) from result payloads (``PTAR``) and a ``uint16``
  version gate rejects cross-version buffers loudly;
* group-key tuples and result metadata travel as UTF-8 JSON side columns —
  group values must be JSON scalars (``str`` / ``int`` / ``float`` /
  ``bool`` / ``None``), which covers every grouping attribute the temporal
  relations produce;
* aggregate values must be finite: NaN and ±inf have no length-weighted
  mean semantics under the merge operator, so :func:`encode_segments`
  rejects them with :class:`WireError` instead of letting them poison a
  remote heap.

Decoding is the write path's one bytes-to-columns conversion:
:func:`decode_segments` returns validated :class:`EncodedSegments`
columns, which read as a segment sequence with exact dtypes and float
bits, so ``decode_segments(encode_segments(s)) == s`` holds with exact
equality.  JSON bodies (:func:`segments_from_objs`) and the JSON-lines
debug encoding (:func:`segments_to_jsonl` / :func:`segments_from_jsonl`,
float-exact through the ``repr`` roundtrip) parse into the same columns.
A result's column image (:func:`result_columns`) has one check too,
:func:`checked_image`, whether it comes as ``PTAR`` bytes or from a
``PTAC`` checkpoint.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Tuple, Union

import numpy as np

from ..core.merge import AggregateSegment
from ..core.kernels import EncodedSegments, require_finite
from ..core.kernels import encode_segments as _to_columns
from ..storage.columns import ColumnCodecError, pack_columns, unpack_columns

#: Magic tags of the two payload kinds.
SEGMENTS_MAGIC = b"PTAS"
RESULT_MAGIC = b"PTAR"

#: Version of the wire format this module reads and writes.  Bump on any
#: layout change; readers reject every other version.
WIRE_VERSION = 1

_SEGMENT_COLUMNS = ("starts", "ends", "values", "groups", "group_keys")

#: The numeric column dtypes (``docs/FORMATS.md`` § 2): little-endian.
_INT64 = np.dtype("<i8")
_FLOAT64 = np.dtype("<f8")


#: A result's column image (:func:`result_columns`): the ``PTAS`` columns
#: plus ``meta``.  A frozen epoch is held as one from freeze to standby.
Image = Mapping[str, np.ndarray]


class WireError(ValueError):
    """A payload that cannot be wire-encoded, or malformed wire bytes."""


# ----------------------------------------------------------------------
# Segment streams
# ----------------------------------------------------------------------
def encode_segments(segments: Iterable[AggregateSegment]) -> bytes:
    """Encode a segment stream (columns are packed as they are)."""
    return pack_columns(
        _segment_image(segments), SEGMENTS_MAGIC, WIRE_VERSION
    )


def _segment_image(
    segments: Iterable[AggregateSegment],
) -> Dict[str, np.ndarray]:
    """The five ``PTAS`` columns of a segment stream, finite values only."""
    encoded = _to_columns(segments)
    require_finite(encoded.values, WireError)
    return {
        "starts": np.asarray(encoded.starts, dtype=np.int64),
        "ends": np.asarray(encoded.ends, dtype=np.int64),
        "values": np.asarray(encoded.values, dtype=np.float64),
        "groups": np.asarray(encoded.groups, dtype=np.int64),
        "group_keys": _group_key_column(encoded.group_keys),
    }


def checked_segments(
    segments: Union[AggregateSegment, Iterable[AggregateSegment]],
) -> EncodedSegments:
    """A push chunk as validated columns, whatever form it arrived in.

    Columns pass through: they come from a decoder, which has already
    checked them.  Segment objects are encoded once and get the checks of
    a decoded payload, group keys the wire cannot encode (a ``date``, a
    NaN) among them, so every push path, on every store, rejects the same
    inputs with the same :class:`WireError` before any state exists.
    """
    if isinstance(segments, EncodedSegments):
        return segments
    if isinstance(segments, AggregateSegment):
        segments = [segments]
    try:
        encoded = _to_columns(segments)
    except TypeError as error:
        raise WireError(f"segment groups must be hashable: {error}") from error
    _group_key_column(encoded.group_keys)  # what the encoders refuse
    return _validated(encoded)


def decode_segments(data: bytes, copy: bool = True) -> EncodedSegments:
    """Decode wire bytes into validated :class:`EncodedSegments` columns.

    The columns are what the merge heap stages and :mod:`repro.parallel`
    shards, so a payload enters either engine without segment objects.
    With ``copy=False`` the numeric columns are zero-copy **views** over
    ``data`` (``np.frombuffer``), read-only when the buffer is; every
    consumer treats its inputs as immutable.
    """
    return segments_from_columns(_unpack(data, SEGMENTS_MAGIC, copy=copy))


def segments_from_columns(
    columns: Mapping[str, np.ndarray],
) -> EncodedSegments:
    """Validate unpacked segment columns and assemble the flat encoding.

    The one way raw columns become :class:`EncodedSegments`: shared by
    :func:`decode_segments` and :func:`checked_image` (``PTAR`` payloads
    and ``PTAC`` checkpoints).  Every
    malformed shape, dtype or row surfaces as :class:`WireError` (never
    a raw TypeError or IndexError from downstream array arithmetic on
    untrusted bytes).
    """
    missing = [name for name in _SEGMENT_COLUMNS if name not in columns]
    if missing:
        raise WireError(f"segment payload is missing columns {missing}")
    for name, dtype, ndim in (
        ("starts", _INT64, 1), ("ends", _INT64, 1), ("groups", _INT64, 1),
        ("values", _FLOAT64, 2),
    ):
        column = columns[name]
        if column.ndim != ndim or column.dtype != dtype:
            raise WireError(
                f"{name} column must be a {ndim}-dimensional little-endian "
                f"{dtype.name} array, got {column.dtype.str} with shape "
                f"{column.shape}"
            )
    group_keys = _json_value(columns["group_keys"], "group_keys")
    if not isinstance(group_keys, list) or not all(
        isinstance(key, list) for key in group_keys
    ):
        raise WireError(
            "group_keys column must decode to a JSON array of arrays"
        )
    _require_scalar_groups(group_keys)
    return _validated(
        EncodedSegments(
            columns["starts"], columns["ends"], columns["values"],
            columns["groups"], [tuple(key) for key in group_keys],
        )
    )


def _validated(encoded: EncodedSegments) -> EncodedSegments:
    """The row checks every push path shares: finite values, ``end >=
    start``, row counts that agree and group ids inside the key table."""
    starts, ends, groups = encoded.starts, encoded.ends, encoded.groups
    if encoded.values.ndim != 2:
        raise WireError("segment values must be arrays of numbers")
    require_finite(encoded.values, WireError)
    count = len(starts)
    if not (len(ends) == len(groups) == len(encoded.values) == count):
        raise WireError(
            "segment payload columns disagree on the number of rows"
        )
    if count:
        reversed_rows = np.flatnonzero(ends < starts)
        if reversed_rows.size:
            row = int(reversed_rows[0])
            raise WireError(
                f"segment {row} ends before it starts "
                f"([{starts[row]}, {ends[row]}])"
            )
        lo, hi = int(groups.min()), int(groups.max())
        if lo < 0 or hi >= len(encoded.group_keys):
            raise WireError(
                f"group id {hi if hi >= len(encoded.group_keys) else lo} "
                f"outside the {len(encoded.group_keys)} interned group keys"
            )
    return encoded


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------
#: The ``meta`` fields of a result image in the encoder's order, each with
#: the one JSON type it decodes to.
_META_FIELDS = (
    ("error", float), ("size", int), ("input_size", int), ("method", str),
    ("backend", str), ("max_heap_size", int), ("merges", int),
    ("group_columns", list), ("value_columns", list),
    ("timestamp_name", str),
)


def encode_result(result: Any) -> bytes:
    """Encode a :class:`repro.api.Result` (summary + stats) into wire bytes."""
    return encode_image(result_columns(result))


def encode_image(image: Image) -> bytes:
    """Pack a result's column image as ``PTAR`` bytes."""
    return pack_columns(image, RESULT_MAGIC, WIRE_VERSION)


def result_columns(result: Any) -> Dict[str, np.ndarray]:
    """The column image of a :class:`~repro.api.result.Result`.

    The segment columns of :func:`encode_segments` plus a JSON ``meta``
    side column carrying the reduction statistics — the payload both the
    ``PTAR`` wire format and the durability tier's ``PTAC`` checkpoint
    files (:mod:`repro.storage.wal`) pack; they differ only in magic tag.
    """
    meta = {
        name: list(getattr(result, name)) if kind is list
        else getattr(result, name)
        for name, kind in _META_FIELDS
    }
    return {
        **_segment_image(result.segments),
        "meta": _json_column(meta, "result metadata"),
    }


def decode_result(data: bytes) -> Any:
    """Decode wire bytes produced by :func:`encode_result`."""
    return result_from_columns(_unpack(data, RESULT_MAGIC))


def decode_image(data: bytes) -> Dict[str, np.ndarray]:
    """Unpack ``PTAR`` bytes into a validated column image (no segment
    objects): what a standby installs from a catch-up ``FROZEN`` frame."""
    image = _unpack(data, RESULT_MAGIC)
    checked_image(image)
    return image


def checked_image(columns: Image) -> Tuple[EncodedSegments, Dict[str, Any]]:
    """Validate a result's column image; return its segments and ``meta``.

    The one check of a frozen epoch's image, wherever it comes from: a
    ``PTAR`` payload, a ``PTAC`` checkpoint or a freeze
    (:class:`repro.service.durability.FrozenEpoch`).  It accepts exactly
    what :func:`result_columns` writes: the segment columns of
    :func:`segments_from_columns`; a zero-row value matrix of shape
    ``(0, 0)`` (a result's segments are a list); group ids interned in
    order of first appearance, each group key once; and a ``meta`` object
    of exactly the encoder's fields, in its order, with its JSON types.
    """
    if "meta" not in columns:
        raise WireError("result payload is missing the meta column")
    meta = _json_value(columns["meta"], "meta")
    if not isinstance(meta, dict):
        raise WireError("meta column must decode to a JSON object")
    names = [name for name, _ in _META_FIELDS]
    if list(meta) != names:
        raise WireError(
            f"malformed result metadata: fields {list(meta)}, the encoder "
            f"writes {names}"
        )
    for name, kind in _META_FIELDS:
        if type(meta[name]) is not kind:
            raise WireError(
                f"malformed result metadata: {name} is a JSON "
                f"{type(meta[name]).__name__}, the encoder writes a "
                f"{kind.__name__}"
            )
    segments = segments_from_columns(columns)
    if not len(segments) and segments.values.shape != (0, 0):
        raise WireError(
            f"a zero-row result payload carries values of shape "
            f"{segments.values.shape}; the encoder writes (0, 0)"
        )
    groups, keys = segments.groups, segments.group_keys
    if len(groups):
        # Interned in order of first appearance: each id is at most one
        # above every id before it, and the ids cover every key.
        seen = np.maximum.accumulate(groups)
        interned = (
            groups[0] == 0
            and bool((groups[1:] <= seen[:-1] + 1).all())
            and int(seen[-1]) + 1 == len(keys)
        )
    else:
        interned = not keys
    if not interned or len(set(keys)) != len(keys):
        raise WireError(
            "result group ids must be interned in order of first "
            "appearance, each group key once"
        )
    return segments, meta


def result_from_columns(columns: Image) -> Any:
    """Rebuild a :class:`~repro.api.result.Result` from its column image."""
    from ..api.result import Result

    segments, meta = checked_image(columns)
    return Result(
        segments=list(segments),
        **{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in meta.items()
        },
    )


# ----------------------------------------------------------------------
# JSON-lines debug encoding
# ----------------------------------------------------------------------
def segment_to_obj(segment: AggregateSegment) -> Dict[str, Any]:
    """One segment as a plain JSON-ready mapping (the debug/HTTP shape)."""
    return {
        "group": list(segment.group),
        "values": list(segment.values),
        "start": segment.interval.start,
        "end": segment.interval.end,
    }


def segment_from_obj(obj: Mapping[str, Any]) -> AggregateSegment:
    """Rebuild a segment from the mapping shape of :func:`segment_to_obj`."""
    return segments_from_objs([obj])[0]


def segments_from_objs(objs: Iterable[Any]) -> EncodedSegments:
    """Parse segment objects (the :func:`segment_to_obj` shape) into columns.

    The JSON push body's one conversion: the fields go straight into flat
    arrays and through the checks of a decoded wire payload, with no
    segment object per tuple.
    """
    starts: List[Any] = []
    ends: List[Any] = []
    rows: List[Any] = []
    groups: List[int] = []
    group_ids: Dict[tuple, int] = {}
    obj: Any = None
    try:
        for obj in objs:
            starts.append(obj["start"])
            ends.append(obj["end"])
            rows.append(obj["values"])
            group = tuple(obj.get("group", ()))
            groups.append(group_ids.setdefault(group, len(group_ids)))
    except (AttributeError, KeyError, TypeError) as error:
        raise WireError(
            f"malformed segment object {obj!r}: {error}"
        ) from error
    try:
        values = np.array(rows, np.float64) if rows else np.zeros((0, 0))
    except (TypeError, ValueError) as error:
        raise WireError(
            f"segment values must be equal-length arrays of numbers: {error}"
        ) from error
    _group_key_column(list(group_ids))  # a JSON ``NaN`` parses
    return _validated(
        EncodedSegments(
            _int_column(starts, "start"), _int_column(ends, "end"), values,
            np.asarray(groups, dtype=np.int64), list(group_ids),
        )
    )


def segments_to_jsonl(segments: Iterable[AggregateSegment]) -> str:
    """Encode a stream as JSON lines (one segment object per line)."""
    lines = []
    for segment in segments:
        try:
            lines.append(
                json.dumps(
                    segment_to_obj(segment),
                    allow_nan=False,
                    separators=(",", ":"),
                )
            )
        except ValueError as error:
            raise WireError(
                f"segment {segment} has a non-finite aggregate value "
                f"(NaN/inf cannot be wire-encoded)"
            ) from error
    return "\n".join(lines) + ("\n" if lines else "")


def segments_from_jsonl(text: str) -> EncodedSegments:
    """Decode the JSON-lines encoding of :func:`segments_to_jsonl`."""
    objs: List[Any] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            raise WireError(
                f"line {number} is not valid JSON: {error}"
            ) from error
        if not isinstance(obj, dict):
            raise WireError(f"line {number} must be a JSON object")
        objs.append(obj)
    return segments_from_objs(objs)


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
_SCALARS = (str, int, float, bool, type(None))


def _require_scalar_groups(group_keys: Iterable[Iterable[Any]]) -> None:
    """Group members must be JSON scalars, so a key decodes hashable."""
    for key in group_keys:
        if not all(isinstance(member, _SCALARS) for member in key):
            raise WireError(
                f"group values must be JSON-encodable scalars "
                f"(str/int/float/bool/None), got {list(key)!r}"
            )


def _group_key_column(group_keys: List[tuple]) -> np.ndarray:
    _require_scalar_groups(group_keys)
    return _json_column([list(key) for key in group_keys], "group values")


def _json_column(payload: Any, what: str) -> np.ndarray:
    try:
        blob = json.dumps(payload, allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireError(
            f"{what} must be JSON-encodable scalars "
            f"(str/int/float/bool/None): {error}"
        ) from error
    return np.frombuffer(blob, dtype=np.uint8)


def _json_value(column: np.ndarray, what: str) -> Any:
    """Parse a JSON side column, accepting only the encoder's spelling."""
    if column.ndim != 1 or column.dtype != np.uint8:
        raise WireError(
            f"{what} column must be a 1-dimensional uint8 array, got "
            f"{column.dtype.str} with shape {column.shape}"
        )
    blob = column.tobytes()
    try:
        value = json.loads(blob)
        canonical = json.dumps(value, allow_nan=False).encode("utf-8")
    except ValueError as error:  # bad JSON or UTF-8, or NaN
        raise WireError(f"malformed JSON in {what} column: {error}") from error
    if canonical != blob:
        raise WireError(
            f"{what} column is not canonical JSON (the encoder would "
            f"write {canonical[:64]!r})"
        )
    return value


def _int_column(items: List[Any], what: str) -> np.ndarray:
    column = np.array(items) if items else np.zeros(0, dtype=np.int64)
    if column.dtype.kind != "i":
        raise WireError(f"segment {what} points must be integers")
    return column


def _unpack(
    data: bytes, magic: bytes, copy: bool = True
) -> Dict[str, np.ndarray]:
    try:
        return unpack_columns(data, magic, WIRE_VERSION, copy=copy)
    except ColumnCodecError as error:
        raise WireError(str(error)) from error


__all__ = [
    "RESULT_MAGIC",
    "SEGMENTS_MAGIC",
    "WIRE_VERSION",
    "Image",
    "WireError",
    "checked_image",
    "checked_segments",
    "decode_image",
    "decode_result",
    "decode_segments",
    "encode_image",
    "encode_result",
    "encode_segments",
    "result_columns",
    "result_from_columns",
    "segment_from_obj",
    "segment_to_obj",
    "segments_from_columns",
    "segments_from_objs",
    "segments_from_jsonl",
    "segments_to_jsonl",
]
