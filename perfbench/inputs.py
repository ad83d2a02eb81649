"""Seeded inputs: per-key value streams and pre-encoded push bodies.

Every key carries adjacent unit segments ``[t, t]`` with two aggregate
values.  A stream is a sequence of regimes (a new level with probability
1/200 per tuple) plus noise:

* float keys: levels ±U(8, 12), noise ~ N(0, 1);
* integer keys (named ``i…``): levels 0–9 (each equally often), noise
  ±1 on 30% of the tuples, clipped to 0–9 — the exact merge-key ties of
  integer data.

With fewer regimes than the summary budget, a size-1000 summary keeps
the regime boundaries, and with level spreads that vary little between
seeds the relative reduction error stays steady across seeds and as a
key grows.  The same ``(seed, key)`` always gives the same stream.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

from repro.core.merge import AggregateSegment
from repro.parallel import EncodedSegments
from repro.service.wire import decode_segments, encode_segments, segment_from_obj
from repro.temporal import Interval

WIRE = "application/x-pta-wire"
JSON = "application/json"


BLOCK = 1 << 16


def stream(seed: int, stream_id: int, length: int, integer: bool) -> np.ndarray:
    """``length`` × 2 float64 values of one key's stream.

    Generated in fixed blocks, so a prefix never depends on ``length``.
    """
    blocks = [
        _block(seed, stream_id, index, integer)
        for index in range(-(-length // BLOCK))
    ]
    if not blocks:
        return np.zeros((0, 2))
    return np.concatenate(blocks)[:length]


def _block(seed: int, stream_id: int, index: int, integer: bool) -> np.ndarray:
    length = BLOCK
    rng = np.random.default_rng([seed, stream_id, index])
    change = rng.random(length) < 1 / 200
    change[0] = True
    regime = np.cumsum(change) - 1
    regimes = int(regime[-1]) + 1
    if integer:
        # Every level 0–9 equally often, in random order.
        levels = np.stack(
            [rng.permutation(np.arange(regimes) % 10) for _ in range(2)], 1
        )
        noise = rng.integers(-1, 2, size=(length, 2)) * (
            rng.random((length, 2)) < 0.3
        )
        return np.clip(levels[regime] + noise, 0, 9).astype(np.float64)
    levels = rng.choice([-1.0, 1.0], size=(regimes, 2)) * rng.uniform(
        8.0, 12.0, size=(regimes, 2)
    )
    return levels[regime] + rng.normal(0.0, 1.0, size=(length, 2))


def wire_body(start: int, values: np.ndarray) -> bytes:
    """PTAS bytes of adjacent unit segments from chronon ``start``."""
    count = len(values)
    starts = np.arange(start, start + count, dtype=np.int64)
    return encode_segments(
        EncodedSegments(
            starts,
            starts.copy(),
            np.ascontiguousarray(values, dtype=np.float64),
            np.zeros(count, dtype=np.int64),
            [()],
        )
    )


def json_body(start: int, values: np.ndarray) -> bytes:
    """The same chunk as a JSON array of segment objects."""
    return json.dumps(
        [
            {"start": t, "end": t, "values": pair}
            for t, pair in enumerate(values.tolist(), start=start)
        ]
    ).encode("utf-8")


def body(start: int, values: np.ndarray, ctype: str) -> bytes:
    return wire_body(start, values) if ctype == WIRE else json_body(start, values)


def decode(data: bytes, ctype: str) -> List[AggregateSegment]:
    """A push body back into segments, as the server decodes it."""
    if ctype == WIRE:
        return decode_segments(data)
    return [segment_from_obj(obj) for obj in json.loads(data)]


def segments(start: int, values: np.ndarray) -> List[AggregateSegment]:
    return [
        AggregateSegment((), (a, b), Interval(t, t))
        for t, (a, b) in enumerate(values.tolist(), start=start)
    ]


def total_sum_of_squares(values: np.ndarray) -> float:
    """Σ over dimensions of Σ (v − mean)², unit-length tuples."""
    if not len(values):
        return 0.0
    return float(((values - values.mean(axis=0)) ** 2).sum())
