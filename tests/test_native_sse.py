"""The compiled ``SSE_max`` fold against its Python oracle.

Every error budget reads one ``SSE_max`` (Definition 7), the
``KERNEL.sse_fold`` fold: :func:`repro.core.errors.max_error` makes one
call over the whole input, and :class:`repro.core.greedy.OnlineReducer`
one call per chunk.  :func:`oracles.sse_fold` is the Python loop it was
written from.  The properties draw streams
with gaps and group changes (also at chunk boundaries), weights,
``p`` in {1, 2, 5}, offsets of ±1e6 and magnitudes up to 1e150, cut into
random chunks, and require the same bits (``float.hex``) from the kernels,
from the reducer's error budget on both backends and through ``compress``,
and from clones and snapshots.  The rest covers interval lengths past
``2**63 - 1`` chronons, endpoints outside ``int64`` and the buffer checks.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro import compress
from repro.api import Compressor, ExecutionPolicy
from repro.core import AggregateSegment, OnlineReducer, native
from repro.core import dp
from repro.core.errors import error_budget, max_error
from repro.core.greedy import _MaxErrorTracker, gms_reduce_to_error
from repro.core.kernels import encode_segments, interval_lengths
from repro.core.merge import maximal_runs
from repro.temporal import Interval

EPSILON = 0.3


@st.composite
def streams(draw):
    """``(segments, weights, cuts)``: a stream and where to cut it into
    chunks (every row, at random, or not at all)."""
    count = draw(st.integers(min_value=1, max_value=80))
    width = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    magnitude = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e150]))
    gap_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    group_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    long_intervals = draw(st.booleans())
    chunking = draw(st.sampled_from(["rows", "random", "whole"]))
    if chunking == "rows":
        cuts = list(range(1, count))
    elif chunking == "random":
        cuts = sorted(set(rng.integers(1, count, rng.integers(0, 8)).tolist())
                      if count > 1 else [])
    else:
        cuts = []
    # Group changes at random rows, and at some chunk boundaries.
    change = rng.random(count) < group_rate
    for cut in cuts:
        change[cut] |= rng.random() < 0.3
    change[0] = False
    group_ids = np.cumsum(change) % 3  # a group may come back later
    high = 2**40 if long_intervals else 4
    lengths = rng.integers(1, high, count)
    gaps = np.where(rng.random(count) < gap_rate, rng.integers(1, 5, count), 0)
    starts = np.cumsum(lengths + gaps) - lengths
    values = offset + magnitude * rng.normal(size=(count, width))
    segments = [
        AggregateSegment((f"g{group}",), tuple(row),
                         Interval(start, start + length - 1))
        for group, row, start, length in zip(
            group_ids.tolist(), values.tolist(), starts.tolist(),
            lengths.tolist(),
        )
    ]
    weights = (
        tuple(rng.uniform(0.25, 4.0, width).tolist())
        if draw(st.booleans()) else None
    )
    return segments, weights, cuts


def chunks(segments, cuts):
    bounds = [0, *cuts, len(segments)]
    return [segments[a:b] for a, b in zip(bounds, bounds[1:])]


def hexes(*numbers):
    return tuple(float(number).hex() for number in numbers)


def fold(segments, weights, cuts):
    tracker = _MaxErrorTracker(weights)
    for chunk in chunks(segments, cuts):
        tracker.fold(encode_segments(chunk))
    return tracker


def budget(segments, weights):
    """The error budget the oracle's fold gives the stream."""
    total, _, _ = oracles.sse_fold(segments, weights)
    return error_budget(EPSILON, total).hex()


# ----------------------------------------------------------------------
# Parity of the fold
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(streams())
def test_fold_is_the_oracles_fold(drawn):
    """Total, carried run length and carried row, bit for bit, for every
    chunking of the stream."""
    segments, weights, cuts = drawn
    tracker = fold(segments, weights, cuts)
    total, length, row = oracles.sse_fold(segments, weights)
    assert hexes(tracker.total(), tracker._length, *tracker._row) == hexes(
        total, length, *row
    )


@settings(max_examples=300, deadline=None)
@given(streams())
def test_max_error_is_every_chunkings_fold(drawn):
    """``max_error`` folds the whole input in one call; the tracker's
    total over the drawn chunks has the same bits."""
    segments, weights, cuts = drawn
    assert hexes(max_error(segments, weights)) == hexes(
        oracles.sse_fold(segments, weights)[0],
    ) == hexes(fold(segments, weights, cuts).total())


def test_the_draws_reach_what_they_should():
    """The drawn streams hold gaps, group changes at chunk boundaries,
    runs across many chunks and non-finite totals."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(streams())
    def collect(drawn):
        segments, weights, cuts = drawn
        pieces = chunks(segments, cuts)
        for left, right in zip(pieces, pieces[1:]):
            if left[-1].group != right[0].group:
                seen.add("group change at a cut")
        runs = [len(run) for run in maximal_runs(segments)]
        if len(runs) > 1:
            seen.add("several runs")
        if len(cuts) > 3 and max(runs) > len(segments) // 2:
            seen.add("a run across many chunks")
        total = oracles.sse_fold(segments, weights)[0]
        seen.add("finite" if np.isfinite(total) else "not finite")

    collect()
    assert seen == {
        "group change at a cut", "several runs", "a run across many chunks",
        "finite", "not finite",
    }


# ----------------------------------------------------------------------
# The reducer's budget on every path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["python", "numpy"])
@settings(max_examples=60, deadline=None)
@given(drawn=streams())
def test_budget_after_push_and_push_chunk(backend, drawn):
    segments, weights, cuts = drawn
    one_by_one = OnlineReducer(max_error=EPSILON, weights=weights,
                               backend=backend)
    chunked = OnlineReducer(max_error=EPSILON, weights=weights,
                            backend=backend)
    with np.errstate(all="ignore"):  # merge keys of 1e150 overflow
        for segment in segments:
            one_by_one.push(segment)
        for chunk in chunks(segments, cuts):
            chunked.push_chunk(chunk)
    expected = budget(segments, weights)
    assert one_by_one._budget().hex() == expected
    assert chunked._budget().hex() == expected


@pytest.mark.parametrize("backend", ["python", "numpy"])
@settings(max_examples=40, deadline=None)
@given(drawn=streams())
def test_budget_through_compress(backend, drawn):
    segments, weights, _ = drawn
    budgets = []
    original = OnlineReducer._budget

    def recorded(self):
        budgets.append(original(self))
        return budgets[-1]

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(OnlineReducer, "_budget", recorded)
        with np.errstate(all="ignore"):  # 1e150 over long intervals
            compress(segments, max_error=EPSILON, weights=weights,
                     backend=backend)
    assert [b.hex() for b in budgets] == [budget(segments, weights)]


@pytest.mark.parametrize("backend", ["python", "numpy"])
@settings(max_examples=40, deadline=None)
@given(drawn=streams())
def test_budget_after_clone_and_snapshot(backend, drawn):
    """A clone and a snapshot carry the fold on: neither shares the
    carried row with the reducer it came from."""
    segments, weights, cuts = drawn
    middle = len(segments) // 2
    reducer = OnlineReducer(max_error=EPSILON, weights=weights,
                            backend=backend, track_deltas=True)
    with np.errstate(all="ignore"):  # merge keys of 1e150 overflow
        for chunk in chunks(segments[:middle],
                            [c for c in cuts if c < middle]):
            reducer.push_chunk(chunk)
        twin = reducer.clone()
        if middle:  # an empty weighted reducer's snapshot raises
            reducer.snapshot()
        for chunk in chunks(segments[middle:],
                            [c - middle for c in cuts if c > middle]):
            reducer.push_chunk(chunk)
        assert twin._budget().hex() == budget(segments[:middle], weights)
        twin.extend(segments[middle:])
    assert reducer._budget().hex() == budget(segments, weights)
    assert twin._budget().hex() == budget(segments, weights)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("dtype", [np.float64, np.uint64, object])
def test_a_refused_chunk_leaves_the_budget(backend, dtype):
    """Endpoints that do not cast safely to int64 raise TypeError before
    the fold, as staging does; the budget then counts only the chunks the
    session took."""
    run = [AggregateSegment(("g",), (float(t * t), 1.0 - t), Interval(t, t))
           for t in range(6)]
    session = Compressor(max_error=EPSILON,
                         policy=ExecutionPolicy(backend=backend))
    session.push(run[:3])
    refused = encode_segments(run[3:])
    refused.starts = refused.starts.astype(dtype)
    refused.ends = refused.ends.astype(dtype)
    with pytest.raises(TypeError):
        session.push(refused)
    assert session._reducer._budget().hex() == budget(run[:3], None)
    session.push(encode_segments(run[3:]))
    assert session._reducer._budget().hex() == budget(run, None)


def test_fold_one_is_fold_of_one_row():
    """The single-tuple push's one-row block, built without encoding,
    folds as the encoded row does."""
    segments = [
        AggregateSegment(("a",), (1.5, -2.0), Interval(0, 3)),
        AggregateSegment(("a",), (2.5, 7.0), Interval(4, 4)),
        AggregateSegment(("b",), (0.5, 1.0), Interval(5, 9)),
        AggregateSegment(("b",), (9.5, 3.0), Interval(11, 12)),
        AggregateSegment(("b",), (-4.0, 3.0), Interval(13, 2**62)),
    ]
    by_rows, by_one = _MaxErrorTracker((2.0, 0.5)), _MaxErrorTracker((2.0, 0.5))
    for segment in segments:
        by_rows.fold(encode_segments([segment]))
        by_one.fold_one(segment)
    assert hexes(by_one.total(), by_one._length, *by_one._row) == hexes(
        by_rows.total(), by_rows._length, *by_rows._row
    )
    with pytest.raises(OverflowError):
        by_one.fold_one(AggregateSegment(("b",), (0.0, 0.0),
                                         Interval(2**62 + 1, 2**63)))
    assert hexes(by_one.total(), by_one._length) == hexes(
        by_rows.total(), by_rows._length
    )


def test_copy_does_not_share_the_carried_row():
    run = [AggregateSegment((), (float(t), 1.0), Interval(t, t))
           for t in range(4)]
    tracker = fold(run[:2], None, [])
    twin = copy.copy(tracker)
    tracker.fold(encode_segments(run[2:]))
    assert hexes(twin.total(), *twin._row) == hexes(
        oracles.sse_fold(run[:2])[0], *oracles.sse_fold(run[:2])[2]
    )


# ----------------------------------------------------------------------
# Interval lengths past 2**63 - 1 chronons and endpoints past int64
# ----------------------------------------------------------------------
EXTREMES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**53, 2**53 + 1,
            2**62 + 7, 2**63 - 2, 2**63 - 1]


def test_interval_lengths_are_pythons():
    rng = np.random.default_rng(7)
    pairs = [(a, b) for a in EXTREMES for b in EXTREMES]  # reversed too
    drawn = rng.integers(-(2**63), 2**63 - 1, (500, 2),
                         dtype=np.int64).tolist()
    starts, ends = zip(*(pairs + [tuple(pair) for pair in drawn]))
    lengths = interval_lengths(np.array(starts), np.array(ends))
    assert lengths.tobytes() == np.array(
        [float(end - start + 1) for start, end in zip(starts, ends)]
    ).tobytes()


def test_kernels_take_lengths_past_int64():
    """Runs longer than 2**63 - 1 chronons, up to the full int64 span."""
    halves = [
        AggregateSegment((), (1.0, 5.0), Interval(-(2**63), 0)),
        AggregateSegment((), (2.0, -1.0), Interval(1, 2**63 - 1)),
    ]
    whole = [AggregateSegment((), (3.0, 4.0), Interval(-(2**63), 2**63 - 1))]
    for segments in (halves, whole, halves[:1], halves[1:]):
        assert hexes(max_error(segments)) == hexes(
            oracles.sse_fold(segments)[0]
        )
        for cuts in ([], [1]):
            tracker = fold(segments, (2.0, 0.5), cuts[: len(segments) - 1])
            total, length, row = oracles.sse_fold(segments, (2.0, 0.5))
            assert hexes(tracker.total(), tracker._length, *tracker._row) == (
                hexes(total, length, *row)
            )
    assert max_error(halves) > 0.0


def test_intervals_longer_than_int64_merge_alike():
    """A pair of intervals of 2**63 + 1 and 2**63 - 1 chronons merges to
    one tuple with the same error bits on the python backend, the numpy
    online path and the sharded engine.  Lengths taken in int64 wrapped
    to a sum of 0: the numpy backend kept both tuples against ``size=1``
    and ``workers=2`` divided by zero."""
    segments = [
        AggregateSegment((), (1.0,), Interval(-(2**63), 0)),
        AggregateSegment((), (2.0,), Interval(1, 2**63 - 1)),
    ]
    for engine in ({"backend": "python"}, {"backend": "numpy"},
                   {"workers": 2}):
        result = compress(segments, size=1, **engine)
        assert [(s.values, s.interval) for s in result.segments] == [
            ((1.5,), Interval(-(2**63), 2**63 - 1))
        ], engine
        assert result.error.hex() == (2.0**62).hex(), engine


def test_endpoints_outside_int64_raise_overflow_error():
    """max_error encodes its input to int64 columns, as every column path
    does, so the python backend's error-bounded engines refuse such an
    endpoint too."""
    segments = [
        AggregateSegment((), (1.0,), Interval(0, 2**63 - 1)),
        AggregateSegment((), (2.0,), Interval(2**63, 2**63)),
    ]
    with pytest.raises(OverflowError):
        max_error(segments)
    with pytest.raises(OverflowError):
        gms_reduce_to_error(segments, 0.5, backend="python")
    with pytest.raises(OverflowError):
        dp.reduce_to_error(segments, 0.5, backend="python")


# ----------------------------------------------------------------------
# Buffer checks
# ----------------------------------------------------------------------
def columns(count=3, width=2):
    starts = np.arange(count, dtype=np.int64)
    return [starts, starts.copy(), np.zeros(count, np.int64),
            np.ones((count, width)), np.ones(width)]


def fold_call(*buffers, row=None):
    row = np.zeros(2) if row is None else row
    return native.KERNEL.sse_fold(*buffers, False, 0.0, row, 0.0)


@pytest.mark.parametrize("position, bad, error", [
    (0, np.arange(3, dtype=np.int32), TypeError),
    (1, np.arange(3, dtype=np.float64), TypeError),
    (2, np.zeros(2, np.int64), ValueError),
    (3, np.ones((3, 3)), ValueError),
    (3, np.ones((3, 2), np.float32), TypeError),
    (3, np.ones((2, 3)).T, ValueError),  # not C-contiguous
    (4, [1.0, 1.0], TypeError),
    (1, np.array([0, 0, 2]), ValueError),  # row 1 ends before it starts
])
def test_buffer_checks(position, bad, error):
    buffers = columns()
    buffers[position] = bad
    with pytest.raises(error):
        fold_call(*buffers)


def test_fold_checks_the_carried_row():
    with pytest.raises(ValueError):
        fold_call(*columns(), row=np.zeros(3))
    read_only = np.zeros(2)
    read_only.flags.writeable = False
    with pytest.raises((BufferError, ValueError)):
        fold_call(*columns(), row=read_only)


def test_empty_columns():
    empty = columns(count=0)
    row = np.full(2, 7.0)
    assert fold_call(*empty, row=row) == (0.0, 0.0)
    assert row.tolist() == [7.0, 7.0]
    assert max_error([]) == 0.0
