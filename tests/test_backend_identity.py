"""The python and numpy greedy backends agree bit for bit.

Both heaps, the fused activation loop and the snapshot tail evaluate the
merge operator through the same two helpers (``errors.merge_key`` and
``merge.merged_row``), so a greedy reduction must come out ``==`` on both
backends: same intervals, groups and values, same accumulated error.  The
inputs are drawn to hit the places where separately written arithmetic
used to disagree:

* several aggregate dimensions with weights (the order of the per-dimension
  sum and of ``w²``);
* small integer values (exact key ties, decided by the queue counters);
* interval lengths around 10⁸–10⁹, so that ``l·r`` exceeds ``2⁵³`` and
  integer and float lengths round differently.

The same holds for every :meth:`Compressor.summary` along a chunked push,
which runs the delta-snapshot tail on the numpy side, and across the numpy
heap's slot compaction on a long tie-heavy stream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Interval, compress
from repro.api import Compressor, ExecutionPolicy
from repro.core import AggregateSegment

BACKENDS = ("python", "numpy")


@st.composite
def scenarios(draw):
    """A segment stream, its weights and a chunking of it.

    Hypothesis picks the shape and a seed; NumPy fills the columns.
    """
    count = draw(st.integers(min_value=1, max_value=40))
    dimensions = draw(st.sampled_from([1, 2, 3]))
    weighted = draw(st.booleans())
    integer_valued = draw(st.booleans())
    long_intervals = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if long_intervals:
        lengths = rng.integers(10**8, 10**9, count)
    else:
        lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < 0.1, 1, 0)
    starts = np.cumsum(lengths + gaps) - lengths
    groups = np.sort(rng.integers(0, 2, count))
    if integer_valued:
        values = rng.integers(0, 4, (count, dimensions)).astype(float)
    else:
        values = rng.normal(0.0, 10.0, (count, dimensions))
    segments = [
        AggregateSegment(
            (int(group),),
            tuple(row),
            Interval(int(start), int(start + length - 1)),
        )
        for group, row, start, length in zip(
            groups.tolist(), values.tolist(), starts.tolist(), lengths.tolist()
        )
    ]
    weights = (
        tuple(rng.uniform(0.25, 4.0, dimensions).tolist()) if weighted else None
    )
    cuts = sorted(
        draw(st.lists(st.integers(1, count), max_size=4, unique=True))
    )
    chunks = [
        segments[low:high]
        for low, high in zip([0] + cuts, cuts + [count])
        if low < high
    ]
    size = draw(st.integers(min_value=1, max_value=count))
    max_error = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    return segments, weights, chunks, size, max_error


def bounds(size, max_error):
    return ({"size": size}, {"max_error": max_error})


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_greedy_compress_is_identical_on_both_backends(scenario):
    segments, weights, _, size, max_error = scenario
    for bound in bounds(size, max_error):
        python, numpy = (
            compress(segments, backend=backend, weights=weights, **bound)
            for backend in BACKENDS
        )
        assert numpy.segments == python.segments
        assert numpy.error == python.error


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_compressor_summaries_are_identical_on_both_backends(scenario):
    segments, weights, chunks, size, max_error = scenario
    for bound in bounds(size, max_error):
        python, numpy = (
            Compressor(
                **bound,
                policy=ExecutionPolicy(backend=backend, weights=weights),
            )
            for backend in BACKENDS
        )
        for chunk in chunks:
            python.push(chunk)
            numpy.push(chunk)
            left, right = python.summary(), numpy.summary()
            assert right.segments == left.segments
            assert right.error == left.error


def test_equal_keys_keep_their_order_across_heap_compaction():
    """A long two-level stream: the numpy heap compacts its slots many
    times while exact key ties are everywhere.  Compaction keeps every
    queue entry's counter, so ties still pop in the python heap's order."""
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2, 2500).astype(float)
    lengths = rng.integers(1, 3, 2500)
    starts = np.cumsum(lengths) - lengths
    segments = [
        AggregateSegment((), (value,), Interval(start, start + length - 1))
        for value, start, length in zip(
            values.tolist(), starts.tolist(), lengths.tolist()
        )
    ]
    python, numpy = (
        compress(segments, size=300, delta=1, backend=backend)
        for backend in BACKENDS
    )
    assert numpy.segments == python.segments
    assert numpy.error == python.error
