"""Parity tests: the NumPy kernel backend against the pure-Python reference.

The ``backend="numpy"`` code paths (:mod:`repro.core.kernels`) implement the
same recurrences with the same floating-point formulae and tie-breaking as
the loop-based reference, so DP and greedy reductions must come out
*identical* — same segments, same values and error bit for bit — on the
Fig. 1 running example and on randomized inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro.core import (
    DELTA_INFINITY,
    AggregateSegment,
    MergeHeap,
    NumpyMergeHeap,
    NumpyPrefixSums,
    gms_reduce_to_error,
    gms_reduce_to_size,
    greedy_reduce_to_error,
    greedy_reduce_to_size,
    make_merge_heap,
    max_error,
)
from repro.core.dp import optimal_error_curve, reduce_to_error, reduce_to_size
from repro.core.errors import PrefixSums
from repro.core.merge import cmin
from repro.pipeline import compress
from repro.temporal import Interval
from repro.core.kernels import adjacent_pair_mask, dp_first_row, encode_segments
from repro.datasets import (
    synthetic_grouped_segments,
    synthetic_sequential_segments,
)

def assert_same_reduction(reference, candidate):
    """Both reductions must agree exactly: structure, values and error."""
    assert len(reference.segments) == len(candidate.segments)
    for left, right in zip(reference.segments, candidate.segments):
        assert left.group == right.group
        assert left.interval == right.interval
        assert left.values == right.values
    assert candidate.error == reference.error
    assert reference.size == candidate.size


# ----------------------------------------------------------------------
# Prefix sums
# ----------------------------------------------------------------------
class TestNumpyPrefixSums:
    """Both prefix sums build their columns and evaluate Proposition 1 in
    the same operation order (``w·w``, then one dimension at a time from
    ``0.0``), so every float is ``==``, not approximately equal."""

    CASES = {
        "running example": lambda proj: (proj, None),
        "weighted": lambda proj: (proj, (2.5,)),
        "p = 5, weighted": lambda proj: (
            synthetic_grouped_segments(3, 12, dimensions=5, seed=31),
            (0.3, 1.7, 2.9, 0.77, 1.1),
        ),
        "p = 5, offset": lambda proj: (
            [
                AggregateSegment(
                    s.group, tuple(v + 1e6 for v in s.values), s.interval
                )
                for s in synthetic_grouped_segments(2, 15, 5, seed=32)
            ],
            None,
        ),
    }

    @pytest.fixture(params=sorted(CASES))
    def case(self, request, proj_segments):
        return self.CASES[request.param](proj_segments)

    def test_matches_python_prefix_sums(self, case):
        segments, weights = case
        python = PrefixSums(segments, weights)
        vectorized = NumpyPrefixSums(segments, weights)
        n = len(segments)
        for first in range(n):
            for last in range(first, n):
                assert vectorized.sse(first, last) == python.sse(first, last)
                assert vectorized.total_length(first, last) == (
                    python.total_length(first, last)
                )
                assert vectorized.merged_values(first, last) == (
                    python.merged_values(first, last)
                )

    def test_batched_run_errors_match_scalar(self, case):
        """The DP oracle's batched run errors (tests/oracles.py)."""
        segments, weights = case
        python = PrefixSums(segments, weights)
        vectorized = NumpyPrefixSums(segments, weights)
        for i in range(1, len(segments) + 1):
            batch = oracles.sse_run_batch(vectorized, 0, i)
            assert len(batch) == i
            assert batch.tolist() == [python.sse(j, i - 1) for j in range(i)]

    def test_first_dp_row_matches_scalar(self, case):
        segments, weights = case
        python = PrefixSums(segments, weights)
        n = len(segments)
        row = dp_first_row(NumpyPrefixSums(segments, weights), n, None)
        assert row[1:].tolist() == [python.sse(0, i - 1) for i in range(1, n + 1)]


# ----------------------------------------------------------------------
# DP parity
# ----------------------------------------------------------------------
class TestDPParity:
    def test_running_example_all_sizes(self, proj_segments):
        # cmin = 3 for Fig. 1(c): groups A and B plus the gap inside B.
        for size in range(3, len(proj_segments) + 1):
            reference = reduce_to_size(proj_segments, size)
            candidate = reduce_to_size(proj_segments, size, backend="numpy")
            assert_same_reduction(reference, candidate)

    def test_running_example_error_bounds(self, proj_segments):
        for epsilon in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
            reference = reduce_to_error(proj_segments, epsilon)
            candidate = reduce_to_error(proj_segments, epsilon, backend="numpy")
            assert_same_reduction(reference, candidate)

    @pytest.mark.parametrize("optimized", [True, False])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_randomized_sequential(self, seed, optimized):
        segments = synthetic_sequential_segments(120, dimensions=3, seed=seed)
        for size in (5, 17, 60):
            reference = reduce_to_size(segments, size, optimized=optimized)
            candidate = reduce_to_size(
                segments, size, optimized=optimized, backend="numpy"
            )
            assert_same_reduction(reference, candidate)

    @pytest.mark.parametrize("optimized", [True, False])
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_randomized_grouped(self, seed, optimized):
        segments = synthetic_grouped_segments(6, 18, dimensions=2, seed=seed)
        for size in (6, 20, 55):
            reference = reduce_to_size(segments, size, optimized=optimized)
            candidate = reduce_to_size(
                segments, size, optimized=optimized, backend="numpy"
            )
            assert_same_reduction(reference, candidate)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_randomized_error_bound(self, seed):
        segments = synthetic_grouped_segments(5, 15, dimensions=2, seed=seed)
        for epsilon in (0.05, 0.4, 0.9):
            reference = reduce_to_error(segments, epsilon)
            candidate = reduce_to_error(segments, epsilon, backend="numpy")
            assert_same_reduction(reference, candidate)

    def test_weighted_reduction(self, proj_segments):
        reference = reduce_to_size(proj_segments, 4, weights=(3.0,))
        candidate = reduce_to_size(
            proj_segments, 4, weights=(3.0,), backend="numpy"
        )
        assert_same_reduction(reference, candidate)

    def test_error_curve_parity(self):
        segments = synthetic_grouped_segments(4, 12, dimensions=2, seed=41)
        reference = optimal_error_curve(segments)
        candidate = optimal_error_curve(segments, backend="numpy")
        assert set(reference) == set(candidate)
        for k in reference:
            if math.isinf(reference[k]):
                assert math.isinf(candidate[k])
            else:
                assert candidate[k] == pytest.approx(reference[k])

    def test_unknown_backend_rejected(self, proj_segments):
        with pytest.raises(ValueError, match="backend"):
            reduce_to_size(proj_segments, 4, backend="fortran")


@st.composite
def dp_inputs(draw):
    """1-3 groups with gaps, p in {1, 2, 5}, optional weights; values
    small integers (exact ties), spread or offset by 1e6 (cancellation)."""
    count = draw(st.integers(min_value=1, max_value=60))
    dimensions = draw(st.sampled_from([1, 2, 5]))
    groups = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["ties", "spread", "offset"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < 0.15, rng.integers(1, 4, count), 0)
    starts = np.cumsum(lengths + gaps) - lengths
    group_of = np.sort(rng.integers(0, groups, count))
    if kind == "ties":
        values = rng.integers(0, 4, (count, dimensions)).astype(float)
    else:
        values = rng.normal(0.0, 10.0, (count, dimensions))
        values += 1e6 if kind == "offset" else 0.0
    segments = [
        AggregateSegment((group,), tuple(row), Interval(start, start + n - 1))
        for group, row, start, n in zip(
            group_of.tolist(), values.tolist(), starts.tolist(),
            lengths.tolist(),
        )
    ]
    weights = draw(st.none() | st.just(
        tuple(rng.uniform(0.25, 4.0, dimensions).tolist())
    ))
    size = draw(st.integers(min_value=cmin(segments), max_value=count))
    epsilon = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    return segments, weights, size, epsilon


@settings(max_examples=60, deadline=None)
@given(dp_inputs())
def test_plain_dp_is_identical_on_both_backends(inputs):
    """Without the optimized scheme's early break, both backends scan the
    same candidates with the same arithmetic: the same error, bit for bit,
    and the same segments.  (The optimized scheme keeps
    :func:`assert_same_reduction`'s checks above: the reference's early
    break assumes run errors grow as runs grow, which cancellation can
    break.)"""
    segments, weights, size, epsilon = inputs
    for reduce, bound in ((reduce_to_size, size), (reduce_to_error, epsilon)):
        python, numpy = (
            reduce(segments, bound, weights, optimized=False, backend=backend)
            for backend in ("python", "numpy")
        )
        assert float(numpy.error).hex() == python.error.hex()
        assert numpy.segments == python.segments
        assert numpy.stats == python.stats


# ----------------------------------------------------------------------
# Merge heap parity
# ----------------------------------------------------------------------
class TestNumpyMergeHeap:
    def test_factory(self):
        assert isinstance(make_merge_heap(backend="python"), MergeHeap)
        assert isinstance(make_merge_heap(backend="numpy"), NumpyMergeHeap)
        with pytest.raises(ValueError, match="backend"):
            make_merge_heap(backend="jax")

    def test_staged_keys_match(self, proj_segments):
        """One-row pushes through the compiled loop give each tuple the
        id and key the python heap's ``insert`` gives it."""
        reference = MergeHeap()
        vectorized = NumpyMergeHeap()
        for segment in proj_segments:
            reference.insert(segment)
            push_one(vectorized, segment)
            assert vectorized.ids_and_keys() == reference.ids_and_keys()

    def test_merge_sequence_matches(self, proj_segments):
        """The end-of-input call, one merge at a time, merges what the
        python heap's ``merge_top`` merges, at the same key."""
        reference = MergeHeap()
        vectorized = NumpyMergeHeap()
        for segment in proj_segments:
            reference.insert(segment)
            push_one(vectorized, segment)
        error, merges = 0.0, 0
        while True:
            top_ref = reference.peek()
            spent, merged = vectorized.merge_down(
                size=len(vectorized) - 1, total_error=error, merges=merges
            )
            if top_ref is None or math.isinf(top_ref.key):
                assert merged == merges  # no merge left for either heap
                break
            assert merged == merges + 1
            assert spent - error == pytest.approx(top_ref.key)
            error, merges = spent, merged
            reference.merge_top()
            assert reference.segments() == vectorized.segments()


def push_one(heap, segment, size=None):
    """Stage one tuple and activate it; no online merge (a size bound
    the heap never reaches), then merge down to ``size`` if given."""
    heap.stage_segment(segment)
    heap.activate_staged_all(size=2**40)
    if size is not None:
        heap.merge_down(size=size)


def test_an_int64_max_end_has_no_successor():
    """An end at ``2**63 - 1`` is not adjacent to a start at ``-2**63``:
    ``end + 1`` wraps in int64.  The numpy backend and ``workers=2`` took
    the pair as adjacent, merged it and raised on the merged interval."""
    segments = [
        AggregateSegment((), (1.0,), Interval(2**63 - 1, 2**63 - 1)),
        AggregateSegment((), (3.0,), Interval(-(2**63), -(2**63))),
    ]
    for engine in ({"backend": "python"}, {"backend": "numpy"},
                   {"workers": 2}):
        result = compress(segments, size=1, **engine)
        assert result.segments == segments, engine
        assert result.error == 0.0, engine
    columns = encode_segments(segments)
    assert adjacent_pair_mask(
        columns.starts, columns.ends, columns.groups
    ).tolist() == [False]


# ----------------------------------------------------------------------
# Greedy parity
# ----------------------------------------------------------------------
class TestGreedyParity:
    @pytest.mark.parametrize("delta", [0, 1, 2, DELTA_INFINITY])
    def test_online_size_bounded(self, proj_segments, delta):
        for size in (2, 3, 4, 6):
            reference = greedy_reduce_to_size(iter(proj_segments), size, delta)
            candidate = greedy_reduce_to_size(
                iter(proj_segments), size, delta, backend="numpy"
            )
            assert_same_reduction(reference, candidate)
            assert reference.max_heap_size == candidate.max_heap_size
            assert reference.merges == candidate.merges

    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_online_size_bounded_randomized(self, seed):
        segments = synthetic_grouped_segments(7, 14, dimensions=2, seed=seed)
        for delta in (0, 1, DELTA_INFINITY):
            reference = greedy_reduce_to_size(iter(segments), 20, delta)
            candidate = greedy_reduce_to_size(
                iter(segments), 20, delta, backend="numpy"
            )
            assert_same_reduction(reference, candidate)

    @pytest.mark.parametrize("seed", [61, 62])
    def test_online_error_bounded_randomized(self, seed):
        segments = synthetic_sequential_segments(90, dimensions=2, seed=seed)
        emax = max_error(segments)
        for epsilon in (0.1, 0.5, 0.9):
            reference = greedy_reduce_to_error(
                iter(segments), epsilon, 1, None, len(segments), emax
            )
            candidate = greedy_reduce_to_error(
                iter(segments), epsilon, 1, None, len(segments), emax,
                backend="numpy",
            )
            assert_same_reduction(reference, candidate)

    def test_gms_batch_variants(self, proj_segments):
        reference = gms_reduce_to_size(proj_segments, 4)
        candidate = gms_reduce_to_size(proj_segments, 4, backend="numpy")
        assert_same_reduction(reference, candidate)

        reference = gms_reduce_to_error(proj_segments, 0.5)
        candidate = gms_reduce_to_error(proj_segments, 0.5, backend="numpy")
        assert_same_reduction(reference, candidate)

    def test_long_stream_parity_across_compaction(self):
        # More inserts than the heap's initial capacity (1024), small live
        # size: exercises the in-place compaction path repeatedly and must
        # still match the reference backend exactly.
        segments = synthetic_sequential_segments(5000, dimensions=2, seed=81)
        reference = greedy_reduce_to_size(iter(segments), 40, 1)
        candidate = greedy_reduce_to_size(
            iter(segments), 40, 1, backend="numpy"
        )
        assert_same_reduction(reference, candidate)
        assert reference.max_heap_size == candidate.max_heap_size

    def test_one_row_pushes_allowed_after_staged_chunk_and_compaction(self):
        # Regression: a fully consumed staged chunk leaves its staging
        # marker behind; a later compaction renumbers rows below it and the
        # stale marker must not make a later staging believe tuples are
        # still pending.
        segments = synthetic_sequential_segments(4000, dimensions=1, seed=84)
        heap = NumpyMergeHeap()
        heap.stage_chunk(segments[:256])
        heap.activate_staged_all(size=256)  # activates without merging
        for segment in segments[256:]:
            push_one(heap, segment, size=10)  # must not raise
        assert len(heap) == 10

    def test_streaming_memory_stays_bounded(self):
        # The array-backed heap must compact dead slots away: after
        # streaming 20k tuples through a c=50 reduction, the allocated
        # capacity must track the live heap size, not the input size.
        segments = synthetic_sequential_segments(20_000, dimensions=1, seed=82)
        heap = NumpyMergeHeap()
        size = 50
        for segment in segments:
            push_one(heap, segment, size=size)
        assert len(heap) == size
        assert heap._capacity <= 2048, (
            f"dead slots were never reclaimed: capacity {heap._capacity} "
            f"for {len(heap)} live tuples"
        )

    def test_weighted_greedy(self):
        segments = synthetic_sequential_segments(40, dimensions=2, seed=71)
        weights = (1.0, 4.0)
        reference = greedy_reduce_to_size(iter(segments), 10, 1, weights)
        candidate = greedy_reduce_to_size(
            iter(segments), 10, 1, weights, backend="numpy"
        )
        assert_same_reduction(reference, candidate)
