"""Parity tests: the NumPy kernel backend against the pure-Python reference.

The ``backend="numpy"`` code paths (:mod:`repro.core.kernels`) implement the
same recurrences with the same floating-point formulae and tie-breaking as
the loop-based reference, so DP and greedy reductions must come out
*identical* — same segments, same values and error bit for bit — on the
Fig. 1 running example and on randomized inputs.
"""

from __future__ import annotations

import math

import pytest

from repro.core import (
    DELTA_INFINITY,
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
    def test_matches_python_prefix_sums(self, proj_segments):
        python = PrefixSums(proj_segments)
        vectorized = NumpyPrefixSums(proj_segments)
        n = len(proj_segments)
        for first in range(n):
            for last in range(first, n):
                assert vectorized.sse(first, last) == pytest.approx(
                    python.sse(first, last)
                )
                assert vectorized.total_length(first, last) == pytest.approx(
                    python.total_length(first, last)
                )
                assert vectorized.merged_values(first, last) == pytest.approx(
                    python.merged_values(first, last)
                )

    def test_batched_run_errors_match_scalar(self, proj_segments):
        vectorized = NumpyPrefixSums(proj_segments)
        n = len(proj_segments)
        for i in range(1, n + 1):
            batch = vectorized.sse_run_batch(0, i)
            assert len(batch) == i
            for j in range(i):
                assert batch[j] == pytest.approx(vectorized.sse(j, i - 1))

    def test_weights_are_applied(self, proj_segments):
        weights = (2.5,)
        python = PrefixSums(proj_segments, weights)
        vectorized = NumpyPrefixSums(proj_segments, weights)
        assert vectorized.sse(0, len(proj_segments) - 1) == pytest.approx(
            python.sse(0, len(proj_segments) - 1)
        )


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


# ----------------------------------------------------------------------
# Merge heap parity
# ----------------------------------------------------------------------
class TestNumpyMergeHeap:
    def test_factory(self):
        assert isinstance(make_merge_heap(backend="python"), MergeHeap)
        assert isinstance(make_merge_heap(backend="numpy"), NumpyMergeHeap)
        with pytest.raises(ValueError, match="backend"):
            make_merge_heap(backend="jax")

    def test_insert_and_keys_match(self, proj_segments):
        reference = MergeHeap()
        vectorized = NumpyMergeHeap()
        for segment in proj_segments:
            left = reference.insert(segment)
            right = vectorized.insert(segment)
            assert left.id == right.id
            if math.isinf(left.key):
                assert math.isinf(right.key)
            else:
                assert right.key == pytest.approx(left.key)

    def test_insert_batch_matches_sequential(self, proj_segments):
        sequential = NumpyMergeHeap()
        for segment in proj_segments:
            sequential.insert(segment)
        batched = NumpyMergeHeap()
        batched.insert_batch(proj_segments)
        assert len(sequential) == len(batched)
        assert sequential.segments() == batched.segments()
        for left, right in zip(sequential, batched):
            assert left.key == pytest.approx(right.key)

    def test_merge_sequence_matches(self, proj_segments):
        reference = MergeHeap()
        vectorized = NumpyMergeHeap()
        for segment in proj_segments:
            reference.insert(segment)
            vectorized.insert(segment)
        while True:
            top_ref = reference.peek()
            top_vec = vectorized.peek()
            if top_ref is None or math.isinf(top_ref.key):
                assert top_vec is None or math.isinf(top_vec.key)
                break
            assert top_vec.key == pytest.approx(top_ref.key)
            reference.merge_top()
            vectorized.merge_top()
            assert reference.segments() == vectorized.segments()

    def test_adjacent_successor_count(self, proj_segments):
        reference = MergeHeap()
        vectorized = NumpyMergeHeap()
        nodes_ref = [reference.insert(s) for s in proj_segments]
        nodes_vec = [vectorized.insert(s) for s in proj_segments]
        for node_ref, node_vec in zip(nodes_ref, nodes_vec):
            for limit in (1, 2, 5):
                assert vectorized.adjacent_successor_count(
                    node_vec, limit
                ) == reference.adjacent_successor_count(node_ref, limit)


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

    def test_stale_node_view_raises_after_compaction(self):
        # A node view held across a compacting insertion must fail loudly
        # instead of silently reading another tuple's data.
        segments = synthetic_sequential_segments(3000, dimensions=1, seed=83)
        heap = NumpyMergeHeap()
        heap.insert(segments[0])
        # The second tuple is merged away early; its slot is later reused.
        early = heap.insert(segments[1])
        for segment in segments[2:]:
            heap.insert(segment)
            while len(heap) > 10:
                top = heap.peek()
                if top is None or math.isinf(top.key):
                    break
                heap.merge_top()
        assert early.id == 2  # the stable id survives
        with pytest.raises(RuntimeError, match="compacted"):
            _ = early.key

    def test_plain_inserts_allowed_after_staged_chunk_and_compaction(self):
        # Regression: a fully consumed staged chunk leaves its staging
        # marker behind; a later compaction renumbers rows below it and the
        # stale marker must not make plain insert() believe tuples are
        # still pending.
        segments = synthetic_sequential_segments(4000, dimensions=1, seed=84)
        heap = NumpyMergeHeap()
        heap.stage_chunk(segments[:256])
        heap.activate_staged_all(size=256)  # activates without merging
        for segment in segments[256:]:
            heap.insert(segment)  # must not raise across compactions
            while len(heap) > 10:
                top = heap.peek()
                if top is None or math.isinf(top.key):
                    break
                heap.merge_top()
        assert len(heap) == 10

    def test_streaming_memory_stays_bounded(self):
        # The array-backed heap must compact dead slots away: after
        # streaming 20k tuples through a c=50 reduction, the allocated
        # capacity must track the live heap size, not the input size.
        segments = synthetic_sequential_segments(20_000, dimensions=1, seed=82)
        heap = NumpyMergeHeap()
        size = 50
        for segment in segments:
            heap.insert(segment)
            while len(heap) > size:
                top = heap.peek()
                if top is None or math.isinf(top.key):
                    break
                heap.merge_top()
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
