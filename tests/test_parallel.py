"""Tests for the sharded multiprocess reduction engine (:mod:`repro.parallel`).

The engine must (a) produce byte-identical output for every worker count —
the shard plan and the reconciliation depend only on the input — (b) agree
with the sequential greedy merging strategy structurally on both the size-
and error-bounded modes, and (c) plug into the :func:`repro.pipeline.compress`
facade with sane validation.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AggregateSegment

from repro.core.greedy import (
    DELTA_INFINITY,
    gms_reduce_to_error,
    gms_reduce_to_size,
    greedy_reduce_to_size,
)
from repro.datasets import (
    synthetic_grouped_segments,
    synthetic_sequential_segments,
)
from repro.parallel import (
    DEFAULT_SHARD_SIZE,
    encode_segments,
    plan_shards,
    reduce_segments_parallel,
)
from repro.pipeline import compress
from repro.temporal import Interval


def assert_same_segments(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.group == b.group
        assert a.interval == b.interval
        assert a.values == b.values


def assert_identical(left, right):
    """Byte-identity: same segments (exact floats) and same error float."""
    assert left.segments == right.segments
    assert left.error == right.error
    assert left.size == right.size
    assert left.merges == right.merges


# ----------------------------------------------------------------------
# Encoding and shard planning
# ----------------------------------------------------------------------
class TestEncodingAndPlanning:
    def test_encode_round_trip_metadata(self):
        segments = synthetic_grouped_segments(4, 9, dimensions=2, seed=1)
        encoded = encode_segments(segments)
        assert len(encoded) == len(segments)
        assert encoded.dimensions == 2
        assert len(encoded.group_keys) == 4
        for index, segment in enumerate(segments):
            assert encoded.group_keys[encoded.groups[index]] == segment.group
            assert encoded.starts[index] == segment.interval.start
            assert encoded.ends[index] == segment.interval.end

    def test_encode_rejects_mixed_dimensions(self):
        a = synthetic_sequential_segments(3, dimensions=1, seed=2)
        b = synthetic_sequential_segments(3, dimensions=2, seed=2)
        with pytest.raises(ValueError, match="same number"):
            encode_segments(a + b)

    def test_shards_cover_input_and_cut_at_run_boundaries(self):
        segments = synthetic_grouped_segments(10, 13, dimensions=1, seed=3)
        encoded = encode_segments(segments)
        shards = plan_shards(encoded, shard_size=20)
        assert shards[0][0] == 0
        assert shards[-1][1] == len(segments)
        for (_, hi), (lo, _) in zip(shards, shards[1:]):
            assert hi == lo
            # Every cut is a run boundary: a group change in this dataset.
            assert segments[hi - 1].group != segments[hi].group

    def test_indivisible_run_stays_whole(self):
        segments = synthetic_sequential_segments(100, dimensions=1, seed=4)
        encoded = encode_segments(segments)
        assert plan_shards(encoded, shard_size=10) == [(0, 100)]

    def test_shard_plan_is_independent_of_workers(self):
        # The plan is a function of the input and shard_size only; this is
        # what makes the reduction bit-identical across worker counts.
        segments = synthetic_grouped_segments(6, 50, dimensions=1, seed=5)
        encoded = encode_segments(segments)
        assert plan_shards(encoded, 70) == plan_shards(encoded, 70)

    def test_invalid_shard_size(self):
        encoded = encode_segments(
            synthetic_sequential_segments(5, dimensions=1, seed=6)
        )
        with pytest.raises(ValueError, match="shard_size"):
            plan_shards(encoded, 0)


# ----------------------------------------------------------------------
# Worker-count determinism (the core guarantee)
# ----------------------------------------------------------------------
class TestWorkerDeterminism:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("shard_size", [17, 64, 100_000])
    def test_size_bounded_identical_across_workers(self, seed, shard_size):
        segments = synthetic_grouped_segments(8, 25, dimensions=2, seed=seed)
        baseline = reduce_segments_parallel(
            segments, size=40, workers=1, shard_size=shard_size
        )
        for workers in (2, 4):
            candidate = reduce_segments_parallel(
                segments, size=40, workers=workers, shard_size=shard_size
            )
            assert_identical(baseline, candidate)

    @pytest.mark.parametrize("seed", [21, 22])
    @pytest.mark.parametrize("epsilon", [0.05, 0.4, 0.9])
    def test_error_bounded_identical_across_workers(self, seed, epsilon):
        segments = synthetic_grouped_segments(6, 30, dimensions=2, seed=seed)
        baseline = reduce_segments_parallel(
            segments, max_error=epsilon, workers=1, shard_size=37
        )
        candidate = reduce_segments_parallel(
            segments, max_error=epsilon, workers=3, shard_size=37
        )
        assert_identical(baseline, candidate)

    def test_pipeline_workers_identical(self):
        segments = synthetic_grouped_segments(7, 40, dimensions=1, seed=31)
        baseline = compress(list(segments), size=50, workers=1, shard_size=55)
        for workers in (2, 4):
            candidate = compress(
                list(segments), size=50, workers=workers, shard_size=55
            )
            assert candidate.segments == baseline.segments
            assert candidate.error == baseline.error
        streamed = compress(iter(segments), size=50, workers=2, shard_size=55)
        assert streamed.segments == baseline.segments

    def test_workers_zero_uses_all_cores(self):
        segments = synthetic_grouped_segments(5, 20, dimensions=1, seed=32)
        baseline = reduce_segments_parallel(segments, size=30, workers=1)
        candidate = reduce_segments_parallel(segments, size=30, workers=0)
        assert_identical(baseline, candidate)


# ----------------------------------------------------------------------
# Equivalence with the sequential greedy merging strategy
# ----------------------------------------------------------------------
class TestGMSEquivalence:
    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_size_bounded_matches_gms(self, seed):
        segments = synthetic_grouped_segments(9, 21, dimensions=3, seed=seed)
        for size in (15, 60, 150):
            reference = gms_reduce_to_size(segments, size)
            candidate = reduce_segments_parallel(
                segments, size=size, shard_size=43
            )
            assert_same_segments(reference.segments, candidate.segments)
            assert candidate.error == reference.error
            assert candidate.merges == reference.merges

    @pytest.mark.parametrize("seed", [51, 52])
    def test_error_bounded_matches_gms(self, seed):
        segments = synthetic_grouped_segments(5, 24, dimensions=2, seed=seed)
        for epsilon in (0.0, 0.1, 0.5):
            reference = gms_reduce_to_error(segments, epsilon)
            candidate = reduce_segments_parallel(
                segments, max_error=epsilon, shard_size=29
            )
            assert_same_segments(reference.segments, candidate.segments)
            assert candidate.error == reference.error

    @pytest.mark.parametrize("seed", [51, 52])
    def test_epsilon_one_reaches_cmin(self, seed):
        # At ε = 1 the consumed keys telescope to exactly SSE_max, so every
        # greedy engine must reach cmin: they share one error budget.
        from repro.api import Compressor, ExecutionPolicy
        from repro.core import cmin, max_error

        segments = synthetic_grouped_segments(5, 24, dimensions=2, seed=seed)
        candidate = reduce_segments_parallel(
            segments, max_error=1.0, shard_size=29
        )
        assert candidate.size == cmin(segments)
        assert candidate.error <= max_error(segments) * (1 + 1e-9) + 1e-9
        sizes = {
            "sharded": compress(
                segments, max_error=1.0, workers=1, shard_size=29
            ).size,
        }
        for backend in ("python", "numpy"):
            sizes[f"gms {backend}"] = gms_reduce_to_error(
                segments, 1.0, backend=backend
            ).size
            for delta in (1, DELTA_INFINITY):
                policy = ExecutionPolicy(backend=backend, delta=delta)
                sizes[f"online {backend} δ={delta}"] = compress(
                    segments, max_error=1.0, backend=backend, delta=delta
                ).size
                session = Compressor(max_error=1.0, policy=policy)
                session.push(segments)
                sizes[f"summary {backend} δ={delta}"] = session.summary().size
        assert sizes == dict.fromkeys(sizes, cmin(segments))

    def test_offset_values_give_one_greedy_schedule(self):
        # Values near 1e6 with unit spread: every greedy engine merges by
        # merge_key and folds rows with merged_row, so all pick the same
        # partition, bit for bit, and ε = 1 reaches cmin.
        from repro.core import cmin

        for seed in range(5):
            rng = random.Random(seed)
            segments = [
                AggregateSegment((), (1e6 + rng.random(),), Interval(t, t))
                for t in range(2000)
            ]
            sharded = compress(segments, size=100, workers=1)
            for backend in ("python", "numpy"):
                gms = gms_reduce_to_size(segments, 100, backend=backend)
                assert gms.segments == sharded.segments, (seed, backend)
                assert gms.error == sharded.error, (seed, backend)
            bounded = gms_reduce_to_error(segments, 1.0, backend="numpy")
            assert bounded.size == cmin(segments), seed

    def test_matches_online_with_infinite_delta(self):
        segments = synthetic_grouped_segments(6, 35, dimensions=2, seed=61)
        online = greedy_reduce_to_size(
            iter(segments), 30, delta=DELTA_INFINITY
        )
        sharded = reduce_segments_parallel(segments, size=30, shard_size=70)
        assert_same_segments(online.segments, sharded.segments)

    def test_single_run_input_matches_gms(self):
        segments = synthetic_sequential_segments(300, dimensions=1, seed=62)
        reference = gms_reduce_to_size(segments, 25)
        candidate = reduce_segments_parallel(segments, size=25)
        assert_same_segments(reference.segments, candidate.segments)

    def test_stops_at_global_cmin(self):
        # 4 groups -> cmin = 4; a bound below that silently stops at cmin,
        # matching gms_reduce_to_size.
        segments = synthetic_grouped_segments(4, 10, dimensions=1, seed=63)
        result = reduce_segments_parallel(segments, size=1, shard_size=15)
        assert result.size == 4

    def test_weighted_reduction(self):
        segments = synthetic_sequential_segments(80, dimensions=2, seed=64)
        weights = (1.0, 5.0)
        reference = gms_reduce_to_size(segments, 20, weights)
        candidate = reduce_segments_parallel(
            segments, size=20, weights=weights
        )
        assert_same_segments(reference.segments, candidate.segments)


# ----------------------------------------------------------------------
# Validation and edge cases
# ----------------------------------------------------------------------
class TestValidationAndEdges:
    def test_requires_exactly_one_bound(self):
        segments = synthetic_sequential_segments(10, dimensions=1, seed=71)
        with pytest.raises(ValueError, match="exactly one"):
            reduce_segments_parallel(segments)
        with pytest.raises(ValueError, match="exactly one"):
            reduce_segments_parallel(segments, size=3, max_error=0.5)

    def test_rejects_invalid_bounds(self):
        segments = synthetic_sequential_segments(10, dimensions=1, seed=72)
        with pytest.raises(ValueError, match="size"):
            reduce_segments_parallel(segments, size=0)
        with pytest.raises(ValueError, match="epsilon"):
            reduce_segments_parallel(segments, max_error=1.5)
        with pytest.raises(ValueError, match="workers"):
            reduce_segments_parallel(segments, size=3, workers=-1)
        # Must not be swallowed by the default-coalescing (`0 or default`).
        with pytest.raises(ValueError, match="shard_size"):
            reduce_segments_parallel(segments, size=3, shard_size=0)
        with pytest.raises(ValueError, match="shard_size"):
            compress(segments, size=3, workers=1, shard_size=0)

    def test_pipeline_rejects_workers_with_dp(self):
        segments = synthetic_sequential_segments(10, dimensions=1, seed=73)
        with pytest.raises(ValueError, match="workers"):
            compress(segments, size=3, method="dp", workers=2)

    def test_empty_input(self):
        result = reduce_segments_parallel([], size=5)
        assert result.size == 0
        assert result.segments == []
        result = compress(iter([]), size=5, workers=2)
        assert result.size == 0

    def test_single_segment(self):
        segments = synthetic_sequential_segments(1, dimensions=1, seed=74)
        result = reduce_segments_parallel(segments, size=5)
        assert result.segments == segments
        assert result.error == 0.0

    def test_size_larger_than_input_is_identity(self):
        segments = synthetic_sequential_segments(12, dimensions=2, seed=75)
        result = reduce_segments_parallel(segments, size=100, shard_size=5)
        assert result.segments == segments
        assert result.error == 0.0
        assert result.merges == 0

    def test_epsilon_zero_forbids_lossy_merges(self):
        segments = synthetic_sequential_segments(30, dimensions=1, seed=76)
        result = reduce_segments_parallel(segments, max_error=0.0)
        assert result.segments == segments

    def test_compression_result_metadata(self):
        segments = synthetic_grouped_segments(3, 15, dimensions=1, seed=77)
        result = compress(list(segments), size=10, workers=2, shard_size=20)
        assert result.method == "greedy"
        assert result.backend == "numpy"
        assert result.input_size == len(segments)
        assert result.max_heap_size == 0
        assert result.merges == len(segments) - result.size

    def test_default_shard_size_is_input_only(self):
        # Guards the invariant documented in repro.parallel: shard planning
        # must never consult the worker count.
        assert DEFAULT_SHARD_SIZE > 0

    def test_pta_facade_workers(self):
        from repro import pta
        from repro.datasets import synthetic_relation

        relation = synthetic_relation(60, dimensions=1, groups=3, seed=78)
        sequential = pta(
            relation, ["grp"], {"avg": ("avg", "v0")},
            size=10, method="greedy", delta=DELTA_INFINITY,
        )
        sharded = pta(
            relation, ["grp"], {"avg": ("avg", "v0")},
            size=10, method="greedy", workers=2,
        )
        assert len(sharded) == len(sequential)
        for (seq_values, seq_interval), (par_values, par_interval) in zip(
            sequential.rows(), sharded.rows()
        ):
            assert par_interval == seq_interval
            assert par_values[:1] == seq_values[:1]  # the group column
            assert par_values[1:] == pytest.approx(seq_values[1:])
        with pytest.raises(ValueError, match="workers"):
            pta(relation, ["grp"], {"avg": ("avg", "v0")}, size=10,
                method="dp", workers=2)
