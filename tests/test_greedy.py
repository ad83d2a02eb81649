"""Unit tests for GMS, gPTAc and gPTAε (Section 6)."""

import math
import random

import pytest

from repro.core import (
    DELTA_INFINITY,
    AggregateSegment,
    cmin,
    gms_reduce_to_error,
    gms_reduce_to_size,
    greedy_reduce_to_error,
    greedy_reduce_to_size,
    max_error,
    reduce_to_error,
    reduce_to_size,
    sse_between,
)
from conftest import make_segment


def random_segments(count, seed, groups=1, gap_probability=0.0, dimensions=1):
    rng = random.Random(seed)
    segments = []
    for group_index in range(groups):
        position = 1
        for _ in range(count // groups):
            if rng.random() < gap_probability:
                position += rng.randint(1, 3)
            length = rng.randint(1, 3)
            values = tuple(rng.uniform(0, 100) for _ in range(dimensions))
            segments.append(
                make_segment(position, position + length - 1, values[0],
                             group=(f"g{group_index}",))
                if dimensions == 1
                else None
            )
            if dimensions != 1:
                from repro import Interval
                segments[-1] = AggregateSegment(
                    (f"g{group_index}",), values,
                    Interval(position, position + length - 1),
                )
            position += length
    return segments


class TestGMS:
    def test_running_example_error(self, proj_segments):
        """Example 17: greedy reduction to 4 tuples introduces 63 000."""
        result = gms_reduce_to_size(proj_segments, 4)
        assert result.size == 4
        assert result.error == pytest.approx(63000.0, abs=1)

    def test_error_ratio_of_running_example(self, proj_segments):
        greedy = gms_reduce_to_size(proj_segments, 4)
        optimal = reduce_to_size(proj_segments, 4)
        assert greedy.error / optimal.error == pytest.approx(1.28, abs=0.01)

    def test_error_equals_sse_between(self, proj_segments):
        result = gms_reduce_to_size(proj_segments, 4)
        assert result.error == pytest.approx(
            sse_between(proj_segments, result.segments)
        )

    def test_stops_at_cmin(self, proj_segments):
        result = gms_reduce_to_size(proj_segments, 1)
        assert result.size == cmin(proj_segments)

    def test_never_better_than_optimal(self):
        for seed in range(5):
            segments = random_segments(40, seed)
            greedy = gms_reduce_to_size(segments, 10)
            optimal = reduce_to_size(segments, 10)
            assert greedy.error >= optimal.error - 1e-9

    def test_error_bounded_respects_threshold(self, proj_segments):
        for epsilon in (0.0, 0.05, 0.3, 1.0):
            result = gms_reduce_to_error(proj_segments, epsilon)
            assert result.error <= epsilon * max_error(proj_segments) + 1e-6

    def test_error_bounded_epsilon_one_reaches_cmin(self, proj_segments):
        # The running example and unit tuples in three groups with gaps,
        # scaled and offset.  DP's Proposition 1 prefix sums cancel on
        # offset values, so DP is only held to the rule on unshifted inputs.
        for scale, offset in ((1.0, 0.0), (1e3, 0.0), (1e6, 0.0),
                              (1e3, 1e4), (1e3, 1e6)):
            inputs = [[
                AggregateSegment(
                    segment.group,
                    tuple(offset + scale * v for v in segment.values),
                    segment.interval,
                )
                for segment in proj_segments
            ]]
            for seed in range(12):
                rng = random.Random(seed)
                inputs.append([
                    make_segment(t, t, offset + scale * rng.random(),
                                 group=(f"g{t // 20}",))
                    for t in range(60) if rng.random() > 0.1
                ])
            for segments in inputs:
                sizes = {
                    backend: gms_reduce_to_error(
                        segments, 1.0, backend=backend
                    ).size
                    for backend in ("python", "numpy")
                }
                if offset == 0.0:
                    sizes["dp"] = reduce_to_error(segments, 1.0).size
                assert sizes == dict.fromkeys(sizes, cmin(segments)), (
                    scale, offset,
                )

    def test_invalid_bounds_rejected(self, proj_segments):
        with pytest.raises(ValueError):
            gms_reduce_to_size(proj_segments, 0)
        with pytest.raises(ValueError):
            gms_reduce_to_error(proj_segments, 1.2)


class TestGPTAcSize:
    def test_matches_gms_with_infinite_delta(self):
        for seed in range(4):
            segments = random_segments(60, seed, groups=3, gap_probability=0.2)
            gms = gms_reduce_to_size(segments, 12)
            online = greedy_reduce_to_size(iter(segments), 12,
                                           delta=DELTA_INFINITY)
            assert online.error == pytest.approx(gms.error)
            assert online.segments == gms.segments

    def test_running_example_heap_stays_small(self, proj_segments):
        """Example 21: with c = 3 and δ = 1 the heap never exceeds 5 nodes."""
        result = greedy_reduce_to_size(iter(proj_segments), 3, delta=1)
        assert result.size == 3
        assert result.max_heap_size == 5

    def test_delta_zero_keeps_heap_at_bound_plus_one(self):
        segments = random_segments(200, 2)
        result = greedy_reduce_to_size(iter(segments), 20, delta=0)
        assert result.max_heap_size <= 21

    def test_delta_controls_heap_size_monotonically(self):
        segments = random_segments(300, 9)
        sizes = [
            greedy_reduce_to_size(iter(segments), 30, delta=delta).max_heap_size
            for delta in (0, 1, 2, DELTA_INFINITY)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(segments)

    def test_quality_close_to_gms_with_small_delta(self):
        segments = random_segments(300, 4)
        gms = gms_reduce_to_size(segments, 30)
        online = greedy_reduce_to_size(iter(segments), 30, delta=1)
        assert online.error <= gms.error * 1.35 + 1e-9

    def test_result_size_respects_bound(self):
        segments = random_segments(150, 5, groups=5, gap_probability=0.1)
        result = greedy_reduce_to_size(iter(segments), 25, delta=1)
        assert cmin(segments) <= result.size <= max(25, cmin(segments))

    def test_consumes_a_generator_lazily(self, proj_segments):
        consumed = []

        def stream():
            for segment in proj_segments:
                consumed.append(segment)
                yield segment

        result = greedy_reduce_to_size(stream(), 3, delta=1)
        assert len(consumed) == len(proj_segments)
        assert result.input_size == len(proj_segments)

    def test_invalid_parameters_rejected(self, proj_segments):
        with pytest.raises(ValueError):
            greedy_reduce_to_size(iter(proj_segments), 0)
        with pytest.raises(ValueError):
            greedy_reduce_to_size(iter(proj_segments), 3, delta=-1)
        with pytest.raises(ValueError):
            greedy_reduce_to_size(iter(proj_segments), 3, delta=1.5)

    def test_empty_stream(self):
        result = greedy_reduce_to_size(iter([]), 5)
        assert result.segments == []
        assert result.error == 0.0

    def test_multidimensional_stream(self):
        segments = random_segments(80, 6, dimensions=4)
        result = greedy_reduce_to_size(iter(segments), 10, delta=1)
        assert result.size == 10
        assert result.error == pytest.approx(
            sse_between(segments, result.segments)
        )


class TestGPTAepsilonError:
    def test_matches_gms_with_infinite_delta_and_safe_estimates(self):
        for seed in range(3):
            segments = random_segments(80, seed, groups=2, gap_probability=0.15)
            emax = max_error(segments)
            gms = gms_reduce_to_error(segments, 0.4)
            online = greedy_reduce_to_error(
                iter(segments), 0.4, delta=DELTA_INFINITY,
                input_size_estimate=len(segments),
                max_error_estimate=emax,
            )
            assert online.error == pytest.approx(gms.error)
            assert online.segments == gms.segments

    def test_threshold_respected_for_all_epsilon(self):
        segments = random_segments(120, 8, groups=4, gap_probability=0.1)
        emax = max_error(segments)
        for epsilon in (0.0, 0.1, 0.5, 1.0):
            result = greedy_reduce_to_error(
                iter(segments), epsilon, delta=1,
                input_size_estimate=len(segments),
                max_error_estimate=emax,
            )
            assert result.error <= epsilon * emax + 1e-6

    def test_underestimating_emax_is_safe(self):
        segments = random_segments(120, 10)
        emax = max_error(segments)
        precise = greedy_reduce_to_error(
            iter(segments), 0.3, delta=DELTA_INFINITY,
            input_size_estimate=len(segments), max_error_estimate=emax,
        )
        lowball = greedy_reduce_to_error(
            iter(segments), 0.3, delta=DELTA_INFINITY,
            input_size_estimate=len(segments), max_error_estimate=emax / 100.0,
        )
        assert lowball.error == pytest.approx(precise.error)
        assert lowball.max_heap_size >= precise.max_heap_size

    def test_no_estimates_disables_early_merging(self):
        segments = random_segments(100, 12)
        result = greedy_reduce_to_error(iter(segments), 0.5, delta=1)
        assert result.max_heap_size == len(segments)
        assert result.error <= 0.5 * max_error(segments) + 1e-6

    def test_epsilon_zero_merges_only_lossless_pairs(self):
        segments = [make_segment(i, i, 5.0) for i in range(1, 8)]
        result = greedy_reduce_to_error(
            iter(segments), 0.0,
            input_size_estimate=len(segments), max_error_estimate=0.0,
        )
        assert result.size == 1
        assert result.error == 0.0

    def test_invalid_epsilon_rejected(self, proj_segments):
        with pytest.raises(ValueError):
            greedy_reduce_to_error(iter(proj_segments), -0.5)


class TestTheorem1Bound:
    def test_error_ratio_within_logarithmic_bound(self):
        """The greedy/optimal error ratio stays modest (Theorem 1)."""
        for seed in range(4):
            segments = random_segments(120, seed + 20)
            optimal = reduce_to_size(segments, 15)
            greedy = gms_reduce_to_size(segments, 15)
            if optimal.error == 0:
                assert greedy.error == pytest.approx(0.0)
                continue
            ratio = greedy.error / optimal.error
            assert ratio < math.log2(len(segments))
