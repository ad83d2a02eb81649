"""Unit tests for the error measures and the prefix-sum SSE (Proposition 1)."""

import math
import random

import pytest

from repro import Interval
from repro.core import (
    AggregateSegment,
    PrefixSums,
    error_ratio,
    max_error,
    merge,
    normalized_error,
    pairwise_merge_error,
    sse_between,
    sse_of_run,
)
from repro.core.errors import resolve_weights
from repro.core.merge import merge_run
from conftest import make_segment


class TestWeights:
    def test_default_weights(self):
        assert resolve_weights(None, 3) == (1.0, 1.0, 1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            resolve_weights((1.0,), 2)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            resolve_weights((1.0, 0.0), 2)


class TestSSEOfRun:
    def test_example_5(self, proj_segments):
        # Merging s1=(A,800,[1,2]) and s2=(A,600,[3,3]) introduces 26 666.67.
        error = sse_of_run(proj_segments[0:2])
        assert error == pytest.approx(26666.67, abs=1)

    def test_single_segment_has_zero_error(self, proj_segments):
        assert sse_of_run(proj_segments[0:1]) == 0.0

    def test_empty_run(self):
        assert sse_of_run([]) == 0.0

    def test_constant_run_has_zero_error(self):
        run = [make_segment(i, i, 7.0) for i in range(1, 6)]
        assert sse_of_run(run) == pytest.approx(0.0)

    def test_weights_scale_quadratically(self, proj_segments):
        unweighted = sse_of_run(proj_segments[0:2])
        weighted = sse_of_run(proj_segments[0:2], weights=(2.0,))
        assert weighted == pytest.approx(4.0 * unweighted)

    def test_multidimensional_run(self):
        run = [
            AggregateSegment((), (0.0, 10.0), Interval(1, 1)),
            AggregateSegment((), (2.0, 30.0), Interval(2, 2)),
        ]
        # dimension 1: mean 1, error 2; dimension 2: mean 20, error 200.
        assert sse_of_run(run) == pytest.approx(2.0 + 200.0)


class TestSSEBetween:
    def test_matches_sum_of_run_errors(self, proj_segments):
        reduced = [
            merge(proj_segments[0], proj_segments[1]),
            proj_segments[2],
            merge(proj_segments[3], proj_segments[4]),
            proj_segments[5],
            proj_segments[6],
        ]
        expected = sse_of_run(proj_segments[0:2]) + sse_of_run(proj_segments[3:5])
        assert sse_between(proj_segments, reduced) == pytest.approx(expected)

    def test_identity_reduction_has_zero_error(self, proj_segments):
        assert sse_between(proj_segments, proj_segments) == 0.0

    def test_uncovered_segment_raises(self, proj_segments):
        with pytest.raises(ValueError):
            sse_between(proj_segments, proj_segments[:-1])

    def test_empty_inputs(self):
        assert sse_between([], []) == 0.0


class TestMaxError:
    def test_running_example(self, proj_segments):
        assert max_error(proj_segments) == pytest.approx(269285.714, abs=1)

    def test_zero_when_nothing_mergeable(self):
        segments = [
            make_segment(1, 2, 1.0, group=("A",)),
            make_segment(1, 2, 9.0, group=("B",)),
        ]
        assert max_error(segments) == 0.0


def two_long_runs():
    """5 000 segments in two runs of 2 500, values over four decades."""
    draw = random.Random(29)
    segments, start = [], 0
    for index in range(5000):
        length = draw.randint(1, 3)
        start += index == 2500  # a one-chronon gap between the runs
        values = (
            draw.uniform(-1.0, 1.0) * 10 ** draw.randint(0, 3),
            draw.uniform(0.0, 1e6),
        )
        segments.append(
            AggregateSegment((), values, Interval(start, start + length - 1))
        )
        start += length
    return segments


class TestSameBitsOnEveryPython:
    """The sums behind ``SSE_max`` (every error budget) and ``merge_run``
    are left-to-right loops, so these bits hold on every Python minor.  A
    builtin ``sum()``, compensated from 3.12 on, gives
    ``0x1.7a7ae41371d44p+49`` there."""

    def test_max_error(self):
        segments = two_long_runs()
        assert max_error(segments).hex() == "0x1.7a7ae41371d43p+49"
        assert max_error(segments, (0.5, 3.0)).hex() == "0x1.a9ca24be1e37cp+52"

    def test_merge_run(self):
        merged = merge_run(two_long_runs()[:2500])
        assert [value.hex() for value in merged.values] == [
            "0x1.37f1b5ed51c92p-1", "0x1.f1dd7e7f09fa4p+18",
        ]


def five_dimension_run():
    """Six contiguous 5-D segments, values three decimals in [-50, 50]."""
    draw = random.Random(5)
    segments, start = [], 0
    for _ in range(6):
        values = tuple(round(draw.uniform(-50, 50), 3) for _ in range(5))
        length = draw.randint(1, 3)
        segments.append(
            AggregateSegment(("g",), values, Interval(start, start + length - 1))
        )
        start += length
    return segments


class TestSameBitsOnEveryLibm:
    """Squares are products, not ``** 2``: libm's ``pow`` is not correctly
    rounded on every libm.  On glibc 2.36, ``(73.02 - 62.52) ** 2`` is one
    unit in the last place below the product, and the run below's ``SSE``
    ends one unit above it.  Sums are left-to-right loops, as in
    :class:`TestSameBitsOnEveryPython`."""

    WEIGHTS = (1.0, 0.5, 2.0, 3.0, 0.25)

    def test_sse_between_squares_by_product(self):
        original = [make_segment(1, 1, 73.02)]
        reduced = [make_segment(1, 1, 62.52)]
        assert sse_between(original, reduced).hex() == "0x1.b8ffffffffff6p+6"

    def test_sse_of_run_squares_by_product(self):
        values = (50.514, 14.511, 24.67)
        run = [make_segment(k, k, v) for k, v in enumerate(values)]
        assert sse_of_run(run).hex() == "0x1.588e3c15e92ecp+9"

    def test_five_dimensions(self):
        segments = five_dimension_run()
        reduced = [merge_run(segments[:4]), merge_run(segments[4:])]
        assert (
            sse_between(segments, reduced, self.WEIGHTS).hex()
            == "0x1.ebb610e2e9680p+16"
        )
        assert sse_of_run(segments, self.WEIGHTS).hex() == "0x1.5abefcb8fffbcp+17"


class TestPrefixSums:
    def test_example_12_prefix_values(self, proj_segments):
        prefix = PrefixSums(proj_segments)
        # S = <1600, 2200, 2700, 3400, ...>, SS = <1280000, 1640000, ...>,
        # L = <2, 3, 4, 6, ...> (Example 12).
        assert prefix._sums[0][1:5] == [1600.0, 2200.0, 2700.0, 3400.0]
        assert prefix._square_sums[0][1:3] == [1280000.0, 1640000.0]
        assert prefix._lengths[1:5] == [2.0, 3.0, 4.0, 6.0]

    def test_example_12_merge_error(self, proj_segments):
        prefix = PrefixSums(proj_segments)
        # SSE of merging {s2, s3} is 5 000.
        assert prefix.sse(1, 2) == pytest.approx(5000.0)

    def test_matches_naive_sse_everywhere(self, proj_segments):
        prefix = PrefixSums(proj_segments)
        for first in range(len(proj_segments)):
            for last in range(first, len(proj_segments)):
                run = proj_segments[first : last + 1]
                assert prefix.sse(first, last) == pytest.approx(
                    sse_of_run(run), abs=1e-6
                )

    def test_merged_values_match_merge_operator(self, proj_segments):
        prefix = PrefixSums(proj_segments)
        merged = merge(proj_segments[0], proj_segments[1])
        assert prefix.merged_values(0, 1)[0] == pytest.approx(merged.values[0])

    def test_never_negative(self):
        segments = [make_segment(i, i, 1e9 + i * 1e-4) for i in range(1, 50)]
        prefix = PrefixSums(segments)
        assert prefix.sse(0, len(segments) - 1) >= 0.0


class TestPairwiseMergeError:
    def test_equals_sse_of_pair(self, proj_segments):
        for left, right in zip(proj_segments, proj_segments[1:]):
            if left.group != right.group or not left.interval.meets(right.interval):
                continue
            assert pairwise_merge_error(left, right) == pytest.approx(
                sse_of_run([left, right])
            )

    def test_proposition_2_locality(self, proj_segments):
        """dsim depends only on the two merged tuples (Proposition 2)."""
        s3, s4, s5 = proj_segments[2], proj_segments[3], proj_segments[4]
        merged45 = merge(s4, s5)
        # Additional error of merging s3 with (s4 ⊕ s5) on top of the error
        # already introduced by creating (s4 ⊕ s5).
        total = sse_of_run([s3, s4, s5])
        already = sse_of_run([s4, s5])
        assert pairwise_merge_error(s3, merged45) == pytest.approx(total - already)


class TestRatios:
    def test_normalized_error_range(self, proj_segments):
        reduced = [
            merge(proj_segments[0], proj_segments[1]),
            proj_segments[2],
            merge(proj_segments[3], proj_segments[4]),
            proj_segments[5],
            proj_segments[6],
        ]
        value = normalized_error(proj_segments, reduced)
        assert 0.0 < value < 1.0

    def test_error_ratio_conventions(self):
        assert error_ratio(5.0, 5.0) == 1.0
        assert error_ratio(10.0, 5.0) == 2.0
        assert error_ratio(0.0, 0.0) == 1.0
        assert math.isinf(error_ratio(1.0, 0.0))
