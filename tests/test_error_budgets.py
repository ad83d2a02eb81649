"""One ``SSE_max`` for every error-bounded engine.

Every ``ε`` budget is :func:`repro.core.errors.error_budget` of
:func:`repro.core.errors.max_error` — one ``KERNEL.sse_fold`` call over
the input — or the online tracker's total, the same fold taken chunk by
chunk.  With three spellings of ``SSE_max`` that differed in the last
bits, the same ``ε`` gave the python heap, the sharded engine and the
online reducer budgets a few units in the last place apart, and the
engines stopped at different merges.  The named case below is such an
input; the property draws ``ε`` so that the budget lands on, just above
and just below a merge's running total, where a last-bit difference
decides whether that merge is taken.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import compress
from repro.cluster import reduce_cluster, start_worker
from repro.core import (
    AggregateSegment,
    OnlineReducer,
    dp,
    gms_reduce_to_error,
    greedy_reduce_to_error,
)
from repro.core.errors import collapse_error, error_budget, max_error
from repro.core.kernels import encode_segments, greedy_merge_trajectory
from repro.core.merge import cmin
from repro.parallel import plan_job
from repro.temporal import Interval


@pytest.fixture(scope="module")
def cluster():
    """One reducer worker for the module's cluster runs."""
    worker, _ = start_worker()
    yield [worker.address]
    worker.shutdown()
    worker.server_close()


def _gms_paths(segments, epsilon, weights, addresses, shard_size):
    """The four GMS engines: python heap, numpy (one shard), threads and
    an in-process cluster worker."""
    return {
        "python": gms_reduce_to_error(segments, epsilon, weights,
                                      backend="python"),
        "numpy": gms_reduce_to_error(segments, epsilon, weights,
                                     backend="numpy"),
        "workers": compress(segments, max_error=epsilon, weights=weights,
                            workers=2, shard_size=shard_size),
        "cluster": reduce_cluster(segments, max_error=epsilon,
                                  weights=weights, cluster=addresses,
                                  shard_size=shard_size),
    }


def _outcome(result):
    return (
        [(s.group, s.values, s.interval) for s in result.segments],
        result.error.hex(),
    )


# ----------------------------------------------------------------------
# The split input
# ----------------------------------------------------------------------
def split_input():
    """65 point tuples of one run, values offset by 1e5, and the ``ε``
    whose budget fell between the spellings."""
    rng = random.Random(124)
    count = rng.randint(30, 120)
    segments = [
        AggregateSegment((), (1e5 + 1e3 * rng.random(), rng.random()),
                         Interval(t, t))
        for t in range(count)
    ]
    return segments, 0.6000004230393068


def test_every_engine_stops_at_the_same_merge(cluster):
    """The two-pass sum and the trajectory's key sum gave this ``ε`` 11
    segments on the python heap, DP and online gPTAε, but 12 on numpy GMS
    and ``workers=2``."""
    segments, epsilon = split_input()
    assert len(segments) == 65
    gms = _gms_paths(segments, epsilon, None, cluster, None)
    online = {
        backend: greedy_reduce_to_error(
            segments, epsilon, input_size_estimate=len(segments),
            max_error_estimate=max_error(segments), backend=backend,
        )
        for backend in ("python", "numpy")
    }
    exact = {
        backend: dp.reduce_to_error(segments, epsilon, backend=backend)
        for backend in ("python", "numpy")
    }
    sizes = {
        **{f"gms {name}": r.size for name, r in gms.items()},
        **{f"online {name}": r.size for name, r in online.items()},
        **{f"dp {name}": r.size for name, r in exact.items()},
    }
    assert set(sizes.values()) == {11}, sizes
    outcomes = {name: _outcome(result) for name, result in gms.items()}
    assert len(set(map(repr, outcomes.values()))) == 1, outcomes


def test_the_sharded_budget_is_max_errors():
    segments, epsilon = split_input()
    job = plan_job(segments, None, epsilon, None, None)
    assert job.budget.hex() == error_budget(epsilon, max_error(segments)).hex()
    assert plan_job(segments, 4, None, None, None).budget is None


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
@st.composite
def streams(draw):
    """``(segments, weights, cuts)``: a short stream with gaps and group
    changes, offset values, and where to cut it into chunks."""
    count = draw(st.integers(min_value=2, max_value=36))
    width = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1e5, -1e6]))
    gap_rate = draw(st.sampled_from([0.0, 0.15]))
    group_rate = draw(st.sampled_from([0.0, 0.15]))
    change = rng.random(count) < group_rate
    change[0] = False
    group_ids = np.cumsum(change)
    lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < gap_rate, 1, 0)
    starts = np.cumsum(lengths + gaps) - lengths
    values = offset + 1e3 * rng.random((count, width))
    segments = [
        AggregateSegment((f"g{group}",), tuple(row),
                         Interval(start, start + length - 1))
        for group, row, start, length in zip(
            group_ids.tolist(), values.tolist(), starts.tolist(),
            lengths.tolist(),
        )
    ]
    weights = (
        tuple(rng.uniform(0.5, 2.0, width).tolist())
        if draw(st.booleans()) else None
    )
    cuts = sorted(set(
        draw(st.lists(st.integers(1, count - 1), max_size=5))
    ))
    return segments, weights, cuts


def running_totals(segments, weights):
    """The greedy merges' running totals: one schedule, keys in order,
    added left to right (the merge order of every GMS engine)."""
    encoded = encode_segments(segments)
    w2 = np.array([w * w for w in (weights or (1.0,) * encoded.dimensions)])
    keys = greedy_merge_trajectory(
        encoded.starts, encoded.ends, encoded.values, encoded.groups, w2,
    )[1]
    order = np.argsort(np.maximum.accumulate(keys), kind="stable")
    return np.cumsum(keys[order]).tolist(), keys


@st.composite
def budgets(draw):
    """A stream and an ``ε`` whose budget lands on, just above or just
    below a running total, or whose product with ``max_error`` lands on
    one of the three spellings ``SSE_max`` had."""
    segments, weights, cuts = draw(streams())
    totals, keys = running_totals(segments, weights)
    sse_max = max_error(segments, weights)
    if not totals or sse_max == 0.0:
        return segments, weights, cuts, draw(st.floats(0.0, 1.0))
    aim = draw(st.sampled_from(["total", "budget", "spelling"]))
    if aim == "spelling":
        spelling = draw(st.sampled_from([
            collapse_error(segments, weights),  # the two-pass sum
            sse_max,  # the tracker's fold
            float(keys.sum()),  # the trajectory's key sum
        ]))
        epsilon = spelling / sse_max
    else:
        total = draw(st.sampled_from(totals))
        if aim == "budget":  # error_budget(ε, SSE_max) about the total
            total = (total - 1e-9) / (1 + 1e-9)
        epsilon = total / sse_max
    epsilon = draw(st.sampled_from([
        epsilon, math.nextafter(epsilon, math.inf),
        math.nextafter(epsilon, 0.0),
    ]))
    return segments, weights, cuts, min(max(epsilon, 0.0), 1.0)


@settings(max_examples=150, deadline=None)
@given(drawn=budgets())
def test_one_budget_for_every_engine(cluster, drawn):
    segments, weights, cuts, epsilon = drawn
    budget = error_budget(epsilon, max_error(segments, weights))
    gms = _gms_paths(segments, epsilon, weights, cluster, 8)
    outcomes = {name: _outcome(result) for name, result in gms.items()}
    assert len(set(map(repr, outcomes.values()))) == 1, outcomes
    assert gms["python"].error <= budget
    assert gms["python"].size >= cmin(segments)

    for backend in ("python", "numpy"):
        exact = dp.reduce_to_error(segments, epsilon, weights,
                                   backend=backend)
        assert exact.error <= budget
        reducer = OnlineReducer(max_error=epsilon, weights=weights,
                                backend=backend)
        bounds = [0, *cuts, len(segments)]
        for lo, hi in zip(bounds, bounds[1:]):
            reducer.push_chunk(segments[lo:hi])
        assert reducer._tracker.total().hex() == max_error(
            segments, weights
        ).hex()
        assert reducer.finalize().error <= budget
