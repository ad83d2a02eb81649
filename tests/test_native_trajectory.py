"""The compiled merge schedule against its Python oracle.

:func:`repro.core.kernels.greedy_merge_trajectory` runs ``_trajectory.c``,
its only product path; :func:`oracles.trajectory` is the Python loop it
was written from, with the NumPy prologue (initial keys and their stable
order) that the C loop computes itself.  The parity properties call both
on drawn shards and require the same dtype, shape and bytes in all four
output columns, also where keys overflow to ``inf`` and ``NaN``, where
ends reach the largest int64 and where initial keys tie exactly.  The
remaining tests cover errors, the buffer checks, the GIL, and the
end-of-input stop rule against the oracle's twin of it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repro.core import native
from repro.core.kernels import greedy_merge_trajectory


def shard(rng: np.random.Generator, *, count: int, width: int, groups: int,
          offset: float, magnitude: float, ties: bool, weighted: bool):
    """``count`` blocks in ``groups`` groups, chronological within a group,
    with random gaps and lengths."""
    group_of = np.sort(rng.integers(0, groups, count)).astype(np.int64)
    lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < 0.1, rng.integers(1, 5, count), 0)
    starts = (np.cumsum(lengths + gaps) - lengths).astype(np.int64)
    ends = starts + lengths - 1
    with np.errstate(over="ignore"):
        values = offset + magnitude * rng.normal(size=(count, width))
        if ties:
            values = np.round(values / max(magnitude, 1.0) * 3.0)
    w2 = rng.uniform(0.25, 4.0, width) if weighted else np.ones(width)
    return starts, ends, values, group_of, w2


def draw(seed: int):
    rng = np.random.default_rng(seed)
    return shard(
        rng,
        count=int(rng.integers(0, 401)),
        width=int(rng.choice([1, 2, 5])),
        groups=int(rng.integers(1, 4)),
        offset=float(rng.choice([0.0, 1e6, -1e6, 1.7e308])),
        magnitude=float(rng.choice([1.0, 10.0, 1e154, 1e300])),
        ties=bool(rng.random() < 0.3),
        weighted=bool(rng.random() < 0.5),
    )


def assert_same(got, want):
    assert len(got) == len(want) == 4
    for column, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype, column
        assert a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column


def both(*args):
    with np.errstate(all="ignore"):  # keys that overflow
        return greedy_merge_trajectory(*args), oracles.trajectory(*args)


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block", range(8))
def test_compiled_schedule_is_the_oracles_schedule(block):
    """400 drawn shards: n <= 400, 1-3 groups with gaps, p in {1, 2, 5},
    weights, integer-valued ties, offsets of 1e6, and magnitudes of
    1e154-1e300 or an offset of 1.7e308, where keys and merged rows
    overflow to inf and later keys to NaN."""
    for seed in range(block * 50, block * 50 + 50):
        assert_same(*both(*draw(seed)))


def test_the_draws_reach_inf_and_nan_keys():
    """The parity draws above do hold schedules with inf and NaN keys."""
    seen = set()
    for seed in range(400):
        starts, ends, values, groups, w2 = draw(seed)
        with np.errstate(all="ignore"):
            _, keys, _, _ = oracles.trajectory(starts, ends, values, groups,
                                               w2)
        seen.update(("inf",) if np.isinf(keys).any() else ())
        seen.update(("nan",) if np.isnan(keys).any() else ())
    assert seen == {"inf", "nan"}


INT64_MAX = 2**63 - 1


def edge_draw(seed: int):
    """Shards at the frontier's edges, five kinds by ``seed % 5``: NaN
    initial keys (a zero weight times a ``diff * diff`` that overflows),
    inf keys (magnitudes near 1e300), offsets of 1e8, every group's last
    end at ``2**63 - 1`` (with a wrapped successor and full-span blocks),
    and exact key ties; each over up to 40 groups."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    width = int(rng.choice([1, 2, 3]))
    starts, ends, values, groups, w2 = shard(
        rng,
        count=int(rng.integers(2, 301)),
        width=width,
        groups=int(rng.integers(1, 41)),
        offset=1e8 if kind == 2 else 0.0,
        magnitude=float(rng.choice([1e299, 1e300])) if kind in (0, 1) else 1.0,
        ties=kind == 4,
        weighted=kind != 4,
    )
    if kind == 0:
        w2[int(rng.integers(0, width))] = 0.0
    if kind == 3:
        # Shift each group so that its last block ends at the largest
        # int64; then let a block ending there be followed, in its group,
        # by one at the smallest int64, and some blocks span everything.
        for group in np.unique(groups):
            rows = groups == group
            shift = INT64_MAX - int(ends[rows].max())
            starts[rows] += shift
            ends[rows] += shift
        last = np.flatnonzero(ends == INT64_MAX)
        if len(last) and last[0] + 1 < len(starts):
            wrapped = last[0] + 1
            groups[wrapped] = groups[last[0]]
            starts[wrapped] = -(2**63)
        full = rng.random(len(starts)) < 0.05
        starts[full], ends[full] = -(2**63), INT64_MAX
    if kind == 4:
        # Unit blocks with small integer values: many equal keys.
        ends = starts.copy()
        values = rng.integers(0, 3, values.shape).astype(np.float64)
    return starts, ends, values, groups, w2


@pytest.mark.parametrize("block", range(5))
def test_the_frontier_meets_nan_inf_int64_ends_and_ties(block):
    """250 edge shards: the C frontier (keys, adjacency and the stable
    order of the finite keys) against the oracle's NumPy prologue, bit
    for bit in every output column."""
    for seed in range(block * 50, block * 50 + 50):
        assert_same(*both(*edge_draw(seed)))


def test_the_edge_draws_reach_every_edge():
    """The edge draws hold NaN and inf initial keys, ends at the largest
    int64 followed in their group by a wrapped start, full-span blocks,
    and exactly equal finite initial keys."""
    seen = set()
    for seed in range(250):
        starts, ends, values, groups, w2 = edge_draw(seed)
        with np.errstate(all="ignore"):
            keys = oracles.pairwise_merge_keys(starts, ends, values, groups,
                                               w2)
        finite = keys[np.isfinite(keys)]
        seen.update(("nan",) if np.isnan(keys).any() else ())
        seen.update(("inf",) if np.isinf(keys).any() else ())
        seen.update(("tie",) if len(np.unique(finite)) < len(finite) else ())
        seen.update(("full",) if ((starts == -(2**63))
                                  & (ends == INT64_MAX)).any() else ())
        at_max = np.flatnonzero(ends[:-1] == INT64_MAX)
        seen.update(("wrap",) if (
            (groups[at_max] == groups[at_max + 1])
            & (starts[at_max + 1] == -(2**63))
        ).any() else ())
    assert seen == {"nan", "inf", "tie", "full", "wrap"}


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_tiny_shards(count):
    starts = np.arange(count, dtype=np.int64)
    values = np.arange(count * 2, dtype=np.float64).reshape(count, 2)
    assert_same(*both(starts, starts, values, np.zeros(count, np.int64),
                      np.ones(2)))


def test_shards_without_merges_and_other_dtypes():
    """No adjacent pair; int32 endpoints, float32 values, list weights."""
    starts = np.arange(0, 20, 2, dtype=np.int64)
    values = np.ones((10, 1))
    assert_same(*both(starts, starts, values, np.zeros(10, np.int64),
                      np.ones(1)))
    rng = np.random.default_rng(4)
    starts, ends, values, groups, _ = shard(
        rng, count=300, width=2, groups=2, offset=0.0, magnitude=1.0,
        ties=True, weighted=False,
    )
    assert_same(*both(starts.astype(np.int32), ends.astype(np.int32),
                      values.astype(np.float32), groups, [1.0, 2.0]))


def test_a_reversed_block_raises_in_both_loops():
    """A block of length -1 next to one of length 1: the compiled loop's
    columns loader refuses the reversed block before any arithmetic, and
    the oracle's merged row divides by zero."""
    starts = np.array([0, 1, 5], dtype=np.int64)
    ends = np.array([0, -1, 5], dtype=np.int64)
    values = np.array([[1.0], [2.0], [3.0]])
    args = (starts, ends, values, np.zeros(3, np.int64), np.ones(1))
    with pytest.raises(ValueError, match="row 1 ends at -1 before"):
        greedy_merge_trajectory(*args)
    with np.errstate(all="ignore"), pytest.raises(ZeroDivisionError):
        oracles.trajectory(*args)


def test_the_schedule_runs_the_compiled_loop(monkeypatch):
    calls = []
    kernel = native.KERNEL

    class Counting:
        @staticmethod
        def trajectory(*args):
            calls.append(len(args))
            return kernel.trajectory(*args)

    monkeypatch.setattr(native, "KERNEL", Counting)
    starts, ends, values, groups, w2 = draw(7)
    assert_same(greedy_merge_trajectory(starts, ends, values, groups, w2),
                oracles.trajectory(starts, ends, values, groups, w2))
    assert calls == [9]


def test_the_kernel_checks_its_buffers():
    kernel = native.KERNEL
    starts = np.arange(3, dtype=np.int64)
    args = [starts, starts.copy(), np.zeros(3, np.int64), np.zeros(3),
            np.ones(1), np.empty(2, np.int64), np.empty(2),
            np.empty(2, np.int64), np.empty(2)]
    assert kernel.trajectory(*args) == 2
    bad = list(args)
    bad[1] = np.array([0, 0, 1], np.int64)  # a block ending before it starts
    with pytest.raises(ValueError):
        kernel.trajectory(*bad)
    bad = list(args)
    bad[5] = np.empty(1, np.int64)  # too short for n - 1 steps
    with pytest.raises(ValueError):
        kernel.trajectory(*bad)
    bad = list(args)
    bad[4] = np.ones(0)  # fewer weights than dimensions
    with pytest.raises(ValueError):
        kernel.trajectory(*bad)
    bad = list(args)
    bad[:3] = [starts[:1], starts[:1], np.zeros(1, np.int64)]
    bad[3] = np.zeros(1)  # one block: no schedule
    with pytest.raises(ValueError):
        kernel.trajectory(*bad)
    for position, wrong in ((3, np.zeros(3, np.float32)),
                            (2, np.zeros(3, np.int32))):
        bad = list(args)
        bad[position] = wrong  # float32 values, int32 groups
        with pytest.raises(TypeError):
            kernel.trajectory(*bad)


# ----------------------------------------------------------------------
# The GIL
# ----------------------------------------------------------------------
def test_another_thread_runs_during_a_large_trajectory(monkeypatch):
    kernel = native.KERNEL
    window = []

    class Timed:
        @staticmethod
        def trajectory(*args):
            window.append(time.perf_counter())
            try:
                return kernel.trajectory(*args)
            finally:
                window.append(time.perf_counter())

    monkeypatch.setattr(native, "KERNEL", Timed)
    starts, ends, values, groups, w2 = shard(
        np.random.default_rng(5), count=200_000, width=1, groups=1,
        offset=0.0, magnitude=1.0, ties=False, weighted=False,
    )
    ticks = []
    done = threading.Event()

    def ticker():
        while not done.is_set():
            ticks.append(time.perf_counter())
            time.sleep(0)

    thread = threading.Thread(target=ticker)
    thread.start()
    try:
        boundaries, _, _, _ = greedy_merge_trajectory(
            starts, ends, values, groups, w2
        )
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(boundaries) > 150_000
    # The middle half of the call: the ticker can also run between the
    # timestamps and the call itself, but not inside it unless the loop
    # lets go of the GIL.
    began, ended = window
    quarter = (ended - began) / 4
    inside = [tick for tick in ticks if began + quarter < tick < ended - quarter]
    assert inside, (
        f"no tick in the middle of the {ended - began:.3f} s the compiled "
        f"loop ran ({threading.active_count()} threads alive)"
    )


# ----------------------------------------------------------------------
# The end-of-input stop rule (finalize_mirror's call)
# ----------------------------------------------------------------------
def stop_call(limit, budget, total_error=0.0, values=(1.0, 1.5, 5.0, 7.0)):
    n = len(values)
    starts = np.arange(n, dtype=np.int64)
    buffers = (np.empty(n - 1, np.int64), np.empty(n - 1),
               np.empty(n - 1, np.int64), np.empty(n - 1))
    return native.KERNEL.trajectory(
        starts, starts.copy(), np.zeros(n, np.int64),
        np.asarray(values, np.float64), np.ones(1), *buffers,
        limit, budget, total_error,
    ), buffers


@pytest.mark.parametrize("limit", [-1, 4, 10])
def test_stop_rule_refuses_a_limit_outside_the_schedule(limit):
    with pytest.raises(ValueError, match="limit must be within"):
        stop_call(limit, float("inf"))


def test_stop_rule_prefix_equals_the_full_schedule():
    values = (1.0, 1.5, 5.0, 7.0)
    full = greedy_merge_trajectory(
        np.arange(4), np.arange(4), np.array(values).reshape(-1, 1),
        np.zeros(4, np.int64), np.ones(1))
    for limit in range(4):
        (steps, tie, total), buffers = stop_call(limit, float("inf"))
        assert (steps, tie) == (limit, -1)
        assert buffers[1][:steps].tobytes() == full[1][:limit].tobytes()
        expected = 0.0
        for key in full[1][:limit].tolist():
            expected += key
        assert total == expected


def test_stop_rule_budget_and_a_nan_budget():
    (steps, _, total), _ = stop_call(3, 1.0, total_error=0.5)
    assert (steps, total) == (1, 0.5 + 0.125)
    # ``total + key > nan`` is never true: a NaN budget never stops, as in
    # the heaps' end-of-input loops.
    assert stop_call(3, float("nan"))[0] == stop_call(3, float("inf"))[0]


def test_stop_rule_reports_the_first_tie():
    (steps, tie, _), _ = stop_call(3, float("inf"), values=(0.0, 1.0, 2.0, 3.0))
    assert (steps, tie) == (0, 0)
    (steps, tie, _), _ = stop_call(3, float("inf"), values=(0.0, 0.0, 5.0, 7.0))
    assert (steps, tie) == (3, -1)


def stopped(starts, ends, values, groups, w2, limit, budget, total_error):
    """The kernel with its stop rule, cast as ``finalize_mirror`` casts,
    as ``((boundaries, keys, heads, rows), tie, total_error)`` cut to the
    steps taken; the oracle's twin returns the same triple."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n, p = values.shape
    buffers = (np.empty(n - 1, np.int64), np.empty(n - 1),
               np.empty(n - 1, np.int64), np.empty((n - 1) * p))
    with np.errstate(all="ignore"):
        steps, tie, total = native.KERNEL.trajectory(
            np.ascontiguousarray(starts, dtype=np.int64),
            np.ascontiguousarray(ends, dtype=np.int64),
            np.ascontiguousarray(groups, dtype=np.int64), values,
            np.ascontiguousarray(w2, dtype=np.float64)[:p], *buffers,
            limit, budget, total_error,
        )
    boundaries, keys, heads, rows = buffers
    return (boundaries[:steps], keys[:steps], heads[:steps],
            rows[: steps * p].reshape(-1, p)), tie, total


def stop_draw(data, seed: int, edge: bool):
    """A parity or edge shard of two blocks or more, with a limit, a
    starting error and a budget: none, NaN, random, or exactly a running
    total of the unstopped schedule (or the float below it), where the
    stop falls between two steps."""
    starts, ends, values, groups, w2 = (edge_draw if edge else draw)(seed)
    if len(starts) < 2:
        starts, ends = np.arange(2), np.arange(2)
        values, groups = np.zeros((2, values.shape[1])), np.zeros(2, np.int64)
    n = len(starts)
    limit = data.draw(st.one_of(st.just(n - 1), st.integers(0, n - 1)))
    total_error = data.draw(st.sampled_from([0.0, 0.0, 0.75, 1e300]))
    with np.errstate(all="ignore"):
        keys = oracles.trajectory(starts, ends, values, groups, w2)[1]
    running, totals = total_error, []
    for key in keys.tolist():
        running += key
        totals.append(running)
    kind = data.draw(st.sampled_from(["none", "nan", "random", "running"]))
    if kind == "running" and totals:
        budget = data.draw(st.sampled_from(totals))
        if data.draw(st.booleans()):
            budget = float(np.nextafter(budget, -np.inf))
    elif kind == "nan":
        budget = float("nan")
    elif kind == "random":
        budget = total_error + data.draw(st.floats(0.0, 1e3))
    else:
        budget = float("inf")
    return (starts, ends, values, groups, w2), (limit, budget, total_error)


def assert_same_stop(got, want):
    (got_schedule, got_tie, got_total), (schedule, tie, total) = got, want
    assert_same(got_schedule, schedule)
    assert got_tie == tie
    assert np.float64(got_total).tobytes() == np.float64(total).tobytes()


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), edge=st.booleans(), data=st.data())
def test_the_stop_rule_is_the_oracles(seed, edge, data):
    """Steps, tie report, running error and the schedule prefix of the
    stopped kernel, bit for bit against ``oracles.trajectory(stop=...)``
    on the parity and edge draws: ties (exact integer keys, also behind
    stale entries), NaN initial and refreshed keys, inf keys, limits and
    budgets that fall on a step."""
    columns, stop = stop_draw(data, seed, edge)
    with np.errstate(all="ignore"):
        want = oracles.trajectory(*columns, stop=stop)
    assert_same_stop(stopped(*columns, *stop), want)


@pytest.mark.parametrize("block", range(4))
def test_the_unbounded_stop_rule_on_every_draw(block):
    """Every parity and edge draw of two blocks or more with no budget and
    the longest limit: the stop falls only at an inf key or a tie, so the
    tie report meets every tie the draws hold, stale entries included."""
    for seed in range(block * 100, block * 100 + 100):
        for columns in (draw(seed), edge_draw(seed)):
            n = len(columns[0])
            if n < 2:
                continue
            stop = (n - 1, float("inf"), 0.0)
            with np.errstate(all="ignore"):
                want = oracles.trajectory(*columns, stop=stop)
            assert_same_stop(stopped(*columns, *stop), want)


def test_the_stop_draws_reach_every_stop():
    """The stop property's shards do stop at a limit, at the budget, at
    an inf key, at a popped tie and at a NaN initial key (a NaN refreshed
    key has its own case below)."""
    seen = set()
    for seed in range(400):
        for edge in (False, True):
            starts, ends, values, groups, w2 = (edge_draw if edge
                                                else draw)(seed)
            if len(starts) < 2:
                continue
            n = len(starts)
            with np.errstate(all="ignore"):
                full = oracles.trajectory(starts, ends, values, groups, w2)
                (schedule, tie, _) = oracles.trajectory(
                    starts, ends, values, groups, w2,
                    stop=(n - 1, float("inf"), 0.0))
                limited = oracles.trajectory(
                    starts, ends, values, groups, w2,
                    stop=(min(3, n - 1), 1.0, 0.0))
                initial = oracles.pairwise_merge_keys(starts, ends, values,
                                                      groups, w2)
            steps = len(schedule[0])
            if tie >= 0:
                seen.add("nan initial" if np.isnan(initial).any() else "tie")
            elif steps < len(full[0]) and np.isinf(full[1][steps]):
                seen.add("inf")
            limited_steps = len(limited[0][0])
            if limited[1] < 0:
                seen.add("limit" if limited_steps == min(3, n - 1)
                         else "budget")
    assert {"limit", "budget", "inf", "tie", "nan initial"} <= seen


def test_a_nan_refreshed_key_is_the_tie_of_its_step():
    """Finite initial keys, then a NaN: the first merge's row overflows to
    inf in a zero-weight dimension, and ``0 * inf`` is the refreshed key
    of its successor.  The step that computed it is the tie, taken."""
    starts = np.arange(4, dtype=np.int64)
    values = np.array([[0.0, 1.7e308], [1.0, 1.7e308], [3.0, 1.7e308],
                       [6.0, 1.7e308]])
    columns = (starts, starts.copy(), values, np.zeros(4, np.int64),
               np.array([1.0, 0.0]))
    with np.errstate(all="ignore"):
        want = oracles.trajectory(*columns, stop=(3, float("inf"), 0.0))
    assert want[1:] == (0, 0.5)
    assert want[0][0].tolist() == [1]
    assert_same_stop(stopped(*columns, 3, float("inf"), 0.0), want)
