"""Python references of the compiled loops (``_activate.c``,
``_trajectory.c``, ``_dp.c``, ``_sse.c``).

Each function here is the loop its C kernel was written from, kept as
the oracle the parity suites hold the kernel to, bit for bit:

* :func:`activate` — :meth:`repro.core.kernels.NumpyMergeHeap.activate_staged_all`
  and :meth:`~repro.core.kernels.NumpyMergeHeap.merge_down` (the
  end-of-input phase) over a heap's own columns
  (``tests/test_native_kernel.py``);
* :func:`trajectory` — :func:`repro.core.kernels.greedy_merge_trajectory`
  (``tests/test_native_trajectory.py``), with its NumPy prologue
  (:func:`pairwise_merge_keys` and :func:`frontier`: the initial keys and
  their stable order, which the C loop computes itself);
* :func:`dp_fill_next_row` — one row of the exact DP's error matrix on the
  numpy backend, one :func:`best_split` per cell
  (``tests/test_native_dp.py``);
* :func:`sse_fold` — the ``SSE_max`` of every error budget, the fold of
  :func:`repro.core.errors.max_error` and of the streaming tracker of
  :class:`repro.core.greedy.OnlineReducer` (``tests/test_native_sse.py``).

None of them runs in the package: each compiled loop is its only
product path.
"""

from __future__ import annotations

import bisect
import heapq
import math
from array import array
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dp import _ErrorMatrix
from repro.core.errors import Weights, merge_key, squared_weights
from repro.core.kernels import (
    DeltaLog,
    NumpyMergeHeap,
    NumpyPrefixSums,
    Trajectory,
    _no_steps,
    _weighted_sum,
    adjacent_pair_mask,
    interval_lengths,
)
from repro.core.merge import AggregateSegment, adjacent, merged_row


# ----------------------------------------------------------------------
# The online activate-then-drain loop (_activate.c)
# ----------------------------------------------------------------------
def activate(
    heap: NumpyMergeHeap,
    size: Optional[int] = None,
    step_threshold: float = 0.0,
    delta: float = 1,
    last_gap_id: int = 0,
    before_gap: int = 0,
    after_gap: int = 0,
    total_error: float = 0.0,
    merges: int = 0,
    log: Optional[DeltaLog] = None,
    end_of_input: bool = False,
    budget: float = math.inf,
) -> Tuple[int, int, int, float, int]:
    """``KERNEL.activate`` in Python: activate the heap's staged tuples,
    draining merges in between
    (:meth:`~repro.core.kernels.NumpyMergeHeap.activate_staged_all`);
    then, with ``end_of_input``, run the end-of-input phase
    (:meth:`~repro.core.kernels.NumpyMergeHeap.merge_down`: merge down to
    ``size``, or while the error stays within ``budget``, with the gap
    rules off).  Returns the updated ``(last_gap_id, before_gap,
    after_gap, total_error, merges)``."""
    first = heap._count
    stop = heap._staged_end
    if first >= stop and not end_of_input:
        return last_gap_id, before_gap, after_gap, total_error, merges

    # Local aliases of every column touched by the hot loop.
    start = heap._start
    end = heap._end
    group = heap._group
    prev_ = heap._prev
    next_ = heap._next
    key = heap._key
    version = heap._version
    alive = heap._alive
    node_id = heap._node_id
    values = heap._values
    length = heap._length
    w2 = heap._w2
    entries = heap._entries
    push = heapq.heappush
    pop = heapq.heappop
    counter = heap._entry_counter
    live = heap._size
    max_size = heap.max_size
    head = heap._head
    tail = heap._tail
    inf = math.inf
    size_bounded = size is not None
    delta_is_inf = delta == math.inf
    delta_is_one = delta == 1
    delta_int = 0 if delta_is_inf else int(delta)
    group_keys = heap._group_keys
    record_insert = log.record_insert if log is not None else None
    record_merge = log.record_merge if log is not None else None

    def drain(final: bool) -> None:
        """Merge while the policy allows: one iteration per merge."""
        nonlocal counter, live, tail, before_gap, after_gap, total_error
        nonlocal merges
        while True:
            if size_bounded and live <= size:
                break
            top_index = -1
            while entries:
                entry_key, _, entry_index, entry_version = entries[0]
                if (
                    alive[entry_index]
                    and version[entry_index] == entry_version
                    and key[entry_index] == entry_key
                ):
                    top_index = entry_index
                    top_key = entry_key
                    break
                pop(entries)
            if top_index < 0:
                break
            if final:
                # End of input: no gap rules; stop at cmin or the budget.
                if top_key == inf or total_error + top_key > budget:
                    break
            elif not size_bounded and top_key > step_threshold:
                break
            elif node_id[top_index] < last_gap_id:
                if size_bounded and before_gap < size:
                    break
                before_gap -= 1
            elif node_id[top_index] > last_gap_id:
                if delta_is_one:
                    successor = next_[top_index]
                    if (
                        successor < 0
                        or group[top_index] != group[successor]
                        or end[top_index] + 1 != start[successor]
                    ):
                        break
                elif delta_is_inf:
                    break
                elif delta_int:
                    count = 0
                    cursor = top_index
                    while count < delta_int:
                        successor = next_[cursor]
                        if (
                            successor < 0
                            or group[cursor] != group[successor]
                            or end[cursor] + 1 != start[successor]
                        ):
                            break
                        count += 1
                        cursor = successor
                    if count < delta_int:
                        break
                after_gap -= 1
            else:
                break
            total_error += top_key
            merges += 1
            # The winning entry is consumed by this merge: pop it now
            # instead of leaving it to go stale (same heap contents,
            # one fewer lazy validity round per merge).
            pop(entries)

            # Fold the top into its predecessor.
            predecessor = prev_[top_index]
            left_length = length[predecessor]
            right_length = length[top_index]
            merged = merged_row(
                left_length, right_length, values[predecessor],
                values[top_index],
            )
            # The merged interval's length, as the python heap takes it.
            length_sum = float(end[top_index] - start[predecessor] + 1)
            values[predecessor] = merged
            end[predecessor] = end[top_index]
            length[predecessor] = length_sum
            successor = next_[top_index]
            next_[predecessor] = successor
            if successor >= 0:
                prev_[successor] = predecessor
            else:
                tail = predecessor
            alive[top_index] = False
            live -= 1

            # Refresh the predecessor's key, then the successor's (the
            # entry-counter order of the python heap's merge_top).
            before = prev_[predecessor]
            if (
                before >= 0
                and group[before] == group[predecessor]
                and end[before] + 1 == start[predecessor]
            ):
                refreshed = merge_key(
                    length[before], length_sum, values[before], merged, w2
                )
                key[predecessor] = refreshed
                version[predecessor] += 1
                counter += 1
                push(
                    entries,
                    (refreshed, counter, predecessor,
                     version[predecessor]),
                )
            else:
                key[predecessor] = inf
                version[predecessor] += 1
            if successor >= 0:
                if (
                    group[predecessor] == group[successor]
                    and end[predecessor] + 1 == start[successor]
                ):
                    refreshed = merge_key(
                        length_sum, length[successor], merged,
                        values[successor], w2,
                    )
                    key[successor] = refreshed
                    version[successor] += 1
                    counter += 1
                    push(
                        entries,
                        (refreshed, counter, successor,
                         version[successor]),
                    )
                else:
                    key[successor] = inf
                    version[successor] += 1
            if record_merge is not None:
                record_merge(node_id[top_index], node_id[predecessor], merged)

    # Staged rows are fresh (version 0, unlinked, unreachable until
    # activated), so liveness and the activation version bump can be
    # written for the whole span up front with two slice assignments.
    alive[first:stop] = [True] * (stop - first)
    version[first:stop] = [1] * (stop - first)

    for index in range(first, stop):
        # Activate the tuple, then drain the merges it makes eligible.
        previous = tail
        prev_[index] = previous
        if previous >= 0:
            next_[previous] = index
        else:
            head = index
        tail = index
        live += 1
        if live > max_size:
            max_size = live
        # The key against the live tail.
        if (
            previous >= 0
            and group[previous] == group[index]
            and end[previous] + 1 == start[index]
        ):
            activation_key = merge_key(
                length[previous], length[index], values[previous],
                values[index], w2,
            )
        else:
            activation_key = inf
        key[index] = activation_key
        if activation_key != inf:
            counter += 1
            push(entries, (activation_key, counter, index, 1))
            after_gap += 1
        else:
            last_gap_id = node_id[index]
            before_gap += after_gap
            after_gap = 1
        if record_insert is not None:
            record_insert(
                node_id[index],
                start[index],
                end[index],
                group_keys[group[index]],
                values[index],
            )
        drain(False)
    if end_of_input:
        drain(True)

    heap._activated(max(first, stop), live, max_size, head, tail, counter)
    return last_gap_id, before_gap, after_gap, total_error, merges


# ----------------------------------------------------------------------
# The sharded engine's merge schedule (_trajectory.c)
# ----------------------------------------------------------------------
def pairwise_merge_keys(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: Sequence[float],
) -> np.ndarray:
    """Merge error of every consecutive pair, ``inf`` where not adjacent.

    The vector form of :func:`repro.core.errors.merge_key`: the same
    ``(w²_d · factor) · (diff · diff)`` terms on float lengths, summed from
    ``0.0`` one dimension at a time, so a key computed in batch carries the
    same bits as the scalar key of the same pair.  Only the rows are
    vectorized.
    """
    if len(starts) < 2:
        return np.zeros(0, dtype=np.float64)
    adjacent = adjacent_pair_mask(starts, ends, groups)
    lengths = interval_lengths(starts, ends)
    left_len = lengths[:-1]
    right_len = lengths[1:]
    factor = left_len * right_len / (left_len + right_len)
    pair = np.zeros(len(factor), dtype=np.float64)
    for d in range(values.shape[1]):
        diff = values[:-1, d] - values[1:, d]
        pair += (w2[d] * factor) * (diff * diff)
    return np.where(adjacent, pair, math.inf)


def frontier(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacency and initial key of every consecutive pair, and the pair
    positions of the finite keys in ``(key, position)`` order: the
    prefix of one stable ``argsort``, so NaN and inf keys stay out."""
    adjacent = adjacent_pair_mask(starts, ends, groups)
    initial = pairwise_merge_keys(starts, ends, values, groups, w2)
    order = np.argsort(initial, kind="stable")
    return adjacent, initial, order[: int(np.count_nonzero(initial < math.inf))]


def trajectory(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: np.ndarray,
    stop: Optional[Tuple[int, float, float]] = None,
):
    """:func:`~repro.core.kernels.greedy_merge_trajectory` in Python,
    on the columns cast as the product casts them.

    ``stop = (limit, budget, total_error)`` is the kernel's end-of-input
    stop rule (:func:`~repro.core.kernels.finalize_mirror`'s call): at
    most ``limit`` steps, none that takes the running error, counted from
    ``total_error``, above ``budget`` or that pops an infinite key, and a
    stop at the first tie — a popped key equal to the smallest key left
    in the frontier or the refresh queue, valid or stale, or a NaN key,
    initial (tie 0) or refreshed (the step that computed it).  It then
    returns ``(trajectory, tie, total_error)``, ``tie`` -1 for none.
    """
    starts, ends, groups = (
        np.asarray(column, dtype=np.int64) for column in (starts, ends, groups)
    )
    values = np.asarray(values, dtype=np.float64)
    n = len(starts)
    p = values.shape[1]
    tie = -1
    if stop is not None:
        limit, budget, total = stop
        if n < 2:
            raise ValueError("a schedule needs two blocks")
        if not 0 <= limit <= n - 1:
            raise ValueError(f"limit must be within [0, {n - 1}], got {limit}")
    elif n < 2:
        return _no_steps(p)
    adjacent, initial, order = frontier(starts, ends, values, groups, w2)
    if stop is not None and np.isnan(initial).any():
        return _no_steps(p), 0, total
    frontier_keys = initial[order].tolist()
    frontier_nodes = (order + 1).tolist()

    # Node i is the block starting at original position i, with its float
    # length and merged row.  ``key`` is the current key, ``queued`` /
    # ``queued_key`` the counter and key of the node's entry still in the
    # queue.
    length = interval_lengths(starts, ends).tolist()
    start_of, end_of = starts.tolist(), ends.tolist()
    row = values.tolist()
    weights = [float(weight) for weight in w2]
    prev_ = list(range(-1, n - 1))
    next_ = list(range(1, n + 1))
    next_[-1] = -1
    stamp = [0]
    stamp.extend(adjacent.astype(np.int64).tolist())
    queued = list(stamp)
    key = [math.inf] * n
    queued_key = [math.inf]
    queued_key.extend(initial.tolist())

    # The schedule columns grow as flat machine buffers, not lists of
    # Python numbers: a shard's rows are ``steps * p`` floats.
    boundaries = array("q")
    merge_keys = array("d")
    heads = array("q")
    rows = array("d")
    heap: List[Tuple[float, int, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    counter = 1
    position = 0
    frontier_size = len(frontier_keys)
    while True:
        if stop is not None and len(boundaries) == limit:
            break
        if position < frontier_size:
            top_key = frontier_keys[position]
            if heap and heap[0][0] < top_key:
                top_key, top_stamp, index = heappop(heap)
            else:
                index = frontier_nodes[position]
                top_stamp = 1  # every initial entry's counter
                position += 1
        elif heap:
            top_key, top_stamp, index = heappop(heap)
        else:
            break
        current = stamp[index]
        if current != top_stamp:
            # Stale.  If it was the node's queued entry, the node's
            # current entry was deferred behind it and goes in now.
            if current > 0 and queued[index] == top_stamp:
                deferred = key[index]
                heappush(heap, (deferred, current, index))
                queued[index] = current
                queued_key[index] = deferred
            continue
        if stop is not None:
            if not top_key < math.inf or total + top_key > budget:
                break
            if (position < frontier_size
                    and frontier_keys[position] == top_key) or (
                        heap and heap[0][0] == top_key):
                tie = len(boundaries)
                break
            total += top_key
        predecessor = prev_[index]
        left_length = length[predecessor]
        right_length = length[index]
        merged = row[predecessor] = merged_row(
            left_length, right_length, row[predecessor], row[index]
        )
        successor = next_[index]
        # The merged block's interval length, as the python heap takes it.
        length[predecessor] = float(
            end_of[(successor if successor >= 0 else n) - 1]
            - start_of[predecessor] + 1
        )
        next_[predecessor] = successor
        if successor >= 0:
            prev_[successor] = predecessor
        stamp[index] = -1
        boundaries.append(index)
        merge_keys.append(top_key)
        heads.append(predecessor)
        rows.extend(merged)

        # Refresh the predecessor's key, then the successor's.
        for node in (predecessor, successor):
            if node < 0 or not stamp[node]:
                continue
            lo = prev_[node]
            refreshed = merge_key(
                length[lo], length[node], row[lo], row[node], weights
            )
            if stop is not None and math.isnan(refreshed):
                tie = len(boundaries) - 1
                break
            counter += 1
            stamp[node] = counter
            key[node] = refreshed
            if refreshed >= queued_key[node]:
                continue  # deferred: the queued entry's stale pop pushes it
            heappush(heap, (refreshed, counter, node))
            queued[node] = counter
            queued_key[node] = refreshed
        if tie >= 0:
            break

    schedule = (
        np.frombuffer(boundaries, dtype=np.int64),
        np.frombuffer(merge_keys, dtype=np.float64),
        np.frombuffer(heads, dtype=np.int64),
        np.frombuffer(rows, dtype=np.float64).reshape(-1, p),
    )
    return schedule if stop is None else (schedule, tie, total)


# ----------------------------------------------------------------------
# One row k >= 2 of the exact DP's error matrix (_dp.c)
# ----------------------------------------------------------------------
def sse_run_batch(prefix: NumpyPrefixSums, j_lo: int, i: int) -> np.ndarray:
    """Run errors ``SSE(s_{j+1} .. s_i)`` for every ``j`` in ``[j_lo, i)``.

    Uses the paper's 1-based split-point convention: entry ``m`` of the
    returned array is the error of the run starting right after split
    point ``j = j_lo + m`` and ending at segment ``s_i``.
    """
    length = prefix._L[i] - prefix._L[j_lo:i]
    run_sum = prefix._S[:, [i]] - prefix._S[:, j_lo:i]
    run_square = prefix._SS[:, [i]] - prefix._SS[:, j_lo:i]
    deviation = np.maximum(run_square - run_sum * run_sum / length, 0.0)
    return _weighted_sum(prefix._w2, deviation)


def best_split(
    prefix: NumpyPrefixSums,
    previous_row: np.ndarray,
    j_lo: int,
    i: int,
    infeasible_below: int = 0,
) -> Tuple[float, int]:
    """Best split point for cell ``E[k][i]`` via one vectorized ``argmin``.

    Evaluates ``E[k-1][j] + SSE(s_{j+1} .. s_i)`` for every candidate split
    ``j`` in ``[j_lo, i)`` and returns ``(error, split)``.  Candidates below
    ``infeasible_below`` correspond to runs crossing a gap and are forced to
    an infinite total (only relevant for the plain-DP baseline; the optimized
    evaluation passes a ``j_lo`` at or right of the last gap).  Ties are
    broken towards the *largest* ``j``, matching the pure-Python reference
    which scans the candidates from ``i - 1`` downwards and only accepts
    strict improvements.
    """
    totals = previous_row[j_lo:i] + sse_run_batch(prefix, j_lo, i)
    if infeasible_below > j_lo:
        totals[: infeasible_below - j_lo] = math.inf
    reversed_totals = totals[::-1]
    position = int(np.argmin(reversed_totals))
    best = float(reversed_totals[position])
    if math.isinf(best):
        return math.inf, 0
    return best, i - 1 - position


def dp_fill_next_row(matrix: _ErrorMatrix):
    """:meth:`repro.core.dp._ErrorMatrix.fill_next_row` on the numpy
    backend with each row ``k >= 2`` filled in Python, one
    :func:`best_split` per cell; row ``k = 1`` is the package's own."""
    if not matrix.rows_computed:
        return matrix._fill_first_row_numpy()
    k = matrix.rows_computed + 1
    n = matrix.count
    gaps = matrix.gaps
    row = np.full(n + 1, math.inf)
    splits = [0] * (n + 1)
    previous = matrix._current_row
    for i in range(k, matrix._upper_bound(k) + 1):
        matrix.stats.cells_evaluated += 1
        j_min = matrix._lower_bound(k, i)
        infeasible = 0
        if not matrix.optimized:
            position = bisect.bisect_left(gaps, i)
            if position:
                infeasible = gaps[position - 1]
        matrix.stats.split_candidates += i - j_min
        row[i], splits[i] = best_split(
            matrix.prefix, previous, j_min, i, infeasible
        )
    return matrix._advance(k, row, splits)


# ----------------------------------------------------------------------
# SSE_max (_sse.c)
# ----------------------------------------------------------------------
def sse_fold(
    segments: Sequence[AggregateSegment], weights: Weights | None = None
) -> Tuple[float, float, Tuple[float, ...]]:
    """The ``SSE_max`` fold of :func:`repro.core.errors.max_error` and
    of :class:`repro.core.greedy.OnlineReducer`'s tracker in Python, one
    tuple at a time: a tuple adjacent to the previous one adds the
    :func:`~repro.core.errors.merge_key` of the carried run and itself
    and replaces the run by their :func:`~repro.core.merge.merged_row`;
    any other tuple starts a new run.  Returns ``(total, run_length,
    run_row)``."""
    w2: Sequence[float] = ()
    previous: Optional[AggregateSegment] = None
    length = 0.0
    row: Sequence[float] = ()
    total = 0.0
    for segment in segments:
        segment_length = float(segment.length)
        if previous is not None and adjacent(previous, segment):
            values = segment.values
            total += merge_key(length, segment_length, row, values, w2)
            row = merged_row(length, segment_length, row, values)
            length += segment_length
        else:
            if not w2:
                w2 = squared_weights(weights, segment.dimensions)
            row = segment.values
            length = segment_length
        previous = segment
    return total, length, tuple(row)

