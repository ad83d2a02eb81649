"""Reference oracle for the sharded engine's merge-schedule kernel.

A verbatim copy of :func:`repro.core.kernels.greedy_merge_trajectory` as
it stood before its queue was rewritten: every finite initial key goes
into one lazily-deleted :mod:`heapq` together with every refreshed key,
and an entry is valid while its node is alive with a matching version
and key.  ``tests/test_trajectory_parity.py`` checks that the production
kernel reproduces this schedule bit for bit.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

import numpy as np

from repro.core.kernels import adjacent_pair_mask


def greedy_merge_trajectory(
    starts: np.ndarray,
    ends: np.ndarray,
    values: np.ndarray,
    groups: np.ndarray,
    w2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Complete greedy merge schedule of an array-encoded segment shard.

    Runs the greedy merging strategy over the shard all the way down to its
    local ``cmin`` and records every step: element ``t`` of the returned
    ``(boundaries, keys)`` pair says that the ``t``-th cheapest-first merge
    removed the boundary between original positions ``boundaries[t] - 1``
    and ``boundaries[t]`` at a cost of ``keys[t]``.

    Because greedy merging never crosses a maximal-run boundary, the global
    GMS reduction of a sharded input is exactly "each shard follows its own
    local schedule"; the only cross-shard coordination is *how many* steps of
    each schedule are taken, which :mod:`repro.parallel` decides with a
    k-way merge over the shard frontiers.  The schedule matches the merges
    the sequential heaps would perform inside this shard, with the same
    lazy-deletion tie-breaking (initial keys in insertion order, refreshed
    keys in merge order, predecessor before successor); only exact key ties
    are sensitive to floating-point formulation differences.

    Instead of maintaining merged aggregate values, the kernel exploits
    Proposition 2: a node is a contiguous block of original positions and
    its merge-with-predecessor key equals ``SSE(union) − SSE(left) −
    SSE(right)``, evaluated in constant time from weighted prefix sums
    (Proposition 1).  Each node carries its block's cached SSE, so a merge
    is a couple of scalar updates and each key refresh is one prefix-row
    difference plus a dot product (pure scalar arithmetic for ``p = 1``).

    All inputs are plain arrays (``int64`` endpoints and group ids,
    ``float64`` values of shape ``(n, p)`` and squared weights ``w2``), so a
    shard travels to a worker process as a handful of array buffers instead
    of ``n`` segment objects.
    """
    n = len(starts)
    if n < 2:
        return np.zeros(0, np.int64), np.zeros(0, np.float64)
    lengths_arr = (ends - starts + 1).astype(np.float64)
    adjacent = adjacent_pair_mask(starts, ends, groups)

    # Prefix sums over original positions (1-based, position 0 = zero):
    #   lengths[i] = Σ l,   weighted[i] = Σ l·w·v (per dim),
    #   squares[i] = Σ l·Σ_d w²·v_d²  (collapsed to a scalar).
    # SSE of block [lo, hi) = squares[hi]−squares[lo]
    #                         − ‖weighted[hi]−weighted[lo]‖² / (L[hi]−L[lo]).
    dimensions = values.shape[1]
    scaled = values * np.sqrt(w2)
    weighted_rows = np.zeros((n + 1, dimensions), dtype=np.float64)
    np.cumsum(scaled * lengths_arr[:, None], axis=0, out=weighted_rows[1:])
    length_prefix = [0.0]
    length_prefix.extend(np.cumsum(lengths_arr).tolist())
    square_prefix = [0.0]
    square_prefix.extend(
        np.cumsum((scaled * scaled).sum(axis=1) * lengths_arr).tolist()
    )
    # Per-refresh cross terms: pure scalar arithmetic for one dimension, a
    # Python inner product over list rows for small p (beats two array
    # temporaries plus a dot call), NumPy rows beyond that.
    scalar_weighted = (
        weighted_rows[:, 0].tolist() if dimensions == 1 else None
    )
    list_weighted = (
        weighted_rows.tolist() if 1 < dimensions <= 16 else None
    )

    # Node i is the block starting at original position i; ``last`` is the
    # exclusive end of the block and ``sse`` its cached internal error.
    # ``can_merge[i]`` never changes: a node's left boundary is fixed.
    can_merge = [False]
    can_merge.extend(adjacent.tolist())
    last = list(range(1, n + 1))
    sse = [0.0] * n
    key: List[float] = [math.inf] * n
    prev_ = list(range(-1, n - 1))
    next_ = list(range(1, n + 1))
    next_[-1] = -1
    alive = [True] * n
    version = [0] * n

    # Initial keys, vectorized: singleton blocks have zero internal SSE, so
    # the key of position i is just SSE of the pair block [i-1, i+1).
    pair_length = lengths_arr[:-1] + lengths_arr[1:]
    pair_weighted = weighted_rows[2:] - weighted_rows[:-2]
    pair_square = (
        np.asarray(square_prefix[2:]) - np.asarray(square_prefix[:-2])
    )
    pair_sse = np.maximum(
        pair_square - (pair_weighted * pair_weighted).sum(axis=1) / pair_length,
        0.0,
    )
    initial = np.where(adjacent, pair_sse, math.inf)
    key[1:] = initial.tolist()

    counter = 0
    entries: List[tuple] = []
    for index in range(1, n):
        if key[index] != math.inf:
            counter += 1
            entries.append((key[index], counter, index, 0))
    heapq.heapify(entries)

    boundaries: List[int] = []
    merge_keys: List[float] = []

    def refresh(index: int) -> None:
        nonlocal counter
        if not can_merge[index]:
            key[index] = math.inf
            version[index] += 1
            return
        predecessor = prev_[index]
        lo = predecessor
        hi = last[index]
        union_length = length_prefix[hi] - length_prefix[lo]
        if scalar_weighted is not None:
            delta = scalar_weighted[hi] - scalar_weighted[lo]
            cross = delta * delta
        elif list_weighted is not None:
            cross = 0.0
            for high, low in zip(list_weighted[hi], list_weighted[lo]):
                delta = high - low
                cross += delta * delta
        else:
            delta = weighted_rows[hi] - weighted_rows[lo]
            cross = float(delta @ delta)
        union_sse = (
            square_prefix[hi] - square_prefix[lo] - cross / union_length
        )
        refreshed = union_sse - sse[predecessor] - sse[index]
        if refreshed < 0.0:
            refreshed = 0.0
        key[index] = refreshed
        version[index] += 1
        counter += 1
        heapq.heappush(entries, (refreshed, counter, index, version[index]))

    heappop = heapq.heappop
    while entries:
        top_key, _, index, top_version = heappop(entries)
        if (
            not alive[index]
            or version[index] != top_version
            or key[index] != top_key
        ):
            continue
        predecessor = prev_[index]
        # The union SSE was already evaluated when this key was computed.
        sse[predecessor] = top_key + sse[predecessor] + sse[index]
        last[predecessor] = last[index]
        successor = next_[index]
        next_[predecessor] = successor
        if successor >= 0:
            prev_[successor] = predecessor
        alive[index] = False
        boundaries.append(index)
        merge_keys.append(top_key)
        refresh(predecessor)
        if successor >= 0:
            refresh(successor)

    return (
        np.asarray(boundaries, dtype=np.int64),
        np.asarray(merge_keys, dtype=np.float64),
    )
