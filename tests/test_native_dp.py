"""The compiled DP row against its Python oracle.

On the numpy backend :meth:`repro.core.dp._ErrorMatrix.fill_next_row`
fills every row ``k >= 2`` with one call of ``_dp.c``, its only product
path; :func:`oracles.dp_fill_next_row` (one :func:`oracles.best_split`
per cell) is the loop it was written from.  The parity property fills
the same rows both ways on drawn inputs and requires the same bytes in
every row and every split-point row, and the same
:class:`~repro.core.dp.DPStats`, also where run errors overflow to ``inf``
and ``NaN``.  The remaining tests cover the buffer checks and the GIL.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import oracles
from repro import Interval
from repro.core import AggregateSegment, native
from repro.core.dp import _ErrorMatrix, reduce_to_error, reduce_to_size
from repro.core.merge import cmin


def segments(rng: np.random.Generator, *, count: int, width: int,
             groups: int, offset: float, magnitude: float, ties: bool):
    """``count`` segments in ``groups`` groups, chronological within a
    group, with random gaps and lengths."""
    group_of = np.sort(rng.integers(0, groups, count))
    lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < 0.1, rng.integers(1, 5, count), 0)
    starts = np.cumsum(lengths + gaps) - lengths
    values = offset + magnitude * rng.normal(size=(count, width))
    if ties:
        values = offset + np.round(values - offset) % 4
    return [
        AggregateSegment((group,), tuple(row), Interval(start, start + length - 1))
        for group, row, start, length in zip(
            group_of.tolist(), values.tolist(), starts.tolist(),
            lengths.tolist(),
        )
    ]


def draw(seed: int):
    """Segments, weights and a row count from the seed."""
    rng = np.random.default_rng(seed)
    width = int(rng.choice([1, 2, 5]))
    drawn = segments(
        rng,
        count=int(rng.integers(1, 401)),
        width=width,
        groups=int(rng.integers(1, 4)),
        offset=float(rng.choice([0.0, 1e6, -1e6])),
        magnitude=float(rng.choice([1e-3, 1.0, 10.0, 1e154, 1e300])),
        ties=bool(rng.random() < 0.3),
    )
    weights = (
        tuple(rng.uniform(0.25, 4.0, width).tolist())
        if rng.random() < 0.5 else None
    )
    return drawn, weights, int(rng.integers(2, 7))


def fill_both(drawn, weights, rows: int, optimized: bool):
    """The same rows, compiled and by the oracle; both matrices."""
    compiled = _ErrorMatrix(drawn, weights, optimized, "numpy")
    reference = _ErrorMatrix(drawn, weights, optimized, "numpy")
    with np.errstate(all="ignore"):  # run errors that overflow
        for _ in range(min(rows, len(drawn))):
            compiled.fill_next_row()
            oracles.dp_fill_next_row(reference)
    return compiled, reference


def assert_same(compiled, reference):
    assert compiled.rows_computed == reference.rows_computed
    for k, (got, want) in enumerate(
        zip(compiled.split_rows, reference.split_rows)
    ):
        assert (np.asarray(got, np.int64).tobytes()
                == np.asarray(want, np.int64).tobytes()), k
    for got, want in ((compiled._current_row, reference._current_row),
                      (compiled._previous_row, reference._previous_row)):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert compiled.stats == reference.stats


# ----------------------------------------------------------------------
# Parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("optimized", [True, False])
@pytest.mark.parametrize("block", range(4))
def test_compiled_rows_are_the_oracles_rows(block, optimized):
    """100 draws per block and scheme: n <= 400, 1-3 groups with gaps,
    p in {1, 2, 5}, weights, integer-valued ties, offsets of 1e6 (with a
    spread of 1e-3, cancellation makes run errors shrink as runs grow) and
    magnitudes up to 1e300, where run errors overflow to inf and NaN.
    Every row is compared as it is filled, so each earlier row is the
    next one's input on both sides."""
    for seed in range(block * 100, block * 100 + 100):
        drawn, weights, rows = draw(seed)
        compiled = _ErrorMatrix(drawn, weights, optimized, "numpy")
        reference = _ErrorMatrix(drawn, weights, optimized, "numpy")
        with np.errstate(all="ignore"):
            for _ in range(min(rows, len(drawn))):
                compiled.fill_next_row()
                oracles.dp_fill_next_row(reference)
                assert_same(compiled, reference)


def test_the_draws_reach_ties_shrinking_runs_inf_and_nan_cells():
    """The parity draws above hold exact ties between split points, run
    errors that shrink as the run grows (where an early break would stop
    too soon), and finite cells next to inf and NaN ones."""
    seen = set()
    for seed in range(100):
        drawn, weights, rows = draw(seed)
        _, reference = fill_both(drawn, weights, rows, optimized=False)
        row = np.asarray(reference._current_row)[1:]
        seen.update(("inf",) if np.isinf(row).any() else ())
        seen.update(("nan",) if np.isnan(row).any() else ())
        seen.update(("finite",) if np.isfinite(row).any() else ())
        previous = np.asarray(reference._previous_row)
        with np.errstate(all="ignore"):
            for i in range(2, len(drawn) + 1):
                runs = oracles.sse_run_batch(reference.prefix, 1, i)[::-1]
                if np.any(np.diff(runs) < 0):  # as j falls from i - 1
                    seen.add("shrinking")
                totals = previous[1:i] + runs[::-1]
                finite = totals[np.isfinite(totals)]
                if len(finite) and np.count_nonzero(finite == finite.min()) > 1:
                    seen.add("tie")
    assert seen == {"inf", "nan", "finite", "tie", "shrinking"}


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("optimized", [True, False])
def test_tiny_inputs(count, optimized):
    drawn = [
        AggregateSegment((), (float(t), 2.0 * t), Interval(t, t))
        for t in range(count)
    ]
    assert_same(*fill_both(drawn, None, count, optimized))


@pytest.mark.parametrize("optimized", [True, False])
def test_reductions_are_the_oracles_reductions(optimized, monkeypatch):
    """Whole PTAc and PTAeps runs, compiled against the oracle."""
    drawn = segments(np.random.default_rng(3), count=150, width=2, groups=2,
                     offset=1e6, magnitude=10.0, ties=False)
    weights = (0.5, 3.0)
    runs = []
    for fill in (_ErrorMatrix.fill_next_row, oracles.dp_fill_next_row):
        monkeypatch.setattr(_ErrorMatrix, "fill_next_row", fill)
        runs.append([
            reduce_to_size(drawn, cmin(drawn) + 20, weights, optimized,
                           backend="numpy"),
            reduce_to_error(drawn, 0.2, weights, optimized, backend="numpy"),
        ])
    for compiled, reference in zip(*runs):
        assert compiled.segments == reference.segments
        assert compiled.error.hex() == reference.error.hex()
        assert compiled.stats == reference.stats


# ----------------------------------------------------------------------
# The kernel's buffer checks
# ----------------------------------------------------------------------
def row_args(n: int = 6, p: int = 2, first: int = 2):
    """Valid ``dp_row`` arguments for cells ``first .. n``."""
    cells = n - first + 1
    return [
        np.arange(n + 1, dtype=np.float64),           # L
        np.ones(p * (n + 1)),                          # S
        np.ones(p * (n + 1)),                          # SS
        np.ones(p),                                    # w2
        np.zeros(n + 1),                               # previous
        np.full(cells, first - 1, dtype=np.int64),     # j_lo
        np.zeros(cells, dtype=np.int64),               # infeasible
        first,
        np.full(n + 1, np.inf),                        # row
        np.zeros(n + 1, dtype=np.int64),               # splits
    ]


def test_the_kernel_checks_its_buffers():
    kernel = native.KERNEL
    assert kernel.dp_row(*row_args()) == sum(i - 1 for i in range(2, 7))
    frozen = np.zeros(7)
    frozen.flags.writeable = False
    bad_arguments = {
        "float32 prefix": (0, np.arange(7, dtype=np.float32)),
        "int32 bounds": (5, np.ones(5, dtype=np.int32)),
        "float64 splits": (9, np.zeros(7)),
        "strided sums": (1, np.ones(28)[::2]),
        "short sums": (2, np.ones(13)),
        "short previous row": (4, np.zeros(6)),
        "infeasible of another length": (6, np.zeros(4, dtype=np.int64)),
        "a split point past the cell": (5, np.array([1, 1, 1, 1, 7])),
        "a negative split point": (5, np.array([1, -1, 1, 1, 1])),
        "first cell at 0": (7, 0),
        "cells past the row": (7, 3),
        "a read-only row": (8, frozen),
        "a list": (4, [0.0] * 7),
    }
    for name, (position, value) in bad_arguments.items():
        args = row_args()
        args[position] = value
        with pytest.raises((TypeError, ValueError, BufferError)):
            kernel.dp_row(*args)
            pytest.fail(name)
    with pytest.raises(TypeError):
        kernel.dp_row(*row_args()[:-1])


def test_an_empty_candidate_range_leaves_the_cell_infinite():
    args = row_args()
    args[5] = np.array([1, 3, 4, 5, 6], dtype=np.int64)  # j_lo == i from i = 3
    assert native.KERNEL.dp_row(*args) == 1
    assert args[8][3:].tolist() == [np.inf] * 4
    assert args[9][3:].tolist() == [0] * 4


def test_the_matrix_runs_the_compiled_row(monkeypatch):
    calls = []
    kernel = native.KERNEL

    class Counting:
        @staticmethod
        def dp_row(*args):
            calls.append(len(args))
            return kernel.dp_row(*args)

    monkeypatch.setattr(native, "KERNEL", Counting)
    drawn = segments(np.random.default_rng(5), count=40, width=2, groups=2,
                     offset=0.0, magnitude=10.0, ties=False)
    matrix = _ErrorMatrix(drawn, (2.0, 0.5), True, "numpy")
    for _ in range(4):
        matrix.fill_next_row()
    assert calls == [10, 10, 10]  # rows 2-4; row 1 is one numpy expression


# ----------------------------------------------------------------------
# The GIL
# ----------------------------------------------------------------------
def test_another_thread_runs_during_a_large_row(monkeypatch):
    kernel = native.KERNEL
    window = []

    class Timed:
        @staticmethod
        def dp_row(*args):
            window.append(time.perf_counter())
            try:
                return kernel.dp_row(*args)
            finally:
                window.append(time.perf_counter())

    drawn = segments(np.random.default_rng(8), count=8000, width=1,
                     groups=1, offset=0.0, magnitude=1.0, ties=False)
    matrix = _ErrorMatrix(drawn, None, False, "numpy")  # the full scan
    matrix.fill_next_row()
    monkeypatch.setattr(native, "KERNEL", Timed)
    ticks = []
    done = threading.Event()

    def ticker():
        while not done.is_set():
            ticks.append(time.perf_counter())
            time.sleep(0)

    thread = threading.Thread(target=ticker)
    thread.start()
    try:
        matrix.fill_next_row()
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert matrix.stats.split_candidates == 8000 * 7999 // 2
    # The middle half of the call: the ticker can also run between the
    # timestamps and the call itself, but not inside it unless the row
    # lets go of the GIL.
    began, ended = window
    quarter = (ended - began) / 4
    inside = [tick for tick in ticks if began + quarter < tick < ended - quarter]
    assert inside, (
        f"no tick in the middle of the {ended - began:.3f} s the compiled "
        f"row ran ({threading.active_count()} threads alive)"
    )
