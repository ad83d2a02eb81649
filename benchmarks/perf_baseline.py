"""Persistent performance baseline for the kernel and pipeline hot paths.

Measures a small set of *machine-normalized speedup ratios* — each one the
quotient of two measurements taken back to back on the same machine, so the
numbers survive hardware changes far better than raw seconds — and persists
them in ``BENCH_parallel.json`` at the repository root:

* ``dp_inner_numpy_vs_python`` — the vectorized DP split-point scan against
  the loop-based reference (one full row of the plain scheme);
* ``gms_numpy_vs_python`` — batch GMS on the numpy backend (the sharded
  engine's greedy trajectory over one shard) against the linked-node
  reference heap;
* ``online_numpy_vs_python`` — the array heap against the linked-node heap
  for online greedy reduction (the batched online merge policy);
* ``sharded_w{1,4}_vs_pr1_online_p{1,10}`` — the sharded engine of
  :mod:`repro.parallel` (``compress(workers=N)``) against the PR 1
  single-core NumPy online path (per-tuple inserts, reproduced by
  ``OnlineReducer.push`` one tuple at a time).

Usage::

    python benchmarks/perf_baseline.py record [--scale full]
    python benchmarks/perf_baseline.py check  [--scale smoke]

``record`` writes the measured ratios for the chosen scale into the baseline
file (merging with other scales); ``check`` re-measures and exits non-zero
when any ratio dropped more than 30% below its recorded value — the CI
smoke job runs it at the ``smoke`` scale on every push.  Both commands are
``baseline_gate.py``'s, shared with ``bench_service.py``.  Each ratio is the
median of per-round ratios over :data:`ROUNDS` rounds that time the two
sides back to back, alternating which side leads (:func:`paired_speedup`).
Note that the sharded ratios are recorded together with ``cpu_count``: on a
single core they measure the engine's algorithmic advantage only, and grow
further with real cores.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from baseline_gate import Gate

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_parallel.json"

#: A freshly measured ratio may drop at most this fraction below its
#: recorded value before the check fails.
REGRESSION_TOLERANCE = 0.30

#: Rounds per ratio.  One round times both sides back to back, so drift
#: common to the round cancels in its ratio; the median over rounds rejects
#: the rounds a scheduler preemption still skewed.
ROUNDS = 7

#: Workload sizes per scale.  ``smoke`` finishes in well under a minute for
#: CI; ``full`` is the recorded headline configuration (n = 100k for the
#: sharded engine).
SCALES = {
    "smoke": {
        "dp_n": 1_500,
        "heap_n": 4_000,
        "parallel_groups": 100,
        "parallel_per_group": 200,
    },
    "full": {
        "dp_n": 4_000,
        "heap_n": 10_000,
        "parallel_groups": 500,
        "parallel_per_group": 200,
    },
}


def _pr1_online(segments, size):
    """Reproduce the PR 1 online NumPy path (per-tuple inserts).

    Pushes the tuples through the online reducer one at a time, each a
    one-row staging plus one activation of the compiled loop, rather than
    in staged chunks: the per-tuple path PR 1 shipped.
    """
    from repro.core.greedy import OnlineReducer

    reducer = OnlineReducer(size=size, delta=1, backend="numpy")
    for segment in segments:
        reducer.push(segment)
    return reducer.finalize()


def paired_speedup(baseline, candidate, rounds: int = ROUNDS) -> float:
    """Median over rounds of ``baseline`` time over ``candidate`` time.

    Even rounds run A-B, odd rounds B-A, as ``bench_service.py``'s
    ``metrics_disabled_overhead`` does, so neither side always runs on a
    warmer cache.  Both arguments are zero-argument callables.
    """
    from repro.evaluation import speedup

    ratios = []
    for index in range(rounds):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        seconds = [0.0, 0.0]
        for side in order:
            began = time.perf_counter()
            (baseline, candidate)[side]()
            seconds[side] = time.perf_counter() - began
        ratios.append(speedup(seconds[0], seconds[1]))
    return statistics.median(ratios)


def measure(scale: str) -> dict:
    """Measure every baseline ratio at the given scale."""
    from repro.core.dp import _ErrorMatrix
    from repro.core.greedy import gms_reduce_to_size, greedy_reduce_to_size
    from repro.datasets import (
        synthetic_grouped_segments,
        synthetic_sequential_segments,
    )
    from repro.pipeline import compress

    config = SCALES[scale]
    ratios: dict = {}

    # DP split-point scan: one full row of the plain scheme (the quadratic
    # hot spot).
    sequential = synthetic_sequential_segments(config["dp_n"], 1, seed=81)

    def dp_rows(backend):
        matrix = _ErrorMatrix(sequential, None, optimized=False,
                              backend=backend)
        matrix.fill_next_row()
        matrix.fill_next_row()

    ratios["dp_inner_numpy_vs_python"] = paired_speedup(
        lambda: dp_rows("python"), lambda: dp_rows("numpy")
    )

    # Batch and online greedy reduction, p = 10 (the paper's synthetic
    # dimensionality).
    heap_input = synthetic_sequential_segments(config["heap_n"], 10, seed=83)
    target = config["heap_n"] // 10
    ratios["gms_numpy_vs_python"] = paired_speedup(
        lambda: gms_reduce_to_size(heap_input, target),
        lambda: gms_reduce_to_size(heap_input, target, backend="numpy"),
    )
    ratios["online_numpy_vs_python"] = paired_speedup(
        lambda: greedy_reduce_to_size(heap_input, target, 1),
        lambda: greedy_reduce_to_size(
            heap_input, target, 1, backend="numpy"
        ),
    )

    # The sharded engine against the PR 1 online numpy path.  Four
    # reducer threads are only measured at the full scale, the one scale
    # whose baseline records them.
    worker_counts = (1, 4) if scale == "full" else (1,)
    for dimensions in (1, 10):
        segments = synthetic_grouped_segments(
            config["parallel_groups"], config["parallel_per_group"],
            dimensions=dimensions, seed=42,
        )
        target = len(segments) // 10
        for workers in worker_counts:
            ratios[f"sharded_w{workers}_vs_pr1_online_p{dimensions}"] = (
                paired_speedup(
                    lambda: _pr1_online(segments, target),
                    lambda: compress(segments, size=target, workers=workers),
                )
            )
    return ratios


GATE = Gate(
    path=BASELINE_PATH, tolerance=REGRESSION_TOLERANCE, measure=measure,
    scales=tuple(SCALES), label="performance",
    description=__doc__.splitlines()[0],
)


if __name__ == "__main__":
    raise SystemExit(GATE.main())
