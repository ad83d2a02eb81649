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
  single-core NumPy online path (per-tuple ``insert()``, reproduced by
  hiding the staged-chunk protocol from the greedy loop).

Usage::

    python benchmarks/perf_baseline.py record [--scale full]
    python benchmarks/perf_baseline.py check  [--scale smoke]

``record`` writes the measured ratios for the chosen scale into the baseline
file (merging with other scales); ``check`` re-measures and exits non-zero
when any ratio dropped more than 30% below its recorded value — the CI
smoke job runs it at the ``smoke`` scale on every push.  Each ratio is the
median of per-round ratios over :data:`ROUNDS` rounds that time the two
sides back to back, alternating which side leads (:func:`paired_speedup`).
Note that the sharded ratios are recorded together with ``cpu_count``: on a
single core they measure the engine's algorithmic advantage only, and grow
further with real cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

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


@contextmanager
def _pr1_heap_factory():
    """Reproduce the PR 1 online NumPy path (per-tuple inserts).

    Wraps the heap factory so the array heap no longer advertises the
    staged-chunk protocol; the greedy loop then falls back to calling
    ``insert`` once per tuple, which is exactly the code path PR 1 shipped.
    """
    import repro.core.greedy as greedy_module

    original = greedy_module.make_merge_heap

    class _PerTupleView:
        def __init__(self, heap):
            self._heap = heap

        def __getattr__(self, name):
            if name in (
                "stage_chunk", "insert_staged", "activate_staged_all"
            ):
                raise AttributeError(name)
            return getattr(self._heap, name)

        def __len__(self):
            return len(self._heap)

    def factory(weights=None, backend="python"):
        heap = original(weights, backend)
        return _PerTupleView(heap) if backend == "numpy" else heap

    greedy_module.make_merge_heap = factory
    try:
        yield
    finally:
        greedy_module.make_merge_heap = original


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
    def pr1_online(segments, size):
        with _pr1_heap_factory():
            return greedy_reduce_to_size(
                iter(segments), size, 1, backend="numpy"
            )

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
                    lambda: pr1_online(segments, target),
                    lambda: compress(segments, size=target, workers=workers),
                )
            )
    return ratios


def _load() -> dict:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return {"schema": 1, "scales": {}}


def _print_ratios(title: str, ratios: dict, recorded: dict | None = None):
    print(f"\n{title}")
    for name, value in sorted(ratios.items()):
        line = f"  {name:40s} {value:7.2f}x"
        if recorded and name in recorded:
            line += f"   (recorded {recorded[name]:.2f}x)"
        print(line)


def record(scale: str) -> None:
    ratios = measure(scale)
    data = _load()
    data.setdefault("scales", {})[scale] = ratios
    data["meta"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    BASELINE_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _print_ratios(f"recorded baseline ({scale}) -> {BASELINE_PATH.name}",
                  ratios)


def check(scale: str) -> int:
    data = _load()
    recorded = data.get("scales", {}).get(scale)
    if not recorded:
        print(f"no recorded baseline for scale {scale!r} in "
              f"{BASELINE_PATH.name}; run 'record' first", file=sys.stderr)
        return 2
    meta = data.get("meta", {})
    if meta:
        print(
            f"recorded on: {meta.get('platform', '?')} "
            f"(cpu_count={meta.get('cpu_count', '?')}, "
            f"python={meta.get('python', '?')}, "
            f"at {meta.get('recorded_at', '?')})"
        )
        print("ratios are machine-normalized but not machine-independent: "
              "re-record on this machine class if the gate misfires")
    ratios = measure(scale)
    _print_ratios(f"measured ratios ({scale})", ratios, recorded)
    regressions = []
    for name, reference in sorted(recorded.items()):
        measured = ratios.get(name)
        if measured is None:
            regressions.append(f"{name}: not measured anymore")
        elif measured < reference * (1.0 - REGRESSION_TOLERANCE):
            regressions.append(
                f"{name}: {measured:.2f}x is more than "
                f"{REGRESSION_TOLERANCE:.0%} below the recorded "
                f"{reference:.2f}x"
            )
    if regressions:
        print("\nperformance regression detected:", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno regression: all ratios within "
          f"{REGRESSION_TOLERANCE:.0%} of the recorded baseline")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("record", "check"))
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="smoke",
        help="workload scale (default: smoke)",
    )
    arguments = parser.parse_args()
    if arguments.mode == "record":
        record(arguments.scale)
        return 0
    return check(arguments.scale)


if __name__ == "__main__":
    raise SystemExit(main())
