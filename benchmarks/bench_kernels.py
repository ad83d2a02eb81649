"""Micro-benchmark: pure-Python reference kernels vs. NumPy kernels.

Times the hot paths that ``backend="numpy"`` vectorizes and prints a speedup
table:

* the DP error-matrix inner loop (the split-point scan of Section 5.1) on a
  full row of the plain DP scheme — the quadratic hot spot of ``PTAc`` —
  where the batched run-error evaluation plus ``np.argmin`` replaces the
  per-candidate Python loop (expected well above the 5x target at n = 10k);
* the same recurrence on grouped data, where gap pruning keeps the candidate
  ranges short (vectorization pays much less — kept in the table for
  honesty);
* greedy merging (GMS) over a materialised input, where the NumPy heap's
  batched insert computes all initial merge keys vectorized;
* the online gPTAc loop under fused activation: the array heap stages
  whole chunks of incoming tuples (bulk column writes plus vectorized raw
  merge keys) and runs the activation-plus-drain loop inside one heap
  kernel (``activate_staged_all``), one activate-then-drain step per
  tuple with every column aliased to a local — bit-identical to
  tuple-at-a-time insertion.  This turned the array backend's one-time
  ~1.2x online edge into >=2x at n >= 10k (asserted below).

Scale is controlled by ``REPRO_BENCH_SCALE``: the default ``tiny`` already
uses the paper-sized n = 10 000 input for the DP row (about a minute of
wall clock, almost all of it spent in the pure-Python baseline); ``smoke``
shrinks to n = 2 000 for CI.
"""

from repro.core.dp import _ErrorMatrix
from repro.core.greedy import gms_reduce_to_size, greedy_reduce_to_size
from repro.datasets import (
    synthetic_grouped_segments,
    synthetic_sequential_segments,
)
from repro.evaluation import best_of, format_table, speedup

from paperbench import publish, workload_scale

SIZES = {"smoke": 2_000, "tiny": 10_000, "small": 10_000, "paper": 20_000}
DP_DIMENSIONS = 1
HEAP_DIMENSIONS = 10


def _dp_rows(segments, backend, optimized, rows=2):
    matrix = _ErrorMatrix(segments, None, optimized=optimized, backend=backend)
    for _ in range(rows):
        matrix.fill_next_row()
    return matrix


def bench_kernels(benchmark):
    scale = workload_scale()
    n = SIZES.get(scale, SIZES["tiny"])
    sequential = synthetic_sequential_segments(n, DP_DIMENSIONS, seed=81)
    grouped = synthetic_grouped_segments(n // 20, 20, DP_DIMENSIONS, seed=82)
    heap_input = synthetic_sequential_segments(n, HEAP_DIMENSIONS, seed=83)

    measurements = []

    # The quadratic DP split-point scan: one full row of the plain scheme.
    # The Python baseline is run once (it is the slow side by construction);
    # the NumPy side keeps the best of three.
    python_run = best_of(
        _dp_rows, sequential, "python", False, repeats=1
    )
    numpy_run = best_of(_dp_rows, sequential, "numpy", False, repeats=3)
    dp_speedup = speedup(python_run.seconds, numpy_run.seconds)
    measurements.append(
        ("DP inner loop (plain, no gaps)", n, python_run.seconds,
         numpy_run.seconds, dp_speedup)
    )

    # Gap-pruned recurrence: candidate ranges are short, so there is little
    # left to vectorize.
    python_run = best_of(_dp_rows, grouped, "python", True, repeats=3)
    numpy_run = best_of(_dp_rows, grouped, "numpy", True, repeats=3)
    measurements.append(
        ("DP inner loop (PTAc, grouped)", len(grouped), python_run.seconds,
         numpy_run.seconds, speedup(python_run.seconds, numpy_run.seconds))
    )

    # Batch greedy merging: heap construction is vectorized via insert_batch.
    python_run = best_of(
        gms_reduce_to_size, heap_input, n // 10, repeats=3
    )
    numpy_run = best_of(
        gms_reduce_to_size, heap_input, n // 10, backend="numpy", repeats=3
    )
    measurements.append(
        (f"GMS reduce (p={HEAP_DIMENSIONS})", n, python_run.seconds,
         numpy_run.seconds, speedup(python_run.seconds, numpy_run.seconds))
    )

    # Online gPTAc: the numpy backend consumes the stream through staged
    # chunks (the batched online merge policy) — identical reduction,
    # amortised per-insert overhead.
    python_run = best_of(
        greedy_reduce_to_size, list(heap_input), n // 10, 1, repeats=3
    )
    numpy_run = best_of(
        greedy_reduce_to_size, list(heap_input), n // 10, 1,
        backend="numpy", repeats=3,
    )
    online_speedup = speedup(python_run.seconds, numpy_run.seconds)
    measurements.append(
        (f"gPTAc online (p={HEAP_DIMENSIONS})", n, python_run.seconds,
         numpy_run.seconds, online_speedup)
    )

    headers = ("kernel", "n", "python (s)", "numpy (s)", "speedup")
    rows = [
        (name, size, f"{py:.4f}", f"{np_:.4f}", f"{factor:.1f}x")
        for name, size, py, np_, factor in measurements
    ]
    publish("kernel_speedups", format_table(headers, rows,
                                            title="python vs numpy backends"))

    benchmark(_dp_rows, sequential, "numpy", False)

    # The vectorized split-point scan is the whole point of the NumPy
    # backend: it must clear the 5x bar on the quadratic hot path.
    assert dp_speedup >= 5.0, (
        f"expected >=5x speedup for the vectorized DP inner loop, "
        f"got {dp_speedup:.1f}x"
    )

    # The fused activation loop must keep the online numpy path at least
    # twice as fast as the python heap at paper scale (the old unfused
    # per-tuple activation sat at ~1.2x).  The ratio sits close to this
    # bar, so a loaded machine can fail it on timing noise alone.  (The
    # smoke scale is too small for a stable ratio and only guards against
    # import rot.)
    if n >= 10_000:
        assert online_speedup >= 2.0, (
            f"numpy online path fell below 2x the python heap at n={n}: "
            f"{online_speedup:.2f}x (python {python_run.seconds:.3f}s, "
            f"numpy {numpy_run.seconds:.3f}s)"
        )


if __name__ == "__main__":
    class _NoBenchmark:
        def __call__(self, function, *args, **kwargs):
            return function(*args, **kwargs)

    bench_kernels(_NoBenchmark())
