"""The compiled activation loop against the Python loop it replaces.

:meth:`NumpyMergeHeap.activate_staged_all` runs ``_activate.c`` when
:mod:`repro.core.native` loaded it and the heap holds only float rows,
and its Python loop otherwise.  The parity property runs both loops
explicitly on twin heaps and requires identical state after every chunk:
every column (floats by ``float.hex``, value rows with their container
type), the entry list element by element, the returned bookkeeping and
every :class:`DeltaLog` list.  The remaining tests cover the loader (a
cold build, concurrent builds, each fallback reason) and the GIL.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import shutil
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import native
from repro.core.greedy import OnlineReducer
from repro.core.kernels import DeltaLog, EncodedSegments, NumpyMergeHeap
from repro.core.merge import AggregateSegment
from repro.obs import metrics
from repro.temporal import Interval

needs_kernel = pytest.mark.skipif(
    native.KERNEL is None, reason=f"no compiled kernel: {native.REASON}"
)
needs_compiler = pytest.mark.skipif(
    native.compiler() is None, reason="sysconfig's C compiler is not on PATH"
)

COLUMNS = (
    "_start", "_end", "_group", "_prev", "_next", "_key", "_version",
    "_alive", "_node_id", "_values", "_length", "_group_keys",
)
SCALARS = (
    "_count", "_size", "max_size", "_head", "_tail", "_entry_counter",
    "_staged_base", "_staged_end", "_kernel_rows",
)


def heap_state(heap: NumpyMergeHeap) -> dict:
    """Every column, the entry list and the scalars, pickled: floats
    pickle as their exact bits, and tuples, lists, ints and bools as
    themselves, so a merged row that came back as a tuple differs."""
    state = {name: pickle.dumps(getattr(heap, name))
             for name in (*COLUMNS, "_entries")}
    state.update({name: getattr(heap, name) for name in SCALARS})
    return state


def log_state(log) -> dict:
    if log is None:
        return {}
    return {name: pickle.dumps(getattr(log, name))
            for name in DeltaLog.__slots__}


def stream(rng: np.random.Generator, *, count: int, width: int, groups: int,
           offset: float, magnitude: float, ties: bool) -> EncodedSegments:
    """``count`` tuples in ``groups`` groups, chronological within a group,
    with random gaps and lengths."""
    group_of = np.sort(rng.integers(0, groups, count))
    lengths = rng.integers(1, 4, count)
    gaps = np.where(rng.random(count) < 0.1, rng.integers(1, 5, count), 0)
    starts = np.cumsum(lengths + gaps) - lengths
    ends = starts + lengths - 1
    values = offset + magnitude * rng.normal(size=(count, width))
    if ties:
        values = np.round(values / max(magnitude, 1.0) * 3.0)
    return EncodedSegments(
        starts.astype(np.int64), ends.astype(np.int64), values,
        group_of.astype(np.int64), [(f"g{g}",) for g in range(groups)],
    )


def run_twins(chunks, *, weights=None, size=None, step_threshold=0.0,
              delta=1, logged=False):
    """Stage every chunk on twin heaps, activate one with the compiled
    loop and one with the Python loop, and compare after each chunk."""
    heaps = [NumpyMergeHeap(weights), NumpyMergeHeap(weights)]
    logs = [DeltaLog(), DeltaLog()] if logged else [None, None]
    books = [(0, 0, 0, 0.0, 0), (0, 0, 0, 0.0, 0)]
    compactions = 0
    for number, chunk in enumerate(chunks):
        for side, (heap, log) in enumerate(zip(heaps, logs)):
            count = heap._count
            heap.stage_chunk(chunk)
            loop = heap._activate_native if side == 0 else heap._activate_python
            books[side] = loop(size, step_threshold, delta, *books[side], log)
            if side == 0 and heap._count < count + len(chunk):
                compactions += 1
        assert books[0] == books[1] and all(
            type(a) is type(b) for a, b in zip(*books)
        ), number
        assert heap_state(heaps[0]) == heap_state(heaps[1]), number
        assert log_state(logs[0]) == log_state(logs[1]), number
        if logged and number % 3 == 2:
            for log in logs:
                log.clear()
    return heaps[0], books[0], compactions


# ----------------------------------------------------------------------
# State-level parity
# ----------------------------------------------------------------------
CASES = [
    # (seed, width, groups, offset, magnitude, ties, weights)
    (1, 1, 1, 0.0, 1.0, False, None),
    (2, 2, 2, 0.0, 1.0, False, (1.0, 3.0)),
    (3, 5, 3, 1e6, 10.0, False, None),
    (4, 1, 2, 0.0, 1.0, True, None),
    (5, 2, 1, 1e6, 1.0, True, (0.5, 2.0)),
    (6, 1, 1, 0.0, 1e154, False, None),
    (7, 2, 3, 0.0, 1e300, False, None),
    (8, 5, 1, -1e5, 1e3, False, (1.0, 2.0, 3.0, 4.0, 5.0)),
]
POLICIES = [
    # (size, step quantile, delta)
    (40, None, 1),
    (7, None, 2),
    (25, None, math.inf),
    (None, 0.5, 1),
    (None, 0.9, 2),
    (None, 0.3, math.inf),
]


#: Each policy meets four of the cases, two with a log and two without.
DRAWS = [
    (CASES[(4 * i + j) % len(CASES)], policy, (i + j) % 2 == 0)
    for i, policy in enumerate(POLICIES) for j in range(4)
]

@needs_kernel
@pytest.mark.parametrize(
    "case, policy, logged", DRAWS,
    ids=[f"seed{c[0]}-size{p[0]}-q{p[1]}-d{p[2]}-{'log' if g else 'nolog'}"
         for c, p, g in DRAWS],
)
def test_compiled_loop_leaves_the_python_loops_state(case, policy, logged):
    seed, width, groups, offset, magnitude, ties, weights = case
    size, quantile, delta = policy
    rng = np.random.default_rng(seed)
    encoded = stream(rng, count=1400, width=width, groups=groups,
                     offset=offset, magnitude=magnitude, ties=ties)
    step_threshold = 0.0
    if quantile is not None:
        probe = NumpyMergeHeap(weights)
        probe.stage_chunk(encoded)
        keys = probe._staged_keys[np.isfinite(probe._staged_keys)]
        step_threshold = float(np.quantile(keys, quantile)) if len(keys) else 0.0
    bounds = np.cumsum(rng.integers(1, 90, 40))
    chunks = [encoded[a:b] for a, b in zip([0, *bounds], bounds) if a < b]
    chunks.append(encoded[int(bounds[-1]):])
    _, (_, _, _, _, merges), compactions = run_twins(
        [c for c in chunks if len(c)], weights=weights, size=size,
        step_threshold=step_threshold, delta=delta, logged=logged,
    )
    if size is not None and magnitude < 1e300:  # 1e300: every key is inf
        assert merges > 0
        assert compactions > 0


@needs_kernel
def test_keys_that_overflow_to_inf_match():
    """Values near 1e308 overflow merge keys to inf (a known miss of the
    size budget); both loops keep the same state while that happens."""
    values = np.array([[1.5e308], [1.6e308], [-1.7e308], [1.7e308],
                       [1e308], [1.1e308]])
    count = len(values)
    encoded = EncodedSegments(
        np.arange(count, dtype=np.int64), np.arange(count, dtype=np.int64),
        values, np.zeros(count, np.int64), [()],
    )
    heap, _, _ = run_twins([encoded[:3], encoded[3:]], size=1, logged=True)
    assert math.inf in heap._key


@needs_kernel
def test_a_mixed_heap_takes_the_python_loop(monkeypatch):
    """``insert`` of an int-valued segment makes the heap one the compiled
    loop does not read: activation runs the Python loop, counts it and
    names the cause; calling the compiled loop refuses before writing."""
    monkeypatch.setattr(native, "_logged", set())
    rows = [AggregateSegment(("g",), (value,), Interval(t, t))
            for t, value in enumerate([3, 5, 4])]
    twins = [NumpyMergeHeap(), NumpyMergeHeap()]
    for heap in twins:
        for row in rows:
            heap.insert(row)
        assert not heap._kernel_rows
    encoded = stream(np.random.default_rng(9), count=60, width=1, groups=1,
                     offset=0.0, magnitude=1.0, ties=False)
    shifted = EncodedSegments(encoded.starts + 3, encoded.ends + 3,
                              encoded.values, encoded.groups, [("g",)])
    before = metrics.value("repro_python_activations_total")
    books = []
    for side, heap in enumerate(twins):
        heap.stage_chunk(shifted)
        if side == 0:
            with pytest.raises(RuntimeError):
                heap._activate_native(4, 0.0, 1, 0, 0, 0, 0.0, 0, None)
            books.append(heap.activate_staged_all(size=4))
        else:
            books.append(heap._activate_python(4, 0.0, 1, 0, 0, 0, 0.0, 0,
                                               None))
    assert metrics.value("repro_python_activations_total") == before + 1
    assert books[0] == books[1]
    assert heap_state(twins[0]) == heap_state(twins[1])
    assert ("python_activation_loop",
            "the heap holds rows that are not float rows") in native._logged


# ----------------------------------------------------------------------
# Loader: the kernel loads, each fallback reason is named
# ----------------------------------------------------------------------
@needs_compiler
def test_native_loads_when_a_compiler_exists():
    assert native.KERNEL is not None, native.REASON
    assert native.REASON is None
    assert metrics.value("repro_native_activation") == 1.0
    assert "repro_native_activation 1" in metrics.render()


def test_no_compiler_is_a_reason(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "compiler", lambda: None)
    module, reason = native.load(cache_dir=tmp_path)
    assert module is None and reason.startswith("no C compiler")


def test_a_failed_build_names_its_first_stderr_line(tmp_path):
    command = ["sh", "-c", "echo; echo 'boom: no such flag' >&2; exit 1", "sh"]
    module, reason = native.load(cache_dir=tmp_path, command=command)
    assert module is None
    assert reason == "build failed: boom: no such flag"
    assert list(tmp_path.iterdir()) == []  # the temporary file is gone


def test_an_unwritable_cache_is_a_reason(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    module, reason = native.load(cache_dir=blocker / "cache",
                                 command=["true"])
    assert module is None and reason.startswith("unwritable cache")


def test_the_python_loop_counts_and_logs_its_reason(monkeypatch, caplog):
    monkeypatch.setattr(native, "KERNEL", None)
    monkeypatch.setattr(native, "REASON", "no C compiler: cc")
    monkeypatch.setattr(native, "_logged", set())
    before = metrics.value("repro_python_activations_total")
    reducer = OnlineReducer(size=5, backend="numpy")
    encoded = stream(np.random.default_rng(3), count=50, width=1, groups=1,
                     offset=0.0, magnitude=1.0, ties=False)
    with caplog.at_level(logging.WARNING, logger="repro.core.native"):
        reducer.push_chunk(encoded[:25])
        reducer.push_chunk(encoded[25:])
    assert metrics.value("repro_python_activations_total") == before + 2
    lines = [r for r in caplog.records if r.name == "repro.core.native"]
    assert len(lines) == 1
    assert lines[0].structured["reason"] == "no C compiler: cc"


# ----------------------------------------------------------------------
# Cold builds
# ----------------------------------------------------------------------
COLD_IMPORT = textwrap.dedent("""
    import resource
    ballast = b"x" * (100 << 20)  # touched: this process's RSS is ~100 MB
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    import repro.core.kernels
    from repro.core import native
    after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(native.KERNEL is not None, before, after, native.REASON)
""")


def cold_copy(tmp_path: Path) -> Path:
    root = Path(native.__file__).resolve().parents[2]
    shutil.copytree(root / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def cold_import(path: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(path), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen([sys.executable, "-c", COLD_IMPORT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def processes_naming(text: str) -> list:
    found = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and text in (entry / "cmdline").read_text():
                found.append(entry.name)
        except OSError:
            continue
    return found


@needs_compiler
@pytest.mark.skipif(not Path("/proc/self").exists(), reason="needs /proc")
def test_a_cold_build_is_not_charged_to_the_importer(tmp_path):
    path = cold_copy(tmp_path)
    proc = cold_import(path)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    loaded, before, after, _ = out.split(maxsplit=3)
    assert loaded == "True", out
    assert int(after) == int(before)  # the compiler is not reaped yet
    assert processes_naming(str(path)) == []  # and gone once its parent is
    assert len(list((path / "repro/core/__pycache__").glob("_activate.*"))) == 1


@needs_compiler
def test_concurrent_cold_imports_build_one_file(tmp_path):
    path = cold_copy(tmp_path)
    procs = [cold_import(path), cold_import(path)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err
        assert out.startswith("True"), out
    cache = path / "repro/core/__pycache__"
    assert [p.name.startswith("_activate.") for p in cache.iterdir()] == [True]


# ----------------------------------------------------------------------
# The GIL
# ----------------------------------------------------------------------
@needs_kernel
def test_another_thread_runs_during_a_large_push(monkeypatch):
    kernel = native.KERNEL
    window = []

    class Timed:
        @staticmethod
        def activate(*args):
            window.append(time.perf_counter())
            try:
                return kernel.activate(*args)
            finally:
                window.append(time.perf_counter())

    monkeypatch.setattr(native, "KERNEL", Timed)
    count = 200_000
    encoded = stream(np.random.default_rng(5), count=count, width=1,
                     groups=1, offset=0.0, magnitude=1.0, ties=False)
    ticks = []
    done = threading.Event()

    def ticker():
        while not done.is_set():
            ticks.append(time.perf_counter())
            time.sleep(0)

    thread = threading.Thread(target=ticker)
    thread.start()
    try:
        OnlineReducer(size=1000, backend="numpy").push_chunk(encoded)
    finally:
        done.set()
        thread.join()
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
