"""The compiled activation loop against its Python oracle.

:meth:`NumpyMergeHeap.activate_staged_all` and
:meth:`NumpyMergeHeap.merge_down` (the end-of-input phase) run
``_activate.c``, their only product path; :func:`oracles.activate` is the
Python loop it was written from.  The parity properties run both on twin
heaps and require identical state after every chunk, after the
end-of-input phase and after a snapshot's tie fallback: every column
(floats by ``float.hex``, value rows with their container type), the
entry list element by element, the returned bookkeeping and every
:class:`DeltaLog` list.  Per-tuple pushes must leave the state of one
chunk of the same tuples.  The remaining tests cover the inputs that
once reached a Python twin, the loader (a cold build, concurrent builds,
each failure's reason, the failed import) and the GIL.
"""

from __future__ import annotations

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
from hypothesis import given, settings, strategies as st

import oracles
from repro.core import native
from repro.core.errors import squared_weights
from repro.core.greedy import OnlineReducer
from repro.core.kernels import (
    DeltaLog, EncodedSegments, NumpyMergeHeap, encode_segments,
)
from repro.core.merge import AggregateSegment
from repro.obs import metrics
from repro.temporal import Interval

needs_compiler = pytest.mark.skipif(
    native.compiler() is None, reason="sysconfig's C compiler is not on PATH"
)

COLUMNS = (
    "_start", "_end", "_group", "_prev", "_next", "_key", "_version",
    "_alive", "_node_id", "_values", "_length", "_group_keys",
)
SCALARS = (
    "_count", "_size", "max_size", "_head", "_tail", "_entry_counter",
    "_staged_end",
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


def compiled(heap, size, step_threshold, delta, last_gap_id, before_gap,
             after_gap, total_error, merges, log):
    """The product path, with :func:`oracles.activate`'s signature."""
    return heap.activate_staged_all(
        size=size, step_threshold=step_threshold, delta=delta,
        last_gap_id=last_gap_id, before_gap=before_gap, after_gap=after_gap,
        total_error=total_error, merges=merges, log=log,
    )


def run_twins(chunks, *, weights=None, size=None, step_threshold=0.0,
              delta=1, logged=False):
    """Stage every chunk on twin heaps, activate one with the compiled
    loop and one with the oracle, and compare after each chunk."""
    heaps = [NumpyMergeHeap(weights), NumpyMergeHeap(weights)]
    logs = [DeltaLog(), DeltaLog()] if logged else [None, None]
    books = [(0, 0, 0, 0.0, 0), (0, 0, 0, 0.0, 0)]
    compactions = 0
    for number, chunk in enumerate(chunks):
        for side, (heap, log) in enumerate(zip(heaps, logs)):
            count = heap._count
            heap.stage_chunk(chunk)
            loop = compiled if side == 0 else oracles.activate
            books[side] = loop(heap, size, step_threshold, delta,
                               *books[side], log)
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

@pytest.mark.parametrize(
    "case, policy, logged", DRAWS,
    ids=[f"seed{c[0]}-size{p[0]}-q{p[1]}-d{p[2]}-{'log' if g else 'nolog'}"
         for c, p, g in DRAWS],
)
def test_compiled_loop_leaves_the_oracles_state(case, policy, logged):
    seed, width, groups, offset, magnitude, ties, weights = case
    size, quantile, delta = policy
    rng = np.random.default_rng(seed)
    encoded = stream(rng, count=1400, width=width, groups=groups,
                     offset=offset, magnitude=magnitude, ties=ties)
    step_threshold = 0.0
    if quantile is not None:
        keys = oracles.pairwise_merge_keys(
            encoded.starts, encoded.ends, encoded.values, encoded.groups,
            squared_weights(weights, width),
        )
        keys = keys[np.isfinite(keys)]
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


# ----------------------------------------------------------------------
# The end-of-input phase and single pushes
# ----------------------------------------------------------------------
@st.composite
def reducer_cases(draw):
    """An online numpy reducer fed in chunks, and its end-of-input bound.

    Values are integer-valued more often than not, so exact key ties
    occur; the bound is a size, an ε budget, or a budget that one of the
    merges meets exactly."""
    seed = draw(st.integers(0, 2**32 - 1))
    width = draw(st.sampled_from([1, 2]))
    groups = draw(st.integers(1, 3))
    ties = draw(st.booleans() | st.just(True))
    count = draw(st.integers(1, 400))
    rng = np.random.default_rng(seed)
    encoded = stream(rng, count=count, width=width, groups=groups,
                     offset=0.0, magnitude=3.0, ties=ties)
    weights = draw(st.none() | st.just((1.0, 3.0)[:width]))
    kind = draw(st.sampled_from(["size", "epsilon", "exact"]))
    delta = draw(st.sampled_from([0, 1, 2, math.inf]))
    if kind == "size":
        reducer = OnlineReducer(size=draw(st.integers(1, count)), delta=delta,
                                weights=weights, backend="numpy")
    else:
        reducer = OnlineReducer(
            max_error=draw(st.sampled_from([0.05, 0.3, 1.0])), delta=delta,
            weights=weights, input_size_estimate=count,
            max_error_estimate=float(count), backend="numpy",
        )
    cuts = sorted(set(rng.integers(0, count, 3).tolist()) | {0, count})
    for a, b in zip(cuts, cuts[1:]):
        reducer.push_chunk(encoded[a:b])
    budget = reducer._budget()
    if kind == "exact":
        # The error after merging down to some size: the budget admits
        # that size's last merge with no slack at all.
        probe = reducer.heap.clone()
        budget, _ = probe.merge_down(
            size=draw(st.integers(0, len(probe))),
            total_error=reducer.total_error, merges=reducer.merges,
        )
    return reducer, budget


def end_of_input_twins(heap, size, budget, total_error, merges):
    """Run the end-of-input phase compiled and in the oracle on two
    clones of ``heap``; compare them and return the compiled twin with
    its ``(total_error, merges)``."""
    twins = [heap.clone(), heap.clone()]
    assert heap_state(twins[0]) == heap_state(twins[1])
    compiled_books = twins[0].merge_down(
        size=size, budget=budget, total_error=total_error, merges=merges,
    )
    books = oracles.activate(
        twins[1], size, total_error=total_error, merges=merges,
        end_of_input=True, budget=math.inf if budget is None else budget,
    )
    oracle_books = (books[3], books[4])
    assert hexed(compiled_books) == hexed(oracle_books)
    assert heap_state(twins[0]) == heap_state(twins[1])
    return twins[0], compiled_books


@settings(max_examples=80, deadline=None)
@given(reducer_cases())
def test_end_of_input_leaves_the_oracles_state(case):
    """``merge_down`` (one compiled call, no staged rows) against the
    oracle's end-of-input drain: every column, the entry list, the
    counter, ``total_error.hex()`` and ``merges``.  ``finalize`` is that
    call."""
    reducer, budget = case
    heap, (error, merges) = end_of_input_twins(
        reducer.heap, reducer._size, budget, reducer.total_error,
        reducer.merges,
    )
    if budget == reducer._budget():
        result = reducer.clone().finalize()
        assert (result.error.hex(), result.merges) == (error.hex(), merges)
        assert result.segments == heap.segments()


def paired_stream(gaps):
    """Pairs of unit tuples ``1000 i``, ``1000 i + gaps[i]``: each pair's
    key is ``gaps[i] ** 2 / 2`` until it merges, so equal gaps tie."""
    return [
        AggregateSegment((), (value,), Interval(2 * i + o, 2 * i + o))
        for i, gap in enumerate(gaps)
        for o, value in enumerate((1000.0 * i, 1000.0 * i + gap))
    ]


TIE_CASES = {
    "size, paired": (
        {"size": 10, "delta": math.inf}, paired_stream([3, 1, 2, 2, 5, 4] * 3),
    ),
    "epsilon, paired": (
        {"max_error": 0.01, "delta": math.inf},
        paired_stream([3, 1, 2, 2, 5, 4] * 3),
    ),
    "size, integer values": ({"size": 7, "delta": math.inf}, list(stream(
        np.random.default_rng(12), count=300, width=1, groups=2,
        offset=0.0, magnitude=3.0, ties=True,
    ))),
    "epsilon, integer values": ({"max_error": 0.2}, list(stream(
        np.random.default_rng(12), count=300, width=1, groups=2,
        offset=0.0, magnitude=3.0, ties=True,
    ))),
}


@pytest.mark.parametrize("name", list(TIE_CASES))
def test_tie_fallback_leaves_the_oracles_state(name):
    """A snapshot that hits an exact key tie is served by the end-of-input
    call on a clone of the heap: its result is the oracle's on a twin
    clone, bit for bit, and the compiled and oracle twins agree."""
    options, tuples = TIE_CASES[name]
    reducer = OnlineReducer(backend="numpy", track_deltas=True, **options)
    fallbacks = 0
    for first in range(0, len(tuples), 12):
        reducer.push_chunk(tuples[first:first + 12])
        before = metrics.value("repro_snapshot_oracle_fallbacks_total")
        result, columns = reducer.snapshot()
        if metrics.value("repro_snapshot_oracle_fallbacks_total") == before:
            continue
        fallbacks += 1
        heap, (error, merges) = end_of_input_twins(
            reducer.heap, reducer._size, reducer._budget(),
            reducer.total_error, reducer.merges,
        )
        assert (result.error.hex(), result.merges) == (error.hex(), merges)
        assert columns == heap.columns()
    assert fallbacks > 0


def single_push_state(reducer: OnlineReducer) -> dict:
    """:func:`reducer_state` without the staging marker, which names the
    end of the last staged chunk."""
    state = reducer_state(reducer)
    del state["_staged_end"]
    return state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 250),
    groups=st.integers(1, 3),
    ties=st.booleans(),
    bound=st.sampled_from([{"size": 1}, {"size": 9}, {"size": 60},
                           {"max_error": 0.3}]),
    delta=st.sampled_from([0, 1, 2, math.inf]),
    logged=st.booleans(),
)
def test_single_pushes_leave_the_state_of_one_chunk(
    seed, count, groups, ties, bound, delta, logged
):
    """``push`` per tuple (a one-row staging, then the activation call)
    leaves the heap, the bookkeeping and the delta log of one
    ``push_chunk`` of the same tuples."""
    encoded = stream(np.random.default_rng(seed), count=count, width=2,
                     groups=groups, offset=0.0, magnitude=3.0, ties=ties)
    options = dict(bound, delta=delta, backend="numpy", track_deltas=logged)
    if "max_error" in bound:
        options.update(input_size_estimate=count,
                       max_error_estimate=float(count))
    single, chunked = OnlineReducer(**options), OnlineReducer(**options)
    if logged:  # the first snapshot starts the delta log
        single.snapshot()
        chunked.snapshot()
    for segment in encoded:
        single.push(segment)
    chunked.push_chunk(encoded)
    assert single_push_state(single) == single_push_state(chunked)
    assert log_state(single._log) == log_state(chunked._log)
    if logged:
        assert single._log is not None  # the log was not trimmed
        ours, theirs = single.snapshot(), chunked.snapshot()
        assert hexed(ours[0].error) == hexed(theirs[0].error)
        assert ours[1] == theirs[1]


# ----------------------------------------------------------------------
# Every door reaches the compiled loop
# ----------------------------------------------------------------------
def hexed(value):
    """``value`` with its types kept and every float as its ``.hex()``."""
    if type(value) is float:
        return "float", value.hex()
    if type(value) in (tuple, list):
        return type(value).__name__, [hexed(item) for item in value]
    return type(value).__name__, repr(value)


def reducer_state(reducer: OnlineReducer) -> dict:
    """The heap's columns, entries and scalars, and the reducer's
    bookkeeping, by :func:`hexed`."""
    heap = reducer.heap
    names = (*COLUMNS, "_entries", *SCALARS)
    state = {name: hexed(getattr(heap, name)) for name in names}
    state["books"] = hexed([
        reducer._size, reducer._step_threshold, reducer._last_gap_id,
        reducer._before_gap, reducer._after_gap, reducer.total_error,
        reducer.merges, reducer.consumed,
    ])
    return state


@pytest.fixture
def activations(monkeypatch):
    """Calls of the compiled activation loop, counted."""
    kernel = native.KERNEL
    calls = []

    class Counting:
        sse_fold = staticmethod(kernel.sse_fold)  # gPTAε's tracker

        @staticmethod
        def activate(*args):
            calls.append(len(args))
            return kernel.activate(*args)

    monkeypatch.setattr(native, "KERNEL", Counting)
    return calls


def input_pairs():
    """Inputs that once fell to the Python loop, each with its plain
    float / int equivalent: ``(options, pushed values, chunk)`` twice."""
    encoded = stream(np.random.default_rng(9), count=60, width=1, groups=1,
                     offset=0.0, magnitude=3.0, ties=True)
    chunk = EncodedSegments(encoded.starts + 3, encoded.ends + 3,
                            encoded.values, encoded.groups, [("g",)])
    int_chunk = EncodedSegments(chunk.starts, chunk.ends,
                                chunk.values.astype(np.int64), chunk.groups,
                                chunk.group_keys)
    estimate = float(np.abs(encoded.values).sum())
    size = {"size": 4}
    return {
        "int-valued push": (
            (size, [3, 5, 4], chunk), (size, [3.0, 5.0, 4.0], chunk),
        ),
        "numpy size": (({"size": np.int64(4)}, [], chunk), (size, [], chunk)),
        "numpy estimates": (
            ({"max_error": 0.3, "input_size_estimate": np.int64(60),
              "max_error_estimate": np.float64(estimate)}, [], chunk),
            ({"max_error": 0.3, "input_size_estimate": 60,
              "max_error_estimate": estimate}, [], chunk),
        ),
        "int-valued columns": ((size, [], int_chunk), (size, [], chunk)),
    }


@pytest.mark.parametrize("name", list(input_pairs()))
def test_every_input_takes_the_compiled_loop(name, activations):
    """An input that once fell to the Python loop (an int-valued ``push``
    before a chunk, a numpy-int ``size``, numpy-float estimates, int-valued
    columns) runs the compiled loop and leaves the state of its plain
    float / int equivalent."""
    states = []
    for options, values, columns in input_pairs()[name]:
        reducer = OnlineReducer(backend="numpy", **options)
        for t, value in enumerate(values):
            reducer.push(AggregateSegment(("g",), (value,), Interval(t, t)))
        calls = len(activations)
        reducer.push_chunk(columns[:30])
        reducer.push_chunk(columns[30:])
        assert len(activations) == calls + 2
        assert reducer.merges > 0
        states.append(reducer_state(reducer))
    assert states[0] == states[1]


def test_an_endpoint_past_int64_is_refused_at_every_door():
    """``push`` refuses an endpoint past int64 as ``push_chunk`` and
    :func:`encode_segments` do, and leaves the heap empty."""
    far = AggregateSegment(("g",), (1.0,), Interval(2**63, 2**63))
    errors = []
    for feed in ("push", "push_chunk"):
        reducer = OnlineReducer(size=4, backend="numpy")
        with pytest.raises(Exception) as caught:
            if feed == "push":
                reducer.push(far)
            else:
                reducer.push_chunk([far])
        assert len(reducer.heap) == 0 and reducer.consumed == 0
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    with pytest.raises(type(caught.value)):
        encode_segments([far])


# ----------------------------------------------------------------------
# Loader: the kernel loads, each failure's reason is named
# ----------------------------------------------------------------------
def test_native_loads():
    for loop in ("activate", "trajectory", "dp_row"):
        assert callable(getattr(native.KERNEL, loop))


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


def test_the_build_checksum_covers_every_c_file_and_header(tmp_path,
                                                          monkeypatch):
    """The bytes the loader hashes into the build's name include every
    ``*.c`` and ``*.h`` of the package, so an edit to any of them builds
    afresh instead of loading a stale module."""
    read = []
    read_bytes = Path.read_bytes

    def spy(path):
        read.append(path.resolve())
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    module, reason = native.load(cache_dir=tmp_path, command=["false"])
    assert module is None and reason.startswith("build failed")
    core = Path(native.__file__).resolve().parent
    files = {*core.glob("*.c"), *core.glob("*.h")}
    assert files and files <= set(read)


def test_a_built_package_ships_every_file_the_loader_reads(tmp_path):
    """``setup.py build_py`` of a copy of the project (never of the
    checkout: it writes ``src/*.egg-info``) puts every C file and header
    the loader reads into the built package."""
    root = Path(native.__file__).resolve().parents[3]
    for name in ("pyproject.toml", "setup.py"):
        shutil.copy(root / name, tmp_path / name)
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns(
        "__pycache__", "*.egg-info"))
    built = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_py"], cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=120,
    )
    assert built.returncode == 0, built.stdout
    package = tmp_path / "build" / "lib" / "repro" / "core"
    missing = [path.name for path in (*native.SOURCES, *native.HEADERS)
               if not (package / path.name).is_file()]
    assert missing == []


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
    print(native.KERNEL is not None, before, after)
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
    loaded, before, after = out.split()
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


@pytest.mark.parametrize("cause, named", [
    ("no compiler", "no C compiler: "),
    ("build failed", "build failed: "),
    ("unwritable cache", "unwritable cache: "),
])
def test_a_failed_load_fails_the_import(cause, named, tmp_path):
    """No Python loop stands in: importing the package fails, naming the
    cause."""
    command = native.compiler()
    path = cold_copy(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(path),
           "PYTHONDONTWRITEBYTECODE": "1"}
    if cause == "no compiler":
        if command is not None and os.path.isabs(command[0]):
            pytest.skip("sysconfig names its compiler by an absolute path")
        env["PATH"] = str(tmp_path / "empty")
    elif cause == "unwritable cache":
        (path / "repro/core/__pycache__").write_text("")  # a file, not a dir
    else:
        if command is None:
            pytest.skip("sysconfig's C compiler is not on PATH")
        source = path / "repro/core/_dp.c"
        source.write_text(source.read_text() + "\n#error broken on purpose\n")
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.core.native"], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: cannot load the compiled loops: "
                           + named), proc.stderr
    if cause == "build failed":
        assert "broken on purpose" in last
    assert not list((path / "repro/core/__pycache__").glob("_activate.*"))


# ----------------------------------------------------------------------
# The GIL
# ----------------------------------------------------------------------
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
