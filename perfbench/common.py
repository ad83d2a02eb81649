"""Paths, process accounting and small statistics shared by the benchmark.

The benchmark runs from the root of a source checkout and imports the
package straight from ``src/`` (no install step).  Everything it writes
goes under ``perfbench/_out/`` inside that checkout.
"""

from __future__ import annotations

import heapq
import os
import platform
import statistics
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import thread_time
from typing import Dict, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"


def use_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit non-zero.

    Without the package there is nothing to measure: the benchmark exits
    with code 2 before printing any result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no package at {SRC / 'repro'}; run from the root "
            f"of a source checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def out_dir() -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return OUT


def proc_status(pid: int | str = "self") -> Dict[str, int]:
    """``VmHWM`` / ``VmRSS`` of a process in kB (Linux ``/proc``)."""
    fields: Dict[str, int] = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            name, _, rest = line.partition(":")
            if name in ("VmHWM", "VmRSS"):
                fields[name] = int(rest.split()[0])
    return fields


def machine() -> Dict[str, object]:
    """What the numbers were measured on, recorded beside them."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def split_cpus() -> Tuple[Set[int], Set[int]]:
    """``(measured, load)``: the CPU that the measured work and the probe
    share (the last one this process may use), and the CPUs left to the
    load generator's clients.  With a single CPU both are that CPU."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return set(allowed), set(allowed)
    return {allowed[-1]}, set(allowed[:-1])


def pin(cpus: Set[int]) -> None:
    """Keep the calling thread, and the threads and processes it starts
    from now on, on ``cpus``."""
    os.sched_setaffinity(0, cpus)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default); 0.0 when empty."""
    if not values:
        return 0.0
    ordered: List[float] = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean of the slowest ``share`` of the values (at least one); 0.0
    when empty.  Unlike a high quantile it does not jump when it sits in
    the gap between two kinds of operation."""
    if not values:
        return 0.0
    count = max(1, round(share * len(values)))
    return statistics.fmean(sorted(values)[-count:])


def in_probe_units(cpu: Dict[str, float], probe_s: float) -> Dict[str, float]:
    """The end-to-end figures: CPU figures over the probe's CPU time.

    Other tenants of a shared host change how much CPU time the same work
    takes (by a fifth within minutes, and more in wall-clock time), and
    each virtual CPU on its own; the probe, timed on the CPU the work runs
    on (:func:`split_cpus`), changes with them, and the ratio does not.
    """
    probe_ms = probe_s * 1e3
    return {
        "cpu_per_op": ratio(cpu["cpu_ms_per_op"], probe_ms),
        "op_cpu_p50": ratio(cpu["op_cpu_p50_ms"], probe_ms),
        "op_cpu_tail": ratio(cpu["op_cpu_tail_ms"], probe_ms),
    }


@dataclass
class Check:
    """Correctness checks made after the timed phases."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)


def probe_once() -> float:
    """CPU seconds this thread takes for a fixed piece of work of the
    benchmark's own (about 2.5 ms): a heap of tuples and dict traffic in
    Python, then a sort and scans in numpy, the two kinds of work the
    measured code does.  It calls nothing in ``src/``, so a change there
    does not move it."""
    import numpy as np

    began = thread_time()
    heap: List[tuple] = []
    seen: Dict[int, int] = {}
    for i in range(1500):
        key = (i * 7919) % 1499
        heapq.heappush(heap, (key, i))
        seen[key] = seen.get(key, 0) + i
    while heap:
        heapq.heappop(heap)
    values = np.random.default_rng(0).random(20_000)
    np.cumsum(np.sort(values)).max()
    return thread_time() - began


#: The probe's CPU time on the host the benchmark was written on.
REFERENCE_PROBE_S = 2.5e-3


def at_reference_speed(cpu_s: float, probe_s: float = 0.0) -> float:
    """``cpu_s`` CPU seconds scaled to a host on which the probe takes
    :data:`REFERENCE_PROBE_S`.  ``probe_s`` is the probe's time beside
    that work; by default, the median of nine probes taken now."""
    if not probe_s:
        probe_s = statistics.median(probe_once() for _ in range(9))
    return cpu_s * REFERENCE_PROBE_S / probe_s


class HostProbe:
    """Runs :func:`probe_once` every ``every`` seconds on a thread of its
    own while a serving phase runs; ``median_s`` is the median burst.  It
    runs in the load generator, whose CPU time is not counted, on the
    measured CPU: a thread starts with the affinity of its starter."""

    def __init__(self, every: float = 0.1) -> None:
        self.every = every
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.every):
            self.samples.append(probe_once())

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *_: object) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def median_s(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0
