"""The ``batch`` workload: the paper's algorithms through the library's
public ``compress`` / ``pta`` calls, with no server.

One round is a fixed job list, run back to back until the run's time is
up (whole rounds only, so every run does the same mix of work):

* ``sharded``       gPTAc, size 1000, 50k float tuples, ``workers=2``
* ``online``        the same job online on the numpy backend
* ``online_python`` the online job on the first 12.5k tuples, python backend
* ``error_bounded`` gPTAε (``max_error=0.05``) on the first 12.5k tuples
* ``dp``            ``pta`` exact DP, size 12, on 2 groups of 200 tuples

The end-to-end figures take one round as one operation and count its
CPU time (this process plus the pool workers it reaped), which leaves
out the time the host takes the virtual CPU away, in probes: the median
of the probe bursts (``common.probe_once``) timed after every job of
the run.  The process, and so its pool, runs on one CPU
(``common.split_cpus``), the one the probe is timed on.  Single jobs do not make these figures: against the probe, the
python job and the sharded one drifted by 0.17 and 0.13 of the median
over five runs in which the host changed pace, while their sum held
within 0.04.  Wall-clock throughput, each job at its median time over
the rounds, goes with the per-layer figures.  (Two job streams side by
side, one per CPU, spread more between runs than one: 0.23 against 0.10
of the median in alternating runs on the 2-vCPU host this was written
on.)
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Dict, List, Tuple

from common import probe_once, quantile, ratio, tail_mean
from inputs import segments, stream, total_sum_of_squares

from repro import compress, pta
from repro.core.errors import max_error, sse_between
from repro.core.merge import (
    AggregateSegment,
    segments_from_relation,
    segments_to_relation,
)
from repro.temporal import Interval

SIZE = 1000
EPSILON = 0.05
AGGREGATES = {"v0": ("avg", "v0"), "v1": ("avg", "v1")}
GROUP_SIZE = 200
JOBS = ("sharded", "online", "online_python", "error_bounded", "dp")


@dataclass(frozen=True)
class Scale:
    stream: int = 50_000
    prefix: int = 12_500
    groups: int = 2
    dp_size: int = 12
    # A set-up takes about 0.2 s and single ones vary by ±30%; ten make
    # a steady median for one second more per run.
    setup_reps: int = 10


SCALES = {
    "full": Scale(),
    "tiny": Scale(stream=20_000, prefix=5_000, groups=2, dp_size=8,
                  setup_reps=1),
}


@dataclass
class Inputs:
    segments: List[AggregateSegment]
    prefix: List[AggregateSegment]
    grouped: List[AggregateSegment]
    relation: Any
    sum_of_squares: Dict[str, float]


def build_inputs(seed: int, scale: Scale) -> Inputs:
    """The job inputs from the seed (one set-up)."""
    values = stream(seed, 0, scale.stream, integer=False)
    full = segments(0, values)
    grouped_values = stream(seed, 1, scale.groups * GROUP_SIZE, False)
    grouped = [
        AggregateSegment(
            (f"g{index // GROUP_SIZE:03d}",),
            (a, b),
            Interval(index % GROUP_SIZE, index % GROUP_SIZE),
        )
        for index, (a, b) in enumerate(grouped_values.tolist())
    ]
    whole = total_sum_of_squares(values)
    head = total_sum_of_squares(values[: scale.prefix])
    return Inputs(
        full,
        full[: scale.prefix],
        grouped,
        segments_to_relation(grouped, ["grp"], ["v0", "v1"]),
        {
            "sharded": whole,
            "online": whole,
            "online_python": head,
            "error_bounded": head,
            "dp": total_sum_of_squares(grouped_values),
        },
    )


def run_job(name: str, inputs: Inputs, scale: Scale) -> Any:
    if name == "sharded":
        return compress(inputs.segments, size=SIZE, workers=2)
    if name == "online":
        return compress(inputs.segments, size=SIZE, backend="numpy")
    if name == "online_python":
        return compress(inputs.prefix, size=SIZE, backend="python")
    if name == "error_bounded":
        return compress(inputs.prefix, max_error=EPSILON, backend="numpy")
    return pta(inputs.relation, group_by=["grp"], aggregates=AGGREGATES,
               size=scale.dp_size, backend="numpy")


def job_tuples(name: str, inputs: Inputs) -> int:
    if name in ("sharded", "online"):
        return len(inputs.segments)
    if name == "dp":
        return len(inputs.grouped)
    return len(inputs.prefix)


#: One finished job: (name, start, end, CPU seconds, result).
Job = Tuple[str, float, float, float, Any]


def cpu_s() -> float:
    """CPU seconds of this process and of every child it has reaped (the
    ``workers=2`` pool is joined before ``compress`` returns)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


#: Probe bursts after each job (about 2.5 ms each).
PROBES_PER_JOB = 3


def run_rounds(
    inputs: Inputs, scale: Scale, seconds: float
) -> Tuple[List[List[Job]], List[float]]:
    """Whole rounds of the job list until ``seconds`` have passed, and the
    probe's CPU seconds, taken after each job on the same thread."""
    rounds: List[List[Job]] = []
    probes: List[float] = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        jobs: List[Job] = []
        for name in JOBS:
            begin, cpu = perf_counter(), cpu_s()
            result = run_job(name, inputs, scale)
            jobs.append((name, begin, perf_counter(), cpu_s() - cpu, result))
            probes.extend(probe_once() for _ in range(PROBES_PER_JOB))
        rounds.append(jobs)
    return rounds, probes


class References:
    """What each job's answer is checked against, computed once."""

    def __init__(self, inputs: Inputs, scale: Scale) -> None:
        self.sharded = compress(inputs.segments, size=SIZE, workers=1)
        self.online_numpy = compress(inputs.prefix, size=SIZE, backend="numpy")
        self.greedy_error = compress(
            inputs.relation, group_by=["grp"], aggregates=AGGREGATES,
            size=scale.dp_size, backend="numpy",
        ).error
        self.error_budget = EPSILON * max_error(inputs.prefix)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _agree(candidate: Any, reference: Any) -> bool:
    """Same shape, values within the documented relative 1e-9."""
    if len(candidate.segments) != len(reference.segments):
        return False
    for left, right in zip(candidate.segments, reference.segments):
        if left.interval != right.interval or left.group != right.group:
            return False
        if not all(_close(x, y) for x, y in zip(left.values, right.values)):
            return False
    return _close(candidate.error, reference.error)


def dp_error(inputs: Inputs, relation: Any) -> float:
    reduced = segments_from_relation(relation, ["grp"], ["v0", "v1"])
    return sse_between(inputs.grouped, reduced)


def check_rounds(
    rounds: List[List[Job]],
    inputs: Inputs,
    refs: References,
    corrupt: bool,
    check: Any,
) -> float:
    """Check every job of every round; returns the reduction error of the
    first round (summed job error over summed input sum of squares)."""
    first = {name: result for name, _, _, _, result in rounds[0]}
    sharded_error = refs.sharded.error + (1.0 if corrupt else 0.0)
    errors = 0.0
    for number, jobs in enumerate(rounds):
        for name, _, _, _, result in jobs:
            if name == "sharded":
                check.expect(
                    result.error == sharded_error
                    and result.segments == refs.sharded.segments,
                    "workers=2 differs from workers=1",
                )
                error = result.error
            elif name == "online":
                check.expect(
                    result.error == first["online"].error
                    and result.segments == first["online"].segments,
                    "online result changed between rounds",
                )
                error = result.error
            elif name == "online_python":
                check.expect(_agree(result, refs.online_numpy),
                             "python and numpy backends disagree")
                error = result.error
            elif name == "error_bounded":
                check.expect(result.error <= refs.error_budget + 1e-9,
                             "gPTAε error above ε·SSE_max")
                error = result.error
            else:
                error = dp_error(inputs, result)
                check.expect(error <= refs.greedy_error * (1 + 1e-9) + 1e-9,
                             "DP error above the greedy error")
            if number == 0:
                errors += error
    return ratio(errors, sum(inputs.sum_of_squares.values()))


def _median_times(rounds: List[List[Job]], cpu: bool) -> List[float]:
    """Each job's median wall-clock (or CPU) seconds over the rounds."""
    return [
        statistics.median(
            spent if cpu else end - begin
            for jobs in rounds
            for job, begin, end, spent, _ in jobs if job == name
        )
        for name in JOBS
    ]


def throughput(rounds: List[List[Job]], inputs: Inputs) -> float:
    """Input tuples per wall-clock second of a typical round: each job at
    its median time."""
    return sum(job_tuples(name, inputs) for name in JOBS) / sum(
        _median_times(rounds, cpu=False)
    )


def job_cpu_ms(rounds: List[List[Job]]) -> Dict[str, float]:
    """Each job's median CPU milliseconds (for the detail line)."""
    return {name: spent * 1e3
            for name, spent in zip(JOBS, _median_times(rounds, cpu=True))}


def cpu_figures(rounds: List[List[Job]]) -> Dict[str, float]:
    """CPU milliseconds per round (one operation): the mean, the median
    and the mean of the slower half.  A run holds too few rounds for a
    slowest tenth: that would be the slowest round alone, which spread
    0.13-0.21 of the median between runs against 0.04-0.09 for the mean
    and the median."""
    cpu = [sum(job[3] for job in jobs) for jobs in rounds]
    return {
        "cpu_ms_per_op": statistics.fmean(cpu) * 1e3,
        "op_cpu_p50_ms": quantile(cpu, 0.5) * 1e3,
        "op_cpu_tail_ms": tail_mean(cpu, share=0.5) * 1e3,
    }


def peak_rss_mb() -> float:
    """VmHWM of this process plus the largest pool worker's, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0
