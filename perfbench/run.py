"""Layer-ledger benchmark: end-to-end numbers per workload, per-layer
numbers from a separate traced run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads: ``ingest``, ``durable_ingest``, ``query_mixed`` (served over
HTTP by a separate server process, plus a standby process for
``durable_ingest``) and ``batch`` (library calls, no server).  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run measures an untraced phase
and then a traced one, and the last line carries the per-layer metrics.
The line before it is a JSON record of the machine, the seed, sample
counts and the counters scraped from the server.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from time import perf_counter, process_time
from typing import Any, Dict, List, Set, Tuple

from common import (ROOT, Check, HostProbe, at_reference_speed,
                    in_probe_units, machine, out_dir, pin, ratio, split_cpus,
                    use_source)

WORKLOADS = ("ingest", "durable_ingest", "query_mixed", "batch")


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="perturb one reference answer (self-test)")
    return parser.parse_args(argv)


def run_serving(
    args: argparse.Namespace, load_cpus: Set[int]
) -> Tuple[Dict, Dict, int, int, bool]:
    import layers
    import serving

    scale = serving.SCALES[args.scale]
    phases = 2 if args.trace else 1
    began = perf_counter()
    plan = serving.PLANS[args.workload](args.seed, args.seconds * phases, scale)
    detail: Dict[str, Any] = {"inputs_s": perf_counter() - began}
    setups: List[float] = []
    servers = None
    try:
        for rep in range(1 if args.trace else plan.setup_reps):
            if servers is not None:
                servers.close()
            # The probe runs beside the set-up, on its CPU, every 50 ms;
            # its own CPU time is taken out of this process's.
            began = process_time()
            with HostProbe(every=0.05) as probe:
                servers = serving.Servers(plan, str(rep))
                booted = sum(mark["process_s"]
                             for mark in serving.cpu_marks(servers))
            own = process_time() - began - sum(probe.samples)
            setups.append(at_reference_speed(own + booted, probe.median_s))
        assert servers is not None and servers.primary is not None
        primary = servers.primary
        clients = [serving.Client(primary.port, ops) for ops in plan.clients]
        cpu_before = serving.cpu_marks(servers)
        with HostProbe() as probe:
            run = [serving.run_phase(clients, args.seconds, load_cpus)]
        cpu_after = serving.cpu_marks(servers)
        cpu = serving.cpu_figures(run[0], cpu_before, cpu_after)
        detail.update(probe_ms=probe.median_s * 1e3, probes=len(probe.samples),
                      **cpu)
        before = serving.scrape(primary.port)
        if args.trace:
            for proc in servers.processes():
                proc.call("trace_on")
            run.append(serving.run_phase(clients, args.seconds, load_cpus))
            summaries = {
                role: proc.call(
                    "trace_off",
                    spans=str(out_dir() / f"spans-{args.workload}-{role}.jsonl"),
                )
                for role, proc in (("primary", primary),
                                   ("standby", servers.standby))
                if proc is not None
            }
        after = serving.scrape(primary.port)
        info = primary.call("info")
        check, reduction_error = serving.verify(
            plan, clients, servers, args.seed, args.corrupt_oracle
        )
    finally:
        if servers is not None:
            servers.close()

    attempted = sum(len(p.entries) for p in run) + check.attempted
    failed = sum(p.failed for p in run) + check.failed
    exhausted = any(client.exhausted for client in clients)
    detail.update(
        setup_runs_s=setups,
        samples={
            "ops": len(run[0].entries),
            "pushes": len(run[0].latencies(["push"])),
            "queries": len(run[0].latencies(serving.QUERIES)),
        },
        stats=after,
        checks=check.attempted,
        check_failures=check.notes,
        inputs_exhausted=exhausted,
    )
    if exhausted:
        print("perfbench: a client ran out of pre-built inputs before the "
              "time was up; raise the rates in serving.py", file=sys.stderr)
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            **in_probe_units(cpu, probe.median_s),
            "peak_rss_mb": info["VmHWM"] / 1024.0,
            "reduction_error": reduction_error,
        }
        return metrics, detail, attempted, failed, not exhausted

    untraced, traced = run
    if args.workload == "query_mixed":
        overhead = ratio(traced.queries / traced.seconds,
                         untraced.queries / untraced.seconds)
    else:
        overhead = ratio(traced.pushed_tuples / traced.seconds,
                         untraced.pushed_tuples / untraced.seconds)
    acked = sum(op.tuples for op in plan.seed_ops) + sum(
        p.pushed_tuples for p in run
    )
    context = {
        **serving.per_operation(untraced),
        "trace.overhead_ratio": overhead,
        "http.connections_per_req": ratio(traced.connections,
                                          len(traced.entries)),
        "http.error_responses": after["http_errors"] - before["http_errors"],
        "query.cache_hit_ratio": ratio(
            after["cache_hits"] - before["cache_hits"],
            after["cache_hits"] + after["cache_misses"]
            - before["cache_hits"] - before["cache_misses"],
        ),
        "query.cost_rows_per_query": ratio(
            after["cost_rows"] - before["cost_rows"],
            after["queries"] - before["queries"],
        ),
        "durability.disk_bytes_per_tuple": ratio(info["disk_bytes"], acked),
        "durability.disk_errors": after["disk_errors"] - before["disk_errors"],
        "replica.lag_events_max": after["sink_lag_max"],
        "batch_tuples_per_s": 0.0,
    }
    metrics = layers.layer_values(
        summaries["primary"], summaries.get("standby", {}), context
    )
    missing = layers.missing_spans(
        args.workload, summaries["primary"], summaries.get("standby", {})
    ) + layers.zero_metrics(args.workload, metrics)
    detail["missing"] = missing
    return metrics, detail, attempted, failed, not missing and not exhausted


def run_batch(args: argparse.Namespace) -> Tuple[Dict, Dict, int, int, bool]:
    import batch
    import layers

    scale = batch.SCALES[args.scale]
    setups: List[float] = []
    inputs = None
    for _ in range(1 if args.trace else scale.setup_reps):
        inputs = None  # free the last set first: peak RSS counts one set
        began = process_time()
        inputs = batch.build_inputs(args.seed, scale)
        setups.append(at_reference_speed(process_time() - began))
    refs = batch.References(inputs, scale)
    first, probes = batch.run_rounds(inputs, scale, args.seconds)
    run = [first]
    if args.trace:
        tracer = layers.Tracer()
        tracer.install(layers.BATCH)
        try:
            run.append(batch.run_rounds(inputs, scale, args.seconds)[0])
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        tracer.dump(out_dir() / "spans-batch.jsonl")
    check = Check()
    reduction_error = 0.0
    for rounds in run:
        reduction_error = batch.check_rounds(
            rounds, inputs, refs, args.corrupt_oracle, check
        )
    jobs = sum(len(rounds) * len(batch.JOBS) for rounds in run)
    detail: Dict[str, Any] = {
        "setup_runs_s": setups,
        "samples": {"jobs": len(run[0]) * len(batch.JOBS),
                    "rounds": len(run[0])},
        "job_cpu_ms": batch.job_cpu_ms(first),
        "probe_ms": statistics.median(probes) * 1e3,
        "probes": len(probes),
        "checks": check.attempted,
        "check_failures": check.notes,
    }
    attempted = jobs + check.attempted
    failed = check.failed
    cpu = batch.cpu_figures(first)
    detail.update(cpu)
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            **in_probe_units(cpu, statistics.median(probes)),
            "peak_rss_mb": batch.peak_rss_mb(),
            "reduction_error": reduction_error,
        }
        return metrics, detail, attempted, failed, True
    untraced, traced = (batch.throughput(rounds, inputs) for rounds in run)
    context = {
        "batch_tuples_per_s": untraced,
        "failed_ratio": ratio(failed, attempted),
        "trace.overhead_ratio": ratio(traced, untraced),
        **{name: 0.0 for name in SERVING_ONLY},
    }
    metrics = layers.layer_values(summary, {}, context)
    missing = layers.missing_spans("batch", summary, {}) + layers.zero_metrics(
        "batch", metrics
    )
    detail["missing"] = missing
    return metrics, detail, attempted, failed, not missing


#: Per-layer figures that only a server produces; ``batch`` reports 0.
SERVING_ONLY = (
    "push_tuples_per_s", "push_p50_ms", "push_p90_ms", "query_per_s",
    "query_p50_us", "query_p99_us", "http.connections_per_req",
    "http.error_responses", "query.cache_hit_ratio",
    "query.cost_rows_per_query", "durability.disk_bytes_per_tuple",
    "durability.disk_errors", "replica.lag_events_max",
)


def main(argv: List[str]) -> int:
    args = parse(argv)
    use_source()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The measured work (server processes, batch jobs and their pool) and
    # the probe share one CPU; serving clients take the others.
    measured, load = split_cpus()
    pin(measured)
    if args.workload == "batch":
        metrics, detail, attempted, failed, complete = run_batch(args)
    else:
        metrics, detail, attempted, failed, complete = run_serving(args, load)
    detail.update(measured_cpus=sorted(measured), load_cpus=sorted(load))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = spec["per_layer" if args.trace else "end_to_end"]
    unmeasured = [m["name"] for m in table if m["name"] not in metrics]
    if unmeasured:
        raise RuntimeError(f"the {args.workload} run measured no {unmeasured}")
    correct = failed == 0 and complete
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, **machine())
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {
                "value": float(metrics[metric["name"]]),
                "unit": metric["unit"],
            }
            for metric in table
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
