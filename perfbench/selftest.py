"""Tiny-scale self-test of the benchmark.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, passes its correctness check and
  emits every metric ``BENCHMARK.json`` names, with that metric's unit;
* a deliberately corrupted oracle answer fails the run (on a serving
  workload and on ``batch``);
* without the package to measure, the benchmark exits non-zero and
  prints no result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1", "--scale", "tiny"]


def run(args: List[str], cwd: Path = ROOT) -> Tuple[int, List[str]]:
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result(lines: List[str]) -> Dict:
    return json.loads(lines[-1]) if lines else {}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run([*RUN, "--workload", workload,
                               "--trace", str(trace)])
            line = result(lines)
            label = f"{workload} --trace {trace}"
            if code != 0 or not line.get("correct"):
                failures.append(f"{label}: exit {code}, {line or 'no result'}")
                continue
            emitted = line["metrics"]
            for metric in spec[table]:
                got = emitted.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} is {got}")
            extra = set(emitted) - {m["name"] for m in spec[table]}
            if extra:
                failures.append(f"{label}: unexpected metrics {sorted(extra)}")
            print(f"selftest: {label} ok", flush=True)

    for workload in ("ingest", "batch"):
        code, lines = run([*RUN, "--workload", workload, "--trace", "0",
                           "--corrupt-oracle"])
        line = result(lines)
        if code == 0 or line.get("correct") or not line.get("failed"):
            failures.append(f"{workload}: a corrupted oracle did not fail the "
                            f"run (exit {code}, {line})")
        else:
            print(f"selftest: {workload} corrupted oracle fails", flush=True)

    bare = ROOT / "perfbench" / "_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    code, lines = run([*spec["command"][1:], "--workload", "ingest",
                       "--seed", "1", "--seconds", "1", "--trace", "0"],
                      cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or lines:
        failures.append(f"bare checkout: exit {code}, output {lines}")
    else:
        print("selftest: bare checkout exits non-zero", flush=True)

    for failure in failures:
        print(f"selftest: FAIL {failure}", file=sys.stderr)
    print("selftest: " + ("ok" if not failures else "failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
