"""The ``record`` / ``check`` command line shared by the CI bench gates.

``perf_baseline.py`` (``BENCH_parallel.json``) and ``bench_service.py``
(``BENCH_service.json``) each measure a set of machine-normalized
speedup ratios; a :class:`Gate` records them into the harness's JSON
file, or re-measures them and fails when any ratio dropped more than the
harness's tolerance below its recorded value.  A ``"raw"`` entry of the
measured ratios is not a ratio: ``record`` keeps it under the file's
``meta.raw[scale]`` and ``check`` ignores it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Sequence


@dataclass(frozen=True)
class Gate:
    """One harness's baseline file, tolerance and measurement."""

    #: Where the recorded ratios live.
    path: Path
    #: A freshly measured ratio may drop at most this fraction below its
    #: recorded value before ``check`` fails.
    tolerance: float
    #: Measures every ratio at a scale: ``{name: ratio}``, and optionally
    #: ``"raw"``, numbers recorded beside the ratios.
    measure: Callable[[str], dict]
    #: The harness's scale names.
    scales: Sequence[str]
    #: What regresses, in the failure message ("performance", ...).
    label: str
    #: The command line's description.
    description: str

    def _load(self) -> dict:
        if self.path.exists():
            return json.loads(self.path.read_text(encoding="utf-8"))
        return {"schema": 1, "scales": {}}

    def record(self, scale: str) -> None:
        ratios = self.measure(scale)
        raw = ratios.pop("raw", None)
        data = self._load()
        data.setdefault("scales", {})[scale] = ratios
        meta = {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "recorded_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        }
        if raw is not None:
            # A fresh measurement wins over the raw numbers recorded before.
            meta["raw"] = {**data.get("meta", {}).get("raw", {}), scale: raw}
        data["meta"] = meta
        self.path.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        _print_ratios(f"recorded baseline ({scale}) -> {self.path.name}",
                      ratios)

    def check(self, scale: str) -> int:
        data = self._load()
        recorded = data.get("scales", {}).get(scale)
        if not recorded:
            print(f"no recorded baseline for scale {scale!r} in "
                  f"{self.path.name}; run 'record' first", file=sys.stderr)
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
        ratios = self.measure(scale)
        ratios.pop("raw", None)
        _print_ratios(f"measured ratios ({scale})", ratios, recorded)
        regressions = []
        for name, reference in sorted(recorded.items()):
            measured = ratios.get(name)
            if measured is None:
                regressions.append(f"{name}: not measured anymore")
            elif measured < reference * (1.0 - self.tolerance):
                regressions.append(
                    f"{name}: {measured:.2f}x is more than "
                    f"{self.tolerance:.0%} below the recorded "
                    f"{reference:.2f}x"
                )
        if regressions:
            print(f"\n{self.label} regression detected:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("\nno regression: all ratios within "
              f"{self.tolerance:.0%} of the recorded baseline")
        return 0

    def main(self, argv: Optional[Sequence[str]] = None) -> int:
        parser = argparse.ArgumentParser(description=self.description)
        parser.add_argument("mode", choices=("record", "check"))
        parser.add_argument(
            "--scale", choices=sorted(self.scales), default="smoke",
            help="workload scale (default: smoke)",
        )
        arguments = parser.parse_args(argv)
        if arguments.mode == "record":
            self.record(arguments.scale)
            return 0
        return self.check(arguments.scale)


def _print_ratios(title: str, ratios: dict, recorded: dict | None = None):
    print(f"\n{title}")
    for name, value in sorted(ratios.items()):
        line = f"  {name:40s} {value:10.2f}x"
        if recorded and name in recorded:
            line += f"   (recorded {recorded[name]:.2f}x)"
        print(line)
