#!/usr/bin/env python
"""Fail CI when docs cite file paths, test anchors or names that don't resolve.

The docs promise to stay greppable against the tree: every path cited in
``docs/*.md`` and ``README.md`` must exist, every ``path::Class::method``
anchor must name a symbol that actually appears in that file, and every
backticked dotted name ``repro.a.b.Name`` must resolve: the longest
prefix that is a module (``src/repro/a/b.py`` or a package's
``__init__.py``) exists, and the module defines, imports or exports
(``__all__``) the first name after it.  This script is deliberately
grep-grade — no markdown parser, no imports of the package — so it can
never rot ahead of the docs it checks.

Usage::

    python tools/check_doc_links.py            # check, exit 1 on failures
    python tools/check_doc_links.py --list     # also print every citation
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Files whose path citations are checked.
DOC_FILES = sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md"]

#: A citation is a path rooted at one of these prefixes, or a root-level
#: artifact we know by name.
PATH_PATTERN = re.compile(
    r"(?:(?:src|tests|benchmarks|examples|docs|tools|\.github)"
    r"/[A-Za-z0-9_.*/-]*[A-Za-z0-9_*/-]"
    r"|BENCH_[A-Za-z0-9_]+\.json"
    r"|ROADMAP\.md|CHANGES\.md|PAPER\.md|pyproject\.toml)"
    r"(?:::[A-Za-z0-9_:]+)?"
)

#: A backticked dotted name in the package, e.g. `repro.api.Compressor`.
NAME_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")

#: Paths the docs legitimately cite but that only exist at runtime
#: (gitignored benchmark output, etc.).
GENERATED = {"benchmarks/results/"}


def citations(text: str) -> Iterable[str]:
    for match in PATH_PATTERN.finditer(text):
        yield match.group(0)
    for match in NAME_PATTERN.finditer(text):
        yield match.group(1)


def _module_file(parts: List[str]) -> Path | None:
    base = ROOT / "src" / Path(*parts)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def check_name(citation: str) -> Tuple[bool, str]:
    """(ok, message) for one dotted ``repro.module[.Name[.attr]]`` name."""
    parts = citation.split(".")
    for split in range(len(parts), 0, -1):
        module = _module_file(parts[:split])
        if module is not None:
            break
    else:
        return False, f"{citation}: no module {parts[0]!r} under src/"
    if split == len(parts):
        return True, citation
    name = re.escape(parts[split])
    source = module.read_text(encoding="utf-8")
    patterns = (
        rf"^\s*(?:def|class)\s+{name}\b",  # defined
        rf"^{name}\s*[:=]",  # module-level assignment
        rf"^\s*(?:from\s+\S+\s+)?import\s+[^\n]*\b{name}\b",  # one-line import
        rf"^from\s+\S+\s+import\s+\([^)]*\b{name}\b",  # bracketed import
        rf"[\"']{name}[\"']",  # exported by name (__all__, lazy exports)
    )
    if any(re.search(p, source, re.MULTILINE) for p in patterns):
        return True, citation
    rel = module.relative_to(ROOT)
    return False, (
        f"{citation}: {rel} neither defines nor imports {parts[split]!r}"
    )


def check_one(citation: str) -> Tuple[bool, str]:
    """(ok, message) for one ``path[::Symbol[::symbol]]`` citation."""
    if citation.startswith("repro."):
        return check_name(citation)
    path_part, _, anchor = citation.partition("::")
    if path_part in GENERATED:
        return True, citation
    if "*" in path_part:
        if anchor:
            return False, f"{citation}: glob citations cannot carry anchors"
        if not any(ROOT.glob(path_part)):
            return False, f"{citation}: glob matches nothing"
        return True, citation
    target = ROOT / path_part
    if not target.exists():
        return False, f"{citation}: path {path_part!r} does not exist"
    if anchor:
        if not target.is_file():
            return False, f"{citation}: anchors need a file, not a directory"
        source = target.read_text(encoding="utf-8")
        for symbol in anchor.split("::"):
            if not re.search(
                rf"(?:^|\s)(?:def|class)\s+{re.escape(symbol)}\b", source
            ):
                return False, (
                    f"{citation}: no `def`/`class` named {symbol!r} "
                    f"in {path_part}"
                )
    return True, citation


def main(argv: List[str]) -> int:
    list_all = "--list" in argv
    failures: List[str] = []
    seen = set()
    for doc in DOC_FILES:
        rel = doc.relative_to(ROOT)
        for citation in citations(doc.read_text(encoding="utf-8")):
            key = (rel, citation)
            if key in seen:
                continue
            seen.add(key)
            ok, message = check_one(citation)
            if not ok:
                failures.append(f"{rel}: {message}")
            elif list_all:
                print(f"ok  {rel}: {citation}")
    if failures:
        print(f"{len(failures)} broken doc citation(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"checked {len(seen)} citations across "
        f"{len(DOC_FILES)} files — all resolve"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
