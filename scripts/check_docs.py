#!/usr/bin/env python
"""Docs link-check: README ↔ docs/ARCHITECTURE.md stay wired and honest.

Four checks, all static (no imports of the package):

* ``README.md`` links ``docs/ARCHITECTURE.md`` (the execution-plane
  handbook must stay reachable from the front page);
* every markdown link target in README.md and docs/ARCHITECTURE.md that
  points into the repository resolves to an existing file;
* every backticked repository path mentioned in docs/ARCHITECTURE.md
  (``src/...``, ``tests/...``, ``benchmarks/...``, ``scripts/...``,
  ``.github/...``, ``BENCH_*.json``) exists — so the handbook's code
  references cannot rot silently when files move;
* every backticked private name (``_name``, also as ``Owner._name``)
  in README.md and docs/ARCHITECTURE.md is defined under ``src/`` by a
  ``def``, a ``class`` or a module-level assignment — so a renamed or
  deleted helper cannot leave a stale reference behind.

Exit code 1 lists every failure; run from anywhere::

    python scripts/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CHECKED_DOCS = ("README.md", "docs/ARCHITECTURE.md")
# Backticked tokens that look like repository paths.
PATH_PATTERN = re.compile(
    r"`((?:src|tests|benchmarks|scripts|docs|examples|\.github)"
    r"/[A-Za-z0-9_./-]+|BENCH_[A-Za-z0-9_.]+\.json)`"
)
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
# A private identifier at the start of a code span or after a dot;
# dunders (``__init__``) are Python's names, not the repository's.
PRIVATE_NAME = re.compile(r"(?:^|(?<=\.))(_(?!_)[A-Za-z0-9_]*)")
DEFINITION = re.compile(
    r"^(?:\s*(?:async\s+)?def\s+(\w+)|\s*class\s+(\w+)"
    r"|(\w+)\s*(?::[^=\n]*)?=(?!=))",
    re.MULTILINE,
)


def defined_names() -> set[str]:
    """Names bound under ``src/`` by ``def``, ``class`` (at any depth)
    or a module-level assignment."""
    names: set[str] = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for match in DEFINITION.finditer(path.read_text()):
            names.update(name for name in match.groups() if name)
    return names


def check() -> list[str]:
    failures: list[str] = []
    defined = defined_names()
    readme = (REPO_ROOT / "README.md").read_text()
    if "docs/ARCHITECTURE.md" not in readme:
        failures.append("README.md does not link docs/ARCHITECTURE.md")
    for doc in CHECKED_DOCS:
        doc_path = REPO_ROOT / doc
        if not doc_path.exists():
            failures.append(f"{doc} is missing")
            continue
        text = doc_path.read_text()
        for match in LINK_PATTERN.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (doc_path.parent / target).resolve()
            if not resolved.exists():
                failures.append(f"{doc}: broken link target {target!r}")
        for match in PATH_PATTERN.finditer(text):
            target = match.group(1)
            if not (REPO_ROOT / target).exists():
                failures.append(
                    f"{doc}: referenced path {target!r} does not exist"
                )
        for span in CODE_SPAN.finditer(text):
            if "/" in span.group(1):
                continue  # a path, checked above
            for name in PRIVATE_NAME.findall(span.group(1)):
                if name not in defined:
                    failures.append(
                        f"{doc}: private name {name!r} is not defined "
                        f"under src/"
                    )
    return failures


def main() -> int:
    failures = check()
    if failures:
        for failure in failures:
            print(f"docs-check: FAIL — {failure}")
        return 1
    print("docs-check: OK — README ↔ docs/ARCHITECTURE.md links, path "
          "references and private names resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
