#!/usr/bin/env python
"""Docs link-check: README ↔ docs/ARCHITECTURE.md stay wired and honest.

Seven checks, all static (no imports of the package):

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
  deleted helper cannot leave a stale reference behind;
* every backticked ``Owner.attr`` in README.md and docs/ARCHITECTURE.md
  whose ``Owner`` is a class defined under ``src/`` names an attribute
  that class's body binds: by ``def`` or ``class``, by a ``self.``/
  ``cls.`` store in any of its methods, by a class-level assignment or
  annotation, or by a ``__slots__`` string — so a public attribute that
  moved to another class cannot leave a stale reference behind
  (inherited attributes do not count: name the class that binds it);
* every backticked span in README.md and docs/ARCHITECTURE.md that
  starts with a call of a snake_case name containing ``_``
  (``run_many(``) names a ``def`` or ``class`` under ``src/`` — so a
  deleted function cannot leave a stale call behind;
* every markdown file name (``NAME.md``, bare or backticked, optionally
  with a directory) cited in a docstring or comment of a ``.py`` file
  under ``src/`` or ``benchmarks/`` exists, relative to the repository
  root or to the citing file — so code cannot point readers at a
  document that is not there.

Exit code 1 lists every failure; run from anywhere::

    python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Iterable, Iterator

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
# ``NAME.md`` with an optional relative directory, not part of a longer
# word, path or URL.
MARKDOWN_NAME = re.compile(r"(?<![\w./:-])((?:[\w-]+/)*[\w-]+\.md)\b")
CITING_TREES = ("src", "benchmarks")
# ``Owner.attr`` with a capitalised owner that is not itself an
# attribute (``module.Owner.attr`` is not checked).
# A snake_case name with an underscore, called at the start of a span.
CALL_SPAN = re.compile(r"^([a-z][a-z0-9]*(?:_[a-z0-9]+)+)\(")
OWNER_ATTRIBUTE = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")
DEFINITION = re.compile(
    r"^(?:\s*(?:async\s+)?def\s+(\w+)|\s*class\s+(\w+)"
    r"|(\w+)\s*(?::[^=\n]*)?=(?!=))",
    re.MULTILINE,
)


def defined_names(assignments: bool = True) -> set[str]:
    """Names bound under ``src/`` by ``def``, ``class`` (at any depth)
    or, unless ``assignments`` is false, a module-level assignment."""
    names: set[str] = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for match in DEFINITION.finditer(path.read_text()):
            function, cls, assigned = match.groups()
            if not assignments:
                assigned = None
            names.update(name for name in (function, cls, assigned) if name)
    return names


def class_attributes(sources: Iterable[str]) -> dict[str, set[str]]:
    """Class name → the attribute names its body binds, over the given
    Python sources (classes sharing a name pool their attributes)."""
    bound: dict[str, set[str]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bound.setdefault(node.name, set()).update(_bound_by(node))
    return bound


def _bound_by(cls: ast.ClassDef) -> Iterator[str]:
    for statement in cls.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            yield statement.name
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
            targets = [statement.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id
        names = {getattr(target, "id", None) for target in targets}
        if "__slots__" in names and statement.value is not None:
            yield from (
                item.value for item in ast.walk(statement.value)
                if isinstance(item, ast.Constant)
                and isinstance(item.value, str)
            )
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")):
            yield node.attr


def stale_attribute_failures(
    doc: str, text: str, bound: dict[str, set[str]]
) -> list[str]:
    """Backticked ``Owner.attr`` spans of ``text`` whose ``Owner`` is a
    class in ``bound`` that does not bind ``attr``."""
    failures: list[str] = []
    for span in CODE_SPAN.finditer(text):
        if "/" in span.group(1):
            continue  # a path
        for owner, attr in OWNER_ATTRIBUTE.findall(span.group(1)):
            if owner in bound and attr not in bound[owner]:
                failures.append(
                    f"{doc}: {owner}.{attr} — class {owner} under src/ "
                    f"binds no attribute {attr!r}"
                )
    return failures


def stale_call_failures(
    doc: str, text: str, callables: set[str]
) -> list[str]:
    """Backticked spans of ``text`` that start by calling a snake_case
    name which is not in ``callables``."""
    failures: list[str] = []
    for span in CODE_SPAN.finditer(text):
        call = CALL_SPAN.match(span.group(1))
        if call and call.group(1) not in callables:
            failures.append(
                f"{doc}: {call.group(1)}( — no def or class under src/ "
                f"is named {call.group(1)!r}"
            )
    return failures


def prose_of(source: str) -> list[str]:
    """The docstrings (module, class, function) and comments of one
    Python source file."""
    texts = [
        docstring
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and (docstring := ast.get_docstring(node, clean=False))
    ]
    texts.extend(
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    )
    return texts


def cited_markdown_failures() -> list[str]:
    """Markdown files cited in ``src/``/``benchmarks/`` prose that do not
    exist."""
    failures: list[str] = []
    for tree in CITING_TREES:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            for text in prose_of(path.read_text()):
                for name in MARKDOWN_NAME.findall(text):
                    if not ((REPO_ROOT / name).exists()
                            or (path.parent / name).exists()):
                        failures.append(
                            f"{path.relative_to(REPO_ROOT)}: cites "
                            f"{name!r}, which does not exist"
                        )
    return failures


def check() -> list[str]:
    failures: list[str] = []
    defined = defined_names()
    callables = defined_names(assignments=False)
    bound = class_attributes(
        path.read_text() for path in (REPO_ROOT / "src").rglob("*.py")
    )
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
        failures.extend(stale_attribute_failures(doc, text, bound))
        failures.extend(stale_call_failures(doc, text, callables))
    failures.extend(cited_markdown_failures())
    return failures


def main() -> int:
    failures = check()
    if failures:
        for failure in failures:
            print(f"docs-check: FAIL — {failure}")
        return 1
    print("docs-check: OK — README ↔ docs/ARCHITECTURE.md links, path "
          "references, private names, class attributes, called functions "
          "and markdown citations in code resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
