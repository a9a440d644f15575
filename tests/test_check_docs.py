"""Rules of the docs check (``scripts/check_docs.py``): a backticked
``Owner.attr`` naming a class under ``src/`` must name an attribute
that class binds, and a backticked span that starts by calling a
snake_case name must name a ``def`` or ``class`` under ``src/``."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import check_docs  # noqa: E402

SOURCE = '''
class Owner:
    __slots__ = ("slotted", "_hidden")
    constant = 1
    annotated: int
    first, second = 2, 3

    def method(self):
        self.stored = 4
        self.pair, (self.nested, _) = 5, (6, 7)

    @classmethod
    def build(cls):
        cls.registry = {}

    class Inner:
        pass
'''


def test_every_binding_kind_counts():
    bound = check_docs.class_attributes([SOURCE])
    assert bound["Owner"] == {
        "__slots__", "slotted", "_hidden", "constant", "annotated",
        "first", "second", "method", "stored", "pair", "nested", "build",
        "registry", "Inner",
    }
    assert bound["Inner"] == set()


def test_stale_span_flagged_and_live_span_passes():
    bound = check_docs.class_attributes(
        path.read_text() for path in (ROOT / "src").rglob("*.py")
    )
    text = (
        "The fault pass (`FaultState.columnar_step`) once kept its own "
        "`FaultState.edge_keys`; `repro.FaultState.anything`, "
        "`src/FaultState.py` and `NotAClass.edge_keys` are not checked."
    )
    assert check_docs.stale_attribute_failures("doc.md", text, bound) == [
        "doc.md: FaultState.edge_keys — class FaultState under src/ binds "
        "no attribute 'edge_keys'"
    ]


def test_stale_call_span_flagged_and_live_span_passes():
    callables = check_docs.defined_names(assignments=False)
    text = (
        "Sweeps go through `run_many(algorithm, trials)` and once "
        "released their buffers with `retired_helper()`.  `run_many`, "
        "`Network.run(...)` and `print(x)` are not checked."
    )
    assert check_docs.stale_call_failures("doc.md", text, callables) == [
        "doc.md: retired_helper( — no def or class under src/ is named "
        "'retired_helper'"
    ]
