"""Guarantee checkers for fault-injected runs: what survived the adversary?

The paper's algorithms come with exact guarantees — an MIS is independent
and maximal, a BFS tree's depths are true distances, a coloring is proper,
a decomposition's clusters are connected and shallow.  Under the fault
models of :mod:`repro.congest.runtime.faults` those guarantees degrade,
and *how* they degrade is the measurement: each checker here re-verifies
one guarantee against the graph, restricted to the **live** (non-crashed)
vertices, and returns a structured :class:`GuaranteeReport` instead of
raising — so resilience sweeps (``benchmarks/bench_resilience.py``,
``examples/resilience_report.py``) can tabulate violation counts against
fault intensity and localize the threshold where a guarantee collapses.

Crashed vertices are exempt everywhere: a crash-stop vertex stops
participating mid-protocol, so the paper's guarantees are only claimed
for the survivors (its id arrives via ``metrics.crashed_vertices``).
On a fault-free run every checker must report zero violations — the
test-suite uses them as oracles for the fault-free planes too.

>>> import networkx as nx
>>> graph = nx.path_graph(4)
>>> check_mis(graph, {0: True, 1: False, 2: True, 3: False}).holds
True
>>> report = check_mis(graph, {0: True, 1: True, 2: False, 3: False})
>>> (report.holds, report.violations)
(False, 2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping

import networkx as nx

_DETAIL_CAP = 8  # example violations kept per report


@dataclass(frozen=True)
class GuaranteeReport:
    """One guarantee re-verified against one run.

    ``checked`` counts the individual conditions examined (edges,
    vertices, or clusters — see each checker), ``violations`` how many
    failed, and ``details`` keeps up to a few human-readable examples.

    >>> GuaranteeReport("mis-independence", checked=10, violations=0).holds
    True
    """

    guarantee: str
    checked: int
    violations: int
    details: tuple = ()

    @property
    def holds(self) -> bool:
        return self.violations == 0

    @property
    def violation_rate(self) -> float:
        """Violations per checked condition (0.0 on an empty check)."""
        return self.violations / self.checked if self.checked else 0.0


def _live_set(graph: nx.Graph, crashed: Iterable[Hashable]) -> set:
    live = set(graph.nodes)
    live.difference_update(crashed)
    return live


def _read_once(outputs: Mapping[Hashable, Any]) -> dict:
    """``outputs`` as a dict, read in one bulk pass: a columnar
    :class:`~repro.congest.columnar.VertexView` decodes all its rows in
    one ``items()`` call but one row per ``get``."""
    return dict(outputs.items())


def _report(guarantee: str, checked: int, details: list) -> GuaranteeReport:
    return GuaranteeReport(
        guarantee, checked, len(details), tuple(details[:_DETAIL_CAP])
    )


def check_mis(
    graph: nx.Graph,
    outputs: Mapping[Hashable, Any],
    crashed: Iterable[Hashable] = (),
) -> GuaranteeReport:
    """Independence and maximality of an MIS, restricted to live vertices.

    ``outputs`` maps each vertex to its in-set flag (crashed vertices may
    report anything or nothing).  Checks every live-live edge for
    independence and every live out-of-set vertex for a live in-set
    neighbour; a live vertex with no output counts as out of the set.

    >>> import networkx as nx
    >>> graph = nx.path_graph(3)
    >>> check_mis(graph, {0: False, 1: True, 2: False}).holds
    True
    >>> check_mis(  # vertex 2 uncovered once 1 is dead
    ...     graph, {0: True, 1: False, 2: False}, crashed=(1,)
    ... ).violations
    1
    """
    live = _live_set(graph, crashed)
    outputs = _read_once(outputs)
    in_set = {v for v in live if outputs.get(v)}
    details: list = []
    checked = 0
    for u, v in graph.edges:
        if u in live and v in live:
            checked += 1
            if u in in_set and v in in_set:
                details.append(f"adjacent in-set pair ({u!r}, {v!r})")
    for v in live:
        if v in in_set:
            continue
        checked += 1
        if not any(u in in_set for u in graph.neighbors(v) if u in live):
            details.append(f"vertex {v!r} has no live in-set neighbor")
    return _report("mis", checked, details)


def check_bfs_tree(
    graph: nx.Graph,
    outputs: Mapping[Hashable, Any],
    source: Hashable,
    crashed: Iterable[Hashable] = (),
) -> GuaranteeReport:
    """BFS tree exactness: reported depths are true distances.

    ``outputs`` maps each vertex to ``None`` (unreached) or a
    ``(parent, depth)`` pair.  For every live vertex at finite true
    distance from ``source`` (distances measured in the fault-free
    graph), three conditions are checked: the vertex was reached, its
    depth equals the true distance, and its parent is a neighbour whose
    own reported depth is one less (parents outside the live set are
    accepted — the crash may postdate the adoption).

    >>> import networkx as nx
    >>> graph = nx.path_graph(3)
    >>> outputs = {0: (0, 0), 1: (0, 1), 2: (1, 2)}
    >>> check_bfs_tree(graph, outputs, 0).holds
    True
    >>> check_bfs_tree(graph, {0: (0, 0), 1: None, 2: None}, 0).violations
    2
    """
    live = _live_set(graph, crashed)
    outputs = _read_once(outputs)
    distances = nx.single_source_shortest_path_length(graph, source)
    details: list = []
    checked = 0
    for v in live:
        truth = distances.get(v)
        if truth is None:
            continue  # unreachable even without faults
        checked += 1
        entry = outputs.get(v)
        if entry is None:
            details.append(f"vertex {v!r} unreached (true distance {truth})")
            continue
        parent, depth = entry
        if depth != truth:
            details.append(
                f"vertex {v!r} reports depth {depth}, true distance {truth}"
            )
        elif v != source:
            if parent not in graph[v]:
                details.append(
                    f"vertex {v!r} claims non-neighbor parent {parent!r}"
                )
            else:
                parent_entry = outputs.get(parent)
                if parent_entry is not None and parent_entry[1] != depth - 1:
                    details.append(
                        f"vertex {v!r} at depth {depth} has parent "
                        f"{parent!r} at depth {parent_entry[1]}"
                    )
    return _report("bfs-tree", checked, details)


def check_coloring(
    graph: nx.Graph,
    outputs: Mapping[Hashable, Any],
    crashed: Iterable[Hashable] = (),
    palette: int | None = None,
) -> GuaranteeReport:
    """Properness of a coloring over the live vertices.

    Checks every live vertex for a color (``None``/missing is a
    violation; out of ``palette`` range too, when given) and every
    live-live edge for distinct endpoint colors.

    >>> import networkx as nx
    >>> graph = nx.path_graph(3)
    >>> check_coloring(graph, {0: 0, 1: 1, 2: 0}).holds
    True
    >>> check_coloring(graph, {0: 0, 1: 0, 2: 1}).violations
    1
    """
    live = _live_set(graph, crashed)
    outputs = _read_once(outputs)
    details: list = []
    checked = 0
    colored = {}
    for v in live:
        checked += 1
        color = outputs.get(v)
        if color is None:
            details.append(f"vertex {v!r} is uncolored")
        elif palette is not None and not 0 <= color < palette:
            details.append(
                f"vertex {v!r} color {color!r} outside palette [0, {palette})"
            )
        else:
            colored[v] = color
    for u, v in graph.edges:
        if u in colored and v in colored:
            checked += 1
            if colored[u] == colored[v]:
                details.append(
                    f"edge ({u!r}, {v!r}) endpoints share color {colored[u]!r}"
                )
    return _report("coloring", checked, details)


def check_decomposition(
    graph: nx.Graph,
    assignment: Mapping[Hashable, Any],
    crashed: Iterable[Hashable] = (),
    max_diameter: float | None = None,
) -> GuaranteeReport:
    """Cluster quality of a decomposition over the live vertices.

    For each cluster's live members: the induced live subgraph must be
    connected, and (when ``max_diameter`` is given) its diameter must
    not exceed the bound — the (ε, D) shape of the paper's low-diameter
    decompositions, degraded by crashes that disconnect clusters.  A
    live vertex without an assignment is a violation.  ``checked``
    counts live vertices plus clusters.

    >>> import networkx as nx
    >>> graph = nx.path_graph(4)
    >>> check_decomposition(graph, {0: 0, 1: 0, 2: 1, 3: 1}).holds
    True
    >>> check_decomposition(  # crash at 1 splits cluster {0, 1, 2}
    ...     graph, {0: 0, 1: 0, 2: 0, 3: 1}, crashed=(1,)
    ... ).violations
    1
    """
    live = _live_set(graph, crashed)
    details: list = []
    clusters: dict = {}
    checked = 0
    for v in live:
        checked += 1
        cluster = assignment.get(v)
        if cluster is None:
            details.append(f"vertex {v!r} has no cluster")
        else:
            clusters.setdefault(cluster, set()).add(v)
    for cluster, members in sorted(clusters.items(), key=lambda kv: repr(kv[0])):
        checked += 1
        sub = graph.subgraph(members)
        if len(members) > 1 and not nx.is_connected(sub):
            details.append(
                f"cluster {cluster!r} live members split into "
                f"{nx.number_connected_components(sub)} components"
            )
        elif max_diameter is not None and len(members) > 1:
            diameter = nx.diameter(sub)
            if diameter > max_diameter:
                details.append(
                    f"cluster {cluster!r} live diameter {diameter} exceeds "
                    f"{max_diameter}"
                )
    return _report("decomposition", checked, details)
