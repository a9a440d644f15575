"""Data structures for the decompositions of Sections 3–5.

* :class:`Clustering` — a plain partition of V (low-diameter and expander
  decompositions).
* :class:`OverlapCluster` / :class:`OverlapDecomposition` — the Section 4.2
  variant: the member sets still partition V, but each cluster carries an
  associated subgraph G_S ⊇ G[S] and subgraphs may overlap (each vertex in
  at most c of them).
* :class:`RoutingGroup` / :class:`EDTDecomposition` — the paper's central
  object: a partition into diameter-≤D clusters, a leader v⋆_S per cluster
  (possibly outside the cluster, possibly shared), and a routing algorithm
  A delivering deg(v) messages from every v ∈ S to v⋆_S in T rounds in
  parallel.  The routing algorithm is realized by a *routing group*: the
  high-conductance subgraph the gather backend runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

import networkx as nx

from repro.congest.metrics import RoundLedger


@dataclass
class Clustering:
    """A partition of the vertex set, stored as ``{vertex: cluster_id}``."""

    assignment: dict

    @classmethod
    def singletons(cls, graph: nx.Graph) -> "Clustering":
        return cls({v: v for v in graph.nodes})

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[Hashable]]) -> "Clustering":
        assignment = {}
        for index, members in enumerate(sets):
            for v in members:
                if v in assignment:
                    raise ValueError(f"vertex {v!r} assigned twice")
                assignment[v] = index
        return cls(assignment)

    def clusters(self) -> dict:
        """``{cluster_id: set of member vertices}``."""
        out: dict = {}
        for v, cluster in self.assignment.items():
            out.setdefault(cluster, set()).add(v)
        return out

    def inter_cluster_edges(self, graph: nx.Graph) -> list[tuple]:
        return [
            (u, v)
            for u, v in graph.edges
            if self.assignment[u] != self.assignment[v]
        ]

    def cut_fraction(self, graph: nx.Graph) -> float:
        """Fraction of E crossing clusters (the ε of the decomposition)."""
        m = graph.number_of_edges()
        if m == 0:
            return 0.0
        return len(self.inter_cluster_edges(graph)) / m

    def relabel(self) -> "Clustering":
        """Normalize cluster ids to 0..k−1 (deterministic by member repr)."""
        clusters = self.clusters()
        order = sorted(clusters, key=lambda c: min(repr(v) for v in clusters[c]))
        mapping = {old: new for new, old in enumerate(order)}
        return Clustering({v: mapping[c] for v, c in self.assignment.items()})


@dataclass
class OverlapCluster:
    """One cluster of an (ε, φ, c) overlap decomposition (Section 4.2).

    ``members`` is the partition part S; ``subgraph_nodes`` /
    ``subgraph_edges`` describe the associated subgraph G_S, which must
    contain G[S] and may include vertices outside S (the overlap).
    """

    members: frozenset
    subgraph_nodes: frozenset
    subgraph_edges: frozenset  # of frozenset({u, v}) pairs

    def subgraph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.subgraph_nodes)
        g.add_edges_from(tuple(e) for e in self.subgraph_edges)
        return g

    @staticmethod
    def from_graph(members: Iterable[Hashable], subgraph: nx.Graph) -> "OverlapCluster":
        return OverlapCluster(
            members=frozenset(members),
            subgraph_nodes=frozenset(subgraph.nodes),
            subgraph_edges=frozenset(frozenset(e) for e in subgraph.edges),
        )


@dataclass
class OverlapDecomposition:
    """An (ε, φ, c) expander decomposition with overlaps."""

    clusters: list[OverlapCluster]

    def assignment(self) -> dict:
        out: dict = {}
        for index, cluster in enumerate(self.clusters):
            for v in cluster.members:
                if v in out:
                    raise ValueError(f"member sets overlap at {v!r}")
                out[v] = index
        return out

    def clustering(self) -> Clustering:
        return Clustering(self.assignment())

    def cut_fraction(self, graph: nx.Graph) -> float:
        return self.clustering().cut_fraction(graph)

    def max_overlap(self) -> int:
        """c: max number of associated subgraphs any vertex belongs to."""
        count: dict = {}
        for cluster in self.clusters:
            for v in cluster.subgraph_nodes:
                count[v] = count.get(v, 0) + 1
        return max(count.values(), default=0)


@dataclass
class RoutingGroup:
    """The domain one gather execution runs on.

    ``nodes``/``edges`` describe the high-conductance subgraph (a G_S or a
    G[S]); ``sink`` is the max-degree vertex v⋆ messages are gathered to;
    ``measured_rounds`` is the backend's measured T contribution;
    ``schedule_bits`` the B_v routing-string cost (walk backend only).
    """

    nodes: frozenset
    edges: frozenset
    sink: Hashable
    measured_rounds: int = 0
    schedule_bits: int = 0
    backend: str = "analytic"

    def subgraph(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        g.add_edges_from(tuple(e) for e in self.edges)
        return g


@dataclass
class EDTDecomposition:
    """An (ε, D, T)-decomposition per Section 1.1.

    ``clustering`` partitions V; ``leaders[cluster_id]`` is v⋆_S (may lie
    outside S; several clusters may share one leader); ``groups`` maps each
    cluster id to the *list* of :class:`RoutingGroup` objects its routing
    algorithm A uses (one for a freshly decomposed cluster; several after
    Lemma 5.3 merges, whose A' forwards through the satellites' groups into
    the center's); ``ledger`` accumulates the construction round cost.
    ``routing_rounds`` (T) is the measured gather cost — 0 for
    singleton-only decompositions.
    """

    clustering: Clustering
    leaders: dict
    groups: dict = field(default_factory=dict)
    ledger: RoundLedger = field(default_factory=RoundLedger)
    routing_rounds: int = 0

    # -- decomposition parameters (measured) --------------------------------
    def epsilon(self, graph: nx.Graph) -> float:
        return self.clustering.cut_fraction(graph)

    def diameter(self, graph: nx.Graph) -> int:
        from repro.decomposition.validation import cluster_diameters

        diameters = cluster_diameters(graph, self.clustering)
        return max(diameters.values(), default=0)

    @property
    def construction_rounds(self) -> int:
        return self.ledger.total_rounds

    def cluster_members(self) -> dict:
        return self.clustering.clusters()

    def leader_of(self, vertex: Hashable) -> Hashable:
        return self.leaders[self.clustering.assignment[vertex]]


def induced_subgraph(graph: nx.Graph, vertices: Iterable[Hashable]) -> nx.Graph:
    """A *copy* of G[vertices] (so callers can mutate freely)."""
    return graph.subgraph(vertices).copy()
