"""Cluster graphs of vertex partitions (Section 4.1).

Given a partition of V, the *cluster graph* has one node per cluster, an
edge between two clusters iff some G-edge crosses them, and edge weight =
the number of crossing G-edges.  The heavy-stars algorithm runs on this
graph; its arboricity is bounded because H-minor-free classes are closed
under contraction (Remark items 1 and 3).
"""

from __future__ import annotations

from typing import Hashable, Mapping

import networkx as nx


def build_cluster_graph(
    graph: nx.Graph, assignment: Mapping[Hashable, Hashable]
) -> nx.Graph:
    """Weighted cluster graph of the partition ``assignment`` (v → cluster id).

    Every vertex must be assigned.  Edge attribute ``weight`` counts the
    crossing edges; node attribute ``members`` is a frozenset of the
    cluster's vertices.
    """
    missing = [v for v in graph.nodes if v not in assignment]
    if missing:
        raise ValueError(f"unassigned vertices: {missing[:5]}")
    cluster_graph = nx.Graph()
    members: dict[Hashable, set] = {}
    for v, cluster in assignment.items():
        members.setdefault(cluster, set()).add(v)
    for cluster, vertices in members.items():
        cluster_graph.add_node(cluster, members=frozenset(vertices))
    for u, v in graph.edges:
        cu, cv = assignment[u], assignment[v]
        if cu == cv:
            continue
        if cluster_graph.has_edge(cu, cv):
            cluster_graph[cu][cv]["weight"] += 1
        else:
            cluster_graph.add_edge(cu, cv, weight=1)
    return cluster_graph


def inter_cluster_edge_count(
    graph: nx.Graph, assignment: Mapping[Hashable, Hashable]
) -> int:
    """Number of G-edges whose endpoints lie in different clusters."""
    return sum(1 for u, v in graph.edges if assignment[u] != assignment[v])
