"""Expander decompositions with overlaps (Section 4.2, Lemmas 4.1–4.7).

The algorithm iterates the merging round of Lemma 4.4, starting from the
trivial (1, 1, 1) decomposition where every vertex is a singleton cluster
with an empty associated subgraph:

Step 1 — *creating singleton clusters*: inside every non-singleton
cluster S, vertices u with deg_{G_S}(u) ≤ deg_G(u)/(34α) are expelled into
fresh singleton clusters (their old G_S keeps them — that is where the
overlap comes from, and why c grows by at most 1 per round).

Step 2 — *creating heavy stars*: the heavy-stars algorithm on the cluster
graph weighted by crossing-edge counts.

Step 3 — *removing light links*: a satellite S is dropped from its star
when |E(S, C_Q)| ≤ ε/(64α(c+1)) · vol_G(V(G_S)) — the refinement that
keeps merged clusters' conductance from collapsing (Lemma 4.5).

Step 4 — *contracting stars*: merged member set = union of member sets;
merged subgraph = union of the G_S plus all inter-cluster edges between
the star's clusters.

After t = O(log 1/ε) rounds the cut fraction is ≤ ε, each G_S is a
φ-expander with φ = 2^(−O(log² 1/ε)), and the overlap is c = t + 1 =
O(log 1/ε) (Lemma 4.1).

The ledger charges each round with measured quantities, following the
paper's "Distributed implementation" paragraph: Steps 1/3/4 cost O(c·D̂)
with D̂ the measured max G_S diameter; heavy-stars costs O(c·D̂) ×
(measured Cole–Vishkin rounds) plus the Lemma 2.2 routing estimate
O(φ̂⁻⁴ log³ m̂) with measured per-round conductance φ̂.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import networkx as nx

from repro.congest.metrics import RoundLedger
from repro.decomposition.heavy_stars import heavy_stars
from repro.decomposition.kpr import cluster_diameter_estimate
from repro.decomposition.types import OverlapCluster, OverlapDecomposition
from repro.graphs.cluster_graph import build_cluster_graph
from repro.graphs.conductance import conductance
from repro.graphs.stats import GraphStats


@dataclass
class _MutableCluster:
    """Internal working representation of one overlap cluster."""

    members: set
    nodes: set
    edges: set  # of frozenset pairs

    def degree_in_subgraph(self, vertex: Hashable) -> int:
        return sum(1 for e in self.edges if vertex in e)

    def freeze(self) -> OverlapCluster:
        return OverlapCluster(
            members=frozenset(self.members),
            subgraph_nodes=frozenset(self.nodes),
            subgraph_edges=frozenset(self.edges),
        )


@dataclass
class OverlapRunStats:
    """Per-round diagnostics returned alongside the decomposition."""

    rounds: list = field(default_factory=list)
    ledger: RoundLedger = field(default_factory=RoundLedger)
    iterations: int = 0
    final_cut_fraction: float = 1.0
    min_conductance: float = math.inf
    max_overlap: int = 1


def lemma44_round(
    graph: nx.Graph,
    clusters: list[_MutableCluster],
    epsilon: float,
    alpha: int,
    c: int,
    light_link_removal: bool = True,
    light_link_constant: float = 1.0,
) -> tuple[list[_MutableCluster], dict]:
    """One merging round (the algorithm of Lemma 4.4).  Returns the new
    cluster list and round diagnostics."""
    # ---- Step 1: creating singleton clusters ------------------------------
    stats = GraphStats.for_graph(graph)
    degree = stats.degree
    threshold_ratio = 1.0 / (34.0 * alpha)
    new_singletons: list[_MutableCluster] = []
    for cluster in clusters:
        if len(cluster.members) <= 1:
            continue
        # One pass over E(G_S) builds every member's subgraph degree; the
        # seed's per-vertex degree_in_subgraph scan was O(|S|·|E_S|).
        sub_degree: dict[Hashable, int] = {}
        for edge in cluster.edges:
            for x in edge:
                sub_degree[x] = sub_degree.get(x, 0) + 1
        expelled = [
            u
            for u in cluster.members
            if sub_degree.get(u, 0) <= threshold_ratio * degree[u]
        ]
        for u in expelled:
            cluster.members.discard(u)
            # u remains in cluster.nodes (the overlap); its new singleton
            # cluster has the trivial subgraph G[{u}].
            new_singletons.append(
                _MutableCluster(members={u}, nodes={u}, edges=set())
            )
    clusters = [c_ for c_ in clusters if c_.members] + new_singletons

    # ---- Step 2: heavy stars on the cluster graph -------------------------
    assignment: dict[Hashable, int] = {}
    for index, cluster in enumerate(clusters):
        for v in cluster.members:
            assignment[v] = index
    cluster_graph = build_cluster_graph(graph, assignment)
    stars_result = heavy_stars(cluster_graph)

    # ---- Step 3: removing light links --------------------------------------
    # (skipped in the ablation mode: the paper's Lemma 4.5 conductance
    # argument then breaks, which bench_expander_decomposition demonstrates)
    # ``light_link_constant`` scales the paper's threshold (1.0 = paper);
    # the benchmarks sweep it to demonstrate the conductance/cut tradeoff.
    light_threshold = (
        light_link_constant * epsilon / (64.0 * alpha * (c + 1))
        if light_link_removal
        else 0.0
    )
    crossing: dict[tuple[int, int], int] = {}
    for u, v in graph.edges:
        a, b = assignment[u], assignment[v]
        if a != b:
            key = (min(a, b), max(a, b))
            crossing[key] = crossing.get(key, 0) + 1

    surviving_stars: dict[int, list[int]] = {}
    removed_links = 0
    for center, satellites in stars_result.stars.items():
        kept = []
        for satellite in satellites:
            key = (min(center, satellite), max(center, satellite))
            volume_s = stats.volume(clusters[satellite].nodes)
            if crossing.get(key, 0) <= light_threshold * volume_s:
                removed_links += crossing.get(key, 0)
                continue
            kept.append(satellite)
        if kept:
            surviving_stars[center] = kept

    # ---- Step 4: contracting stars ----------------------------------------
    merged_away: set[int] = set()
    merged_clusters: list[_MutableCluster] = []
    for center, satellites in surviving_stars.items():
        group = [center, *satellites]
        merged_away.update(group)
        members = set().union(*(clusters[i].members for i in group))
        nodes = set().union(*(clusters[i].nodes for i in group))
        edges = set().union(*(clusters[i].edges for i in group))
        group_set = set(group)
        for u, v in graph.edges:
            a, b = assignment[u], assignment[v]
            if a != b and a in group_set and b in group_set:
                edges.add(frozenset((u, v)))
        merged_clusters.append(
            _MutableCluster(members=members, nodes=nodes, edges=edges)
        )
    untouched = [
        cluster for i, cluster in enumerate(clusters) if i not in merged_away
    ]
    info = {
        "stars": len(surviving_stars),
        "captured_fraction": stars_result.captured_fraction,
        "coloring_rounds": stars_result.coloring_rounds,
        "light_links_removed": removed_links,
        "singletons_created": len(new_singletons),
    }
    return untouched + merged_clusters, info


def overlap_expander_decomposition(
    graph: nx.Graph,
    epsilon: float,
    alpha: int | None = None,
    max_iterations: int | None = None,
    measure_conductance: bool = True,
    light_link_removal: bool = True,
    light_link_constant: float = 1.0,
) -> tuple[OverlapDecomposition, OverlapRunStats]:
    """Lemma 4.1: an (ε, φ, c) expander decomposition with overlaps,
    φ = 2^(−O(log² 1/ε)) and c = O(log 1/ε), of an H-minor-free graph.

    Runs Lemma 4.4 rounds until the measured cut fraction is ≤ ε (at most
    the paper's t = O(log 1/ε), scaled by the measured heavy-stars capture
    fraction, which is typically far better than the worst-case 1/(8α)).

    Returns ``(decomposition, stats)``; ``stats.ledger`` carries the
    measured CONGEST construction cost, ``stats.min_conductance`` the
    measured min Φ(G_S) over final non-singleton clusters.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if alpha is None:
        alpha = max(1, GraphStats.for_graph(graph).degeneracy)
    stats = OverlapRunStats()
    m = graph.number_of_edges()
    clusters = [
        _MutableCluster(members={v}, nodes={v}, edges=set()) for v in graph.nodes
    ]
    if m == 0:
        decomposition = OverlapDecomposition([c.freeze() for c in clusters])
        stats.final_cut_fraction = 0.0
        return decomposition, stats
    if max_iterations is None:
        shrink = 1.0 - 1.0 / (32.0 * alpha)
        max_iterations = max(1, 2 * math.ceil(math.log(epsilon) / math.log(shrink)))

    def cut_fraction() -> float:
        assignment = {}
        for index, cluster in enumerate(clusters):
            for v in cluster.members:
                assignment[v] = index
        crossing = sum(1 for u, v in graph.edges if assignment[u] != assignment[v])
        return crossing / m

    c = 1
    for iteration in range(1, max_iterations + 1):
        fraction = cut_fraction()
        if fraction <= epsilon:
            break
        clusters, info = lemma44_round(
            graph, clusters, epsilon, alpha, c,
            light_link_removal=light_link_removal,
            light_link_constant=light_link_constant,
        )
        c += 1
        stats.iterations = iteration
        diameter_estimate = 0
        phi_estimate = math.inf
        if measure_conductance:
            for cluster in clusters:
                if len(cluster.nodes) <= 1 or not cluster.edges:
                    continue
                sub = cluster.freeze().subgraph()
                diameter_estimate = max(
                    diameter_estimate, cluster_diameter_estimate(sub)
                )
                phi_estimate = min(phi_estimate, conductance(sub))
        info["diameter_estimate"] = diameter_estimate
        info["phi_estimate"] = None if phi_estimate is math.inf else phi_estimate
        stats.rounds.append(info)
        # Ledger: the paper's implementation paragraph (end of §4.2).
        d_hat = max(1, diameter_estimate)
        stats.ledger.charge(
            f"overlap.round_{iteration}.steps134", 3 * c * (d_hat + 1)
        )
        stats.ledger.charge(
            f"overlap.round_{iteration}.heavy_stars",
            c * (d_hat + 1) * (info["coloring_rounds"] + 4),
        )
        if phi_estimate is not math.inf and phi_estimate > 0:
            m_hat = max(2, max(len(cl.edges) for cl in clusters))
            routing = math.ceil(
                (phi_estimate ** -4) * (math.log2(m_hat) ** 3)
            )
            stats.ledger.charge(
                f"overlap.round_{iteration}.routing", min(routing, 10 ** 9)
            )

    stats.final_cut_fraction = cut_fraction()
    stats.max_overlap = 1
    count: dict[Hashable, int] = {}
    final_clusters = [cluster.freeze() for cluster in clusters]
    for cluster in final_clusters:
        for v in cluster.subgraph_nodes:
            count[v] = count.get(v, 0) + 1
    stats.max_overlap = max(count.values(), default=1)
    if measure_conductance:
        worst = math.inf
        for cluster in final_clusters:
            if len(cluster.subgraph_nodes) <= 1 or not cluster.subgraph_edges:
                continue
            worst = min(worst, conductance(cluster.subgraph()))
        stats.min_conductance = worst
    return OverlapDecomposition(final_clusters), stats
