"""Machine checks for every decomposition invariant the paper states.

These are used by the test-suite and by the benchmarks' result tables; the
algorithms themselves never rely on them (they are oracles, not helpers).
"""

from __future__ import annotations

import math

import networkx as nx

from repro.decomposition.types import (
    Clustering,
    EDTDecomposition,
    OverlapDecomposition,
)
from repro.graphs.conductance import conductance, exact_conductance


def check_clustering_partition(graph: nx.Graph, clustering: Clustering) -> None:
    """Every vertex assigned exactly once; ids consistent."""
    assigned = set(clustering.assignment)
    vertices = set(graph.nodes)
    if assigned != vertices:
        missing = vertices - assigned
        extra = assigned - vertices
        raise AssertionError(
            f"partition mismatch: missing={list(missing)[:5]} extra={list(extra)[:5]}"
        )


def cluster_diameters(graph: nx.Graph, clustering: Clustering) -> dict:
    """Diameter of each induced subgraph G[S] (∞ if disconnected)."""
    out: dict = {}
    for cluster, members in clustering.clusters().items():
        sub = graph.subgraph(members)
        if sub.number_of_nodes() <= 1:
            out[cluster] = 0
        elif not nx.is_connected(sub):
            out[cluster] = math.inf
        else:
            out[cluster] = nx.diameter(sub)
    return out


def check_low_diameter_decomposition(
    graph: nx.Graph,
    clustering: Clustering,
    epsilon: float,
    max_diameter: float,
) -> dict:
    """Assert the (ε, D) low-diameter decomposition conditions; return stats."""
    check_clustering_partition(graph, clustering)
    fraction = clustering.cut_fraction(graph)
    if fraction > epsilon + 1e-12:
        raise AssertionError(
            f"inter-cluster fraction {fraction:.4f} exceeds ε = {epsilon}"
        )
    diameters = cluster_diameters(graph, clustering)
    worst = max(diameters.values(), default=0)
    if worst > max_diameter:
        raise AssertionError(f"cluster diameter {worst} exceeds D = {max_diameter}")
    return {
        "cut_fraction": fraction,
        "max_diameter": worst,
        "clusters": len(diameters),
    }


def check_expander_decomposition(
    graph: nx.Graph,
    clustering: Clustering,
    epsilon: float,
    phi: float,
    exact_limit: int = 14,
) -> dict:
    """Assert the (ε, φ) expander decomposition conditions; return stats.

    Conductance of each non-singleton cluster is checked exactly up to
    ``exact_limit`` vertices, by the Cheeger lower bound above (the safe
    direction would be exact; the λ2/2 bound may *under*-estimate, so
    clusters failing the spectral bound get the exact/sweep treatment via
    :func:`repro.graphs.conductance.conductance` semantics — any failure
    here is a genuine quality report, recorded in the returned stats).
    """
    check_clustering_partition(graph, clustering)
    fraction = clustering.cut_fraction(graph)
    if fraction > epsilon + 1e-12:
        raise AssertionError(
            f"inter-cluster fraction {fraction:.4f} exceeds ε = {epsilon}"
        )
    worst_phi = math.inf
    failures = []
    for cluster, members in clustering.clusters().items():
        if len(members) == 1:
            continue
        sub = graph.subgraph(members)
        if sub.number_of_nodes() <= exact_limit:
            value = exact_conductance(sub)
        else:
            value = conductance(sub)
        worst_phi = min(worst_phi, value)
        if value < phi:
            failures.append((cluster, value))
    if failures:
        raise AssertionError(
            f"{len(failures)} clusters below φ = {phi}: "
            f"{[(c, round(v, 4)) for c, v in failures[:3]]}"
        )
    return {
        "cut_fraction": fraction,
        "min_conductance": worst_phi,
        "clusters": len(clustering.clusters()),
    }


def check_overlap_decomposition(
    graph: nx.Graph,
    decomposition: OverlapDecomposition,
    epsilon: float,
    phi: float,
    max_overlap: int,
    exact_limit: int = 14,
) -> dict:
    """Assert the (ε, φ, c) conditions of Section 4.2; return stats."""
    clustering = decomposition.clustering()
    check_clustering_partition(graph, clustering)
    fraction = clustering.cut_fraction(graph)
    if fraction > epsilon + 1e-12:
        raise AssertionError(
            f"inter-cluster fraction {fraction:.4f} exceeds ε = {epsilon}"
        )
    overlap = decomposition.max_overlap()
    if overlap > max_overlap:
        raise AssertionError(f"overlap {overlap} exceeds c = {max_overlap}")
    worst_phi = math.inf
    for cluster in decomposition.clusters:
        sub = cluster.subgraph()
        # G[S] must be a subgraph of G_S.
        induced = graph.subgraph(cluster.members)
        for u, v in induced.edges:
            if frozenset((u, v)) not in cluster.subgraph_edges:
                raise AssertionError(
                    f"G[S] edge ({u!r}, {v!r}) missing from associated G_S"
                )
        if sub.number_of_nodes() <= 1:
            continue
        if sub.number_of_edges() == 0:
            continue
        if sub.number_of_nodes() <= exact_limit:
            value = exact_conductance(sub)
        else:
            value = conductance(sub)
        worst_phi = min(worst_phi, value)
        if value < phi:
            raise AssertionError(
                f"cluster with {sub.number_of_nodes()} nodes has "
                f"Φ(G_S) = {value:.4f} < φ = {phi}"
            )
    return {
        "cut_fraction": fraction,
        "min_conductance": worst_phi,
        "max_overlap": overlap,
        "clusters": len(decomposition.clusters),
    }


def check_edt_decomposition(
    graph: nx.Graph,
    decomposition: EDTDecomposition,
    epsilon: float,
    max_diameter: float,
) -> dict:
    """Assert the (ε, D, T)-decomposition requirements of Section 1.1.

    The routing requirement is structural here: every cluster has a
    leader, and every non-singleton cluster is covered by a routing group
    whose subgraph contains the cluster.  Delivery itself is exercised by
    the gather backends' own tests and by ``run_gather_on_groups``.
    """
    stats = check_low_diameter_decomposition(
        graph, decomposition.clustering, epsilon, max_diameter
    )
    members = decomposition.cluster_members()
    for cluster_id, vertex_set in members.items():
        if cluster_id not in decomposition.leaders:
            raise AssertionError(f"cluster {cluster_id!r} has no leader")
        if len(vertex_set) > 1:
            groups = decomposition.groups.get(cluster_id)
            if not groups:
                raise AssertionError(
                    f"non-singleton cluster {cluster_id!r} has no routing group"
                )
            covered = set().union(*(set(g.nodes) for g in groups))
            if not vertex_set <= covered:
                raise AssertionError(
                    f"routing groups of {cluster_id!r} do not cover the cluster"
                )
            if decomposition.leaders[cluster_id] != groups[0].sink:
                raise AssertionError(
                    f"leader of {cluster_id!r} differs from its primary group sink"
                )
    stats["routing_rounds"] = decomposition.routing_rounds
    stats["construction_rounds"] = decomposition.construction_rounds
    return stats
