"""(1 − ε)-approximate maximum independent set (Corollary 6.5).

Pipeline: Solomon's MIS sparsifier drops vertices of degree ≥ O(α²/ε);
decompose with ε* = ε/(α(2α − 1)); leaders solve their clusters exactly;
for every inter-cluster edge with both endpoints selected, drop one.  The
paper's accounting: OPT ≥ |V|/(2α − 1) ≥ |E|/(α(2α − 1)), so the ≤ ε*|E|
dropped endpoints cost only an ε factor — giving the near-optimal
O(ε⁻¹ log* n) + poly(1/ε) round complexity against the Lenzen–Wattenhofer
Ω(ε⁻¹ log* n) lower bound.
"""

from __future__ import annotations

import networkx as nx

from repro.applications._template import ApproxResult, Decomposer, default_decomposer
from repro.applications.baselines import greedy_maximal_independent_set
from repro.applications.exact import (
    ExactBudgetExceeded,
    _assert_independent,
    maximum_independent_set_exact,
)
from repro.applications.sparsifiers import mis_sparsifier


def approximate_maximum_independent_set(
    graph: nx.Graph,
    epsilon: float,
    alpha: int | None = None,
    decomposer: Decomposer | None = None,
    use_sparsifier: bool = True,
    cluster_budget: int = 500_000,
) -> ApproxResult:
    """Corollary 6.5.  ``solution`` is the independent vertex set."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if alpha is None:
        from repro.graphs.arboricity import degeneracy

        alpha = max(1, degeneracy(graph))
    working = mis_sparsifier(graph, epsilon / 2.0, alpha) if use_sparsifier else graph
    epsilon_star = (epsilon / 2.0) / max(1, alpha * (2 * alpha - 1))
    decomposer = decomposer or default_decomposer
    decomposition = decomposer(working, epsilon_star)
    independent: set = set()
    exact_count, total = 0, 0
    for members in decomposition.cluster_members().values():
        sub = working.subgraph(members)
        if sub.number_of_nodes() == 0:
            continue
        total += 1
        try:
            independent |= maximum_independent_set_exact(sub, budget=cluster_budget)
            exact_count += 1
        except ExactBudgetExceeded:
            independent |= greedy_maximal_independent_set(sub)
    # Resolve conflicts on inter-cluster edges: drop the smaller-id endpoint.
    for u, v in decomposition.clustering.inter_cluster_edges(working):
        if u in independent and v in independent:
            independent.discard(min(u, v, key=repr))
    _assert_independent(graph, independent)
    return ApproxResult(
        solution=independent,
        value=len(independent),
        decomposition=decomposition,
        exact_clusters=exact_count,
        total_clusters=total,
        construction_rounds=decomposition.construction_rounds,
        routing_rounds=decomposition.routing_rounds,
        extras={"epsilon_star": epsilon_star},
    )
