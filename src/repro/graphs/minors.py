"""Minor containment and minor-closed property predicates.

The paper's framework needs two kinds of structural tests:

* *Cluster-local* exact tests run by a cluster leader on the gathered
  topology of its small cluster (local computation is free in the model):
  planarity, outerplanarity, forest/cactus membership, and generic
  H-minor containment for a small pattern H.

* *Global* membership checks used by the test-suite oracles.

The generic :func:`has_minor` is a branch-and-bound search for a minor
model of H in G (each branch contracts or deletes an edge).  It is
exponential in the worst case, which is fine for the cluster sizes the
decomposition produces and matches the model's free local computation.
"""

from __future__ import annotations

import networkx as nx


def is_planar(graph: nx.Graph) -> bool:
    """Planarity via the left-right algorithm (networkx)."""
    ok, _ = nx.check_planarity(graph)
    return ok


def is_forest(graph: nx.Graph) -> bool:
    """A graph is a forest iff it has no cycle."""
    return nx.is_forest(graph) if graph.number_of_nodes() else True


def is_outerplanar(graph: nx.Graph) -> bool:
    """Outerplanarity via the apex trick.

    G is outerplanar iff G plus a universal vertex is planar (equivalently
    G has no K4 or K2,3 minor).
    """
    if graph.number_of_nodes() == 0:
        return True
    apexed = graph.copy()
    apex = ("__outerplanar_apex__",)
    apexed.add_node(apex)
    for v in graph.nodes:
        apexed.add_edge(apex, v)
    return is_planar(apexed)


def is_cactus(graph: nx.Graph) -> bool:
    """A cactus: connected components where every edge is in ≤ 1 cycle.

    Equivalent to: every biconnected component is an edge or a cycle,
    i.e. each block with k vertices has exactly k edges (cycle) or 1 edge.
    """
    for component in nx.connected_components(graph):
        sub = graph.subgraph(component)
        for block in nx.biconnected_components(sub):
            block_graph = sub.subgraph(block)
            v, e = block_graph.number_of_nodes(), block_graph.number_of_edges()
            if e > 1 and e != v:
                return False
    return True


# ---------------------------------------------------------------------------
# Generic minor containment
# ---------------------------------------------------------------------------
def _canonical(graph: nx.Graph) -> tuple:
    """Canonical form for memoizing small graphs (sorted edge multiset
    after degree-refined relabelling; exact up to the refinement, used only
    as a cache key where false negatives merely cost recomputation)."""
    nodes = sorted(graph.nodes, key=lambda v: (graph.degree[v], repr(v)))
    index = {v: i for i, v in enumerate(nodes)}
    edges = tuple(
        sorted(tuple(sorted((index[u], index[v]))) for u, v in graph.edges)
    )
    return (graph.number_of_nodes(), edges)


def has_minor(graph: nx.Graph, pattern: nx.Graph, _budget: int = 500_000) -> bool:
    """Decide whether ``pattern`` is a minor of ``graph`` (exact, exponential).

    Uses the standard recursive characterization: since minor operations
    commute, H is a minor of G iff H is a subgraph of some graph obtained
    from G by edge *contractions only* (deletions are absorbed by the
    subgraph check).  The search therefore checks subgraph containment,
    then branches over contracting each edge, with memoization on a
    canonical form and the usual count/degree pruning rules — practical
    for the small cluster graphs the paper's local computations see.

    Raises ``RuntimeError`` when the state-expansion budget is exhausted
    (never observed at the sizes used here; the guard makes accidental
    misuse on big graphs fail loudly rather than hang).
    """
    pattern = nx.Graph(pattern)
    pattern.remove_edges_from(nx.selfloop_edges(pattern))
    if pattern.number_of_edges() == 0:
        return graph.number_of_nodes() >= pattern.number_of_nodes()

    budget = [_budget]
    seen: set[tuple] = set()
    n_pattern = pattern.number_of_nodes()
    rank_pattern = _cycle_rank(pattern)

    def search(g: nx.Graph) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise RuntimeError("has_minor search budget exhausted")
        if g.number_of_nodes() < n_pattern:
            return False
        if g.number_of_edges() < pattern.number_of_edges():
            return False
        if _cycle_rank(g) < rank_pattern:
            return False  # minor operations never increase cycle rank
        key = _canonical(g)
        if key in seen:
            return False
        seen.add(key)
        if _subgraph_contains(g, pattern):
            return True
        if g.number_of_nodes() == n_pattern:
            return False  # contracting further only shrinks below |V(H)|
        for u, v in sorted(g.edges, key=lambda e: (repr(e[0]), repr(e[1]))):
            contracted = nx.contracted_nodes(g, u, v, self_loops=False)
            if search(contracted):
                return True
        return False

    return search(nx.Graph(graph))


def _subgraph_contains(g: nx.Graph, h: nx.Graph) -> bool:
    """Is H a subgraph of G (up to isomorphism on the edge-carrying part)?"""
    core = h.subgraph([v for v in h.nodes if h.degree[v] > 0])
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, core)
    if not matcher.subgraph_is_monomorphic():
        return False
    spare = g.number_of_nodes() - core.number_of_nodes()
    isolated = h.number_of_nodes() - core.number_of_nodes()
    return spare >= isolated


def _cycle_rank(graph: nx.Graph) -> int:
    """Cyclomatic number m − n + c; monotone under minor operations."""
    return (
        graph.number_of_edges()
        - graph.number_of_nodes()
        + nx.number_connected_components(graph)
    )


def _is_complete(pattern: nx.Graph) -> int | None:
    n = pattern.number_of_nodes()
    if pattern.number_of_edges() == n * (n - 1) // 2:
        return n
    return None


def is_h_minor_free(graph: nx.Graph, pattern: nx.Graph) -> bool:
    """Convenience wrapper: True iff ``pattern`` is *not* a minor of ``graph``.

    Fast paths avoiding the exponential search:

    * K3: G has a K3 minor iff G has a cycle (exact, both directions);
    * K5 / K3,3 on planar inputs: minor-free by Wagner's theorem;
    * complete patterns K_r: if an (approximate, upper-bound) treewidth of
      G is ≤ r − 2, then G is K_r-minor-free (K_r has treewidth r − 1 and
      treewidth never increases under minors).
    """
    n_p, m_p = pattern.number_of_nodes(), pattern.number_of_edges()
    complete_r = _is_complete(pattern)
    if complete_r == 3:
        return nx.is_forest(graph) if graph.number_of_nodes() else True
    if (n_p, m_p) == (5, 10) or _is_k33(pattern):
        if is_planar(graph):
            return True
    if complete_r is not None and complete_r >= 4:
        from networkx.algorithms.approximation import treewidth_min_degree

        width, _ = treewidth_min_degree(graph)
        if width <= complete_r - 2:
            return True
    return not has_minor(graph, pattern)


def _is_k33(pattern: nx.Graph) -> bool:
    if pattern.number_of_nodes() != 6 or pattern.number_of_edges() != 9:
        return False
    return nx.is_isomorphic(pattern, nx.complete_bipartite_graph(3, 3))
