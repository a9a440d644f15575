"""Conductance, sparsity, and expansion certificates (Section 2 definitions).

Definitions follow the paper exactly:

* ``vol(S)`` is measured in the *underlying* graph G, not the induced
  subgraph (important in Lemma 4.5's analysis);
* ``Φ(S) = |∂S| / min(vol S, vol V∖S)``;
* ``Ψ(S) = |∂S| / min(|S|, |V∖S|)``;
* ``Φ(G) = min over S`` — exact by subset enumeration for small graphs,
  sandwiched by the Cheeger inequality (λ2/2 ≤ Φ ≤ √(2 λ2) for the
  normalized Laplacian) for larger ones.

Also included: the mixing-time bound τ = O(φ⁻² log |V|) used by the
random-walk router, and the minor-free degree lower bound of Lemma 2.7
(Δ = Ω(φ² |V|)).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Hashable, Iterable

import networkx as nx
import numpy as np

from repro.graphs.stats import GraphStats


def volume(graph: nx.Graph, vertices: Iterable[Hashable]) -> int:
    """vol(S) = Σ_{v∈S} deg_G(v), degrees in the underlying graph."""
    degree = graph.degree
    return sum(degree[v] for v in vertices)


def cut_size(graph: nx.Graph, vertices: Iterable[Hashable]) -> int:
    """|∂S| = number of edges with exactly one endpoint in S.

    Delegates to :class:`~repro.graphs.stats.GraphStats`: iterates only
    edges incident to S — O(vol S), not O(m) — and memoizes results for
    ``frozenset`` arguments, so repeated cut queries in refinement loops
    don't rescan the whole edge set.
    """
    return GraphStats.for_graph(graph).cut_size(vertices)


def conductance_of_set(graph: nx.Graph, vertices: Iterable[Hashable]) -> float:
    """Φ(S) per the paper; requires ∅ ⊂ S ⊂ V.

    Uses the per-graph :class:`~repro.graphs.stats.GraphStats` cache: the
    degree table and total volume are computed once per graph, so
    vol(V∖S) is ``total − vol(S)`` instead of a second pass over V∖S.
    """
    stats = GraphStats.for_graph(graph)
    inside = set(vertices)
    if not inside:
        raise ValueError("conductance needs a proper nonempty subset")
    vol_inside = stats.volume(inside)
    if len(inside) >= stats.n:
        raise ValueError("conductance needs a proper nonempty subset")
    denominator = min(vol_inside, stats.total_volume - vol_inside)
    if denominator == 0:
        return math.inf
    return stats.cut_size(inside) / denominator


def sparsity_of_set(graph: nx.Graph, vertices: Iterable[Hashable]) -> float:
    """Ψ(S) (edge expansion) per the paper; requires ∅ ⊂ S ⊂ V."""
    stats = GraphStats.for_graph(graph)
    inside = set(vertices)
    if not inside:
        raise ValueError("sparsity needs a proper nonempty subset")
    if len(inside) >= stats.n:
        raise ValueError("sparsity needs a proper nonempty subset")
    return stats.cut_size(inside) / min(len(inside), stats.n - len(inside))


def exact_conductance(graph: nx.Graph, max_nodes: int = 18) -> float:
    """Exact Φ(G): the minimum of :func:`enumerate_cut_conductances`
    over all 2^(n-1) − 1 cuts.

    Guarded by ``max_nodes`` (the kernel itself stops at 18) so
    accidental use on large graphs fails loudly.  Disconnected graphs
    have conductance 0.

    >>> exact_conductance(nx.cycle_graph(6))
    0.3333333333333333
    """
    n = graph.number_of_nodes()
    if n < 2:
        return math.inf
    if n > max_nodes:
        raise ValueError(f"exact conductance limited to {max_nodes} nodes")
    if not nx.is_connected(graph):
        return 0.0
    return float(enumerate_cut_conductances(graph).min())


# Cut enumeration scores 2^(n−1) − 1 rows; past 18 vertices the cached
# membership matrices outgrow a few MB.
_CUT_MAX_NODES = 18
# Membership cells scored per chunk of the cut kernel: keeps its
# (rows × max(n, edges)) temporaries to a few MB even at n = 18.
_CUT_CHUNK_CELLS = 1 << 19


@functools.lru_cache(maxsize=None)
def _cut_membership(n: int) -> np.ndarray:
    """Boolean (2^(n−1) − 1) × n matrix: row i marks the vertices of cut
    i in enumeration order — vertex 0 (the anchor) plus each
    ``itertools.combinations(range(1, n), r)`` for r = 0, 1, …, n − 2
    (r = n − 1 would be the full vertex set)."""
    blocks = []
    for r in range(n - 1):
        combos = list(itertools.combinations(range(1, n), r))
        combos = np.array(combos, dtype=np.intp).reshape(len(combos), r)
        block = np.zeros((len(combos), n), dtype=bool)
        block[:, 0] = True
        block[np.arange(len(combos))[:, None], combos] = True
        blocks.append(block)
    bits = np.concatenate(blocks)
    bits.flags.writeable = False
    return bits


def enumerate_cut_conductances(graph: nx.Graph) -> np.ndarray:
    """Φ(S) of every cut of ``graph``, in enumeration order.

    Entry i scores the cut :func:`enumerated_cut` ``(list(graph.nodes),
    i)`` builds: the first listed vertex (the anchor) plus the i-th
    ``itertools.combinations`` of the others, by size, with the full
    vertex set skipped.  Values are ``inf`` where ``min(vol S, vol V∖S)``
    is 0, and equal :func:`conductance_of_set` bit for bit: cut sizes
    and volumes are integers, exact in float64, so the one division
    rounds the same way.  Cut sizes count edges with exactly one
    endpoint in S, so self-loops never cross (they add 2 to the degree,
    as everywhere else).

    >>> enumerate_cut_conductances(nx.path_graph(4)).round(3).tolist()
    [1.0, 0.333, 1.0, 1.0, 1.0, 1.0, 1.0]
    """
    nodes = list(graph.nodes)
    n = len(nodes)
    if n > _CUT_MAX_NODES:
        raise ValueError(
            f"cut enumeration limited to {_CUT_MAX_NODES} nodes; got {n}"
        )
    if n < 2:
        return np.empty(0)
    position = {v: i for i, v in enumerate(nodes)}
    degree = np.array([graph.degree[v] for v in nodes], dtype=np.int64)
    edges = np.array(
        [(position[u], position[v]) for u, v in graph.edges()], dtype=np.intp
    ).reshape(-1, 2)
    eu, ev = edges[:, 0], edges[:, 1]
    total = int(degree.sum())
    bits = _cut_membership(n)
    out = np.empty(len(bits))
    chunk = max(1, _CUT_CHUNK_CELLS // max(n, len(edges)))
    for start in range(0, len(bits), chunk):
        rows = bits[start:start + chunk]
        vol = rows @ degree
        cut = (rows[:, eu] ^ rows[:, ev]).sum(axis=1)
        denominator = np.minimum(vol, total - vol)
        scored = out[start:start + len(rows)]
        scored.fill(math.inf)
        np.divide(cut, denominator, out=scored, where=denominator > 0)
    return out


def enumerated_cut(nodes: list, index: int) -> set:
    """The vertex set of cut ``index`` of :func:`enumerate_cut_conductances`,
    built in the enumeration's insertion order (anchor, then the
    combination), so that iterating it matches the subset loop it
    replaces.

    >>> sorted(enumerated_cut([0, 1, 2, 3], 1))
    [0, 1]
    """
    members = np.flatnonzero(_cut_membership(len(nodes))[index])
    anchor, *combo = (nodes[i] for i in members)
    return {anchor, *combo}


def _normalized_laplacian(graph: nx.Graph, nodelist: list) -> np.ndarray:
    """Dense normalized Laplacian ``I − D^-1/2 A D^-1/2`` of the unweighted
    graph, rows and columns in ``nodelist`` order.

    Follows networkx's sparse normalized Laplacian step for step
    (``L = D − A`` from the row sums, then ``scale · (L · scale)`` with
    ``1/√0`` read as 0), so its bytes equal that matrix built with
    ``weight=None`` and densified, without the scipy import it needs.
    Edge weights are ignored, as they are by :func:`volume` and
    :func:`cut_size`.

    >>> _normalized_laplacian(nx.path_graph(3), [0, 1, 2]).round(3).tolist()
    [[1.0, -0.707, 0.0], [-0.707, 1.0, -0.707], [0.0, -0.707, 1.0]]
    """
    adjacency = nx.to_numpy_array(graph, nodelist=nodelist, weight=None)
    degrees = adjacency.sum(axis=1)
    laplacian = np.diag(degrees) - adjacency
    with np.errstate(divide="ignore"):
        scale = 1.0 / np.sqrt(degrees)
    scale[np.isinf(scale)] = 0.0
    return scale[:, None] * (laplacian * scale[None, :])


def spectral_conductance_bounds(graph: nx.Graph) -> tuple[float, float]:
    """Cheeger sandwich (lower, upper) for Φ(G) via the normalized Laplacian.

    λ2/2 ≤ Φ(G) ≤ √(2 λ2).  Isolated vertices and disconnected graphs give
    (0, 0).  λ2 comes from a dense ``eigvalsh`` of
    :func:`_normalized_laplacian` (fine at the sizes we simulate), which
    reads the unweighted adjacency: a ``weight`` edge attribute does not
    move the bounds, matching the unweighted Φ of :func:`conductance_of_set`.
    """
    n = graph.number_of_nodes()
    if n < 2:
        return (math.inf, math.inf)
    if not nx.is_connected(graph) or min(d for _, d in graph.degree) == 0:
        return (0.0, 0.0)
    eigenvalues = np.linalg.eigvalsh(_normalized_laplacian(graph, list(graph)))
    lambda2 = float(max(eigenvalues[1], 0.0))
    return (lambda2 / 2.0, math.sqrt(2.0 * lambda2))


def conductance(graph: nx.Graph, dense_limit: int = 400) -> float:
    """Φ(G) of the unweighted graph: exact when feasible, else the Cheeger
    lower bound λ2/2.

    The lower bound is the safe direction for every use in this
    repository (we only ever need certified *at least* φ).  Up to
    ``dense_limit`` vertices λ2 is a dense solve on plain numpy; above
    it, a sparse Lanczos solve, the only path that imports scipy.  Edge
    weights are ignored on every path.
    """
    n = graph.number_of_nodes()
    if n <= 10:
        return exact_conductance(graph)
    if n <= dense_limit:
        return spectral_conductance_bounds(graph)[0]
    return _sparse_lambda2(graph) / 2.0


def _sparse_lambda2(graph: nx.Graph) -> float:
    """λ2 of the unweighted normalized Laplacian via scipy's sparse
    eigensolver."""
    if not nx.is_connected(graph) or min(d for _, d in graph.degree) == 0:
        return 0.0
    from scipy.sparse.linalg import eigsh

    laplacian = nx.normalized_laplacian_matrix(graph, weight=None).astype(float)
    try:
        values = eigsh(
            laplacian, k=2, which="SM", return_eigenvectors=False, maxiter=5000
        )
        return float(max(sorted(values)[1], 0.0))
    except Exception:
        return spectral_conductance_bounds(graph)[0] * 2.0


def is_phi_expander(graph: nx.Graph, phi: float) -> bool:
    """Certify Φ(G) ≥ φ.

    Exact for small graphs.  For larger graphs: accept if the Cheeger
    lower bound certifies it; reject if the Cheeger *upper* bound already
    rules it out; otherwise fall back to a sweep-cut search for a violating
    cut (Cheeger sweep finds a cut of conductance ≤ √(2 λ2); if even that
    cut has conductance ≥ φ *and* λ2/2 ≥ φ²/2 we accept conservatively).
    """
    n = graph.number_of_nodes()
    if n < 2:
        return True
    if n <= 14:
        return exact_conductance(graph) >= phi
    lower, upper = spectral_conductance_bounds(graph)
    if lower >= phi:
        return True
    if upper < phi:
        return False
    sweep = cheeger_sweep_cut(graph)
    if sweep is not None and conductance_of_set(graph, sweep) < phi:
        return False
    # No witness against; the sweep cut (quadratically tight) passed.
    return True


def cheeger_sweep_cut(graph: nx.Graph) -> set | None:
    """Sweep cut from the Fiedler vector: a cut with Φ ≤ √(2 λ2).

    The Fiedler vector is an eigenvector of :func:`_normalized_laplacian`,
    so, like the degrees it is divided by and the Φ it scores, it ignores
    edge weights.  The sweep maintains |∂S| and vol(S) incrementally as each vertex joins
    the prefix (cut grows by deg(v) minus twice the edges into the prefix),
    so the whole sweep costs O(m) instead of the seed's O(n·m) rescans.
    """
    n = graph.number_of_nodes()
    if n < 2 or not nx.is_connected(graph):
        return None
    stats = GraphStats.for_graph(graph)
    nodes = list(graph.nodes)
    _, vectors = np.linalg.eigh(_normalized_laplacian(graph, nodes))
    fiedler = vectors[:, 1]
    degrees = np.array([graph.degree[v] for v in nodes], dtype=float)
    order = np.argsort(fiedler / np.sqrt(np.maximum(degrees, 1.0)))
    adj = graph.adj
    total_volume = stats.total_volume
    best_cut, best_phi = None, math.inf
    prefix: set = set()
    cut = 0
    vol = 0
    for idx in order[:-1]:
        v = nodes[int(idx)]
        internal = sum(1 for u in adj[v] if u in prefix)
        cut += stats.degree[v] - 2 * internal
        if v in adj[v]:  # a self-loop never crosses the cut
            cut -= 2
        vol += stats.degree[v]
        prefix.add(v)
        denominator = min(vol, total_volume - vol)
        phi = cut / denominator if denominator else math.inf
        if phi < best_phi:
            best_phi = phi
            best_cut = set(prefix)
    return best_cut


def mixing_time_bound(graph: nx.Graph, phi: float, constant: float = 10.0) -> int:
    """τ_mix ≤ O(φ⁻² log |V|) for the lazy walk on a φ-expander [GKS17, JS89].

    ``constant`` is the hidden constant; the walk router treats this as
    the number of steps to run.
    """
    n = max(2, graph.number_of_nodes())
    return max(1, math.ceil(constant * (phi ** -2) * math.log(n)))


def minor_free_max_degree_lower_bound(
    phi: float, n: int, constant: float = 1.0 / 64.0
) -> float:
    """Lemma 2.7: an H-minor-free φ-expander has Δ ≥ c · φ² · n.

    Returns the bound's value; callers compare the actual Δ against it
    (the property-testing error detection of Section 6.2 rejects when the
    bound fails, certifying the graph is not H-minor-free).
    """
    return constant * phi * phi * n
