"""Generators for the graph families used throughout the paper's experiments.

All H-minor-free families the paper's introduction lists are covered:
forests, cactus graphs, planar graphs (grids, triangulated grids, random
Delaunay-style triangulations), outerplanar graphs, and bounded-treewidth
graphs (partial k-trees).  For the property-testing experiments we also
need graphs *ε-far* from planarity; random regular graphs with degree ≥ 3
are expanders with high probability and serve that role (Section 6.2 uses
exactly such high-girth expander families for the lower bound).

All generators are deterministic given ``seed`` and never return
multigraphs or self-loops.
"""

from __future__ import annotations

import itertools
import random

import networkx as nx


def _seeded_rng(seed: int, scope: list | None = None) -> random.Random:
    """The one place this module seeds ``random.Random``.

    With ``scope=None`` this is the historical ``random.Random(seed)``
    stream (existing families stay byte-identical).  With a scope list —
    e.g. ``[n, degree, attempt]`` for generator retries — the seed is
    folded through the shared Philox key-derivation in
    :mod:`repro.congest.runtime.rng`, so derived streams are independent
    instead of the old overlapping ``seed + attempt`` arithmetic.  Scope
    entries must be ints (string hashing is PYTHONHASHSEED-randomized).
    """
    if scope is None:
        return random.Random(seed)
    from repro.congest.runtime.rng import derive_stream_key

    return random.Random(derive_stream_key(seed, scope))


def path_graph(n: int) -> nx.Graph:
    """Path on ``n`` vertices (the Lenzen–Wattenhofer lower-bound family)."""
    return nx.path_graph(n)


def cycle_graph(n: int) -> nx.Graph:
    """Cycle on ``n`` vertices."""
    return nx.cycle_graph(n)


def star_graph(n: int) -> nx.Graph:
    """Star with ``n`` leaves (max-degree stress case, still a tree)."""
    return nx.star_graph(n)


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """Uniformly random labelled tree on ``n`` vertices."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n == 1:
        g = nx.Graph()
        g.add_node(0)
        return g
    return nx.random_labeled_tree(n, seed=seed)


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """2-D grid graph (planar, Δ = 4), relabelled to integers 0..rows*cols-1."""
    g = nx.grid_2d_graph(rows, cols)
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def triangulated_grid(rows: int, cols: int) -> nx.Graph:
    """2-D grid with one diagonal per cell (planar, Δ = 6).

    A denser planar family than the plain grid: m ≈ 3n, close to the planar
    maximum, which stresses the ε|E| inter-cluster-edge budget.
    """
    g = nx.grid_2d_graph(rows, cols)
    for r in range(rows - 1):
        for c in range(cols - 1):
            g.add_edge((r, c), (r + 1, c + 1))
    return nx.convert_node_labels_to_integers(g, ordering="sorted")


def random_planar_triangulation(n: int, seed: int = 0) -> nx.Graph:
    """Random maximal-ish planar graph via incremental triangulation.

    Builds a planar triangulation by inserting vertices one at a time into
    a random face of the current triangulation (connecting the new vertex
    to the face's three corners).  The result is a maximal planar graph
    (every face a triangle) with a skewed degree distribution — the
    natural "hard" planar instance with large Δ.
    """
    if n < 3:
        return nx.complete_graph(n)
    rng = _seeded_rng(seed)
    g = nx.Graph()
    g.add_edges_from([(0, 1), (1, 2), (0, 2)])
    faces = [(0, 1, 2), (0, 1, 2)]  # outer + inner face of the triangle
    for v in range(3, n):
        face_index = rng.randrange(len(faces))
        a, b, c = faces.pop(face_index)
        g.add_edges_from([(v, a), (v, b), (v, c)])
        faces.extend([(v, a, b), (v, b, c), (v, a, c)])
    return g


def random_outerplanar(n: int, seed: int = 0, extra_chords: float = 0.5) -> nx.Graph:
    """Random outerplanar graph: a cycle plus non-crossing chords.

    Chords are sampled as a random non-crossing chord set of the n-gon
    (built by recursive splitting), so the result is outerplanar by
    construction.  ``extra_chords`` in [0, 1] controls chord density.
    """
    if n <= 1:
        g = nx.Graph()
        g.add_nodes_from(range(max(n, 0)))
        return g
    if n == 2:
        return nx.path_graph(2)
    rng = _seeded_rng(seed)
    g = nx.cycle_graph(n)

    def add_chords(lo: int, hi: int) -> None:
        """Add non-crossing chords inside the polygon arc lo..hi."""
        if hi - lo < 3:
            return
        if rng.random() > extra_chords:
            return
        mid = rng.randrange(lo + 2, hi)  # chord (lo, mid) skips >= 1 vertex
        g.add_edge(lo, mid % n)
        add_chords(lo, mid)
        add_chords(mid, hi)

    add_chords(0, n)
    return g


def random_cactus(n: int, seed: int = 0, cycle_probability: float = 0.5) -> nx.Graph:
    """Random cactus: every edge lies on at most one cycle.

    Grown by repeatedly attaching either a pendant edge or a small cycle to
    a random existing vertex.
    """
    rng = _seeded_rng(seed)
    g = nx.Graph()
    g.add_node(0)
    next_vertex = 1
    while next_vertex < n:
        anchor = rng.randrange(next_vertex)
        remaining = n - next_vertex
        if remaining >= 2 and rng.random() < cycle_probability:
            cycle_len = rng.randint(2, min(4, remaining))
            new_vertices = list(range(next_vertex, next_vertex + cycle_len))
            chain = [anchor, *new_vertices, anchor]
            for a, b in itertools.pairwise(chain):
                g.add_edge(a, b)
            next_vertex += cycle_len
        else:
            g.add_edge(anchor, next_vertex)
            next_vertex += 1
    return g


def bounded_treewidth_graph(
    n: int, treewidth: int, seed: int = 0, keep_probability: float = 0.7
) -> nx.Graph:
    """Random partial k-tree: treewidth ≤ ``treewidth``.

    Builds a random k-tree (every new vertex joined to a random existing
    clique of size k) and then independently keeps each edge with
    ``keep_probability`` (subgraphs of k-trees are exactly the graphs of
    treewidth ≤ k); deleted vertices' connectivity is restored by keeping a
    spanning tree so the output is connected.
    """
    k = treewidth
    if n <= k + 1:
        return nx.complete_graph(n)
    rng = _seeded_rng(seed)
    g = nx.complete_graph(k + 1)
    cliques = [tuple(range(k + 1))]
    for v in range(k + 1, n):
        base = list(rng.choice(cliques))
        rng.shuffle(base)
        chosen = base[:k]
        for u in chosen:
            g.add_edge(v, u)
        cliques.append(tuple([v, *chosen]))
    if keep_probability >= 1.0:
        return g
    spanning = nx.minimum_spanning_tree(g)
    keep = set(frozenset(e) for e in spanning.edges)
    out = nx.Graph()
    out.add_nodes_from(g.nodes)
    for e in g.edges:
        if frozenset(e) in keep or rng.random() < keep_probability:
            out.add_edge(*e)
    return out


def random_regular_expander(n: int, degree: int = 4, seed: int = 0) -> nx.Graph:
    """Random ``degree``-regular graph: w.h.p. an expander, hence ε-far from
    any fixed minor-closed property for suitable ε (Section 6.2's reject
    instances).

    Retries the pairing model until simple and connected.  Attempt 0
    uses ``seed`` verbatim (the historical stream, so seeded graphs that
    connect first try are unchanged); retries derive independent seeds
    through the shared Philox key-derivation instead of the old
    overlapping ``seed + attempt`` streams.
    """
    if n * degree % 2:
        raise ValueError("n * degree must be even")
    for attempt in range(100):
        attempt_rng = (
            seed if attempt == 0
            else _seeded_rng(seed, [n, degree, attempt])
        )
        g = nx.random_regular_graph(degree, n, seed=attempt_rng)
        if nx.is_connected(g):
            return g
    raise RuntimeError("failed to generate a connected regular graph")


def subdivide_graph(graph: nx.Graph, segments: int) -> nx.Graph:
    """Replace every edge by a path of ``segments`` edges.

    Used by the lower-bound constructions (Theorems 6.1/6.2 extend the
    Ω(log n) bounds to Ω(log n / ε) by subdividing into O(1/ε)-length
    paths).  New vertices are ``(u, v, i)`` tuples; original labels kept.
    """
    if segments < 1:
        raise ValueError("segments must be >= 1")
    if segments == 1:
        return graph.copy()
    out = nx.Graph()
    out.add_nodes_from(graph.nodes)
    for u, v in graph.edges:
        key = (u, v) if repr(u) <= repr(v) else (v, u)
        chain = [u] + [("sub", *key, i) for i in range(1, segments)] + [v]
        for a, b in itertools.pairwise(chain):
            out.add_edge(a, b)
    return out
