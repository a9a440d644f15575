"""KPR-style low-diameter decomposition (Lemma 3.1): (ε, O(1/ε)) on
H-minor-free graphs.

The classical Klein–Plotkin–Rao scheme [KPR93, FT03, AGG+19]: recursively
chop the graph into BFS *bands* of width w = Θ(depth/ε); after ``depth``
levels (depth = O(|V(H)|) suffices for H-minor-free inputs) the pieces
have diameter O(w) and the chopping cut at most depth/w ≤ ε/2 of the
edges.  Our implementation is deterministic: at each level it tries every
band offset in 0..w−1 and keeps the one cutting the fewest edges (the
averaging argument guarantees some offset cuts ≤ 1/w of the level's
edges).

Because the strong-diameter constant of the KPR analysis is delicate, the
implementation finishes with an *enforcement* sweep: any piece whose
induced diameter still exceeds the target is band-chopped again (each chop
strictly splits the piece, so the sweep terminates).  On the H-minor-free
families we evaluate, enforcement fires rarely and the measured total cut
stays within ε — the validation in the tests asserts exactly that.  This
is run as leader-local computation in the paper (Lemma 3.1 is only ever
applied to an already-gathered topology), so only the output quality
matters, not the step count.
"""

from __future__ import annotations

import math
from typing import Hashable

import networkx as nx

from repro.decomposition.types import Clustering


def _bfs_layers(graph: nx.Graph, root: Hashable) -> dict:
    """{vertex: BFS depth from root} for the component containing root."""
    return {
        v: depth
        for depth, layer in enumerate(nx.bfs_layers(graph, [root]))
        for v in layer
    }


def _best_band_split(graph: nx.Graph, width: int) -> list[set]:
    """Chop one connected graph into BFS bands of ``width`` layers.

    Tries all offsets and keeps the cheapest; bands are returned as vertex
    sets (possibly internally disconnected — connectivity is restored by
    the component split in the recursion).
    """
    root = min(graph.nodes, key=repr)
    layers = _bfs_layers(graph, root)
    max_layer = max(layers.values())
    if max_layer < width:
        return [set(graph.nodes)]

    def bands_for(offset: int) -> dict:
        # Band index of layer L: first band has `offset` layers (offset>0),
        # subsequent bands have `width` layers.
        return {
            v: 0 if level < offset else (level - offset) // width + 1
            for v, level in layers.items()
        }

    best_offset, best_cut = 0, math.inf
    for offset in range(width):
        banding = bands_for(offset)
        cut = sum(1 for u, v in graph.edges if banding[u] != banding[v])
        if cut < best_cut:
            best_offset, best_cut = offset, cut
    banding = bands_for(best_offset)
    groups: dict = {}
    for v, band in banding.items():
        groups.setdefault(band, set()).add(v)
    return list(groups.values())


def kpr_low_diameter_decomposition(
    graph: nx.Graph,
    epsilon: float,
    depth: int = 3,
    diameter_slack: float = 4.0,
) -> Clustering:
    """(ε, O(1/ε)) low-diameter decomposition of an H-minor-free graph.

    Parameters
    ----------
    epsilon:
        Target inter-cluster edge fraction.
    depth:
        Chopping levels; 3 suffices for planar-like families (the KPR
        analysis uses the number of vertices of the forbidden minor H).
    diameter_slack:
        Enforcement threshold: pieces must reach induced diameter ≤
        ``diameter_slack · depth · width``; larger slack means fewer extra
        cuts.

    Returns a :class:`Clustering` whose measured cut fraction and diameter
    are validated by the caller/tests (Lemma 3.1's guarantee for genuinely
    H-minor-free inputs).
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if graph.number_of_nodes() == 0:
        return Clustering({})
    width = max(1, math.ceil(2 * depth / epsilon))
    target_diameter = max(1, math.floor(diameter_slack * depth * width))

    pieces: list[set] = [
        set(component) for component in nx.connected_components(graph)
    ]
    for _level in range(depth):
        next_pieces: list[set] = []
        for piece in pieces:
            sub = graph.subgraph(piece)
            if sub.number_of_nodes() <= 1:
                next_pieces.append(piece)
                continue
            for band in _best_band_split(sub, width):
                band_sub = graph.subgraph(band)
                for component in nx.connected_components(band_sub):
                    next_pieces.append(set(component))
        pieces = next_pieces

    # Enforcement sweep: re-chop any piece whose induced diameter is still
    # above the target (terminates: every chop splits the piece).
    final: list[set] = []
    stack = pieces
    while stack:
        piece = stack.pop()
        sub = graph.subgraph(piece)
        if sub.number_of_nodes() <= 1:
            final.append(piece)
            continue
        far, estimate = double_sweep(sub)
        if estimate <= target_diameter:
            final.append(piece)
            continue
        bands = _best_band_split(sub, width)
        if len(bands) == 1:
            # The band width exceeds the BFS eccentricity yet the diameter
            # still misses the target (e.g. long thin pieces).  Chop from
            # the *far* endpoint with half the eccentricity: ≥ 2 non-empty
            # bands, so the sweep always makes progress.
            lengths = nx.single_source_shortest_path_length(sub, far)
            half = max(1, max(lengths.values()) // 2)
            near = {v for v, level in lengths.items() if level < half}
            bands = [near, set(sub.nodes) - near]
        for band in bands:
            band_sub = graph.subgraph(band)
            for component in nx.connected_components(band_sub):
                stack.append(set(component))
    return Clustering.from_sets(final)


def double_sweep(graph: nx.Graph) -> tuple[Hashable, int]:
    """Cheap diameter estimate (double BFS: a lower bound within 2x).

    BFS from the min-``repr`` vertex, take the farthest vertex (ties by
    ``(distance, repr)``) and BFS again from it; returns that far vertex
    and its eccentricity.  On a disconnected graph both sweeps stay in the
    start vertex's component.
    """
    return _second_sweep(graph, _first_sweep(graph))


def cluster_diameter_estimate(graph: nx.Graph) -> int:
    """:func:`double_sweep`'s eccentricity on a connected graph, |V| on a
    disconnected one.

    The first sweep decides connectivity: it reaches every vertex exactly
    when the graph is connected, so no separate connectivity pass runs.

    >>> cluster_diameter_estimate(nx.path_graph(5))
    4
    >>> cluster_diameter_estimate(nx.Graph([(0, 1), (2, 3)]))
    4
    """
    lengths = _first_sweep(graph)
    if len(lengths) < graph.number_of_nodes():
        return graph.number_of_nodes()
    return _second_sweep(graph, lengths)[1]


def _first_sweep(graph: nx.Graph) -> dict:
    return nx.single_source_shortest_path_length(graph, min(graph.nodes, key=repr))


def _second_sweep(graph: nx.Graph, lengths: dict) -> tuple[Hashable, int]:
    far = max(lengths, key=lambda v: (lengths[v], repr(v)))
    return far, max(nx.single_source_shortest_path_length(graph, far).values())
