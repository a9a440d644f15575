"""Cross-module property-based tests (hypothesis).

These exercise the core invariants on *randomly generated* minor-free
instances, complementing the example-based tests: whatever planar/tree/
outerplanar instance hypothesis draws, the paper's guarantees must hold.
"""

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition import (
    Clustering,
    cluster_diameters,
    heavy_stars,
    kpr_low_diameter_decomposition,
)
from repro.decomposition.ldd import merge_stars
from repro.gathering import glm_load_balance
from repro.graphs import (
    barenboim_elkin_partition,
    constant_degree_expander,
    degeneracy,
    forest_decomposition,
    is_planar,
    random_outerplanar,
    random_planar_triangulation,
    random_tree,
)


planar_graphs = st.builds(
    random_planar_triangulation,
    st.integers(min_value=4, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)
trees = st.builds(
    random_tree,
    st.integers(min_value=2, max_value=80),
    st.integers(min_value=0, max_value=10**6),
)
outerplanars = st.builds(
    random_outerplanar,
    st.integers(min_value=3, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)


@settings(max_examples=25, deadline=None)
@given(planar_graphs, st.sampled_from([0.5, 0.3, 0.2]))
def test_kpr_invariants_on_random_planar(graph, epsilon):
    clustering = kpr_low_diameter_decomposition(graph, epsilon)
    assert set(clustering.assignment) == set(graph.nodes)
    assert clustering.cut_fraction(graph) <= epsilon + 1e-12
    for members in clustering.clusters().values():
        assert nx.is_connected(graph.subgraph(members))


@settings(max_examples=25, deadline=None)
@given(st.one_of(planar_graphs, trees, outerplanars))
def test_heavy_stars_invariants(graph):
    result = heavy_stars(graph)
    # Vertex-disjointness.
    seen = set()
    for center, satellites in result.stars.items():
        for v in [center, *satellites]:
            assert v not in seen
            seen.add(v)
    # Lemma 4.2 with α = degeneracy ≥ arboricity.
    if graph.number_of_edges() > 0:
        alpha = max(1, degeneracy(graph))
        assert result.captured_fraction >= 1.0 / (8 * alpha) - 1e-12


@settings(max_examples=25, deadline=None)
@given(st.one_of(planar_graphs, trees))
def test_merge_preserves_partition(graph):
    clustering = Clustering.singletons(graph)
    result = heavy_stars(graph)
    merged = merge_stars(clustering, result.stars)
    assert set(merged.assignment) == set(graph.nodes)
    # Merged clusters are stars of adjacent singletons: connected.
    for members in merged.clusters().values():
        if len(members) > 1:
            assert nx.is_connected(graph.subgraph(members))


@settings(max_examples=25, deadline=None)
@given(st.one_of(planar_graphs, outerplanars))
def test_forest_decomposition_partitions_edges(graph):
    forests = forest_decomposition(graph)
    assert all(nx.is_forest(f) for f in forests)
    covered = [frozenset(e) for f in forests for e in f.edges]
    assert len(covered) == len(set(covered)) == graph.number_of_edges()


@settings(max_examples=20, deadline=None)
@given(planar_graphs)
def test_barenboim_elkin_never_rejects_planar(graph):
    result = barenboim_elkin_partition(graph, alpha0=3)
    assert not result["rejecting"]
    digraph = nx.DiGraph(result["orientation"].values())
    assert nx.is_directed_acyclic_graph(digraph)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=8, max_value=48),
    st.integers(min_value=1, max_value=200),
)
def test_load_balance_conserves_and_levels(size, token_count):
    graph = constant_degree_expander(size)
    tokens = {v: [] for v in graph.nodes}
    tokens[0] = list(range(token_count))
    glm_load_balance(graph, tokens, max_steps=20_000, target_imbalance=25)
    remaining = sorted(x for t in tokens.values() for x in t)
    assert remaining == list(range(token_count))
    delta = max(d for _, d in graph.degree)
    # GLM fixed point: adjacent loads differ by at most 2Δ (the threshold).
    for u, v in graph.edges:
        assert abs(len(tokens[u]) - len(tokens[v])) <= max(
            2 * delta, 25 + 2 * delta
        )


@settings(max_examples=20, deadline=None)
@given(trees, st.sampled_from([0.4, 0.2]))
def test_tree_decomposition_cut_and_planarity(tree, epsilon):
    clustering = kpr_low_diameter_decomposition(tree, epsilon)
    assert clustering.cut_fraction(tree) <= epsilon + 1e-12
    # Contracting connected clusters of a tree yields a tree (minor-closed).
    from repro.graphs import build_cluster_graph

    cluster_graph = build_cluster_graph(tree, clustering.assignment)
    assert nx.is_forest(cluster_graph)


@settings(max_examples=20, deadline=None)
@given(planar_graphs)
def test_cluster_graph_of_planar_partition_is_planar(graph):
    clustering = kpr_low_diameter_decomposition(graph, 0.3)
    from repro.graphs import build_cluster_graph

    cluster_graph = build_cluster_graph(graph, clustering.assignment)
    # Contraction of connected parts of a planar graph is planar (the
    # minor-closure property the paper's Remark relies on).
    assert is_planar(cluster_graph)


# ---------------------------------------------------------------------------
# Streaming generators (repro.graphs.streaming): whatever (family, seed,
# block size) hypothesis draws, the stream/compile invariants must hold.
# ---------------------------------------------------------------------------
import numpy as np

from repro.congest.runtime.compile import compile_edge_stream, sorted_unique
from repro.graphs.streaming import (
    materialize_edges,
    stream_powerlaw_edges,
    stream_random_regular_edges,
    stream_rmat_edges,
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sorted_unique_matches_np_unique(data):
    dtype = data.draw(st.sampled_from([np.int64, np.uint64]))
    info = np.iinfo(dtype)
    element = st.one_of(
        st.integers(min_value=int(info.min), max_value=int(info.max)),
        st.integers(min_value=int(info.max) - 3, max_value=int(info.max)),
        st.integers(min_value=max(int(info.min), -3), max_value=3),
    )
    values = data.draw(st.lists(element, max_size=60))
    repeat = data.draw(st.integers(min_value=1, max_value=4))
    array = np.array(values * repeat, dtype=dtype)  # runs of duplicates
    expected = np.unique(array)
    got = sorted_unique(array)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("array", [
    np.empty(0, dtype=np.int64),
    np.array([7], dtype=np.uint64),
    np.full(9, 2**64 - 1, dtype=np.uint64),
    np.array([2**64 - 1, 0, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
    np.array([-2**63, 2**63 - 1, -2**63], dtype=np.int64),
])
def test_sorted_unique_edge_cases(array):
    got = sorted_unique(array)
    assert got.dtype == array.dtype
    assert np.array_equal(got, np.unique(array))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=500),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=4096),
    st.integers(min_value=1, max_value=4096),
)
def test_powerlaw_stream_deterministic_across_block_sizes(
    n, m, seed, block_a, block_b
):
    a = materialize_edges(
        stream_powerlaw_edges(n, m, seed=seed, block_edges=block_a)
    )
    b = materialize_edges(
        stream_powerlaw_edges(n, m, seed=seed, block_edges=block_b)
    )
    assert a.shape == (m, 2)
    assert np.array_equal(a, b)
    if m:
        assert int(a.min()) >= 0 and int(a.max()) < n


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=2048),
)
def test_rmat_stream_deterministic_and_in_range(scale, m, seed, block):
    edges = materialize_edges(
        stream_rmat_edges(scale, m, seed=seed, block_edges=block)
    )
    again = materialize_edges(
        stream_rmat_edges(scale, m, seed=seed, block_edges=1 + block // 2)
    )
    assert np.array_equal(edges, again)
    assert edges.shape == (m, 2)
    if m:
        assert int(edges.max()) < (1 << scale)
        assert int(edges.min()) >= 0


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=999),
)
def test_regular_stream_is_exact_stub_pairing(n, degree, seed, block):
    if (n * degree) % 2 or degree >= n:
        with pytest.raises(ValueError):
            list(stream_random_regular_edges(n, degree, seed=seed))
        return
    edges = materialize_edges(
        stream_random_regular_edges(n, degree, seed=seed, block_edges=block)
    )
    assert edges.shape == (n * degree // 2, 2)
    # The pairing consumes each vertex's stubs exactly ``degree`` times.
    counts = np.bincount(edges.ravel(), minlength=n)
    assert counts.tolist() == [degree] * n


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=0, max_value=2500),
    st.integers(min_value=0, max_value=10**6),
)
def test_stream_compile_handshake_and_simplicity(n, m, seed):
    topology = compile_edge_stream(
        stream_powerlaw_edges(n, m, seed=seed), n
    )
    indptr = topology.indptr.astype(np.int64)
    indices = topology.indices.astype(np.int64)
    # Handshake: degree sum equals twice the undirected edge count.
    assert int(indptr[-1]) == 2 * topology.m
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    # No self-loops, no duplicates after symmetrization...
    assert not np.any(rows == indices)
    keys = rows * n + indices
    assert len(np.unique(keys)) == len(keys)
    # ...and perfectly symmetric: (u, v) present iff (v, u) present.
    assert np.array_equal(
        np.sort(keys), np.sort(indices * n + rows)
    )
    # Conservation through the stats ledger.
    stats = topology.stats
    assert (
        stats.candidate_edges
        == stats.self_loops + stats.duplicates + stats.m
    )


def test_powerlaw_exponent_sanity_on_large_sample():
    """Heavier-tailed gamma must produce a heavier observed tail: the
    max degree of a 2.1-exponent stream dominates the 3.5 one, and both
    top-weight vertices collect far more than the mean degree (Chung–Lu
    weights are sorted descending by vertex id)."""
    n, m = 20_000, 120_000
    heavy = compile_edge_stream(
        stream_powerlaw_edges(n, m, gamma=2.1, seed=3), n
    )
    light = compile_edge_stream(
        stream_powerlaw_edges(n, m, gamma=3.5, seed=3), n
    )
    heavy_degrees = heavy.degrees
    light_degrees = light.degrees
    mean = 2 * m / n
    assert int(heavy_degrees.max()) > 10 * mean
    assert int(heavy_degrees.max()) > 3 * int(light_degrees.max())
    # The weight ordering shows up in the degrees: the top decile of
    # vertex ids (largest weights) holds a majority of heavy's edges.
    top = int(heavy_degrees[: n // 10].sum())
    assert top > int(heavy_degrees.sum()) // 2
