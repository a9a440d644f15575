"""Tests for conductance/sparsity machinery (Section 2 definitions)."""

import math
import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.graphs import (
    conductance,
    conductance_of_set,
    cut_size,
    exact_conductance,
    grid_graph,
    is_phi_expander,
    minor_free_max_degree_lower_bound,
    mixing_time_bound,
    random_planar_triangulation,
    spectral_conductance_bounds,
    sparsity_of_set,
    triangulated_grid,
    volume,
)
from repro.graphs.conductance import _normalized_laplacian, cheeger_sweep_cut


class TestBasicQuantities:
    def test_volume_counts_global_degrees(self):
        g = nx.star_graph(4)
        assert volume(g, [0]) == 4
        assert volume(g, [1, 2]) == 2
        assert volume(g, g.nodes) == 2 * g.number_of_edges()

    def test_cut_size(self):
        g = nx.cycle_graph(6)
        assert cut_size(g, [0, 1, 2]) == 2
        assert cut_size(g, [0, 2, 4]) == 6

    def test_conductance_of_set_cycle(self):
        g = nx.cycle_graph(8)
        assert conductance_of_set(g, [0, 1, 2, 3]) == pytest.approx(2 / 8)

    def test_conductance_uses_smaller_side(self):
        g = nx.cycle_graph(10)
        assert conductance_of_set(g, [0]) == conductance_of_set(
            g, set(range(1, 10))
        )

    def test_sparsity_at_least_conductance_scaled(self):
        g = nx.complete_graph(6)
        s = {0, 1}
        assert conductance_of_set(g, s) <= sparsity_of_set(g, s)
        delta = 5
        assert sparsity_of_set(g, s) <= delta * conductance_of_set(g, s)

    def test_empty_or_full_subset_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ValueError):
            conductance_of_set(g, [])
        with pytest.raises(ValueError):
            sparsity_of_set(g, list(g.nodes))


class TestExactConductance:
    def test_complete_graph_value(self):
        # K6: the worst cut is the balanced one: 9 / 15.
        assert exact_conductance(nx.complete_graph(6)) == pytest.approx(9 / 15)

    def test_cycle_value(self):
        # Cn: halving cut: 2 / n.
        assert exact_conductance(nx.cycle_graph(12)) == pytest.approx(2 / 12)

    def test_path_value(self):
        # Pn: cutting the middle edge: 1 / (n−1) volume on a side... compute
        # directly: cut=1, min volume = 2*(n/2)-1.
        n = 8
        value = exact_conductance(nx.path_graph(n))
        assert value == pytest.approx(1 / 7)

    def test_disconnected_zero(self):
        assert exact_conductance(nx.Graph([(0, 1), (2, 3)])) == 0.0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exact_conductance(nx.path_graph(30))

    def test_single_vertex_infinite(self):
        g = nx.Graph()
        g.add_node(0)
        assert exact_conductance(g) == math.inf


class TestSpectralBounds:
    @pytest.mark.parametrize("builder", [
        lambda: nx.cycle_graph(12),
        lambda: nx.complete_graph(10),
        lambda: grid_graph(4, 3),
        lambda: nx.petersen_graph(),
    ])
    def test_cheeger_sandwich_contains_exact(self, builder):
        g = builder()
        exact = exact_conductance(g)
        lower, upper = spectral_conductance_bounds(g)
        assert lower - 1e-9 <= exact <= upper + 1e-9

    def test_disconnected_gives_zero(self):
        assert spectral_conductance_bounds(nx.Graph([(0, 1), (2, 3)])) == (0.0, 0.0)

    def test_sweep_cut_quality(self):
        g = grid_graph(6, 6)
        cut = cheeger_sweep_cut(g)
        _, upper = spectral_conductance_bounds(g)
        assert conductance_of_set(g, cut) <= upper + 1e-9

    def test_conductance_dispatches_large(self):
        pytest.importorskip("scipy")
        g = grid_graph(25, 25)  # 625 nodes: sparse path
        value = conductance(g)
        assert 0 < value < 1

    def test_edge_weights_are_ignored(self):
        # Φ counts degrees and edges; the spectral side must read the same
        # unweighted graph, so random weights move nothing.
        plain = grid_graph(5, 6)
        weighted = _randomly_weighted(plain)
        assert spectral_conductance_bounds(weighted) == (
            spectral_conductance_bounds(plain))
        assert cheeger_sweep_cut(weighted) == cheeger_sweep_cut(plain)
        assert conductance(weighted) == conductance(plain)

    def test_edge_weights_are_ignored_by_lanczos(self):
        pytest.importorskip("scipy")
        plain = grid_graph(5, 6)
        weighted = _randomly_weighted(plain)
        # dense_limit below n takes the sparse path; ARPACK's random start
        # vector makes its λ2 equal only to rounding.
        assert conductance(weighted, dense_limit=20) == pytest.approx(
            conductance(plain, dense_limit=20), rel=1e-9)


def _randomly_weighted(graph):
    weighted = graph.copy()
    rng = random.Random(0)
    for u, v in weighted.edges:
        weighted[u][v]["weight"] = rng.uniform(0.1, 10.0)
    return weighted


def _self_loop_cycle():
    g = nx.cycle_graph(9)
    g.add_edge(3, 3)
    return g


def _isolated_vertex():
    g = nx.petersen_graph()
    g.add_node("isolated")
    return g


class TestDenseLaplacian:
    @pytest.mark.parametrize("builder", [
        lambda: triangulated_grid(12, 12),
        lambda: random_planar_triangulation(150, seed=0),
        _self_loop_cycle,
        _isolated_vertex,
    ], ids=["tri-grid", "planar", "self-loop", "isolated"])
    @pytest.mark.parametrize("order", ["listed", "reversed"])
    def test_bytes_equal_networkx(self, builder, order):
        pytest.importorskip("scipy")
        g = builder()
        nodes = list(g) if order == "listed" else list(g)[::-1]
        oracle = np.asarray(
            nx.normalized_laplacian_matrix(g, nodelist=nodes, weight=None)
            .todense()
        )
        built = _normalized_laplacian(g, nodes)
        assert built.dtype == oracle.dtype and built.shape == oracle.shape
        assert built.tobytes() == oracle.tobytes()

    def test_paper_pipeline_leaves_scipy_unloaded(self):
        # A fresh interpreter, so no other test's import can mask one.
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import sys\n"
            "from repro.applications.property_testing import "
            "test_minor_closed_property\n"
            "from repro.decomposition.edt import edt_decomposition, "
            "run_gather_on_groups\n"
            "from repro.graphs import random_planar_triangulation\n"
            "g = random_planar_triangulation(40, seed=1)\n"
            "d = edt_decomposition(g, 0.3, variant='52')\n"
            "run_gather_on_groups(g, d)\n"
            "test_minor_closed_property(g, 'planar')\n"
            "print('scipy' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.strip() == "False"


class TestExpanderCertification:
    def test_complete_graph_is_expander(self):
        assert is_phi_expander(nx.complete_graph(10), 0.4)

    def test_path_is_not(self):
        assert not is_phi_expander(nx.path_graph(16), 0.3)

    def test_large_path_rejected_via_sweep(self):
        assert not is_phi_expander(nx.path_graph(200), 0.05)

    def test_tiny_graphs_trivially_pass(self):
        g = nx.Graph()
        g.add_node(0)
        assert is_phi_expander(g, 0.9)


class TestPaperBounds:
    def test_mixing_time_decreases_with_phi(self):
        g = nx.complete_graph(20)
        assert mixing_time_bound(g, 0.5) < mixing_time_bound(g, 0.1)

    def test_mixing_time_grows_with_n(self):
        a = mixing_time_bound(nx.complete_graph(10), 0.3)
        b = mixing_time_bound(nx.complete_graph(1000), 0.3)
        assert b > a

    def test_lemma27_bound_shape(self):
        # Δ ≥ c φ² n: doubling n doubles the bound; doubling φ quadruples it.
        assert minor_free_max_degree_lower_bound(0.2, 200) == pytest.approx(
            2 * minor_free_max_degree_lower_bound(0.2, 100)
        )
        assert minor_free_max_degree_lower_bound(0.4, 100) == pytest.approx(
            4 * minor_free_max_degree_lower_bound(0.2, 100)
        )

    def test_lemma27_holds_on_planar_star(self):
        # The star is the canonical planar high-conductance graph: its Δ
        # must (and does) satisfy the bound.
        g = nx.star_graph(50)
        phi = exact_conductance(nx.star_graph(10))  # 1.0 for stars
        assert 51 - 1 >= minor_free_max_degree_lower_bound(min(phi, 1.0), 51)
