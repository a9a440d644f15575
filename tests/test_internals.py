"""Whitebox tests for internal helpers across modules."""

import math
import pickle

import networkx as nx
import pytest

from repro.decomposition.edt import (
    _analytic_gather_rounds,
    _max_cluster_diameter_estimate,
    _max_degree_vertex,
)
from repro.decomposition.kpr import (
    _best_band_split,
    _bfs_layers,
    cluster_diameter_estimate,
    double_sweep,
)
from repro.decomposition.types import Clustering
from repro.decomposition.overlap_expander import _MutableCluster
from repro.gathering.load_balancing import GatherResult
from repro.graphs import grid_graph
from repro.graphs.cache import graph_fingerprint


class TestKPRHelpers:
    def test_bfs_layers_match_networkx(self):
        graph = nx.petersen_graph()
        layers = _bfs_layers(graph, 0)
        expected = nx.single_source_shortest_path_length(graph, 0)
        assert layers == expected

    def test_farthest_on_path(self):
        far, eccentricity = double_sweep(nx.path_graph(10))
        assert far == 9 and eccentricity == 9

    def test_band_split_small_graph_single_band(self):
        graph = nx.path_graph(3)
        bands = _best_band_split(graph, width=10)
        assert bands == [set(graph.nodes)]

    def test_band_split_covers_all_vertices(self):
        graph = grid_graph(6, 6)
        bands = _best_band_split(graph, width=2)
        covered = set().union(*bands)
        assert covered == set(graph.nodes)
        assert len(bands) >= 2

    def test_band_split_picks_cheap_offset_on_path(self):
        # On a path any offset cuts the same number of edges per band
        # boundary; the split must produce bands of ≤ width layers.
        graph = nx.path_graph(20)
        bands = _best_band_split(graph, width=5)
        assert all(len(band) <= 10 for band in bands)


class TestEDTHelpers:
    def test_max_degree_vertex(self):
        graph = nx.star_graph(5)
        assert _max_degree_vertex(graph) == 0

    def test_max_degree_tie_by_repr(self):
        graph = nx.cycle_graph(4)
        assert _max_degree_vertex(graph) == 3  # all degree 2; max repr

    def test_analytic_rounds_monotone_in_backend(self):
        graph = nx.complete_graph(8)
        lb = _analytic_gather_rounds(graph, "load_balancing")
        walks = _analytic_gather_rounds(graph, "walks")
        assert lb >= walks  # extra log factor in Lemma 2.2

    def test_analytic_rounds_bigger_for_worse_conductance(self):
        good = _analytic_gather_rounds(nx.complete_graph(10), "walks")
        bad = _analytic_gather_rounds(nx.path_graph(10), "walks")
        assert bad > good

    def test_diameter_estimate_path(self):
        graph = nx.path_graph(10)
        clustering = Clustering({v: 0 for v in graph.nodes})
        assert _max_cluster_diameter_estimate(graph, clustering) == 9

    def test_diameter_estimate_disconnected_cluster(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2])
        graph.add_edge(0, 1)
        clustering = Clustering({0: 0, 1: 0, 2: 0})
        assert _max_cluster_diameter_estimate(graph, clustering) >= 3

    def test_diameter_estimate_first_sweep_decides_connectivity(
        self, monkeypatch
    ):
        # Cluster 0 is the path 0-1-2 (diameter 2); cluster 1 = {3, 4, 5, 6}
        # holds only the edges 3-4 and 5-6, so it counts its size, 4.  The
        # graph links the pieces through 2-3 and 2-5, outside the clusters.
        graph = nx.Graph([(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (2, 5)])
        clustering = Clustering({0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 1})
        assert cluster_diameter_estimate(graph.subgraph([0, 1, 2])) == 2
        assert cluster_diameter_estimate(graph.subgraph([3, 4, 5, 6])) == 4

        def no_connectivity_pass(graph):
            raise AssertionError("the first sweep already decides this")

        monkeypatch.setattr(nx, "is_connected", no_connectivity_pass)
        assert _max_cluster_diameter_estimate(graph, clustering) == 4
        only_path = Clustering({0: 0, 1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4})
        assert _max_cluster_diameter_estimate(graph, only_path) == 2

    def test_diameter_estimate_singletons_zero(self):
        graph = nx.path_graph(3)
        clustering = Clustering({v: v for v in graph.nodes})
        assert _max_cluster_diameter_estimate(graph, clustering) == 0


class TestOverlapHelpers:
    def test_mutable_cluster_degree(self):
        cluster = _MutableCluster(
            members={0, 1},
            nodes={0, 1, 2},
            edges={frozenset((0, 1)), frozenset((1, 2))},
        )
        assert cluster.degree_in_subgraph(1) == 2
        assert cluster.degree_in_subgraph(0) == 1

    def test_freeze_roundtrip(self):
        cluster = _MutableCluster(
            members={0}, nodes={0, 1}, edges={frozenset((0, 1))}
        )
        frozen = cluster.freeze()
        sub = frozen.subgraph()
        assert sub.has_edge(0, 1)
        assert frozen.members == frozenset({0})

    def test_double_sweep_on_cycle(self):
        _, estimate = double_sweep(nx.cycle_graph(12))
        assert estimate == 6  # exact on even cycles

    def test_double_sweep_trivial(self):
        g = nx.Graph()
        g.add_node(0)
        assert double_sweep(g) == (0, 0)


class TestGatherResult:
    def test_fraction_empty(self):
        assert GatherResult(total_messages=0).delivered_fraction == 1.0

    def test_fraction_partial(self):
        result = GatherResult(total_messages=4)
        result.delivered = {("a", 0), ("a", 1)}
        assert result.delivered_fraction == 0.5


class TestGraphFingerprint:
    """perfbench digests its workload inputs with ``graph_fingerprint``,
    so it must name graph content: equal for copies, different for any
    change to vertices, edges, attributes or insertion order."""

    def _graph(self):
        graph = grid_graph(3, 3)
        nx.set_node_attributes(graph, {v: i for i, v in enumerate(graph)},
                               "label")
        return graph

    def test_equal_for_pickle_round_trip_and_copy(self):
        graph = self._graph()
        digest = graph_fingerprint(graph)
        assert graph_fingerprint(pickle.loads(pickle.dumps(graph))) == digest
        assert graph_fingerprint(graph.copy()) == digest

    def test_changes_when_an_edge_is_added(self):
        graph = self._graph()
        digest = graph_fingerprint(graph)
        graph.add_edge(0, 8)
        assert graph_fingerprint(graph) != digest

    def test_changes_when_a_node_attribute_changes(self):
        graph = self._graph()
        digest = graph_fingerprint(graph)
        graph.nodes[4]["label"] = -1
        assert graph_fingerprint(graph) != digest

    def test_changes_with_edge_insertion_order(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        forward, backward = nx.Graph(edges), nx.Graph(edges[::-1])
        assert nx.utils.edges_equal(forward.edges, backward.edges)
        assert graph_fingerprint(forward) != graph_fingerprint(backward)
