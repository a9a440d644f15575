"""Differential tests: the compiled-topology engine vs the seed executor.

``Network.run`` delegates to the active-set engine in
:mod:`repro.congest.runtime.scheduler`; ``Network._run_reference`` is
the retained seed loop.  For every classic
algorithm and a spread of graphs/seeds, both must produce byte-identical
outputs and identical ``NetworkMetrics`` counters.  Active-set edge cases
(all-halted first round, single vertex, disconnected graphs) and the
``run_many`` batch API are covered as well.
"""

from __future__ import annotations

import dataclasses
import random

import networkx as nx
import pytest

from repro.congest import (
    BandwidthExceededError,
    Broadcast,
    CompiledTopology,
    FaultPlan,
    Message,
    Network,
    NodeAlgorithm,
    Trial,
    run_many,
)
from repro.graphs import GraphStats
from repro.congest.classic import (
    ColumnarLubyMIS,
    LubyMISAlgorithm,
    ProposalMatchingAlgorithm,
    TrialColoringAlgorithm,
)
from repro.congest.algorithms import BFSTreeAlgorithm
from repro.graphs import random_planar_triangulation, triangulated_grid


def run_both(graph, make_algorithm, inputs=None, model="congest",
             max_rounds=10_000):
    """Run the engine and the reference executor; assert identical results."""
    engine_net = Network(graph, model=model)
    engine_out = engine_net.run(
        make_algorithm(), max_rounds=max_rounds, inputs=inputs
    )
    reference_net = Network(graph, model=model)
    reference_out = reference_net._run_reference(
        make_algorithm(), max_rounds=max_rounds, inputs=inputs
    )
    assert engine_out == reference_out
    assert list(engine_out) == list(reference_out)  # same vertex order
    assert engine_net.metrics == reference_net.metrics
    return engine_out, engine_net.metrics


def seeded_inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


GRAPHS = {
    "path": lambda: nx.path_graph(17),
    "cycle": lambda: nx.cycle_graph(12),
    "star": lambda: nx.star_graph(9),
    "grid": lambda: triangulated_grid(4, 5),
    "planar": lambda: random_planar_triangulation(30, seed=7),
    "disconnected": lambda: nx.disjoint_union(
        nx.path_graph(6), nx.cycle_graph(5)
    ),
}


class TestDifferentialClassic:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_luby_mis_identical(self, name, seed):
        graph = GRAPHS[name]()
        n = graph.number_of_nodes()
        horizon = 20 * max(4, n.bit_length() ** 2)
        run_both(
            graph,
            lambda: LubyMISAlgorithm(horizon),
            inputs=seeded_inputs(graph, seed),
            max_rounds=horizon + 2,
        )

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matching_identical(self, name, seed):
        graph = GRAPHS[name]()
        n = graph.number_of_nodes()
        horizon = 40 * max(4, n.bit_length() ** 2)
        run_both(
            graph,
            lambda: ProposalMatchingAlgorithm(horizon),
            inputs=seeded_inputs(graph, seed),
            max_rounds=horizon + 2,
        )

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 5])
    def test_coloring_identical(self, name, seed):
        graph = GRAPHS[name]()
        n = graph.number_of_nodes()
        delta = max((d for _, d in graph.degree), default=0)
        horizon = 40 * max(4, n.bit_length() ** 2)
        run_both(
            graph,
            lambda: TrialColoringAlgorithm(delta + 1, horizon),
            inputs=seeded_inputs(graph, seed),
            max_rounds=horizon + 2,
        )

    @pytest.mark.parametrize("name", ["path", "grid", "planar", "star"])
    def test_bfs_identical(self, name):
        graph = GRAPHS[name]()
        root = next(iter(graph.nodes))
        horizon = graph.number_of_nodes() + 4
        run_both(
            graph,
            lambda: BFSTreeAlgorithm(root, horizon),
            max_rounds=horizon + 2,
        )


class HaltImmediately(NodeAlgorithm):
    """Halts during initialize: the first round must never execute."""

    def initialize(self, ctx):
        self.halt()

    def on_round(self, ctx, inbox):  # pragma: no cover - must not run
        raise AssertionError("stepped a halted node")

    def output(self):
        return "done"


class CountRounds(NodeAlgorithm):
    def __init__(self, rounds=3):
        super().__init__()
        self.rounds = rounds
        self.seen = 0

    def spawn(self):
        return CountRounds(self.rounds)

    def on_round(self, ctx, inbox):
        self.seen += 1
        if self.seen >= self.rounds:
            self.halt()
        return {}

    def output(self):
        return self.seen


class StaggeredHalt(NodeAlgorithm):
    """Node v halts after (v mod 5) + 1 rounds — exercises a shrinking
    active set with messages still flowing to already-halted nodes."""

    def initialize(self, ctx):
        self.limit = (hash(ctx.node) % 5) + 1
        self.seen_messages = 0

    def on_round(self, ctx, inbox):
        self.seen_messages += len(inbox)
        if ctx.round_number >= self.limit:
            self.halt()
        ping = Message(1)
        return {u: ping for u in ctx.neighbors}

    def output(self):
        return self.seen_messages


class TestActiveSetEdgeCases:
    def test_all_halted_first_round(self):
        graph = nx.path_graph(5)
        engine_net = Network(graph)
        out = engine_net.run(HaltImmediately())
        assert out == {v: "done" for v in graph.nodes}
        assert engine_net.metrics.rounds == 0
        reference_net = Network(graph)
        ref = reference_net._run_reference(HaltImmediately())
        assert ref == out
        assert reference_net.metrics.rounds == 0

    def test_single_vertex(self):
        graph = nx.Graph()
        graph.add_node("only")
        out, metrics = run_both(graph, CountRounds)
        assert out == {"only": 3}
        assert metrics.rounds == 3
        assert metrics.messages == 0

    def test_disconnected_components_halt_independently(self):
        graph = nx.disjoint_union(nx.path_graph(4), nx.path_graph(3))
        run_both(graph, CountRounds)

    def test_staggered_halting_matches_reference(self):
        graph = triangulated_grid(4, 4)
        run_both(graph, StaggeredHalt)

    def test_non_halting_raises_same_error(self):
        class NeverHalts(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                return {}

        graph = nx.path_graph(3)
        with pytest.raises(RuntimeError, match="did not halt within 7"):
            Network(graph).run(NeverHalts(), max_rounds=7)
        with pytest.raises(RuntimeError, match="did not halt within 7"):
            Network(graph)._run_reference(NeverHalts(), max_rounds=7)

    def test_round_metric_on_max_rounds_matches(self):
        class NeverHalts(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                return {}

        engine_net = Network(nx.path_graph(3))
        with pytest.raises(RuntimeError):
            engine_net.run(NeverHalts(), max_rounds=4)
        reference_net = Network(nx.path_graph(3))
        with pytest.raises(RuntimeError):
            reference_net._run_reference(NeverHalts(), max_rounds=4)
        assert engine_net.metrics.rounds == reference_net.metrics.rounds == 4


class TestEngineValidation:
    def test_non_neighbor_send_raises(self):
        class Stranger(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                if ctx.node == 0:
                    return {99: Message(1)}
                return {}

        graph = nx.path_graph(3)
        graph.add_node(99)
        with pytest.raises(ValueError, match="non-neighbor"):
            Network(graph).run(Stranger())

    def test_bandwidth_enforced_via_engine(self):
        class TooBig(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                big = Message("x" * 10_000)
                return {u: big for u in ctx.neighbors}

        with pytest.raises(BandwidthExceededError):
            Network(nx.path_graph(4), model="congest").run(TooBig())
        Network(nx.path_graph(4), model="local").run(TooBig())

    def test_non_message_rejected(self):
        class Bad(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                return {u: "raw" for u in ctx.neighbors}

        with pytest.raises(TypeError):
            Network(nx.path_graph(2)).run(Bad())


class MixedOutboxAlgorithm(NodeAlgorithm):
    """Alternates between broadcast and unicast emission so one round can
    interleave both delivery paths; gossip payload is the round parity."""

    def on_round(self, ctx, inbox):
        if ctx.round_number >= 4:
            self.halt()
            return {}
        self.seen = getattr(self, "seen", 0) + len(inbox)
        if not ctx.neighbors:
            return {}
        if (ctx.round_number + hash(ctx.node)) % 2 == 0:
            return ctx.broadcast(Message((0, ctx.round_number)))
        return {ctx.neighbors[0]: Message((1, ctx.round_number))}

    def output(self):
        return getattr(self, "seen", 0)


class SubsetBroadcaster(NodeAlgorithm):
    """Broadcasts to a strict neighbour subset (every other neighbour)."""

    def on_round(self, ctx, inbox):
        if ctx.round_number >= 3:
            self.halt()
            return {}
        self.seen = getattr(self, "seen", 0) + len(inbox)
        return Broadcast(Message(7), ctx.neighbors[::2])

    def output(self):
        return getattr(self, "seen", 0)


class TestBroadcastProtocol:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_mixed_outboxes_match_reference(self, name):
        run_both(GRAPHS[name](), MixedOutboxAlgorithm)

    @pytest.mark.parametrize("name", ["path", "grid", "planar", "star"])
    def test_subset_broadcast_matches_reference(self, name):
        run_both(GRAPHS[name](), SubsetBroadcaster)

    def test_ctx_broadcast_builds_sentinel(self):
        from repro.congest import NodeContext

        ctx = NodeContext(node=0, neighbors=(1, 2), n=3)
        out = ctx.broadcast(Message(1))
        assert isinstance(out, Broadcast)
        assert out.to is None
        assert out.expand(ctx.neighbors) == {1: Message(1), 2: Message(1)}

    def test_subset_with_duplicates_counts_once(self):
        class DupBroadcaster(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                if not ctx.neighbors:
                    return {}
                u = ctx.neighbors[0]
                return Broadcast(Message(3), [u, u, u])

        graph = nx.path_graph(4)
        out, metrics = run_both(graph, DupBroadcaster)
        # Each sender broadcast to exactly one distinct receiver.
        assert metrics.messages == graph.number_of_nodes()

    def test_broadcast_to_non_neighbor_raises(self):
        class Stranger(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                if ctx.node == 0:
                    return Broadcast(Message(1), [99])
                return {}

        graph = nx.path_graph(3)
        graph.add_node(99)
        with pytest.raises(ValueError, match="non-neighbor"):
            Network(graph).run(Stranger())
        with pytest.raises(ValueError, match="non-neighbor"):
            Network(graph)._run_reference(Stranger())

    def test_partially_invalid_broadcast_counts_valid_prefix(self):
        """A broadcast whose second receiver is invalid must leave the
        first (already validated) copy in the metrics, exactly like the
        reference executor's per-receiver counting."""

        class Mixed(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                if ctx.node == 0:
                    return Broadcast(Message(1), [1, 99])
                return {}

        def build():
            graph = nx.path_graph(3)
            graph.add_node(99)
            return graph

        engine_net = Network(build())
        with pytest.raises(ValueError, match="non-neighbor"):
            engine_net.run(Mixed())
        reference_net = Network(build())
        with pytest.raises(ValueError, match="non-neighbor"):
            reference_net._run_reference(Mixed())
        assert engine_net.metrics == reference_net.metrics
        assert engine_net.metrics.messages == 1

    def test_broadcast_bandwidth_enforced(self):
        class TooBig(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                return Broadcast(Message("x" * 10_000))

        with pytest.raises(BandwidthExceededError):
            Network(nx.path_graph(4), model="congest").run(TooBig())
        with pytest.raises(BandwidthExceededError):
            Network(nx.path_graph(4), model="congest")._run_reference(TooBig())
        Network(nx.path_graph(4), model="local").run(TooBig())

    def test_broadcast_bandwidth_error_messages_identical(self):
        class TooBig(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                return Broadcast(Message("x" * 10_000))

        with pytest.raises(BandwidthExceededError) as engine_error:
            Network(nx.path_graph(4)).run(TooBig())
        with pytest.raises(BandwidthExceededError) as reference_error:
            Network(nx.path_graph(4))._run_reference(TooBig())
        assert str(engine_error.value) == str(reference_error.value)

    def test_broadcast_non_message_rejected(self):
        class Bad(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                return Broadcast("raw")

        with pytest.raises(TypeError):
            Network(nx.path_graph(2)).run(Bad())
        with pytest.raises(TypeError):
            Network(nx.path_graph(2))._run_reference(Bad())

    def test_broadcast_message_subclass_accepted(self):
        class Tagged(Message):
            pass

        class Subclassed(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.seen = getattr(self, "seen", 0) + len(inbox)
                if ctx.round_number >= 2:
                    self.halt()
                    return {}
                return Broadcast(Tagged(5))

            def output(self):
                return getattr(self, "seen", 0)

        run_both(nx.cycle_graph(6), Subclassed)

    def test_empty_subset_broadcast_is_noop(self):
        class EmptyCast(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                return Broadcast(Message(1), ())

            def output(self):
                return "ok"

        out, metrics = run_both(nx.path_graph(3), EmptyCast)
        assert metrics.messages == 0

    def test_degree_zero_full_broadcast_is_noop(self):
        class LonelyCast(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                return Broadcast(Message(1))

            def output(self):
                return "ok"

        graph = nx.Graph()
        graph.add_nodes_from(["a", "b"])
        out, metrics = run_both(graph, LonelyCast)
        assert metrics.messages == 0

    def test_full_broadcast_metrics_count_every_edge(self):
        graph = nx.complete_graph(7)

        class OneShot(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                self.halt()
                return Broadcast(Message(1))

        out, metrics = run_both(graph, OneShot)
        assert metrics.messages == 7 * 6
        assert metrics.total_bits == 7 * 6 * 1


class TestUnifiedGraphCache:
    def test_compiled_topology_memoized(self):
        graph = triangulated_grid(4, 4)
        assert CompiledTopology.for_graph(graph) is CompiledTopology.for_graph(
            graph
        )

    def test_degree_change_invalidates(self):
        graph = nx.path_graph(6)
        before = CompiledTopology.for_graph(graph)
        graph.add_edge(0, 5)
        after = CompiledTopology.for_graph(graph)
        assert after is not before
        assert after.neighbor_sets[0] == {1, 5}

    def test_invalidate_clears_all_registered_caches(self):
        graph = nx.cycle_graph(8)
        topology = CompiledTopology.for_graph(graph)
        stats = GraphStats.for_graph(graph)
        # A degree-preserving rewire is invisible to the staleness probe...
        CompiledTopology.invalidate(graph)
        # ...but one invalidate call must drop *both* caches.
        assert CompiledTopology.for_graph(graph) is not topology
        assert GraphStats.for_graph(graph) is not stats

    def test_stats_invalidate_also_clears_topology(self):
        graph = nx.cycle_graph(8)
        topology = CompiledTopology.for_graph(graph)
        GraphStats.invalidate(graph)
        assert CompiledTopology.for_graph(graph) is not topology


class TestCompiledTopology:
    def test_dense_indexing_roundtrip(self):
        graph = triangulated_grid(3, 4)
        topology = CompiledTopology(graph)
        assert topology.n == graph.number_of_nodes()
        for i, v in enumerate(topology.vertices):
            assert topology.index_of[v] == i
            assert topology.neighbor_sets[i] == set(graph.neighbors(v))
            assert topology.degrees[i] == graph.degree[v]
            csr_nbrs = {
                topology.vertices[j]
                for j in topology.indices[
                    topology.indptr[i]: topology.indptr[i + 1]
                ]
            }
            assert csr_nbrs == set(graph.neighbors(v))

    def test_neighbor_tuples_sorted_like_seed(self):
        graph = random_planar_triangulation(20, seed=3)
        topology = CompiledTopology(graph)
        for i, v in enumerate(topology.vertices):
            assert topology.neighbor_tuples[i] == tuple(
                sorted(graph.neighbors(v), key=repr)
            )

    def test_csr_is_numpy_and_index_tuples_match(self):
        import numpy as np

        graph = random_planar_triangulation(25, seed=4)
        topology = CompiledTopology(graph)
        assert isinstance(topology.indptr, np.ndarray)
        assert isinstance(topology.indices, np.ndarray)
        assert topology.indptr.dtype == np.int64
        for i in range(topology.n):
            start, stop = topology.indptr[i], topology.indptr[i + 1]
            assert topology.neighbor_index_tuples[i] == tuple(
                topology.indices[start:stop].tolist()
            )
            assert topology.degrees[i] == stop - start


class TestRunMany:
    def _trials(self, count=4):
        graph = random_planar_triangulation(24, seed=9)
        n = graph.number_of_nodes()
        horizon = 20 * max(4, n.bit_length() ** 2)
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, seed),
                  max_rounds=horizon + 2)
            for seed in range(count)
        ]
        return trials, horizon

    def test_serial_matches_individual_runs(self):
        trials, horizon = self._trials()
        batch = run_many(LubyMISAlgorithm(horizon), trials, processes=1)
        for trial, (outputs, metrics) in zip(trials, batch):
            net = Network(trial.graph)
            expected = net.run(
                LubyMISAlgorithm(horizon),
                max_rounds=trial.max_rounds,
                inputs=trial.inputs,
            )
            assert outputs == expected
            assert metrics == net.metrics

    @pytest.mark.parametrize("sweep", ["object", "columnar-faults"])
    def test_parallel_matches_serial(self, sweep):
        trials, horizon = self._trials()
        algorithm, plane = LubyMISAlgorithm(horizon), "auto"
        if sweep == "columnar-faults":
            # Per-trial reseeded faults on the columnar plane: the pool
            # must ship each trial's own plan and replay its fault fates.
            plan = FaultPlan(drop=0.05, delay=2)
            trials = [
                dataclasses.replace(trial, faults=plan.reseed(plan.seed + i))
                for i, trial in enumerate(trials)
            ]
            algorithm, plane = ColumnarLubyMIS(horizon), "columnar"
        serial = run_many(algorithm, trials, processes=1, plane=plane)
        parallel = run_many(algorithm, trials, processes=2, plane=plane)
        assert len(serial) == len(parallel) == len(trials)
        for (out_s, met_s), (out_p, met_p) in zip(serial, parallel):
            assert out_s == out_p
            assert met_s == met_p
            assert met_s == met_p  # fault tallies included
        if sweep == "columnar-faults":
            assert sum(met.dropped + met.delayed for _, met in serial) > 0

    def test_accepts_bare_graphs_and_pairs(self):
        graph = nx.path_graph(6)
        results = run_many(CountRounds(), [graph, (graph, None)], processes=1)
        assert len(results) == 2
        assert results[0][0] == results[1][0]
