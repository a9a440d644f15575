"""Tests for the derandomized walk router (Lemmas 2.3–2.6)."""

import hashlib

import networkx as nx
import numpy as np
import pytest

from repro.gathering import (
    KWiseHash,
    WalkSchedule,
    broadcast_schedule,
    build_regularized_split,
    find_shared_walk_schedule,
    find_walk_schedule,
    gather_with_random_walks,
    simulate_walks,
)
from repro.gathering import kwise
from repro.gathering.kwise import FIELD_LIMIT, VECTOR_PRIME
from repro.graphs import (
    constant_degree_expander,
    random_planar_triangulation,
    triangulated_grid,
)


class TestRegularizedSplit:
    def test_uniform_even_degree(self):
        regular = build_regularized_split(nx.petersen_graph())
        d = regular.degree
        assert d % 2 == 0
        for slots in regular.slots.values():
            assert len(slots) == d

    def test_slots_cover_real_neighbors(self):
        g = nx.cycle_graph(6)
        regular = build_regularized_split(g)
        sg = regular.split.split
        for u, slots in regular.slots.items():
            real = set(sg.neighbors(u))
            non_loop = {s for s in slots if s != u}
            assert non_loop == real

    def test_index_is_bijective(self):
        regular = build_regularized_split(nx.complete_graph(5))
        values = list(regular.index.values())
        assert sorted(values) == list(range(len(values)))


class TestSimulateWalks:
    def _setup(self, n=8, r=4, steps=20, seed=0):
        g = nx.complete_graph(n)
        regular = build_regularized_split(g)
        origins = []
        for v in g.nodes:
            if v == 0:
                continue
            for i in range(g.degree[v]):
                origins.append(((v, i), (v, i)))
        h = KWiseHash(k=8, range_size=2 * regular.degree, seed=seed,
                      prime=VECTOR_PRIME)
        return g, regular, origins, h

    def test_walk_conservation_without_congestion(self):
        g, regular, origins, h = self._setup()
        outcome = simulate_walks(regular, origins, h, walks_per_message=3,
                                 steps=10, congestion_cap=10**9)
        total = sum(len(finals) for finals in outcome["final"].values())
        assert total == 3 * len(origins)
        assert outcome["discarded"] == 0

    def test_congestion_cap_discards(self):
        g, regular, origins, h = self._setup()
        outcome = simulate_walks(regular, origins, h, walks_per_message=4,
                                 steps=10, congestion_cap=1)
        assert outcome["discarded"] > 0

    def test_max_load_monotone_in_cap(self):
        g, regular, origins, h = self._setup()
        free = simulate_walks(regular, origins, h, 4, 10, congestion_cap=10**9)
        assert free["max_load"] >= 1

    def test_deterministic(self):
        g, regular, origins, h = self._setup()
        a = simulate_walks(regular, origins, h, 3, 15)
        b = simulate_walks(regular, origins, h, 3, 15)
        assert a["final"] == b["final"]

    def test_positions_are_split_vertices(self):
        g, regular, origins, h = self._setup()
        outcome = simulate_walks(regular, origins, h, 2, 5)
        split_nodes = set(regular.split.split.nodes)
        for finals in outcome["final"].values():
            assert all(p in split_nodes for p in finals)


    @pytest.mark.parametrize("range_factor,cap", [(1, None), (1, 2), (3, 3)])
    def test_matches_per_step_reference(self, range_factor, cap):
        # range_factor > 1 is the shared-schedule case: decisions beyond
        # 2d stay put.
        g = nx.petersen_graph()
        regular = build_regularized_split(g)
        origins = [((v, i), (v, i)) for v in g.nodes if v
                   for i in range(g.degree[v])]
        h = KWiseHash(k=6, range_size=2 * range_factor * regular.degree,
                      seed=4, prime=VECTOR_PRIME)
        got = simulate_walks(regular, origins, h, 3, 25, congestion_cap=cap)
        assert got == _reference_walks(regular, origins, h, 3, 25, cap)

    @pytest.mark.parametrize("cap,first_discard", [(6, 4), (7, 8)])
    def test_cap_binding_inside_a_decision_block(
        self, monkeypatch, cap, first_discard
    ):
        # Walk chunks of 3 and step blocks of 5: the first discards land
        # inside a block (steps 1-5, 6-10, 11-12), not on its edge.
        monkeypatch.setattr(kwise, "_CHUNK_WALKS", 3)
        monkeypatch.setattr(kwise, "_BLOCK_STEPS", 5)
        g = nx.petersen_graph()
        regular = build_regularized_split(g)
        origins = [((v, i), (v, i)) for v in g.nodes if v
                   for i in range(g.degree[v])]
        h = KWiseHash(k=6, range_size=2 * regular.degree, seed=0,
                      prime=VECTOR_PRIME)
        assert [
            _reference_walks(regular, origins, h, 3, s, cap)["discarded"] > 0
            for s in (first_discard - 1, first_discard)
        ] == [False, True]
        got = simulate_walks(regular, origins, h, 3, 12, congestion_cap=cap)
        assert got == _reference_walks(regular, origins, h, 3, 12, cap)

    def test_walk_ids_past_key_packing_raise(self):
        g, regular, origins, h = self._setup(n=3)
        with pytest.raises(ValueError, match=r"walk ids must be < 2\^20"):
            simulate_walks(regular, origins[:1], h,
                           walks_per_message=FIELD_LIMIT + 1, steps=2)


def _reference_walks(regular, origins, h, r, steps, cap):
    """The walk simulation as a per-step loop over hash_triples_vectorized
    with an explicit alive mask."""
    d = regular.degree
    cap = 3 * r if cap is None else cap
    vertex_list = sorted(regular.slots, key=repr)
    vertex_index = {u: i for i, u in enumerate(vertex_list)}
    n = len(vertex_list)
    slot_table = np.empty((n, d), dtype=np.int64)
    for u, slots in regular.slots.items():
        slot_table[vertex_index[u]] = [vertex_index[s] for s in slots]
    positions = np.repeat([vertex_index[s] for _, s in origins], r)
    origin_idx = np.repeat([regular.index[s] for _, s in origins], r)
    walk_idx = np.arange(len(positions))
    alive = np.ones(len(positions), dtype=bool)
    discarded = max_load = 0
    for step in range(1, steps + 1):
        decisions = h.hash_triples_vectorized(step, walk_idx, origin_idx)
        move = (decisions < d) & alive
        positions[move] = slot_table[
            positions[move], decisions[move].astype(np.int64)
        ]
        counts = np.bincount(positions[alive], minlength=n)
        max_load = max(max_load, int(counts.max()))
        if counts.max() > cap:
            victims = alive & (counts > cap)[positions]
            discarded += int(victims.sum())
            alive &= ~victims
    final = {}
    for i, (message_id, _) in enumerate(origins):
        survivors = [vertex_list[positions[j]]
                     for j in range(i * r, (i + 1) * r) if alive[j]]
        if survivors:
            final[message_id] = survivors
    return {"final": final, "discarded": discarded, "max_load": max_load}


class TestFindSchedule:
    def test_golden_schedule_on_triangulated_grid(self):
        # Pinned before the step stream was blocked and the walk table
        # flattened: the seed search must find the same schedule and
        # deliver the same messages, byte for byte.
        schedule, delivered = find_walk_schedule(triangulated_grid(6, 6), 0)
        assert (schedule.seed, schedule.walks_per_message, schedule.steps,
                schedule.degree, schedule.k) == (0, 124, 257, 6, 16)
        assert schedule.good_fraction == 136 / 167
        assert len(delivered) == 139
        assert hashlib.sha256(repr(sorted(delivered)).encode()).hexdigest() == (
            "6effcb93e5fc49b3553b73a1bc5fba6ce30b114e2f5b3578ca45b592d95c0112"
        )

    @pytest.mark.parametrize("f", [0.9, 0, -0.5])
    @pytest.mark.parametrize("search", [
        find_walk_schedule,
        lambda g, sink, f: find_shared_walk_schedule([g], [sink], f=f),
    ], ids=["single", "shared"])
    def test_invalid_f(self, search, f):
        with pytest.raises(ValueError, match="f must lie"):
            search(triangulated_grid(4, 4), 0, f=f)

    def test_schedule_on_complete_graph(self):
        schedule, delivered = find_walk_schedule(
            nx.complete_graph(10), 0, f=0.25, phi_hint=0.4
        )
        assert schedule.good_fraction >= 0.75
        assert schedule.execution_rounds() == (
            3 * schedule.walks_per_message * schedule.steps
        )
        assert schedule.schedule_bits > 0

    def test_schedule_on_expander(self):
        g = constant_degree_expander(36)
        sink = max(g.nodes, key=lambda v: g.degree[v])
        schedule, delivered = find_walk_schedule(g, sink, f=0.3, phi_hint=0.15)
        assert len(delivered) / (2 * g.number_of_edges()) >= 0.7

    def test_deterministic_seed_choice(self):
        g = nx.complete_graph(9)
        a, _ = find_walk_schedule(g, 0, f=0.25, phi_hint=0.4)
        b, _ = find_walk_schedule(g, 0, f=0.25, phi_hint=0.4)
        assert a.seed == b.seed

    def test_edgeless(self):
        g = nx.empty_graph(3)
        schedule, delivered = find_walk_schedule(g, 0, f=0.2)
        assert delivered == set()

    def test_impossible_parameters_raise(self):
        g = nx.path_graph(12)  # terrible conductance
        with pytest.raises(RuntimeError, match="no seed"):
            find_walk_schedule(g, 0, f=0.01, phi_hint=1.0, constant_c=0.01,
                               max_seeds=2)

    def test_gather_wrapper(self):
        delivered, rounds, schedule = gather_with_random_walks(
            nx.complete_graph(8), 0, f=0.3, phi_hint=0.4
        )
        assert rounds == schedule.execution_rounds()
        assert len(delivered) >= 0.7 * 2 * nx.complete_graph(8).number_of_edges()


class TestSharedSchedule:
    def test_two_disjoint_cliques(self):
        g1 = nx.complete_graph(8)
        g2 = nx.relabel_nodes(nx.complete_graph(8), {i: i + 100 for i in range(8)})
        schedule, delivered = find_shared_walk_schedule(
            [g1, g2], [0, 100], f=0.3, phi_hint=0.4
        )
        total = 2 * (g1.number_of_edges() + g2.number_of_edges())
        assert sum(len(d) for d in delivered) >= 0.7 * total

    def test_single_seed_shared(self):
        g1 = nx.complete_graph(7)
        g2 = nx.relabel_nodes(nx.complete_graph(9), {i: i + 50 for i in range(9)})
        schedule, _ = find_shared_walk_schedule([g1, g2], [0, 50], f=0.3,
                                                phi_hint=0.4)
        assert schedule.seed >= 0  # one shared seed for both graphs

    def test_empty_subgraph_allowed(self):
        g1 = nx.complete_graph(6)
        g2 = nx.empty_graph(3)
        schedule, delivered = find_shared_walk_schedule(
            [g1, g2], [0, 0], f=0.3, phi_hint=0.4
        )
        assert delivered[1] == set()

    @pytest.mark.parametrize("graph, phi_hint", [
        (triangulated_grid(5, 5), None),
        (random_planar_triangulation(40, seed=2), 0.1),
        (nx.cycle_graph(12), 0.4),  # the search runs to seed 3
    ], ids=["tri-grid", "planar", "cycle"])
    def test_one_subgraph_is_the_single_search(self, graph, phi_hint):
        single, delivered = find_walk_schedule(
            graph, 0, f=0.3, phi_hint=phi_hint
        )
        shared, (shared_delivered,) = find_shared_walk_schedule(
            [graph], [0], f=0.3, phi_hint=phi_hint
        )
        assert shared == single
        assert shared_delivered == delivered

    def test_golden_three_subgraphs_one_edgeless(self):
        # Pinned before the single and shared searches were merged.
        grid = triangulated_grid(4, 4)
        cycle = nx.relabel_nodes(
            nx.cycle_graph(10), {i: ("c", i) for i in range(10)}
        )
        edgeless = nx.empty_graph([("e", 0), ("e", 1)])
        schedule, delivered = find_shared_walk_schedule(
            [grid, cycle, edgeless], [0, ("c", 0), ("e", 0)],
            f=0.2, phi_hint=0.4,
        )
        assert schedule == WalkSchedule(
            seed=1, walks_per_message=55, steps=53, degree=6, k=16,
            good_fraction=67 / 81,
        )
        digests = [
            hashlib.sha256(repr(sorted(d, key=repr)).encode()).hexdigest()
            for d in delivered[:2]
        ]
        assert [len(d) for d in delivered] == [56, 16, 0]
        assert digests == [
            "ad7a8b9b9e8e4059ccb94bd70805f5d8efce620ee9f599fcd02ca1ca5c58848d",
            "3a68b609111621bf2b9a56c3c173cc67366a90528ce8482c82c15f83e38b6c72",
        ]
        assert delivered[2] == set()

    def test_mismatched_sinks_rejected(self):
        with pytest.raises(ValueError):
            find_shared_walk_schedule([nx.complete_graph(4)], [0, 1])


class TestScheduleBroadcast:
    def test_schedule_reaches_every_vertex(self):
        graph = nx.complete_graph(10)
        schedule, _ = find_walk_schedule(graph, 0, f=0.3, phi_hint=0.4)
        outputs, metrics = broadcast_schedule(graph, 0, schedule)
        expected = (
            schedule.seed,
            schedule.walks_per_message,
            schedule.steps,
            schedule.degree,
            schedule.k,
        )
        assert all(received == expected for received in outputs.values())
        assert metrics.rounds >= 1
        assert metrics.messages > 0

    def test_gather_adds_measured_broadcast_rounds(self):
        graph = nx.complete_graph(10)
        delivered, base_rounds, schedule = gather_with_random_walks(
            graph, 0, f=0.3, phi_hint=0.4
        )
        delivered2, total_rounds, schedule2 = gather_with_random_walks(
            graph, 0, f=0.3, phi_hint=0.4, simulate_schedule_broadcast=True
        )
        assert delivered2 == delivered
        assert schedule2.seed == schedule.seed
        assert total_rounds > base_rounds
