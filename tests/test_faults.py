"""Unit tests for the fault-injection runtime (``runtime/faults.py``)
and the guarantee validators (``congest/validators.py``).

The cross-plane contracts — zero-fault byte-identity and faulty
differentials on every registered plane, grid-vs-single equivalence —
live in ``tests/test_runtime.py`` next to the coverage-enforcement
machinery.  This file covers the layer's own semantics: plan parsing and
validation, counter-based determinism, fate bookkeeping, and the
validators' live-vertex restriction.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.congest import (
    FaultPlan,
    Network,
    check_bfs_tree,
    check_coloring,
    check_decomposition,
    check_mis,
)
from repro.congest.classic import ColumnarLubyMIS, LubyMISAlgorithm
from repro.congest.runtime.compile import GridTopology, compile_topology
from repro.congest.runtime.faults import FaultState


def path_state(plan, n=5):
    return FaultState.for_single(plan, compile_topology(nx.path_graph(n)))


# ---------------------------------------------------------------------------
# FaultPlan: validation, parsing, reseeding
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_zero_plan_is_inactive(self):
        assert not FaultPlan().active
        assert FaultPlan(seed=99).active is False  # seed alone is no fault

    @pytest.mark.parametrize("knob", ["crash", "drop", "dup"])
    def test_each_probability_knob_activates(self, knob):
        assert FaultPlan(**{knob: 0.5}).active

    def test_delay_activates(self):
        assert FaultPlan(delay=1).active

    @pytest.mark.parametrize("knob", ["crash", "drop", "dup"])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_validated(self, knob, value):
        with pytest.raises(ValueError, match="outside"):
            FaultPlan(**{knob: value})

    def test_delay_and_seed_validated(self):
        with pytest.raises(ValueError, match="delay"):
            FaultPlan(delay=-1)
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=-3)

    def test_parse_round_trip(self):
        plan = FaultPlan.parse("crash=0.01, drop=0.05, dup=0.1, delay=2, seed=7")
        assert plan == FaultPlan(seed=7, crash=0.01, drop=0.05, dup=0.1,
                                 delay=2)

    def test_parse_rejects_unknown_and_malformed(self):
        with pytest.raises(ValueError, match="unknown fault knob 'jitter'"):
            FaultPlan.parse("jitter=3")
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.parse("drop")

    def test_corrupt_knob_parses_and_activates(self):
        plan = FaultPlan.parse("corrupt=0.25, seed=3")
        assert plan == FaultPlan(seed=3, corrupt=0.25)
        assert plan.active
        with pytest.raises(ValueError, match="outside"):
            FaultPlan(corrupt=1.5)

    def test_target_parses_and_validates(self):
        assert FaultPlan.parse("drop=0.3,target=degree:0.5").target == (
            "degree:0.5"
        )
        assert FaultPlan(drop=0.1, target="cut").target == "cut"
        assert FaultPlan(drop=0.1, target="budget").reseed(4).target == (
            "budget"
        )
        with pytest.raises(ValueError, match="unknown fault target"):
            FaultPlan(drop=0.1, target="hub")
        with pytest.raises(ValueError, match="degree"):
            FaultPlan(drop=0.1, target="degree:0")
        with pytest.raises(ValueError, match="degree"):
            FaultPlan(drop=0.1, target="degree:nope")

    def test_parse_empty_entries_tolerated(self):
        assert FaultPlan.parse("drop=0.5,,") == FaultPlan(drop=0.5)

    def test_reseed_keeps_rates(self):
        plan = FaultPlan(seed=1, drop=0.3, delay=4)
        fresh = plan.reseed(9)
        assert fresh.seed == 9
        assert (fresh.drop, fresh.delay) == (plan.drop, plan.delay)


# ---------------------------------------------------------------------------
# FaultState: counter-based determinism and fate bookkeeping
# ---------------------------------------------------------------------------
class TestFaultStateSemantics:
    def test_decisions_deterministic_across_instances(self):
        plan = FaultPlan(seed=13, crash=0.2, drop=0.4, dup=0.3, delay=2)
        fresh = [(i, i + 1, f"m{i}") for i in range(4)]
        runs = []
        for _ in range(2):
            state = path_state(plan)
            eligible = np.ones(5, dtype=bool)
            crashed = state.crash_step(1, eligible).tolist()
            delivered = state.object_round(1, list(fresh))
            runs.append((crashed, delivered,
                         int(state.dropped[0]), int(state.delayed[0])))
        assert runs[0] == runs[1]

    def test_decisions_independent_of_emission_order(self):
        plan = FaultPlan(seed=5, drop=0.5)
        fresh = [(i, i + 1, f"m{i}") for i in range(4)]
        forward = path_state(plan).object_round(1, list(fresh))
        backward = path_state(plan).object_round(1, list(reversed(fresh)))
        # Same *set* of survivors: each message's fate is a pure function
        # of (seed, round, edge), not of its position in the round.
        assert sorted(map(repr, forward)) == sorted(map(repr, backward))

    def test_drop_everything(self):
        state = path_state(FaultPlan(drop=1.0))
        assert state.object_round(1, [(0, 1, "x"), (2, 1, "y")]) == []
        assert int(state.dropped[0]) == 2

    def test_duplicate_everything(self):
        state = path_state(FaultPlan(dup=1.0))
        out = state.object_round(1, [(0, 1, "x")])
        assert out == [(0, 1, "x"), (0, 1, "x")]
        assert int(state.duplicated[0]) == 1

    def test_delayed_copies_mature_in_order(self):
        # With drop=0 nothing vanishes: every send is delivered exactly
        # once across rounds, matured copies before fresh traffic.
        plan = FaultPlan(seed=3, delay=3)
        state = path_state(plan, n=8)
        sends = {1: [(i, i + 1, f"r1-{i}") for i in range(5)],
                 2: [(0, 1, "r2-0")]}
        delivered = []
        for round_number in range(1, 10):
            out = state.object_round(
                round_number, sends.get(round_number, [])
            )
            delivered.extend((round_number, item) for item in out)
        payloads = [item[2] for _, item in delivered]
        assert sorted(payloads) == sorted(
            p for batch in sends.values() for _, _, p in batch
        )
        # A delayed message never arrives before its send round, and the
        # delayed counter matches the copies that actually waited.
        arrival_of = {item[2]: r for r, item in delivered}
        late = [p for p, r in arrival_of.items()
                if r > (1 if p.startswith("r1") else 2)]
        assert int(state.delayed[0]) == len(late)

    def test_messages_to_crashed_vertices_are_dropped(self):
        state = path_state(FaultPlan(crash=1.0))
        eligible = np.zeros(5, dtype=bool)
        eligible[2] = True
        assert state.crash_step(1, eligible).tolist() == [2]
        assert state.object_round(1, [(1, 2, "x"), (3, 4, "y")]) == [
            (3, 4, "y")
        ]
        assert int(state.dropped[0]) == 1
        assert int(state.crashed_count[0]) == 1
        assert state.crashed_vertices(0) == (2,)

    def test_crash_draws_respect_eligibility(self):
        state = path_state(FaultPlan(crash=1.0))
        eligible = np.ones(5, dtype=bool)
        eligible[[0, 4]] = False
        assert state.crash_step(1, eligible).tolist() == [1, 2, 3]
        # Executors pass the still-running mask, so vertices crashed in
        # earlier rounds are never re-drawn (they halted on crash).
        still_running = np.zeros(5, dtype=bool)
        still_running[[0, 4]] = True
        assert state.crash_step(2, still_running).tolist() == [0, 4]
        assert int(state.crashed_count[0]) == 5
        assert state.crashed_vertices(0) == (1, 2, 3, 0, 4)


# ---------------------------------------------------------------------------
# Byzantine corruption and targeted adversaries
# ---------------------------------------------------------------------------
class TestCorruptionAndTargets:
    def test_corrupt_everything_flips_low_bits(self):
        state = path_state(FaultPlan(corrupt=1.0))
        out = state.object_round(1, [(0, 1, (4, True)), (2, 1, (7,))])
        assert out == [(0, 1, (5, False)), (2, 1, (6,))]
        assert int(state.corrupted[0]) == 2

    def test_corrupt_decided_before_drop(self):
        # A message both corrupted and dropped tallies on both counters:
        # the adversary corrupts in flight, the network then loses it.
        state = path_state(FaultPlan(corrupt=1.0, drop=1.0))
        assert state.object_round(1, [(0, 1, (3,))]) == []
        assert int(state.corrupted[0]) == 1
        assert int(state.dropped[0]) == 1

    def test_duplicated_copies_share_corrupted_payload(self):
        state = path_state(FaultPlan(corrupt=1.0, dup=1.0))
        out = state.object_round(1, [(0, 1, (8,))])
        assert out == [(0, 1, (9,)), (0, 1, (9,))]
        assert int(state.corrupted[0]) == 1  # one fresh corruption

    def test_degree_target_restricts_faults_to_top_vertices(self):
        # Path 0-1-2-3-4: the stable top-20% pick is vertex 1 (first of
        # the degree-2 tie).  Only edges incident to 1 see the drop.
        plan = FaultPlan(drop=1.0, target="degree:0.2")
        state = path_state(plan)
        out = state.object_round(
            1, [(0, 1, "hit"), (1, 2, "hit2"), (3, 4, "safe")]
        )
        assert out == [(3, 4, "safe")]
        # Crash eligibility narrows to the same targeted vertices.
        crash_state = path_state(FaultPlan(crash=1.0, target="degree:0.2"))
        eligible = np.ones(5, dtype=bool)
        assert crash_state.crash_step(1, eligible).tolist() == [1]

    def test_cut_target_hits_only_bridges(self):
        graph = nx.barbell_graph(3, 0)  # two triangles, bridge (2, 3)
        state = FaultState.for_single(
            FaultPlan(drop=1.0, target="cut"), compile_topology(graph)
        )
        out = state.object_round(
            1, [(0, 1, "intra"), (2, 3, "bridge"), (3, 2, "bridge-back")]
        )
        assert out == [(0, 1, "intra")]
        assert int(state.dropped[0]) == 2

    def test_budget_target_spends_on_busiest_senders(self):
        # Star hub 0 sends three messages, leaf 1 sends one; a 0.5 drop
        # budget (ceil(0.5 * 4) = 2) lands on the hub's two lowest-rank
        # edges, regardless of the Philox draws.
        graph = nx.star_graph(4)
        state = FaultState.for_single(
            FaultPlan(seed=3, drop=0.5, target="budget"),
            compile_topology(graph),
        )
        out = state.object_round(
            1,
            [(0, 1, "a"), (0, 2, "b"), (0, 3, "c"), (1, 0, "d")],
        )
        assert out == [(0, 3, "c"), (1, 0, "d")]
        assert int(state.dropped[0]) == 2

    def test_budget_zero_rate_is_inert(self):
        # target alone never makes a plan active, and a zero-rate budget
        # adversary delivers everything untouched.
        plan = FaultPlan(seed=5, target="budget")
        assert not plan.active
        state = path_state(FaultPlan(seed=5, drop=0.0, dup=1.0,
                                     target="budget"))
        fresh = [(0, 1, "x"), (1, 2, "y")]
        out = state.object_round(1, list(fresh))
        # dup budget: ceil(1.0 * 2) = 2 duplicates on both survivors.
        assert sorted(map(repr, out)) == sorted(
            map(repr, [(0, 1, "x"), (0, 1, "x"), (1, 2, "y"), (1, 2, "y")])
        )

    def test_budget_matches_across_planes_end_to_end(self):
        graph = nx.gnp_random_graph(14, 0.35, seed=4)
        rng = random.Random(2)
        inputs = {v: rng.getrandbits(30) for v in graph.nodes}
        plan = FaultPlan(seed=11, drop=0.3, corrupt=0.2, target="budget")
        results = {}
        for plane, cls in (("broadcast", LubyMISAlgorithm),
                           ("columnar", ColumnarLubyMIS)):
            net = Network(graph)
            outputs = net.run(cls(120), max_rounds=140, inputs=inputs,
                              plane=plane, faults=plan)
            results[plane] = (outputs, net.metrics)
        assert results["broadcast"] == results["columnar"]
        assert results["broadcast"][1].corrupted > 0


# ---------------------------------------------------------------------------
# The fate draws against their definition, and the edge-rank hand-off
# ---------------------------------------------------------------------------
_KNOBS = (("crash", 0.1), ("drop", 0.2), ("dup", 0.3), ("delay", 2),
          ("corrupt", 0.4))


def _odd_edge_graph(n):
    # m_b = 2·(undirected edges): a path of 512 has 1022 directed edges
    # and a 3- or 5-cycle 6 or 10, so edge slices are not all aligned
    # to Philox's four-word counter blocks.
    return nx.empty_graph(1) if n == 1 else (
        nx.cycle_graph(n) if n < 512 else nx.path_graph(n)
    )


class TestDrawsAndRanks:
    def test_live_slices_match_the_full_layout(self):
        blocks = []
        for size in (1, 3, 5, 512):
            topology = compile_topology(_odd_edge_graph(size))
            for subset in range(32):
                plan = FaultPlan(seed=len(blocks), **{
                    name: value for bit, (name, value) in enumerate(_KNOBS)
                    if subset >> bit & 1
                })
                blocks.append((plan, topology))
        state = FaultState(
            [plan for plan, _topology in blocks],
            GridTopology([topology for _plan, topology in blocks]),
        )
        rates = (state.crash_p, state.drop_p, state.dup_p, state.delay_span,
                 state.corrupt_p)
        for round_number in (1, 7):
            state._fill(round_number, range(len(blocks)))
            for t, (plan, topology) in enumerate(blocks):
                n_b, m_b = topology.n, len(topology.indices)
                full = np.random.Generator(
                    np.random.Philox(key=[plan.seed, round_number])
                ).random(n_b + 4 * m_b)
                drawn = {
                    stream: (lo, u.copy())
                    for stream, lo, _hi, u in state._block_uniforms(
                        t, round_number
                    )
                }
                v_lo, e_lo = state.vertex_offsets[t], state.edge_offsets[t]
                for stream, (name, _value) in enumerate(_KNOBS):
                    lo, size = (
                        (v_lo, n_b) if stream == 0 else (e_lo, m_b)
                    )
                    start = 0 if stream == 0 else n_b + (stream - 1) * m_b
                    expected = full[start:start + size]
                    fate = state._fates[stream]
                    got = None if fate is None else fate[lo:lo + size]
                    if getattr(plan, name):
                        assert drawn[stream][0] == lo
                        assert np.array_equal(
                            drawn[stream][1], expected
                        ), (t, name, round_number)
                        rate = rates[stream][lo:lo + size]
                        decided = (
                            (expected * rate).astype(np.int64)
                            if name == "delay" else expected < rate
                        )
                        assert np.array_equal(got, decided), (t, name)
                    else:
                        # Dead slices are never drawn and never fire.
                        assert stream not in drawn, (t, name, round_number)
                        assert got is None or not got.any(), (t, name)

    @pytest.mark.parametrize("start", range(10))
    def test_advance_then_discard_lands_on_start(self, start):
        full = np.random.Generator(np.random.Philox(key=[5, 3])).random(32)
        bit_generator = np.random.Philox(key=[5, 3])
        bit_generator.advance(start // 4)
        generator = np.random.Generator(bit_generator)
        generator.random(start % 4)
        assert np.array_equal(generator.random(8), full[start:start + 8])

    def test_crash_free_plan_draws_nothing_for_crashes(self):
        state = path_state(FaultPlan(drop=0.5, seed=2))
        assert state.crash_step(1, np.ones(5, dtype=bool)).size == 0
        assert state._fate_round == [-1]

    def test_fates_filled_only_for_blocks_that_sent(self):
        # Round 1 has traffic in block 1 only, round 2 in blocks 0 and
        # 2: only blocks with traffic are drawn, and each block's fates,
        # deliveries and tallies equal a single run fed its traffic.
        topologies = [
            compile_topology(nx.cycle_graph(5)),
            compile_topology(nx.path_graph(4)),
            compile_topology(nx.random_regular_graph(3, 8, seed=2)),
        ]
        plans = [
            FaultPlan(seed=seed, drop=0.2, dup=0.3, delay=2, corrupt=0.25)
            for seed in (4, 5, 6)
        ]
        grid_topology = GridTopology(topologies)
        grid = FaultState(plans, grid_topology)
        singles = [
            FaultState.for_single(plan, topology)
            for plan, topology in zip(plans, topologies)
        ]

        def every_edge(topology, offset):
            counts = topology.indptr[1:] - topology.indptr[:-1]
            senders = np.repeat(np.arange(topology.n), counts) + offset
            receivers = topology.indices.astype(np.int64) + offset
            return (senders, receivers,
                    {"x": np.arange(len(senders)) * 2}, {})

        none = np.empty(0, dtype=np.int64)
        silent = (none, none, {"x": none}, {})

        def step(state, topology, round_number, messages):
            plane = topology.columnar_plane()
            out, ranks = state.columnar_step(round_number, [
                (message, plane.ranks(message[0], message[1])[0])
                for message in messages or [silent]
            ])
            # The pass hands each delivered message's rank on with it.
            assert np.array_equal(ranks, plane.ranks(out[0], out[1])[0])
            return out

        senders_by_round = {1: [1], 2: [0, 2], 3: [], 4: []}
        stamps = {1: [-1, 1, -1], 2: [2, 1, 2], 3: [2, 1, 2],
                  4: [2, 1, 2]}
        for round_number, blocks in senders_by_round.items():
            out = step(grid, grid_topology, round_number, [
                every_edge(topologies[t], int(grid.vertex_offsets[t]))
                for t in blocks
            ])
            assert grid._fate_round == stamps[round_number]
            for t, single in enumerate(singles):
                lo = int(grid.vertex_offsets[t])
                hi = int(grid.vertex_offsets[t + 1])
                mine = step(single, topologies[t], round_number, (
                    [every_edge(topologies[t], 0)] if t in blocks else []
                ))
                rows = (out[1] >= lo) & (out[1] < hi)
                assert np.array_equal(out[0][rows] - lo, mine[0])
                assert np.array_equal(out[1][rows] - lo, mine[1])
                assert np.array_equal(out[2]["x"][rows], mine[2]["x"])
        for t, single in enumerate(singles):
            lo, hi = grid.edge_offsets[t], grid.edge_offsets[t + 1]
            for fate, single_fate in zip(grid._fates[1:], single._fates[1:]):
                assert np.array_equal(fate[lo:hi], single_fate)
            for name in ("dropped", "duplicated", "delayed", "corrupted"):
                assert getattr(grid, name)[t] == getattr(single, name)[0]
        for name in ("dropped", "duplicated", "delayed", "corrupted"):
            assert getattr(grid, name).sum() > 0, name


# ---------------------------------------------------------------------------
# End-to-end degradation shapes
# ---------------------------------------------------------------------------
class TestFaultyRuns:
    def test_total_crash_halts_everyone_in_one_round(self):
        graph = nx.path_graph(6)
        net = Network(graph)
        outputs = net.run(
            LubyMISAlgorithm(40), max_rounds=50,
            inputs={v: v + 1 for v in graph.nodes},
            faults=FaultPlan(crash=1.0),
        )
        assert net.metrics.crashed == 6
        assert tuple(sorted(net.metrics.crashed_vertices)) == tuple(
            graph.nodes
        )
        assert net.metrics.rounds == 1
        assert all(flag is False for flag in outputs.values())

    def test_drop_breaks_mis_independence_detectably(self):
        # Total message loss makes every vertex a local maximum: Luby
        # joins everyone, and the validator localizes the violations.
        graph = nx.path_graph(8)
        rng = random.Random(0)
        inputs = {v: rng.getrandbits(30) for v in graph.nodes}
        net = Network(graph)
        outputs = net.run(
            ColumnarLubyMIS(60), max_rounds=80, inputs=inputs,
            faults=FaultPlan(drop=1.0),
        )
        report = check_mis(graph, outputs,
                           crashed=net.metrics.crashed_vertices)
        assert not report.holds
        assert report.violations == graph.number_of_edges()
        assert net.metrics.dropped > 0

    def test_fault_free_run_passes_validators(self):
        graph = nx.gnp_random_graph(16, 0.3, seed=2)
        rng = random.Random(1)
        inputs = {v: rng.getrandbits(30) for v in graph.nodes}
        net = Network(graph)
        outputs = net.run(ColumnarLubyMIS(120), max_rounds=140, inputs=inputs)
        report = check_mis(graph, outputs)
        assert report.holds
        assert net.metrics.crashed_vertices == ()


# ---------------------------------------------------------------------------
# Validators: live-vertex restriction and report shapes
# ---------------------------------------------------------------------------
class TestValidators:
    def test_mis_crash_exempts_violations(self):
        graph = nx.path_graph(3)
        outputs = {0: True, 1: True, 2: False}
        assert check_mis(graph, outputs).violations == 1
        # Crashing 0 removes the only live-live in-set edge; vertex 2
        # keeps its live in-set witness 1, so the restricted MIS holds.
        assert check_mis(graph, outputs, crashed=(0,)).holds
        # Crashing the witness instead leaves 2 uncovered: still a
        # violation, because 2 itself is live.
        assert not check_mis(graph, outputs, crashed=(1,)).holds

    def test_bfs_depth_and_parent_checks(self):
        graph = nx.cycle_graph(4)
        good = {0: (0, 0), 1: (0, 1), 2: (1, 2), 3: (0, 1)}
        assert check_bfs_tree(graph, good, 0).holds
        wrong_depth = {**good, 2: (1, 3)}
        report = check_bfs_tree(graph, wrong_depth, 0)
        assert report.violations == 1
        assert "depth 3" in report.details[0]
        bad_parent = {**good, 2: (0, 2)}  # 0 is not adjacent to 2
        assert check_bfs_tree(graph, bad_parent, 0).violations == 1

    def test_bfs_unreached_live_vertex_is_violation(self):
        graph = nx.path_graph(3)
        outputs = {0: (0, 0), 1: (0, 1), 2: None}
        assert check_bfs_tree(graph, outputs, 0).violations == 1
        assert check_bfs_tree(graph, outputs, 0, crashed=(2,)).holds

    def test_coloring_palette_and_properness(self):
        graph = nx.path_graph(3)
        assert check_coloring(graph, {0: 0, 1: 1, 2: 0}, palette=2).holds
        report = check_coloring(graph, {0: 0, 1: 0, 2: 5}, palette=2)
        assert report.violations == 2  # clash on (0,1) + out-of-palette 5
        assert check_coloring(graph, {0: 0, 1: None, 2: 1}).violations == 1

    def test_decomposition_connectivity_and_diameter(self):
        graph = nx.path_graph(5)
        whole = {v: 0 for v in graph.nodes}
        assert check_decomposition(graph, whole).holds
        assert check_decomposition(
            graph, whole, max_diameter=2
        ).violations == 1
        # A crash splitting the cluster is localized to that cluster.
        report = check_decomposition(graph, whole, crashed=(2,))
        assert report.violations == 1
        assert "components" in report.details[0]

    def test_report_rates(self):
        report = check_mis(nx.path_graph(2), {0: True, 1: True})
        assert report.checked == 1
        assert report.violation_rate == 1.0
        assert check_mis(nx.empty_graph(0), {}).violation_rate == 0.0
