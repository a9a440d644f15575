"""Tests for the self-healing layer: the reliable-delivery wrappers
(``runtime/recovery.py``) and the fault-aware algorithm variants
(``SelfHealingMIS``/``RestartingBFS`` and their columnar ports).

The contracts under test, in order of importance:

* **Transparency** — wrapping a fault-free run changes neither outputs
  nor the inner algorithm's decisions; a wrapped run under a zero-rate
  :class:`FaultPlan` is byte-identical to a wrapped run with no plan at
  all (the recovery layer extends the runtime's zero-fault identity
  keystone).
* **Recovery** — under drop/delay/corrupt adversaries the wrapper wins
  exact delivery back (deterministically for delay-only plans with
  ``delay <= window - 2``), and the fault-aware variants restore the validators' guarantees where
  the baseline algorithms demonstrably break.
* **Plane agreement** — object and columnar wrappers make identical
  decisions under identical fault schedules, and grid-batched wrapped
  trials are byte-identical to per-trial columnar runs.
* **Golden pins** — wrapped faulty runs on the columnar and grid planes
  reproduce recorded outputs and metrics exactly.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import random
import sys

import networkx as nx
import pytest

from repro.congest import (
    ColumnarReliable,
    ColumnarRestartingBFS,
    ColumnarSelfHealingMIS,
    FaultPlan,
    Network,
    ReliableNodeAlgorithm,
    RestartingBFS,
    SelfHealingMIS,
    Trial,
    check_bfs_tree,
    check_mis,
    run_many,
)
from repro.congest import columnar as columnar_module
from repro.congest.classic import ColumnarLubyMIS, LubyMISAlgorithm
from repro.congest.columnar import ColumnarAlgorithm, ListedValues
from repro.congest.message import ColumnarSpec, VarColumn
from repro.congest.runtime.compile import DeliveryPlane, compile_topology
from repro.congest.runtime.faults import FaultState
from repro.congest.runtime.recovery import payload_checksum

import numpy as np


def tri_grid(m, n):
    return nx.convert_node_labels_to_integers(
        nx.triangular_lattice_graph(m, n)
    )


GRAPH = tri_grid(6, 6)
SMALL = tri_grid(4, 5)
N = GRAPH.number_of_nodes()
BL = N.bit_length()
ROOT = min(GRAPH.nodes, key=repr)
LUBY_HORIZON = 20 * max(4, BL**2)
BFS_HORIZON = 3 * N
SH_LUBY, SH_REPAIR = 6 * BL, 4 * BL + 8
SH_HORIZON = SH_LUBY + SH_REPAIR + 1


def seeded_inputs(seed, graph=GRAPH):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


INPUTS = seeded_inputs(0)


def run(algorithm, *, plane, faults=None, inputs=None, max_rounds=None,
        graph=GRAPH):
    net = Network(graph, model="congest")
    outputs = net.run(
        algorithm,
        max_rounds=max_rounds or 8 * (LUBY_HORIZON + 2),
        inputs=inputs,
        plane=plane,
        faults=faults,
    )
    return outputs, net.metrics


# The object family runs on its fast plane, ``broadcast``; the ids keep
# naming the family.
PLANES = [
    pytest.param("broadcast", id="object"),
    pytest.param("columnar", id="columnar"),
]


def wrapped_luby(plane, retries=2):
    if plane == "broadcast":
        return ReliableNodeAlgorithm(
            LubyMISAlgorithm(LUBY_HORIZON), retries=retries
        )
    return ColumnarReliable(ColumnarLubyMIS(LUBY_HORIZON), retries=retries)


def wrapped_bfs(plane, retries=2):
    if plane == "broadcast":
        return ReliableNodeAlgorithm(
            RestartingBFS(ROOT, BFS_HORIZON), retries=retries
        )
    return ColumnarReliable(
        ColumnarRestartingBFS(ROOT, BFS_HORIZON), retries=retries
    )


def self_healing(plane):
    cls = SelfHealingMIS if plane == "broadcast" else ColumnarSelfHealingMIS
    return cls(SH_LUBY, SH_REPAIR)


def restarting_bfs(plane):
    cls = RestartingBFS if plane == "broadcast" else ColumnarRestartingBFS
    return cls(ROOT, BFS_HORIZON)


# ---------------------------------------------------------------------------
# Checksums and wrapper construction
# ---------------------------------------------------------------------------
class TestWrapperBasics:
    def test_payload_checksum_weights_integer_leaves(self):
        assert payload_checksum(7) == 14
        assert payload_checksum((1, (2, 3))) == (
            1 * 2 + 2 * 4 + 3 * 8
        )
        # All weights are even, so a single low-bit flip (an odd payload
        # delta) can never be cancelled by the checksum's own flip.
        assert payload_checksum((4, True)) % 2 == 0

    @pytest.mark.parametrize("retries", [-1, 0.5])
    def test_retries_validated(self, retries):
        with pytest.raises(ValueError, match="retries"):
            ReliableNodeAlgorithm(LubyMISAlgorithm(10), retries=retries)
        with pytest.raises(ValueError, match="retries"):
            ColumnarReliable(ColumnarLubyMIS(10), retries=retries)

    def test_columnar_wrapper_rejects_var_specs(self):
        class VarAlg(ColumnarAlgorithm):
            spec = ColumnarSpec(("kind", np.uint8), VarColumn("path"))

        with pytest.raises(ValueError, match="fixed-width"):
            ColumnarReliable(VarAlg())

    def test_columnar_wrapper_rejects_reserved_names(self):
        class ClashAlg(ColumnarAlgorithm):
            spec = ColumnarSpec(("rseq", np.uint16))

        with pytest.raises(ValueError, match="rseq"):
            ColumnarReliable(ClashAlg())

    def test_window_length(self):
        assert ReliableNodeAlgorithm(LubyMISAlgorithm(10)).window == 6
        assert ColumnarReliable(ColumnarLubyMIS(10), retries=3).window == 8

    def test_wrapper_inherits_grid_safety(self):
        assert ColumnarReliable(ColumnarLubyMIS(10)).grid_safe
        assert ColumnarReliable(ColumnarRestartingBFS(0, 10)).grid_safe

    @pytest.mark.parametrize("plane", ["columnar", "columnar-reference",
                                       "grid"])
    def test_non_neighbor_send_raises_the_unwrapped_error(self, plane):
        # Star leaf 3's key to leaf 2 lies past the last edge key, so an
        # unclamped rank search in the wrapper indexed past its flag
        # tables (IndexError) before the executor could reject the send.
        graph = nx.star_graph(3)

        def run_it(algorithm):
            if plane == "grid":
                run_many(algorithm, [graph, graph], 1, plane="grid")
            else:
                Network(graph).run(algorithm, plane=plane)

        with pytest.raises(ValueError) as plain:
            run_it(StrayUnicast())
        with pytest.raises(ValueError) as wrapped:
            run_it(ColumnarReliable(StrayUnicast()))
        assert str(plain.value) == "node 3 sent to non-neighbor 2"
        assert str(wrapped.value) == str(plain.value)


class StrayUnicast(ColumnarAlgorithm):
    """Round 1: vertex 3 unicasts to 2, then to 1 (in every grid block);
    neither is its neighbour on a star centred at 0."""

    spec = ColumnarSpec(("x", np.uint8))
    grid_safe = True

    def on_round(self, ctx):
        sender = np.atleast_1d(ctx.index_of(3))
        receivers = np.concatenate(
            [np.atleast_1d(ctx.index_of(v)) for v in (2, 1)]
        )
        ctx.emit_columns(np.tile(sender, 2), receivers,
                         x=np.ones(len(receivers), dtype=np.int64))
        ctx.halt(~ctx.halted)

    def outputs(self, ctx):
        return ListedValues([None] * ctx.n)


# ---------------------------------------------------------------------------
# Transparency: fault-free and zero-rate runs
# ---------------------------------------------------------------------------
class TestWrapperTransparency:
    @pytest.mark.parametrize("plane", PLANES)
    def test_fault_free_wrapped_luby_matches_plain(self, plane):
        plain_cls = (
            LubyMISAlgorithm if plane == "broadcast" else ColumnarLubyMIS
        )
        plain, plain_metrics = run(
            plain_cls(LUBY_HORIZON), plane=plane, inputs=INPUTS
        )
        wrapped, wrapped_metrics = run(
            wrapped_luby(plane), plane=plane, inputs=INPUTS
        )
        assert wrapped == plain
        # Window framing: every logical round costs exactly one window.
        assert wrapped_metrics.rounds == 6 * plain_metrics.rounds

    @pytest.mark.parametrize("plane", PLANES)
    def test_zero_rate_plan_is_byte_identical(self, plane):
        base = run(wrapped_luby(plane), plane=plane, inputs=INPUTS)
        zeroed = run(
            wrapped_luby(plane), plane=plane, inputs=INPUTS,
            faults=FaultPlan(seed=9),
        )
        assert base == zeroed

    @pytest.mark.parametrize("plane", PLANES)
    def test_fault_free_self_healing_is_valid_mis(self, plane):
        outputs, metrics = run(
            self_healing(plane), plane=plane, inputs=INPUTS,
            max_rounds=SH_HORIZON + 2,
        )
        assert check_mis(GRAPH, outputs, metrics.crashed_vertices).holds

    def test_self_healing_planes_agree(self):
        obj = run(self_healing("broadcast"), plane="broadcast", inputs=INPUTS,
                  max_rounds=SH_HORIZON + 2)
        col = run(self_healing("columnar"), plane="columnar", inputs=INPUTS,
                  max_rounds=SH_HORIZON + 2)
        assert obj == col

    def test_restarting_bfs_planes_agree(self):
        obj = run(restarting_bfs("broadcast"), plane="broadcast",
                  max_rounds=BFS_HORIZON + 2)
        col = run(restarting_bfs("columnar"), plane="columnar",
                  max_rounds=BFS_HORIZON + 2)
        assert obj == col
        assert check_bfs_tree(GRAPH, obj[0], ROOT).holds


# ---------------------------------------------------------------------------
# Recovery: guarantees restored under live adversaries
# ---------------------------------------------------------------------------
class TestRecovery:
    @pytest.mark.parametrize("plane", PLANES)
    def test_wrapped_bfs_exact_under_max_covered_delay(self, plane):
        # retries=2 gives a 6-round window; any delay <= 4 is absorbed
        # deterministically, so the tree must be exact, every seed.
        for seed in range(3):
            outputs, metrics = run(
                wrapped_bfs(plane), plane=plane,
                faults=FaultPlan(seed=seed, delay=4),
                max_rounds=6 * (BFS_HORIZON + 2),
            )
            report = check_bfs_tree(
                GRAPH, outputs, ROOT, metrics.crashed_vertices
            )
            assert report.holds, report.details

    @pytest.mark.parametrize("plane", PLANES)
    def test_wrapped_bfs_exact_under_drop_and_corrupt(self, plane):
        for faults in (FaultPlan(seed=1, drop=0.3),
                       FaultPlan(seed=1, corrupt=0.25)):
            outputs, metrics = run(
                wrapped_bfs(plane), plane=plane, faults=faults,
                max_rounds=6 * (BFS_HORIZON + 2),
            )
            report = check_bfs_tree(
                GRAPH, outputs, ROOT, metrics.crashed_vertices
            )
            assert report.holds, report.details

    @pytest.mark.parametrize("plane", PLANES)
    def test_self_healing_mis_recovers_from_crashes(self, plane):
        for seed in range(3):
            outputs, metrics = run(
                self_healing(plane), plane=plane, inputs=INPUTS,
                faults=FaultPlan(seed=seed, crash=0.05),
                max_rounds=SH_HORIZON + 2,
            )
            assert metrics.crashed > 0
            report = check_mis(GRAPH, outputs, metrics.crashed_vertices)
            assert report.holds, report.details

    @pytest.mark.parametrize("plane", PLANES)
    def test_wrapped_self_healing_mis_under_delay(self, plane):
        outputs, metrics = run(
            ReliableNodeAlgorithm(self_healing("broadcast"), retries=2)
            if plane == "broadcast"
            else ColumnarReliable(self_healing("columnar"), retries=2),
            plane=plane, inputs=INPUTS,
            faults=FaultPlan(seed=2, delay=4),
            max_rounds=6 * (SH_HORIZON + 2),
        )
        report = check_mis(GRAPH, outputs, metrics.crashed_vertices)
        assert report.holds, report.details

    def test_baseline_luby_breaks_where_wrapper_recovers(self):
        faults = FaultPlan(seed=1, drop=0.45)
        plain, plain_metrics = run(
            ColumnarLubyMIS(LUBY_HORIZON), plane="columnar", inputs=INPUTS,
            faults=faults,
        )
        plain_report = check_mis(
            GRAPH, plain, plain_metrics.crashed_vertices
        )
        wrapped, wrapped_metrics = run(
            wrapped_luby("columnar"), plane="columnar", inputs=INPUTS,
            faults=faults,
        )
        wrapped_report = check_mis(
            GRAPH, wrapped, wrapped_metrics.crashed_vertices
        )
        assert not plain_report.holds
        assert wrapped_report.holds, wrapped_report.details


# ---------------------------------------------------------------------------
# Grid plane: wrapped trial batches
# ---------------------------------------------------------------------------
class TestGridWrappedRuns:
    def test_grid_matches_per_trial_columnar(self):
        plan = FaultPlan(seed=5, drop=0.25, delay=2)
        trials = [
            Trial(graph=GRAPH, inputs=seeded_inputs(s),
                  faults=plan.reseed(plan.seed + s))
            for s in range(3)
        ]
        proto = ColumnarReliable(self_healing("columnar"), retries=2)
        grid = run_many(proto, trials, 1,
                        max_rounds=6 * (SH_HORIZON + 2), plane="grid")
        for trial, (outputs, metrics) in zip(trials, grid):
            single, single_metrics = run(
                ColumnarReliable(self_healing("columnar"), retries=2),
                plane="columnar", inputs=trial.inputs, faults=trial.faults,
                max_rounds=6 * (SH_HORIZON + 2),
            )
            assert outputs == single
            assert metrics == single_metrics

    def test_grid_zero_rate_identity(self):
        proto = ColumnarReliable(
            ColumnarRestartingBFS(ROOT, BFS_HORIZON), retries=2
        )
        bare = run_many(
            proto, [Trial(graph=GRAPH) for _ in range(3)], 1,
            max_rounds=6 * (BFS_HORIZON + 2), plane="grid",
        )
        zeroed = run_many(
            proto, [Trial(graph=GRAPH, faults=FaultPlan(seed=s))
                    for s in range(3)], 1,
            max_rounds=6 * (BFS_HORIZON + 2), plane="grid",
        )
        assert bare == zeroed


# ---------------------------------------------------------------------------
# Golden pins: wrapped faulty runs, outputs and every metrics field
# ---------------------------------------------------------------------------
# ``ColumnarReliable`` has no independent oracle: the columnar, columnar-
# reference and grid planes all run the same wrapper code, and the object
# family's ``ReliableNodeAlgorithm`` frames its header differently (its
# metrics differ).  These values were recorded before the fault pass and
# the wrapper learned to reuse edge ranks and draw only live fate
# streams; any change to a schedule, an output or a counter shows here.
GOLDEN_PLANS = {
    "dup+delay": FaultPlan(seed=3, dup=0.1, delay=2),
    "drop+delay": FaultPlan(seed=3, drop=0.2, delay=2),
    "corrupt+dup": FaultPlan(seed=3, corrupt=0.2, dup=0.1),
    "all-five": FaultPlan(seed=3, crash=0.03, drop=0.2, dup=0.1, delay=2,
                          corrupt=0.15),
    "budget": FaultPlan(seed=3, drop=0.3, corrupt=0.2, target="budget"),
    "degree": FaultPlan(seed=3, drop=0.4, corrupt=0.2, delay=3,
                        target="degree:0.3"),
}

# Per plan, one record per grid trial (trial 0 is also run singly on the
# columnar plane): the first 16 hex digits of the sha256 of
# ``repr(sorted(outputs.items()))``, then ``dataclasses.astuple`` of the
# run's metrics — rounds, messages, total_bits, max_edge_bits_in_round,
# dropped, duplicated, delayed, crashed, corrupted, crashed_vertices.
GOLDEN = {
    "dup+delay": [
        ("94d75013e8b10864",
         (354, 15016, 356649, 74, 0, 1502, 10925, 0, 0, ())),
        ("f49c81abecf254b1",
         (354, 8827, 207329, 73, 0, 941, 6549, 0, 0, ())),
        ("cf46978ac0dfc6a4",
         (354, 15122, 359385, 74, 0, 1513, 11147, 0, 0, ())),
    ],
    "drop+delay": [
        ("802440f419dc8506",
         (354, 15060, 364068, 74, 3038, 0, 7999, 0, 0, ())),
        ("e0bf909212d04941",
         (354, 8788, 209375, 74, 1768, 0, 4686, 0, 0, ())),
        ("1e679bae87bc765b",
         (354, 15151, 366094, 74, 3026, 0, 8135, 0, 0, ())),
    ],
    "corrupt+dup": [
        ("94d75013e8b10864",
         (354, 10070, 238114, 74, 0, 1005, 0, 0, 2071, ())),
        ("e0bf909212d04941",
         (354, 5842, 136390, 73, 0, 628, 0, 0, 1190, ())),
        ("cf46978ac0dfc6a4",
         (354, 10003, 235773, 74, 0, 1046, 0, 0, 2009, ())),
    ],
    "all-five": [
        ("b79ec0e0e8aed085", (110, 731, 36538, 75, 264, 54, 410, 28, 126,
          (9, 10, 4, 2, 23, 1, 16, 25, 24, 22, 20, 8, 18, 0, 13, 14, 3, 12,
           27, 19, 11, 26, 6, 5, 7, 15, 21, 17))),
        ("205d267342e3918a", (79, 392, 17835, 74, 122, 28, 223, 18, 73,
          (11, 12, 1, 3, 0, 8, 5, 6, 16, 17, 10, 2, 14, 4, 9, 13, 15, 7))),
        ("9ef5904f32b5590e", (141, 584, 28819, 74, 246, 45, 323, 28, 79,
          (10, 18, 19, 27, 1, 9, 6, 7, 14, 2, 15, 5, 20, 26, 11, 8, 23, 4,
           24, 21, 0, 25, 17, 3, 13, 22, 16, 12))),
    ],
    "budget": [
        ("774c91605cffb6d0",
         (354, 11350, 271981, 75, 3505, 0, 0, 0, 2341, ())),
        ("75f330f6a2bd9d5d",
         (354, 6655, 156857, 73, 2126, 0, 0, 0, 1420, ())),
        ("1a20c2c819319f9b",
         (354, 11367, 272965, 74, 3507, 0, 0, 0, 2343, ())),
    ],
    "degree": [
        ("47ad1fb984796406",
         (354, 11273, 275351, 74, 3422, 0, 3732, 0, 1675, ())),
        ("e0bf909212d04941",
         (354, 6885, 167560, 74, 2185, 0, 2454, 0, 1144, ())),
        ("1f0a951ec2288440",
         (354, 11437, 279885, 74, 3449, 0, 3855, 0, 1648, ())),
    ],
}


def golden_trials(plan):
    return [
        Trial(graph=graph, inputs=seeded_inputs(s, graph),
              faults=plan.reseed(plan.seed + s))
        for s, graph in enumerate((GRAPH, SMALL, GRAPH))
    ]


def golden_record(outputs, metrics):
    digest = hashlib.sha256(
        repr(sorted(outputs.items())).encode()
    ).hexdigest()[:16]
    return (digest, dataclasses.astuple(metrics))


def wrapped_self_healing():
    return ColumnarReliable(self_healing("columnar"), retries=2)


class TestGoldenWrappedRuns:
    @pytest.mark.parametrize("name", list(GOLDEN_PLANS))
    def test_columnar_single_run(self, name):
        trial = golden_trials(GOLDEN_PLANS[name])[0]
        outputs, metrics = run(
            wrapped_self_healing(), plane="columnar", inputs=trial.inputs,
            faults=trial.faults, max_rounds=6 * (SH_HORIZON + 2),
        )
        assert golden_record(outputs, metrics) == GOLDEN[name][0]

    @pytest.mark.parametrize("name", list(GOLDEN_PLANS))
    def test_three_trial_grid(self, name):
        results = run_many(
            wrapped_self_healing(), golden_trials(GOLDEN_PLANS[name]), 1,
            max_rounds=6 * (SH_HORIZON + 2), plane="grid",
        )
        assert [golden_record(*result) for result in results] == (
            GOLDEN[name]
        )


# ---------------------------------------------------------------------------
# Carried edge ranks: delivery hands each inbox its messages' ranks
# ---------------------------------------------------------------------------
ALL_FIVE = GOLDEN_PLANS["all-five"]


def probe_carried_ranks(monkeypatch):
    """Check every inbox the columnar delivery step returns: a non-empty
    one must carry its messages' edge ranks, equal to a fresh search of
    its ``(sender, receiver)`` pairs.  Returns the list of checked
    inboxes' edge ranks, in delivery order."""
    checked = []
    deliver = columnar_module._deliver_fast

    def probe(topology, plane, *args, **kwargs):
        inbox = deliver(topology, plane, *args, **kwargs)
        if len(inbox):
            assert inbox._ranks is not None
            searched, adjacent = plane.ranks(inbox.senders,
                                             inbox.receivers())
            assert adjacent.all()
            assert np.array_equal(inbox.edge_ranks(plane), searched)
            checked.append(inbox.edge_ranks(plane))
        return inbox

    monkeypatch.setattr(columnar_module, "_deliver_fast", probe)
    return checked


def wrapped_golden_runs(plane, plan):
    """The golden wrapped self-healing trials of ``plan``: batched on the
    grid, or each run singly on ``plane`` over a copy of its graph, which
    compiles afresh, so each run builds its own rank tables."""
    trials = golden_trials(GOLDEN_PLANS[plan])
    max_rounds = 6 * (SH_HORIZON + 2)
    if plane == "grid":
        return run_many(wrapped_self_healing(), trials, 1,
                        max_rounds=max_rounds, plane="grid")
    return [
        run(wrapped_self_healing(), plane=plane, graph=nx.Graph(trial.graph),
            inputs=trial.inputs, faults=trial.faults, max_rounds=max_rounds)
        for trial in trials
    ]


class TestCarriedRanks:
    """Ranks ride from validation or the fan-out through corruption,
    drop, dup, delay, the crash filter and the retired filter into every
    physical inbox."""

    def test_wrapped_columnar_run(self, monkeypatch):
        checked = probe_carried_ranks(monkeypatch)
        trial = golden_trials(ALL_FIVE)[0]
        outputs, metrics = run(
            wrapped_self_healing(), plane="columnar", inputs=trial.inputs,
            faults=trial.faults, max_rounds=6 * (SH_HORIZON + 2),
        )
        assert golden_record(outputs, metrics) == GOLDEN["all-five"][0]
        assert all((metrics.dropped, metrics.duplicated, metrics.delayed,
                    metrics.corrupted, metrics.crashed))
        assert checked

    def test_wrapped_grid_with_a_retired_trial(self, monkeypatch):
        # Wrapped Luby halts each trial as soon as it decides, so trial 1
        # (the smaller graph) retires first, and the retired filter cuts
        # delayed traffic that matures after it.
        retired = []
        retire = FaultState.retire_trials

        def record(state, trials):
            retired.append([int(t) for t in trials])
            retire(state, trials)

        monkeypatch.setattr(FaultState, "retire_trials", record)
        checked = probe_carried_ranks(monkeypatch)
        trials = golden_trials(ALL_FIVE)
        max_rounds = 8 * (LUBY_HORIZON + 2)
        results = run_many(wrapped_luby("columnar"), trials, 1,
                           max_rounds=max_rounds, plane="grid")
        assert retired[0] == [1]
        assert checked
        for trial, result in zip(trials, results):
            assert result == run(
                wrapped_luby("columnar"), plane="columnar",
                graph=trial.graph, inputs=trial.inputs,
                faults=trial.faults, max_rounds=max_rounds,
            )

    def test_unwrapped_faulty_broadcast_ranks_copies_by_slot(
        self, monkeypatch
    ):
        checked = probe_carried_ranks(monkeypatch)
        graph = tri_grid(5, 5)
        run(self_healing("columnar"), plane="columnar", graph=graph,
            inputs=seeded_inputs(2, graph), faults=ALL_FIVE,
            max_rounds=4 * SH_HORIZON)
        plane = compile_topology(graph).columnar_plane()
        assert checked
        assert plane._slot_ranks is not None
        assert plane._reverse is None  # only the wrapper reads it

    @pytest.mark.parametrize("plane", ["columnar", "columnar-reference",
                                       "grid"])
    @pytest.mark.parametrize("plan", ["all-five", "dup+delay"])
    def test_carried_ranks_change_nothing(self, plan, plane, monkeypatch):
        # The wrapper's ranks are a hint: a run whose hints are all
        # dropped, so unicast validation searches every group, must
        # deliver and count exactly the same, rank for rank.
        with monkeypatch.context() as patch:
            hinted_ranks = probe_carried_ranks(patch)
            hinted = wrapped_golden_runs(plane, plan)
        search = DeliveryPlane.ranks

        def unhinted_search(plane, senders, receivers, hint=None):
            return search(plane, senders, receivers)

        monkeypatch.setattr(DeliveryPlane, "ranks", unhinted_search)
        searched_ranks = probe_carried_ranks(monkeypatch)
        searched = wrapped_golden_runs(plane, plan)
        assert hinted == searched  # outputs and every NetworkMetrics field
        assert len(hinted_ranks) == len(searched_ranks)
        assert all(np.array_equal(a, b)
                   for a, b in zip(hinted_ranks, searched_ranks))
        # The reference plane delivers message by message, unprobed.
        assert bool(hinted_ranks) == (plane != "columnar-reference")

    @pytest.mark.parametrize("case", ["grid-dup+delay", "columnar-all-five"])
    def test_wrapped_runs_search_only_to_build_rank_tables(
        self, case, monkeypatch
    ):
        # Every wrapped send is a retransmission or an ack, and carries
        # the rank the wrapper holds for it: unicast validation confirms
        # it by a gather, at most once a physical round.  The only
        # searches left are each run's two table builds.  Under
        # all-five, drops and corruption force real retransmissions.
        searched = collections.Counter()
        confirmed = collections.Counter()
        search = DeliveryPlane.ranks

        def counted(plane, senders, receivers, hint=None):
            ranks, adjacent = search(plane, senders, receivers, hint)
            caller = sys._getframe(1).f_code.co_name
            (confirmed if ranks is hint else searched)[caller] += 1
            return ranks, adjacent

        monkeypatch.setattr(DeliveryPlane, "ranks", counted)
        plane, plan = case.split("-", 1)
        results = wrapped_golden_runs(plane, plan)
        assert [golden_record(*result) for result in results] == GOLDEN[plan]
        rounds = [metrics.rounds for _outputs, metrics in results]
        runs, rounds = (1, max(rounds)) if plane == "grid" else (
            len(results), sum(rounds)
        )
        assert searched == {"slot_ranks": runs, "reverse": runs}
        assert set(confirmed) == {"_deliver_fast"}
        assert 0 < confirmed["_deliver_fast"] <= rounds
