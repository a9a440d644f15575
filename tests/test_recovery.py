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
  exact delivery back (deterministically for ``delay <= window - 2``),
  and the fault-aware variants restore the validators' guarantees where
  the baseline algorithms demonstrably break.
* **Plane agreement** — object and columnar wrappers make identical
  decisions under identical fault schedules, and grid-batched wrapped
  trials are byte-identical to per-trial columnar runs.
"""

from __future__ import annotations

import random

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
from repro.congest.classic import ColumnarLubyMIS, LubyMISAlgorithm
from repro.congest.columnar import ColumnarAlgorithm
from repro.congest.message import ColumnarSpec, VarColumn
from repro.congest.runtime.recovery import payload_checksum

import numpy as np


def tri_grid(m, n):
    return nx.convert_node_labels_to_integers(
        nx.triangular_lattice_graph(m, n)
    )


GRAPH = tri_grid(6, 6)
N = GRAPH.number_of_nodes()
BL = N.bit_length()
ROOT = min(GRAPH.nodes, key=repr)
LUBY_HORIZON = 20 * max(4, BL**2)
BFS_HORIZON = 3 * N
SH_LUBY, SH_REPAIR = 6 * BL, 4 * BL + 8
SH_HORIZON = SH_LUBY + SH_REPAIR + 1


def seeded_inputs(seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in GRAPH.nodes}


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
