"""Tests for the unified CONGEST runtime (``repro.congest.runtime``).

Four concerns:

* the **plane table** — names, capability-driven resolution
  (``auto``), table-derived error text, the one dispatch
  (``run_plane``) to each executor, and the guarantee that
  ``Network.run`` involves no ``isinstance`` plane dispatch;
* **differential coverage enforcement** — every plane in the table is
  parametrized through a real differential run against its family's
  per-message reference executor; a plane whose family has no sample
  workload fails loudly here (this is the CI gate the runtime docs
  promise);
* the **buffer-pool contract** now owned by the scheduler — runs check
  pooled double-buffered inboxes out and return them empty; ``run_many``
  reuses them across same-graph trials and leaves the weak pool empty
  afterwards;
* **trial-major grid execution** — byte-identical outputs *and* metrics
  vs per-trial columnar runs and the per-message reference, including
  uneven block sizes, mixed models, early-halting trials, per-trial
  round caps, and the CLI's ``--plane auto``/``grid`` paths.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.congest import (
    ColumnarReliable,
    FaultPlan,
    Message,
    Network,
    ReliableNodeAlgorithm,
    Trial,
    plane_names,
    resolve_plane,
    run_many,
    supported_planes,
)
from repro.congest.network import FunctionAlgorithm
from repro.congest.algorithms import (
    BroadcastAlgorithm,
    ColumnarBFSTree,
    ColumnarConvergecastSum,
    ColumnarFloodValue,
    ColumnarVarFlood,
)
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarTrialColoring,
    LubyMISAlgorithm,
    TrialColoringAlgorithm,
)
from repro.congest.runtime import (
    PLANES,
    reference_plane_for,
    run_plane,
    supports_vectorized,
    variant_for_plane,
)
from repro.congest.runtime import scheduler as scheduler_module
from repro.graphs import triangulated_grid


def metrics_tuple(metrics):
    return (
        metrics.rounds,
        metrics.messages,
        metrics.total_bits,
        metrics.max_edge_bits_in_round,
    )


def seeded_inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def mis_horizon(graph):
    n = graph.number_of_nodes()
    return 20 * max(4, n.bit_length() ** 2)


# ---------------------------------------------------------------------------
# The plane table
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtin_planes_registered(self):
        names = plane_names()
        assert names == ("reference", "broadcast", "columnar",
                         "columnar-reference", "grid")

    def test_batch_only_excluded_from_single_run_names(self):
        assert "grid" not in plane_names(batch=False)
        assert "columnar" in plane_names(batch=False)

    def test_unknown_plane_error_lists_registry(self):
        # The removed ``object`` plane and ``dict``/``engine`` aliases
        # are unknown names like any other.
        for name in ("hologram", "object", "dict", "engine"):
            with pytest.raises(ValueError) as excinfo:
                resolve_plane(LubyMISAlgorithm(10), name)
            assert str(excinfo.value) == (
                f"unknown plane {name!r}; registered planes: reference, "
                f"broadcast, columnar, columnar-reference, grid (or 'auto')"
            )

    def test_auto_resolution_by_declared_kind(self):
        assert resolve_plane(LubyMISAlgorithm(10), "auto") == "broadcast"
        assert resolve_plane(ColumnarLubyMIS(10), "auto") == "columnar"
        assert resolve_plane(LubyMISAlgorithm(10), None) == "broadcast"

    def test_reference_plane_per_family(self):
        assert reference_plane_for(LubyMISAlgorithm(10)) == "reference"
        assert (
            reference_plane_for(ColumnarLubyMIS(10)) == "columnar-reference"
        )

    def test_supported_planes_capability_driven(self):
        assert supported_planes(LubyMISAlgorithm(10)) == (
            "reference", "broadcast",
        )
        assert supported_planes(ColumnarLubyMIS(10)) == (
            "columnar", "columnar-reference", "grid",
        )
        # Not grid-safe: the grid must not claim it.
        assert "grid" not in supported_planes(ColumnarConvergecastSum(10))

    def test_mismatched_plane_error_derives_supported_list(self):
        with pytest.raises(ValueError, match="supported planes: columnar"):
            resolve_plane(ColumnarLubyMIS(10), "broadcast")
        with pytest.raises(ValueError, match="supported planes: reference"):
            resolve_plane(LubyMISAlgorithm(10), "columnar")

    def test_batch_only_plane_refused_by_network_run(self):
        graph = nx.path_graph(4)
        with pytest.raises(ValueError, match="batch-only"):
            Network(graph).run(
                ColumnarLubyMIS(mis_horizon(graph)),
                inputs=seeded_inputs(graph, 0),
                plane="grid",
            )

    @pytest.mark.parametrize("name, executor", [
        ("reference", "execute_reference"),
        ("broadcast", "execute"),
        ("columnar", "execute_columnar"),
        ("columnar-reference", "execute_columnar"),
        ("grid", None),
    ])
    def test_run_plane_reaches_its_executor(self, name, executor,
                                            monkeypatch):
        import repro.congest.columnar as columnar_module

        for owner, attr in ((scheduler_module, "execute"),
                            (scheduler_module, "execute_reference"),
                            (columnar_module, "execute_columnar")):
            monkeypatch.setattr(
                owner, attr,
                lambda topology, algorithm, _attr=attr, **kwargs: (
                    _attr, kwargs
                ),
            )
        if executor is None:
            with pytest.raises(ValueError) as excinfo:
                run_plane(name, "topology", "algorithm")
            assert str(excinfo.value) == (
                "plane 'grid' is batch-only: run it through "
                "repro.congest.run_many, not Network.run"
            )
            return
        reached, kwargs = run_plane(name, "topology", "algorithm",
                                    model="congest", faults=None)
        assert reached == executor
        expected = {"model": "congest", "faults": None}
        if executor == "execute_columnar":
            # Only the columnar executors take an rng plan; the
            # reference flag picks their per-message spec.
            expected.update(rng=None, reference=name == "columnar-reference")
        assert kwargs == expected

    def test_network_source_has_no_isinstance_plane_dispatch(self):
        import inspect

        import repro.congest.network as network_module

        source = inspect.getsource(network_module)
        assert "isinstance(algorithm" not in source

    def test_variant_for_plane(self):
        variants = {"object": "obj", "columnar": "col"}
        assert variant_for_plane(variants, "auto") == "col"
        assert variant_for_plane(variants, None) == "col"
        assert variant_for_plane(variants, "broadcast") == "obj"
        assert variant_for_plane(variants, "reference") == "obj"
        assert variant_for_plane(variants, "grid") == "col"
        assert variant_for_plane({"object": "obj"}, "auto") == "obj"
        with pytest.raises(ValueError,
                           match="supported planes: reference, broadcast$"):
            variant_for_plane({"object": "obj"}, "columnar")
        with pytest.raises(ValueError, match="unknown plane 'dict'"):
            variant_for_plane(variants, "dict")


# ---------------------------------------------------------------------------
# Differential coverage enforcement: every registered plane, no exceptions
# ---------------------------------------------------------------------------
# One sample workload per plane *family*.  Registering a plane whose kind
# has no entry here makes the parametrized test below fail loudly — the
# contract that no plane ships without a differential test against the
# reference executor.
SAMPLE_WORKLOADS = {
    "object": lambda graph: LubyMISAlgorithm(mis_horizon(graph)),
    "columnar": lambda graph: ColumnarLubyMIS(mis_horizon(graph)),
}


@pytest.mark.parametrize("name", plane_names())
def test_every_registered_plane_runs_differentially(name):
    kind = PLANES[name]
    factory = SAMPLE_WORKLOADS.get(kind)
    if factory is None:
        pytest.fail(
            f"registered plane {name!r} has kind {kind!r} with no "
            f"sample workload: add one to SAMPLE_WORKLOADS so the plane "
            f"is differentially tested against a reference executor"
        )
    graph = triangulated_grid(5, 5)
    horizon = mis_horizon(graph)
    inputs = seeded_inputs(graph, 11)
    if name == "grid":
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, seed),
                  max_rounds=horizon + 2)
            for seed in (11, 12, 13)
        ]
        batched = run_many(factory(graph), trials, processes=1, plane=name)
        for trial, (outputs, metrics) in zip(trials, batched):
            net = Network(trial.graph)
            expected = net._run_reference(
                factory(graph), max_rounds=trial.max_rounds,
                inputs=trial.inputs,
            )
            assert outputs == expected
            assert list(outputs) == list(expected)
            assert metrics_tuple(metrics) == metrics_tuple(net.metrics)
        return
    net = Network(graph)
    outputs = net.run(
        factory(graph), max_rounds=horizon + 2, inputs=inputs, plane=name
    )
    reference_net = Network(graph)
    expected = reference_net._run_reference(
        factory(graph), max_rounds=horizon + 2, inputs=inputs
    )
    assert outputs == expected
    assert list(outputs) == list(expected)
    assert metrics_tuple(net.metrics) == metrics_tuple(reference_net.metrics)


# One *variable-width* sample workload per plane family: the var-column
# schema (VarColumn pools) has its own delivery/accounting code paths, so
# every registered plane must also be exercised differentially on a
# ragged payload — a plane family with no entry here fails loudly.
_VAR_PAYLOAD = (3, 1, 4, 1, 5, 92)


def _flood_horizon(graph):
    return graph.number_of_nodes() + 1


VAR_SAMPLE_WORKLOADS = {
    "object": lambda graph: BroadcastAlgorithm(
        min(graph.nodes, key=repr), _VAR_PAYLOAD, _flood_horizon(graph)
    ),
    "columnar": lambda graph: ColumnarVarFlood(
        min(graph.nodes, key=repr), _VAR_PAYLOAD, _flood_horizon(graph)
    ),
}


@pytest.mark.parametrize("name", plane_names())
def test_every_registered_plane_runs_var_columns_differentially(name):
    kind = PLANES[name]
    factory = VAR_SAMPLE_WORKLOADS.get(kind)
    if factory is None:
        pytest.fail(
            f"registered plane {name!r} has kind {kind!r} with no "
            f"variable-width sample workload: add one to "
            f"VAR_SAMPLE_WORKLOADS so var-column delivery is "
            f"differentially tested on this plane"
        )
    graph = triangulated_grid(4, 4)
    max_rounds = _flood_horizon(graph) + 2
    if name == "grid":
        trials = [Trial(graph, max_rounds=max_rounds) for _ in range(3)]
        batched = run_many(factory(graph), trials, processes=1, plane=name)
        for trial, (outputs, metrics) in zip(trials, batched):
            net = Network(trial.graph)
            expected = net._run_reference(
                factory(graph), max_rounds=trial.max_rounds
            )
            assert outputs == expected
            assert list(outputs) == list(expected)
            assert metrics_tuple(metrics) == metrics_tuple(net.metrics)
        return
    net = Network(graph)
    outputs = net.run(factory(graph), max_rounds=max_rounds, plane=name)
    reference_net = Network(graph)
    expected = reference_net._run_reference(
        factory(graph), max_rounds=max_rounds
    )
    assert outputs == expected
    assert list(outputs) == list(expected)
    assert metrics_tuple(net.metrics) == metrics_tuple(reference_net.metrics)


# ---------------------------------------------------------------------------
# Fault injection: every registered plane, enforced like the differentials
# ---------------------------------------------------------------------------
# The keystone property (runtime/faults.py): a zero-rate FaultPlan runs
# the full fault machinery yet must be *byte-identical* — outputs and
# every metrics field — to running with no plan at all, also behind the
# ack/retransmit wrapper and under vectorized rng.  And a faulty plan
# (every fault knob, and every targeted adversary) must produce
# identical outputs and fault counters on every plane of a family.  Both
# are enforced for every registered plane: a plane whose kind has no
# entry here fails loudly, exactly like the differential-coverage gates
# above.
FAULT_SAMPLE_WORKLOADS = {
    "object": lambda graph: LubyMISAlgorithm(mis_horizon(graph)),
    "columnar": lambda graph: ColumnarLubyMIS(mis_horizon(graph)),
}

# The recovery layer (runtime/recovery.py) per family; retries=1 frames
# every logical round in a 4-round window.
RELIABLE_WRAPPERS = {
    "object": lambda inner: ReliableNodeAlgorithm(inner, retries=1),
    "columnar": lambda inner: ColumnarReliable(inner, retries=1),
}
_RELIABLE_WINDOW = 4

_FAULTY_PLAN = FaultPlan(seed=7, crash=0.03, drop=0.2, dup=0.1, delay=2,
                         corrupt=0.15)

# Targeted adversaries: every selector from faults.py, plus Byzantine
# corruption stacked on loss.
_ADVERSARY_PLANS = (
    FaultPlan(seed=11, corrupt=0.3, drop=0.1),
    FaultPlan(seed=13, drop=0.4, corrupt=0.2, target="degree:0.3"),
    FaultPlan(seed=17, drop=0.5, corrupt=0.25, target="cut"),
    FaultPlan(seed=19, drop=0.3, corrupt=0.2, target="budget"),
)


def _fault_workload(name):
    kind = PLANES[name]
    factory = FAULT_SAMPLE_WORKLOADS.get(kind)
    if factory is None:
        pytest.fail(
            f"registered plane {name!r} has kind {kind!r} with no "
            f"fault sample workload: add one to FAULT_SAMPLE_WORKLOADS so "
            f"the plane's zero-fault identity and faulty differential are "
            f"covered"
        )
    return kind, factory


@pytest.mark.parametrize("name", plane_names())
def test_every_registered_plane_zero_fault_identity(name):
    kind, factory = _fault_workload(name)
    graph = triangulated_grid(5, 5)
    horizon = mis_horizon(graph)
    wrap = RELIABLE_WRAPPERS[kind]
    cases = [
        (lambda: factory(graph), horizon + 2, None),
        (lambda: wrap(factory(graph)), _RELIABLE_WINDOW * horizon + 2, None),
    ]
    if supports_vectorized(factory(graph)):
        cases.append((lambda: factory(graph), horizon + 2, "vectorized"))
    for make, cap, rng in cases:
        if name == "grid":
            trials = [
                Trial(graph, inputs=seeded_inputs(graph, seed),
                      max_rounds=cap)
                for seed in (21, 22, 23)
            ]
            bare = run_many(make(), trials, processes=1, plane=name,
                            rng=rng)
            zeroed = run_many(
                make(),
                [
                    Trial(graph, inputs=trial.inputs,
                          max_rounds=trial.max_rounds, faults=FaultPlan())
                    for trial in trials
                ],
                processes=1, plane=name, rng=rng,
            )
        else:
            inputs = seeded_inputs(graph, 21)
            bare, zeroed = [], []
            for faults, runs in ((None, bare), (FaultPlan(), zeroed)):
                net = Network(graph)
                outputs = net.run(make(), max_rounds=cap, inputs=inputs,
                                  plane=name, faults=faults, rng=rng)
                runs.append((outputs, net.metrics))
        for (outputs, metrics), (z_outputs, z_metrics) in zip(bare, zeroed):
            assert z_outputs == outputs
            assert list(z_outputs) == list(outputs)
            assert z_metrics == metrics  # every field, fault counters too


@pytest.mark.parametrize("name", plane_names())
def test_every_registered_plane_runs_faulty_differentially(name):
    """A faulty plan is a pure function of (seed, round, edge): outputs
    and fault counters must match the family's per-message reference
    executor running the same plan."""
    kind, factory = _fault_workload(name)
    graph = triangulated_grid(5, 5)
    horizon = mis_horizon(graph)
    corrupted = 0
    for plan in (_FAULTY_PLAN, *_ADVERSARY_PLANS):
        if name == "grid":
            trials = [
                Trial(graph, inputs=seeded_inputs(graph, seed),
                      max_rounds=horizon + 2,
                      faults=plan.reseed(plan.seed + seed))
                for seed in (31, 32, 33)
            ]
            runs = run_many(factory(graph), trials, processes=1, plane=name)
        else:
            trials = [Trial(graph, inputs=seeded_inputs(graph, 31),
                            max_rounds=horizon + 2, faults=plan)]
            net = Network(graph)
            outputs = net.run(
                factory(graph), max_rounds=horizon + 2,
                inputs=trials[0].inputs, plane=name, faults=plan,
            )
            runs = [(outputs, net.metrics)]
        for trial, (outputs, metrics) in zip(trials, runs):
            reference_net = Network(graph)
            expected = reference_net._run_reference(
                factory(graph), max_rounds=trial.max_rounds,
                inputs=trial.inputs, faults=trial.faults,
            )
            assert outputs == expected
            assert list(outputs) == list(expected)
            assert metrics == reference_net.metrics
            if plan is _FAULTY_PLAN:
                # The plan actually bit: it dropped or delayed messages.
                assert metrics.dropped + metrics.delayed > 0
            else:
                corrupted += metrics.corrupted
    # ... and the adversaries, together, corrupted something.
    assert corrupted > 0


# ---------------------------------------------------------------------------
# Buffer pool: the release_round_buffers contract, owned by the scheduler
# ---------------------------------------------------------------------------
class TestInboxPool:
    def test_run_checks_buffers_out_and_back_in(self):
        graph = nx.path_graph(9)
        horizon = mis_horizon(graph)
        net = Network(graph)
        topology = net._topology
        scheduler_module.release_round_buffers(topology)
        net.run(LubyMISAlgorithm(horizon), max_rounds=horizon + 2,
                inputs=seeded_inputs(graph, 4))
        pooled = scheduler_module._INBOX_POOL.get(topology)
        assert pooled is not None
        first_ids = {id(buffer) for buffer in pooled}
        # Every checked-in buffer is empty.
        for buffer in pooled:
            assert all(not box for box in buffer if box is not None)
        # A second run on the same topology reuses the same list objects.
        Network(graph).run(
            LubyMISAlgorithm(horizon), max_rounds=horizon + 2,
            inputs=seeded_inputs(graph, 5),
        )
        reused = scheduler_module._INBOX_POOL.get(topology)
        assert reused is not None
        assert {id(buffer) for buffer in reused} == first_ids

    def test_run_many_reuses_then_releases_pool(self):
        graph = triangulated_grid(4, 4)
        horizon = mis_horizon(graph)
        topology = Network(graph)._topology
        scheduler_module.release_round_buffers()
        # Seed the pool with a first run so the sweep's reuse is
        # observable by identity.
        Network(graph).run(
            LubyMISAlgorithm(horizon), max_rounds=horizon + 2,
            inputs=seeded_inputs(graph, 0),
        )
        seeded = {
            id(buffer)
            for buffer in scheduler_module._INBOX_POOL[topology]
        }

        observed = []
        original_execute = scheduler_module.execute

        def spying_execute(topology_arg, algorithm, **kwargs):
            pooled = scheduler_module._INBOX_POOL.get(topology_arg)
            observed.append(
                None if pooled is None
                else {id(buffer) for buffer in pooled}
            )
            return original_execute(topology_arg, algorithm, **kwargs)

        trials = [
            Trial(graph, inputs=seeded_inputs(graph, seed),
                  max_rounds=horizon + 2)
            for seed in range(4)
        ]
        scheduler_module.execute = spying_execute
        try:
            run_many(LubyMISAlgorithm(horizon), trials, processes=1)
        finally:
            scheduler_module.execute = original_execute
        # Trial 1 found the pool seeded; trials 2..n found the pair the
        # previous trial returned — same list objects throughout.
        assert observed[0] == seeded
        for entry in observed[1:]:
            assert entry == seeded
        # The sweep's finally released every pooled pair (the weak pool
        # ends empty — the regression this test guards).
        assert len(scheduler_module._INBOX_POOL) == 0

    def test_advance_raising_mid_round_returns_buffers_empty(self):
        # The run_rounds flush-in-finally contract: when advance raises
        # mid-round (fault injection hits this path routinely — e.g. a
        # crashed neighbourhood starving an algorithm into an internal
        # error), the pooled double-buffered inboxes must still be
        # checked back in *empty* on both sides — ``read`` still holds
        # the previous round's messages and ``fill`` holds the partial
        # round's deliveries at the moment of the raise.
        graph = nx.path_graph(6)
        boom_vertex = max(graph.nodes)

        def step(state, ctx, inbox):
            if ctx.round_number >= 2 and ctx.node == boom_vertex:
                raise ValueError("mid-round failure")
            outbox = {v: Message(1, bit_size=4) for v in ctx.neighbors}
            return state, outbox, False, None

        net = Network(graph)
        topology = net._topology
        scheduler_module.release_round_buffers(topology)
        with pytest.raises(ValueError, match="mid-round failure"):
            net.run(FunctionAlgorithm(step), max_rounds=10,
                    plane="broadcast")
        pooled = scheduler_module._INBOX_POOL.get(topology)
        assert pooled is not None
        for buffer in pooled:
            assert all(not box for box in buffer if box is not None)
        # The cap-exhaustion RuntimeError takes the same finally path.
        def chatty(state, ctx, inbox):
            outbox = {v: Message(1, bit_size=4) for v in ctx.neighbors}
            return state, outbox, False, None

        with pytest.raises(RuntimeError, match="did not halt within"):
            Network(graph).run(FunctionAlgorithm(chatty), max_rounds=3,
                               plane="broadcast")
        pooled = scheduler_module._INBOX_POOL.get(topology)
        assert pooled is not None
        for buffer in pooled:
            assert all(not box for box in buffer if box is not None)


def test_imports_leave_multiprocessing_unloaded():
    # run_many imports multiprocessing only on its process-pool branch,
    # so importing the package and the CLI must not load it.
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.congest, repro.cli; "
         "print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Trial-major grid execution: byte-identical to per-trial columnar runs
# ---------------------------------------------------------------------------
def assert_grid_matches_per_trial(algorithm_factory, trials):
    """grid == per-trial columnar == per-message columnar reference, on
    outputs, output keying, and every metrics counter."""
    grid = run_many(algorithm_factory(), list(trials), processes=1,
                    plane="grid")
    per_trial = run_many(algorithm_factory(), list(trials), processes=1,
                         plane="columnar")
    assert len(grid) == len(per_trial) == len(trials)
    for trial, (out_g, met_g), (out_c, met_c) in zip(
        trials, grid, per_trial
    ):
        assert out_g == out_c
        assert list(out_g) == list(out_c)
        assert metrics_tuple(met_g) == metrics_tuple(met_c)
        reference_net = Network(
            trial.graph,
            model=trial.model or "congest",
            bandwidth_factor=trial.bandwidth_factor or 32,
        )
        expected = reference_net._run_reference(
            algorithm_factory(), max_rounds=trial.max_rounds,
            inputs=trial.inputs,
        )
        assert out_g == expected
        assert metrics_tuple(met_g) == metrics_tuple(reference_net.metrics)
    return grid


class TestGridExecution:
    def mis_trials(self, graphs, base_seed=0, **overrides):
        trials = []
        for index, graph in enumerate(graphs):
            horizon = mis_horizon(graph)
            trials.append(Trial(
                graph,
                inputs=seeded_inputs(graph, base_seed + index),
                max_rounds=horizon + 2,
                **overrides,
            ))
        return trials

    def test_mis_same_graph_sweep(self):
        graph = triangulated_grid(5, 5)
        horizon = mis_horizon(graph)
        trials = self.mis_trials([graph] * 6, base_seed=3)
        grid = assert_grid_matches_per_trial(
            lambda: ColumnarLubyMIS(horizon), trials
        )
        # Early-halting trials inside one grid: the sweep's per-trial
        # round counts genuinely differ.
        rounds = [metrics.rounds for _, metrics in grid]
        assert len(set(rounds)) > 1

    def test_mis_uneven_graph_sizes(self):
        graphs = [
            nx.path_graph(11),
            triangulated_grid(5, 5),
            nx.star_graph(7),
            nx.cycle_graph(17),
            nx.empty_graph(4),
        ]
        horizon = max(mis_horizon(graph) for graph in graphs)
        trials = self.mis_trials(graphs, base_seed=8)
        assert_grid_matches_per_trial(
            lambda: ColumnarLubyMIS(horizon), trials
        )

    def test_mis_mixed_models_and_bandwidth(self):
        graphs = [nx.path_graph(9), nx.cycle_graph(12)]
        horizon = max(mis_horizon(graph) for graph in graphs)
        trials = (
            self.mis_trials(graphs, base_seed=2, model="congest")
            + self.mis_trials(graphs, base_seed=4, model="local")
            + self.mis_trials(graphs, base_seed=6, bandwidth_factor=64)
        )
        assert_grid_matches_per_trial(
            lambda: ColumnarLubyMIS(horizon), trials
        )

    def test_coloring_grid(self):
        graph = triangulated_grid(4, 5)
        delta = max(d for _, d in graph.degree)
        n = graph.number_of_nodes()
        horizon = 40 * max(4, n.bit_length() ** 2)
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, seed),
                  max_rounds=horizon + 2)
            for seed in range(5)
        ]
        assert_grid_matches_per_trial(
            lambda: ColumnarTrialColoring(delta + 1, horizon), trials
        )

    def test_bfs_grid_with_vertex_keyed_root(self):
        graph = triangulated_grid(5, 4)
        root = next(iter(graph.nodes))
        horizon = graph.number_of_nodes() + 1
        trials = [
            Trial(graph, max_rounds=horizon + 2) for _ in range(4)
        ]
        assert_grid_matches_per_trial(
            lambda: ColumnarBFSTree(root, horizon), trials
        )

    def test_flood_grid_on_cycle(self):
        graph = nx.cycle_graph(24)
        horizon = graph.number_of_nodes() // 2 + 3
        trials = [Trial(graph, max_rounds=horizon + 2) for _ in range(4)]
        assert_grid_matches_per_trial(
            lambda: ColumnarFloodValue(0, 12345, horizon), trials
        )

    def test_auto_plane_grids_serial_columnar_sweeps(self):
        graph = triangulated_grid(4, 4)
        horizon = mis_horizon(graph)
        trials = self.mis_trials([graph] * 4, base_seed=1)
        auto = run_many(ColumnarLubyMIS(horizon), trials, processes=1)
        forced = run_many(ColumnarLubyMIS(horizon), trials, processes=1,
                          plane="grid")
        for (out_a, met_a), (out_f, met_f) in zip(auto, forced):
            assert out_a == out_f
            assert metrics_tuple(met_a) == metrics_tuple(met_f)

    def test_per_trial_round_caps_raise_single_run_error(self):
        graph = nx.path_graph(6)
        horizon = mis_horizon(graph)
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, 0),
                  max_rounds=horizon + 2),
            Trial(graph, inputs=seeded_inputs(graph, 1), max_rounds=1),
        ]
        with pytest.raises(RuntimeError, match="did not halt within 1 "):
            run_many(ColumnarLubyMIS(horizon), trials, processes=1,
                     plane="grid")

    def test_round_cap_error_attribution_matches_serial_order(self):
        # Serial per-trial execution raises for the first trial in trial
        # order that fails; the grid must attribute the error the same
        # way even when a later trial has a tighter cap.
        from repro.congest.columnar import ColumnarAlgorithm
        from repro.congest.message import ColumnarSpec

        class NeverHalts(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))
            grid_safe = True

            def on_round(self, ctx):
                pass

        graph = nx.path_graph(4)
        trials = [
            Trial(graph, max_rounds=5),
            Trial(graph, max_rounds=3),
        ]
        with pytest.raises(RuntimeError, match="did not halt within 5 "):
            run_many(NeverHalts(), trials, processes=1, plane="columnar")
        with pytest.raises(RuntimeError, match="did not halt within 5 "):
            run_many(NeverHalts(), trials, processes=1, plane="grid")

    # -- FaultPlan.reseed edge cases on the grid plane ----------------------
    def faulty_single(self, trial):
        """The standalone columnar run a grid trial must byte-match."""
        net = Network(trial.graph)
        outputs = net.run(
            ColumnarLubyMIS(mis_horizon(trial.graph)),
            max_rounds=trial.max_rounds, inputs=trial.inputs,
            plane="columnar", faults=trial.faults,
        )
        return outputs, net.metrics

    def test_single_trial_batch_with_reseeded_plan(self):
        # A one-trial grid is the degenerate block-diagonal: its
        # FaultState has one block, and the reseeded plan must behave
        # exactly as in a standalone run.
        graph = triangulated_grid(5, 5)
        plan = _FAULTY_PLAN.reseed(_FAULTY_PLAN.seed + 41)
        trial = Trial(graph, inputs=seeded_inputs(graph, 41),
                      max_rounds=mis_horizon(graph) + 2, faults=plan)
        [(outputs, metrics)] = run_many(
            ColumnarLubyMIS(mis_horizon(graph)), [trial], processes=1,
            plane="grid",
        )
        s_outputs, s_metrics = self.faulty_single(trial)
        assert outputs == s_outputs
        assert metrics == s_metrics

    def test_heterogeneous_plans_in_one_grid_state(self):
        # One block-diagonal FaultState holding structurally different
        # plans per block — different knobs, a targeted adversary, a
        # zero-rate plan, and no plan at all — each block must match its
        # standalone run exactly.  The dup + delay plans (one with
        # degree-targeted, non-constant rate tables) halt at their own
        # rounds, so blocks fall silent at different rounds.  A live
        # crash stream fills every block every round, so the grid runs
        # again without the crash plan, where only the blocks that sent
        # are filled.
        graph = triangulated_grid(5, 5)
        horizon = mis_horizon(graph)
        plans = [
            FaultPlan(seed=3, drop=0.4),
            FaultPlan(seed=3, crash=0.08),
            FaultPlan(seed=5, corrupt=0.3, drop=0.1, target="budget"),
            FaultPlan(seed=7, dup=0.3, delay=2),
            FaultPlan(seed=8, dup=0.5, delay=3, target="degree:0.3"),
            FaultPlan(seed=9),  # zero-rate: must equal the bare trial
            None,
        ]
        # The last two trials share inputs so the zero-rate block can be
        # compared field-for-field against the no-plan block.
        input_seeds = [50, 51, 52, 54, 55, 53, 53]
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, input_seed),
                  max_rounds=horizon + 2, faults=plan)
            for input_seed, plan in zip(input_seeds, plans)
        ]
        for batch in (trials[:1] + trials[2:], trials):
            grid = run_many(ColumnarLubyMIS(horizon), batch, processes=1,
                            plane="grid")
            for trial, (outputs, metrics) in zip(batch, grid):
                s_outputs, s_metrics = self.faulty_single(trial)
                assert outputs == s_outputs
                assert metrics == s_metrics
        # The heterogeneity was real: different fault signatures.
        assert grid[0][1].dropped > 0 and grid[0][1].crashed == 0
        assert grid[1][1].crashed > 0 and grid[1][1].corrupted == 0
        assert grid[2][1].corrupted > 0
        for metrics in (grid[3][1], grid[4][1]):
            assert metrics.duplicated > 0 and metrics.delayed > 0
            assert metrics.dropped == metrics.corrupted == 0
        assert len({metrics.rounds for _outputs, metrics in grid}) > 1
        assert grid[5][1] == grid[6][1]

    def test_reseed_matches_directly_constructed_plan(self):
        # plan.reseed(s) is pure re-keying: the grid block running the
        # reseeded plan is byte-identical to a standalone run with an
        # identically-rated plan constructed from scratch at seed s.
        graph = triangulated_grid(4, 5)
        horizon = mis_horizon(graph)
        reseeded = _FAULTY_PLAN.reseed(123)
        direct = FaultPlan(seed=123, crash=_FAULTY_PLAN.crash,
                           drop=_FAULTY_PLAN.drop, dup=_FAULTY_PLAN.dup,
                           delay=_FAULTY_PLAN.delay,
                           corrupt=_FAULTY_PLAN.corrupt)
        assert reseeded == direct
        inputs = seeded_inputs(graph, 60)
        [(outputs, metrics)] = run_many(
            ColumnarLubyMIS(horizon),
            [Trial(graph, inputs=inputs, max_rounds=horizon + 2,
                   faults=reseeded)],
            processes=1, plane="grid",
        )
        s_outputs, s_metrics = self.faulty_single(
            Trial(graph, inputs=inputs, max_rounds=horizon + 2,
                  faults=direct)
        )
        assert outputs == s_outputs
        assert metrics == s_metrics
        assert metrics.corrupted > 0

    def test_backstop_never_preempts_cap_attribution(self):
        # Trial 0 (cap 5) halts at exactly round 5; trial 1 (cap 3)
        # never halts.  Serial raises trial 1's cap — the grid's generic
        # round backstop (caps.max()) must not fire first with trial
        # 0's.
        from repro.congest.columnar import ColumnarAlgorithm
        from repro.congest.message import ColumnarSpec

        class HaltsAtInput(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))
            grid_safe = True

            def setup(self, ctx):
                self.limit = np.array(
                    [int(value) for value in ctx.inputs], dtype=np.int64
                )

            def on_round(self, ctx):
                ctx.halt(~ctx.halted & (self.limit <= ctx.round_number))

        graph = nx.path_graph(4)
        trials = [
            Trial(graph, inputs={v: 5 for v in graph.nodes}, max_rounds=5),
            Trial(graph, inputs={v: 10 ** 6 for v in graph.nodes},
                  max_rounds=3),
        ]
        for plane in ("columnar", "grid"):
            with pytest.raises(RuntimeError,
                               match="did not halt within 3 "):
                run_many(HaltsAtInput(), trials, processes=1, plane=plane)

    def test_frozen_trial_cannot_raise_beyond_cap_side_effects(self):
        # A trial past its cap must execute no further rounds: its
        # round-4 bandwidth violation would otherwise preempt the
        # serial outcome (trial 0 finishes fine, trial 1 fails its
        # 3-round cap) with a different exception type.
        from repro.congest.columnar import ColumnarAlgorithm
        from repro.congest.message import ColumnarSpec

        class ShoutsAtFour(ColumnarAlgorithm):
            spec = ColumnarSpec(("high", np.int64), ("low", np.int64))
            grid_safe = True

            def setup(self, ctx):
                self.shouts = np.array(
                    [bool(value) for value in ctx.inputs], dtype=bool
                )

            def on_round(self, ctx):
                stepped = ~ctx.halted
                if ctx.round_number == 4:
                    loud = np.flatnonzero(stepped & self.shouts)
                    if loud.size:
                        ctx.emit_columns(loud, high=1 << 60, low=1 << 60)
                if ctx.round_number >= 6:
                    ctx.halt(stepped)

        graph = nx.path_graph(4)
        trials = [
            Trial(graph, inputs={v: 0 for v in graph.nodes}, max_rounds=10),
            Trial(graph, inputs={v: 1 for v in graph.nodes}, max_rounds=3),
        ]
        for plane in ("columnar", "grid"):
            with pytest.raises(RuntimeError,
                               match="did not halt within 3 "):
                run_many(ShoutsAtFour(), trials, processes=1, plane=plane)

    def test_grid_refuses_unsupported_algorithms(self):
        graph = nx.path_graph(4)
        with pytest.raises(ValueError, match="supported planes"):
            run_many(
                LubyMISAlgorithm(100),
                [Trial(graph, inputs=seeded_inputs(graph, 0))],
                processes=1,
                plane="grid",
            )
        with pytest.raises(ValueError, match="supported planes"):
            run_many(
                ColumnarConvergecastSum(10),
                [Trial(graph)],
                processes=1,
                plane="grid",
            )

    def test_grid_bandwidth_violation_names_trial_budget(self):
        from repro.congest import BandwidthExceededError
        from repro.congest.columnar import ColumnarAlgorithm
        from repro.congest.message import ColumnarSpec

        class Shouter(ColumnarAlgorithm):
            spec = ColumnarSpec(("high", np.int64), ("low", np.int64))
            grid_safe = True

            def on_round(self, ctx):
                senders = np.arange(ctx.n, dtype=np.int64)
                ctx.emit_columns(senders, high=1 << 60, low=1 << 60)
                ctx.halt(~ctx.halted)

        graph = nx.path_graph(4)
        single_net = Network(graph)
        with pytest.raises(BandwidthExceededError) as single_error:
            single_net.run(Shouter())
        with pytest.raises(BandwidthExceededError) as grid_error:
            run_many(Shouter(), [Trial(graph), Trial(graph)],
                     processes=1, plane="grid")
        assert str(grid_error.value) == str(single_error.value)


# ---------------------------------------------------------------------------
# CLI: --plane auto works for every wrapped problem; errors derive from
# the registry
# ---------------------------------------------------------------------------
class TestCLIPlaneSelection:
    @pytest.mark.parametrize("problem", ["mis", "matching", "coloring", "bfs"])
    def test_plane_auto_every_problem(self, problem, capsys):
        assert cli_main([
            "simulate", problem, "planar:24:2", "--plane", "auto",
            "--trials", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "plane: auto" in out
        assert "sweep total" in out

    def test_plane_grid_matches_columnar(self, capsys):
        assert cli_main([
            "simulate", "mis", "planar:24:2", "--plane", "grid",
            "--trials", "3", "--seed", "5",
        ]) == 0
        grid_out = capsys.readouterr().out
        assert cli_main([
            "simulate", "mis", "planar:24:2", "--plane", "columnar",
            "--trials", "3", "--seed", "5",
        ]) == 0
        columnar_out = capsys.readouterr().out
        grid_trials = [
            line for line in grid_out.splitlines()
            if line.startswith("  trial")
        ]
        columnar_trials = [
            line for line in columnar_out.splitlines()
            if line.startswith("  trial")
        ]
        assert grid_trials and grid_trials == columnar_trials

    def test_unsupported_plane_error_derives_from_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "simulate", "matching", "planar:24:2", "--plane", "columnar",
            ])
        message = str(excinfo.value)
        assert "supported planes" in message
        assert "broadcast" in message
        # The stale hand-written hint is gone for good.
        assert "use --plane dict" not in message

    def test_removed_dict_plane_refused(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["simulate", "coloring", "cycle:12", "--plane", "dict"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'dict'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Narrowed-dtype compile path: every registered plane, enforced
# ---------------------------------------------------------------------------
# The streaming scale layer (runtime/compile.py: compile_edge_stream)
# produces int32-narrowed CSR topologies.  The int64 path stays the
# byte-level reference, so the narrowed path is itself a plane-config:
# every registered plane must run a streamed int32 topology — and its
# int64 opt-out twin — byte-identically (outputs, output order, and
# every NetworkMetrics field) against the family's per-message reference
# executor on the equivalent ``nx.Graph``.  A plane family with no
# entry here fails loudly, exactly like the coverage gates above.
from repro.congest.runtime.compile import compile_edge_stream
from repro.graphs.streaming import materialize_edges, stream_powerlaw_edges

STREAM_SAMPLE_WORKLOADS = {
    "object": lambda graph: LubyMISAlgorithm(mis_horizon(graph)),
    "columnar": lambda graph: ColumnarLubyMIS(mis_horizon(graph)),
}

_STREAM_N, _STREAM_M, _STREAM_SEED = 64, 320, 23


def _streamed_topologies():
    """(int32 topology, int64 opt-out twin, equivalent nx.Graph)."""
    blocks = list(
        stream_powerlaw_edges(_STREAM_N, _STREAM_M, seed=_STREAM_SEED)
    )
    narrow = compile_edge_stream(iter(blocks), _STREAM_N)
    wide = compile_edge_stream(iter(blocks), _STREAM_N, index_dtype="int64")
    graph = nx.Graph()
    graph.add_nodes_from(range(_STREAM_N))
    graph.add_edges_from(
        (int(u), int(v))
        for u, v in materialize_edges(iter(blocks))
        if u != v
    )
    return narrow, wide, graph


@pytest.mark.parametrize("name", plane_names())
def test_every_registered_plane_covers_narrowed_dtype_topologies(name):
    kind = PLANES[name]
    factory = STREAM_SAMPLE_WORKLOADS.get(kind)
    if factory is None:
        pytest.fail(
            f"registered plane {name!r} has kind {kind!r} with no "
            f"streamed-topology sample workload: add one to "
            f"STREAM_SAMPLE_WORKLOADS so the narrowed-dtype compile "
            f"path is differentially tested on this plane"
        )
    narrow, wide, graph = _streamed_topologies()
    assert narrow.index_dtype == np.int32
    assert wide.index_dtype == np.int64
    horizon = mis_horizon(graph)
    inputs = seeded_inputs(graph, 17)
    cap = horizon + 2
    reference_net = Network(graph)
    expected = reference_net._run_reference(
        factory(graph), max_rounds=cap, inputs=inputs
    )
    for topology in (narrow, wide):
        if name == "grid":
            outputs, metrics = run_many(
                factory(graph),
                [Trial(topology, inputs=inputs, max_rounds=cap)],
                processes=1, plane=name,
            )[0]
        else:
            net = Network(topology)
            outputs = net.run(
                factory(graph), max_rounds=cap, inputs=inputs, plane=name
            )
            metrics = net.metrics
        assert outputs == expected
        assert list(outputs) == list(expected)
        assert metrics_tuple(metrics) == metrics_tuple(
            reference_net.metrics
        )
