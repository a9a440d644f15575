"""Tests for the RNG plane (``repro.congest.runtime.rng``).

Four tiers, matching the contract the module docstring promises:

* **exact byte-identity regression** — ``rng=None``, ``rng="exact"``,
  and an explicit ``RngPlan()`` are bit-for-bit the same run, enforced
  on *every registered plane* exactly like the differential-coverage
  gates in ``test_runtime.py``;
* **vectorized determinism and plane-independence** — same plan, same
  trial ⇒ same outputs, whether executed on ``columnar``,
  ``columnar-reference``, or inside a ``grid`` block, and across
  repeated runs;
* **distributional agreement** — exact and vectorized modes are
  different samplers over the same algorithm, so ≥64-seed ensembles
  (``tests/ensemble.py``) must produce valid MIS/coloring outputs under
  both and statistically indistinguishable round distributions;
* **capability gating** — object-family algorithms reject
  ``rng="vectorized"`` with a ``rng_modes``-derived error everywhere it
  can be requested (``Network.run``, ``run_many``, the grid executor,
  the ``simulate`` CLI), and a grid chunk cannot mix modes.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import numpy as np
import pytest

from ensemble import (
    ENSEMBLE_SEEDS,
    assert_every_coloring_valid,
    assert_every_mis_valid,
    assert_round_distributions_agree,
    round_counts,
    run_ensemble,
    seeded_inputs,
)
from repro.cli import main as cli_main
from repro.congest import (
    Network,
    RngPlan,
    Trial,
    plane_names,
    run_many,
)
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarSelfHealingMIS,
    ColumnarTrialColoring,
    LubyMISAlgorithm,
    TrialColoringAlgorithm,
)
from repro.congest.runtime import PLANES
from repro.congest.runtime.rng import (
    ExactRng,
    GridRng,
    VectorizedRng,
    derive_stream_key,
    grid_rng_state,
    rng_state_for,
    supports_vectorized,
)
from repro.graphs import triangulated_grid


def mis_horizon(graph):
    n = graph.number_of_nodes()
    return 20 * max(4, n.bit_length() ** 2)


def coloring_args(graph):
    delta = max((d for _, d in graph.degree), default=0)
    return delta + 1, mis_horizon(graph)


# ---------------------------------------------------------------------------
# RngPlan / key schedule unit behaviour
# ---------------------------------------------------------------------------
class TestRngPlan:
    def test_defaults_and_coercion(self):
        assert RngPlan() == RngPlan.coerce(None) == RngPlan.coerce("exact")
        assert RngPlan.coerce("vectorized").vectorized
        plan = RngPlan("vectorized", seed=4)
        assert RngPlan.coerce(plan) is plan

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown rng mode"):
            RngPlan(mode="philox")

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RngPlan(seed=-3)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="mode string"):
            RngPlan.coerce(1.5)

    def test_reseed_copies(self):
        plan = RngPlan("vectorized", seed=1)
        assert plan.reseed(9).seed == 9
        assert plan.seed == 1

    def test_capability_defaults(self):
        assert not supports_vectorized(LubyMISAlgorithm(10))
        assert not supports_vectorized(TrialColoringAlgorithm(4, 10))
        assert supports_vectorized(ColumnarLubyMIS(10))
        assert supports_vectorized(ColumnarTrialColoring(4, 10))
        assert supports_vectorized(ColumnarSelfHealingMIS(10, 10))

    def test_stream_key_is_pure_and_discriminating(self):
        inputs = [17, 4, 99, 4]
        assert derive_stream_key(0, inputs) == derive_stream_key(0, inputs)
        assert derive_stream_key(0, inputs) != derive_stream_key(1, inputs)
        assert derive_stream_key(0, inputs) != derive_stream_key(
            0, list(reversed(inputs))
        )

    def test_state_factory(self):
        assert isinstance(rng_state_for(None, [1, 2]), ExactRng)
        assert isinstance(rng_state_for("vectorized", [1, 2]), VectorizedRng)

    def test_vectorized_draws_are_column_slices(self):
        state = rng_state_for(RngPlan("vectorized", seed=2), list(range(10)))
        full = state.randrange_rows(3, np.arange(10), 1 << 20)
        some = state.randrange_rows(3, np.array([2, 7, 9]), 1 << 20)
        assert list(some) == [full[2], full[7], full[9]]
        # Distinct rounds and slots key distinct counter blocks.
        assert list(full) != list(state.randrange_rows(4, np.arange(10),
                                                       1 << 20))
        assert list(full) != list(state.randrange_rows(3, np.arange(10),
                                                       1 << 20, slot=1))

    def test_grid_blocks_match_single_runs(self):
        inputs = [seeded_inputs(triangulated_grid(3, 3), s) for s in (0, 1)]
        flat = [v for block in inputs for v in block.values()]
        sizes = [len(block) for block in inputs]
        grid = grid_rng_state(["vectorized", "vectorized"], flat, sizes)
        assert isinstance(grid, GridRng)
        column = grid.uniform_rows(5, np.arange(sum(sizes)))
        for index, block in enumerate(inputs):
            single = rng_state_for("vectorized", list(block.values()))
            offset = sum(sizes[:index])
            assert list(column[offset:offset + sizes[index]]) == list(
                single.uniform_rows(5, np.arange(sizes[index]))
            )

    def test_grid_mixed_modes_rejected(self):
        with pytest.raises(ValueError, match="one rng mode"):
            grid_rng_state([None, "vectorized"], [1, 2, 3, 4], [2, 2])


# ---------------------------------------------------------------------------
# Exact byte-identity regression: every registered plane
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", plane_names())
def test_exact_plan_is_byte_identical_on_every_plane(name):
    """``rng=None`` / ``rng="exact"`` / ``RngPlan()`` are the same run."""
    kind = PLANES[name]
    graph = triangulated_grid(5, 5)
    horizon = mis_horizon(graph)
    factories = {
        "object": lambda: LubyMISAlgorithm(horizon),
        "columnar": lambda: ColumnarLubyMIS(horizon),
    }
    factory = factories[kind]
    if name == "grid":
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, seed),
                  max_rounds=horizon + 2)
            for seed in (5, 6, 7)
        ]
        runs = [
            run_many(factory(), trials, processes=1, plane=name, rng=rng)
            for rng in (None, "exact", RngPlan())
        ]
        assert pickle.dumps(runs[0]) == pickle.dumps(runs[1])
        assert pickle.dumps(runs[0]) == pickle.dumps(runs[2])
        return
    inputs = seeded_inputs(graph, 5)
    baseline = None
    for rng in (None, "exact", RngPlan()):
        net = Network(graph)
        outputs = net.run(
            factory(), max_rounds=horizon + 2, inputs=inputs,
            plane=name, rng=rng,
        )
        snapshot = (outputs, dataclasses.astuple(net.metrics))
        if baseline is None:
            baseline = pickle.dumps(snapshot)
        else:
            assert pickle.dumps(snapshot) == baseline


# ---------------------------------------------------------------------------
# Vectorized determinism + plane independence
# ---------------------------------------------------------------------------
class TestVectorizedDeterminism:
    def setup_method(self):
        self.graph = triangulated_grid(5, 5)
        self.horizon = mis_horizon(self.graph)
        self.inputs = seeded_inputs(self.graph, 21)

    def _run(self, plane, rng="vectorized"):
        net = Network(self.graph)
        outputs = net.run(
            ColumnarLubyMIS(self.horizon), max_rounds=self.horizon + 2,
            inputs=self.inputs, plane=plane, rng=rng,
        )
        return outputs, dataclasses.astuple(net.metrics)

    def test_repeat_runs_identical(self):
        assert pickle.dumps(self._run("columnar")) == pickle.dumps(
            self._run("columnar")
        )

    def test_columnar_vs_reference_identical(self):
        assert pickle.dumps(self._run("columnar")) == pickle.dumps(
            self._run("columnar-reference")
        )

    def test_grid_slice_equals_single_run(self):
        trials = [
            Trial(self.graph, inputs=seeded_inputs(self.graph, seed),
                  max_rounds=self.horizon + 2)
            for seed in (21, 22, 23)
        ]
        palette, _ = coloring_args(self.graph)
        for make in (lambda: ColumnarLubyMIS(self.horizon),
                     lambda: ColumnarTrialColoring(palette, self.horizon)):
            batched = run_many(make(), trials, processes=1, plane="grid",
                               rng="vectorized")
            for trial, (outputs, metrics) in zip(trials, batched):
                net = Network(trial.graph)
                single = net.run(
                    make(), max_rounds=trial.max_rounds, inputs=trial.inputs,
                    plane="columnar", rng="vectorized",
                )
                assert outputs == single
                assert list(outputs) == list(single)
                assert metrics == net.metrics

    def test_vectorized_differs_from_exact_but_both_valid(self):
        from repro.congest import check_mis

        exact = self._run("columnar", rng="exact")
        vectorized = self._run("columnar")
        assert pickle.dumps(exact) != pickle.dumps(vectorized)
        for outputs, _metrics in (exact, vectorized):
            report = check_mis(self.graph, outputs)
            assert report.holds, report

    def test_plan_seed_changes_the_streams(self):
        base = self._run("columnar", rng=RngPlan("vectorized", seed=0))
        reseeded = self._run("columnar", rng=RngPlan("vectorized", seed=1))
        assert pickle.dumps(base) != pickle.dumps(reseeded)


# ---------------------------------------------------------------------------
# Distributional tier: ≥64-seed ensembles, exact vs vectorized
# ---------------------------------------------------------------------------
class TestDistributionalAgreement:
    def test_mis_ensembles(self):
        graph = triangulated_grid(5, 5)
        horizon = mis_horizon(graph)
        factory = lambda: ColumnarLubyMIS(horizon)  # noqa: E731
        exact = run_ensemble(
            factory, graph, max_rounds=horizon + 2, rng="exact"
        )
        vectorized = run_ensemble(
            factory, graph, max_rounds=horizon + 2, rng="vectorized"
        )
        assert len(exact) == len(vectorized) == len(ENSEMBLE_SEEDS)
        assert_every_mis_valid(graph, exact)
        assert_every_mis_valid(graph, vectorized)
        assert_round_distributions_agree(
            round_counts(exact), round_counts(vectorized)
        )

    def test_coloring_ensembles(self):
        graph = triangulated_grid(5, 5)
        palette, horizon = coloring_args(graph)
        factory = lambda: ColumnarTrialColoring(palette, horizon)  # noqa: E731
        exact = run_ensemble(
            factory, graph, max_rounds=horizon + 2, rng="exact"
        )
        vectorized = run_ensemble(
            factory, graph, max_rounds=horizon + 2, rng="vectorized"
        )
        assert_every_coloring_valid(graph, exact, palette=palette)
        assert_every_coloring_valid(graph, vectorized, palette=palette)
        assert_round_distributions_agree(
            round_counts(exact), round_counts(vectorized)
        )


# ---------------------------------------------------------------------------
# Capability gating: every entry that accepts rng rejects unsupported use
# ---------------------------------------------------------------------------
class TestCapabilityGating:
    def test_network_run_rejects_object_algorithms(self):
        graph = triangulated_grid(4, 4)
        with pytest.raises(ValueError, match="rng_modes"):
            Network(graph).run(
                LubyMISAlgorithm(mis_horizon(graph)),
                inputs=seeded_inputs(graph, 0),
                rng="vectorized",
            )

    def test_run_many_rejects_object_algorithms(self):
        graph = triangulated_grid(4, 4)
        trials = [Trial(graph, inputs=seeded_inputs(graph, 0),
                        max_rounds=500)]
        with pytest.raises(ValueError, match="rng_modes"):
            run_many(
                LubyMISAlgorithm(mis_horizon(graph)), trials, processes=1,
                rng="vectorized",
            )

    def test_grid_executor_rejects_mixed_trial_modes(self):
        graph = triangulated_grid(4, 4)
        horizon = mis_horizon(graph)
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, 0),
                  max_rounds=horizon + 2, rng="exact"),
            Trial(graph, inputs=seeded_inputs(graph, 1),
                  max_rounds=horizon + 2, rng="vectorized"),
        ]
        with pytest.raises(ValueError, match="one rng mode"):
            run_many(
                ColumnarLubyMIS(horizon), trials, processes=1, plane="grid"
            )

    def test_per_trial_rng_override_wins_over_sweep_default(self):
        graph = triangulated_grid(4, 4)
        horizon = mis_horizon(graph)
        trial = Trial(graph, inputs=seeded_inputs(graph, 3),
                      max_rounds=horizon + 2, rng="vectorized")
        overridden = run_many(
            ColumnarLubyMIS(horizon), [trial], processes=1, rng="exact"
        )
        sweep = run_many(
            ColumnarLubyMIS(horizon),
            [Trial(graph, inputs=seeded_inputs(graph, 3),
                   max_rounds=horizon + 2)],
            processes=1, rng="vectorized",
        )
        assert pickle.dumps(overridden) == pickle.dumps(sweep)


# ---------------------------------------------------------------------------
# simulate CLI: --rng plumbs through, unsupported combos exit 2
# ---------------------------------------------------------------------------
class TestSimulateCli:
    def test_vectorized_mis_runs_and_reports_mode(self, capsys):
        assert cli_main([
            "simulate", "mis", "grid:16", "--trials", "2", "--seed", "3",
            "--rng", "vectorized",
        ]) == 0
        out = capsys.readouterr().out
        assert "rng: vectorized" in out
        assert out.count("|IS| =") == 2

    def test_exact_default_reported(self, capsys):
        assert cli_main(["simulate", "mis", "grid:9", "--seed", "3"]) == 0
        assert "rng: exact" in capsys.readouterr().out

    def test_vectorized_without_capable_variant_exits_2(self, capsys):
        # BFS has no randomized draws, hence no vectorized variant.
        assert cli_main([
            "simulate", "bfs", "grid:9", "--rng", "vectorized",
        ]) == 2
        err = capsys.readouterr().err
        assert "--rng vectorized is not supported" in err

    def test_vectorized_on_object_plane_exits_2_and_names_alternatives(
        self, capsys
    ):
        assert cli_main([
            "simulate", "mis", "grid:9", "--plane", "broadcast",
            "--rng", "vectorized",
        ]) == 2
        err = capsys.readouterr().err
        assert "--rng vectorized is not supported" in err
        assert "columnar" in err
