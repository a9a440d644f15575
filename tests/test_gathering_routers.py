"""The gathering routers on the variable-width columnar plane.

Differential contract of the Lemma 2.2/2.5 ports:

* the walk-token router (``WalkTokenRouter`` / the columnar port) is
  byte-identical — outputs, output keying, **and** metrics — across the
  object planes, the columnar plane, and both per-message reference
  executors, and its folded outcome equals the centralized
  :func:`simulate_walks` entry for entry;
* the schedule / arrival floods (``flood_values`` over
  ``BroadcastAlgorithm`` vs ``ColumnarVarFlood``) agree the same way,
  including the empty-tuple payload the fixed-width plane cannot type;
* the grid plane reproduces per-trial columnar runs for both var-column
  workloads (trial-major pools segment per block);
* ``KWiseHash.describe``/``from_description`` round-trips and rejects
  corrupted coefficient broadcasts.
"""

from __future__ import annotations

import dataclasses
import networkx as nx
import numpy as np
import pytest

from repro.congest import BandwidthExceededError, Network, Trial, run_many
from repro.congest.algorithms import (
    BroadcastAlgorithm,
    ColumnarVarFlood,
    flood_values,
)
from repro.gathering import (
    KWiseHash,
    ColumnarWalkTokenRouter,
    WalkSchedule,
    WalkTokenRouter,
    broadcast_schedule,
    build_regularized_split,
    execute_walk_schedule,
    find_walk_schedule,
    gather_with_load_balancing,
    gather_with_random_walks,
    notify_arrivals,
    schedule_hash,
    simulate_walks,
)
from repro.gathering.random_walks import (
    _WALK_ROUTER_VARIANTS,
    _message_origins,
)
from repro.graphs import constant_degree_expander


def small_instance(n=18, seed=3, steps=10, r=3):
    """A fast, deterministic routing workload: synthetic schedule over
    the regularized split of a small expander."""
    graph = constant_degree_expander(n)
    sink = max(graph.nodes, key=lambda v: graph.degree[v])
    regular = build_regularized_split(graph)
    origins = _message_origins(graph, sink)
    schedule = WalkSchedule(
        seed=seed, walks_per_message=r, steps=steps,
        degree=regular.degree, k=6, good_fraction=0.0,
    )
    return graph, sink, regular, origins, schedule


# ---------------------------------------------------------------------------
# Walk-token forwarding
# ---------------------------------------------------------------------------
class TestWalkTokenRouter:
    def test_all_planes_byte_identical_and_match_simulation(self):
        _, _, regular, origins, schedule = small_instance()
        expected = simulate_walks(
            regular, origins, schedule_hash(schedule),
            schedule.walks_per_message, schedule.steps,
        )
        baseline = None
        for plane in ("broadcast", "reference", "columnar",
                      "columnar-reference"):
            outcome = execute_walk_schedule(
                regular, origins, schedule, plane=plane
            )
            assert outcome["final"] == expected["final"]
            assert outcome["discarded"] == expected["discarded"]
            assert outcome["max_load"] == expected["max_load"]
            counters = dataclasses.astuple(outcome["metrics"])
            if baseline is None:
                baseline = counters
            assert counters == baseline

    def test_congestion_discards_match_simulation(self):
        _, _, regular, origins, schedule = small_instance(steps=8)
        cap = 2  # far below 3r: the discard rule must actually bite
        expected = simulate_walks(
            regular, origins, schedule_hash(schedule),
            schedule.walks_per_message, schedule.steps, congestion_cap=cap,
        )
        assert expected["discarded"] > 0
        for plane in ("broadcast", "columnar"):
            outcome = execute_walk_schedule(
                regular, origins, schedule, congestion_cap=cap, plane=plane
            )
            assert outcome["final"] == expected["final"]
            assert outcome["discarded"] == expected["discarded"]
            assert outcome["max_load"] == expected["max_load"]

    def test_router_outputs_keyed_like_graph_nodes(self):
        _, _, regular, origins, schedule = small_instance(steps=4)
        net = Network(regular.split.split, model="local")
        hash_function = schedule_hash(schedule)
        inputs = {start: (i, regular.index[start])
                  for i, (_mid, start) in enumerate(origins)}
        for plane in ("broadcast", "columnar"):
            algorithm = _WALK_ROUTER_VARIANTS[
                "columnar" if plane == "columnar" else "object"
            ](regular.degree, schedule.steps, 10 ** 9, hash_function)
            outputs = Network(regular.split.split, model="local").run(
                algorithm, max_rounds=schedule.steps + 3, inputs=inputs,
                plane=plane,
            )
            assert list(outputs) == list(regular.split.split.nodes)

    def test_congest_mode_rejects_oversized_token_lists(self):
        # Token lists exceed one O(log n)-bit message — the reason the
        # paper serializes them over 3r rounds and the router defaults
        # to model="local".  r = 256 walks per message packs ~16 pairs
        # into single edge messages, far over the 32·log n budget.
        _, _, regular, origins, schedule = small_instance(
            n=10, steps=1, r=256
        )
        for plane in ("broadcast", "columnar"):
            with pytest.raises(BandwidthExceededError):
                execute_walk_schedule(
                    regular, origins, schedule, model="congest", plane=plane
                )

    def test_walk_id_packing_guard(self):
        _, _, regular, origins, schedule = small_instance()
        big = WalkSchedule(
            seed=0, walks_per_message=1 << 21, steps=2,
            degree=regular.degree, k=4, good_fraction=0.0,
        )
        with pytest.raises(ValueError, match="20-bit"):
            execute_walk_schedule(regular, origins, big)

    def test_gather_wrapper_cross_checks_routing(self):
        graph = constant_degree_expander(20)
        sink = max(graph.nodes, key=lambda v: graph.degree[v])
        delivered, rounds, schedule = gather_with_random_walks(
            graph, sink, f=0.3, phi_hint=0.4, simulate_walk_routing=True
        )
        reference, _, _ = gather_with_random_walks(
            graph, sink, f=0.3, phi_hint=0.4
        )
        assert delivered == reference
        assert rounds == schedule.execution_rounds()

    def test_grid_matches_per_trial_columnar(self):
        _, _, regular, origins, schedule = small_instance(steps=6)
        hash_function = schedule_hash(schedule)
        split_graph = regular.split.split
        inputs = {}
        for i, (_mid, start) in enumerate(origins):
            flat = inputs.setdefault(start, [])
            for beta in range(schedule.walks_per_message):
                flat.extend((i * schedule.walks_per_message + beta,
                             regular.index[start]))
        inputs = {v: tuple(flat) for v, flat in inputs.items()}
        trials = [
            Trial(split_graph, inputs=inputs, model="local",
                  max_rounds=schedule.steps + 3)
            for _ in range(3)
        ]
        algorithm = ColumnarWalkTokenRouter(
            regular.degree, schedule.steps, 3 * schedule.walks_per_message,
            hash_function,
        )
        grid = run_many(algorithm, trials, processes=1, plane="grid")
        per_trial = run_many(algorithm, trials, processes=1,
                             plane="columnar")
        for (out_g, met_g), (out_c, met_c) in zip(grid, per_trial):
            assert out_g == out_c
            assert list(out_g) == list(out_c)
            assert met_g == met_c


# ---------------------------------------------------------------------------
# Schedule / arrival floods
# ---------------------------------------------------------------------------
FLOOD_PAYLOADS = [
    (),  # the empty description ColumnarFloodValue cannot express
    (7,),
    (3, 1, 4, 1, 5, 9, 2, 6),
    (-5, 0, 1 << 40),
]


class TestVarFlood:
    @pytest.mark.parametrize("payload", FLOOD_PAYLOADS,
                             ids=[str(len(p)) for p in FLOOD_PAYLOADS])
    def test_all_planes_byte_identical(self, payload):
        graph = nx.disjoint_union(constant_degree_expander(9),
                                  nx.path_graph(4))
        root = min(graph.nodes)
        runs = []
        for plane in ("broadcast", "reference", "columnar",
                      "columnar-reference"):
            outputs, metrics = flood_values(
                graph, root, payload, model="local", plane=plane
            )
            runs.append((outputs, dataclasses.astuple(metrics)))
        baseline_outputs, baseline_metrics = runs[0]
        assert any(v == payload for v in baseline_outputs.values())
        # The other component never hears the flood.
        assert any(v is None for v in baseline_outputs.values())
        for outputs, metrics in runs[1:]:
            assert outputs == baseline_outputs
            assert list(outputs) == list(baseline_outputs)
            assert metrics == baseline_metrics

    def test_grid_matches_per_trial(self):
        graph = constant_degree_expander(11)
        root = min(graph.nodes)
        horizon = graph.number_of_nodes() + 1
        trials = [Trial(graph, max_rounds=horizon + 2) for _ in range(4)]
        algorithm = ColumnarVarFlood(root, (2, 7, 1, 8), horizon)
        grid = run_many(algorithm, trials, processes=1, plane="grid")
        per_trial = run_many(algorithm, trials, processes=1,
                             plane="columnar")
        for (out_g, met_g), (out_c, met_c) in zip(grid, per_trial):
            assert out_g == out_c
            assert met_g == met_c

    def test_schedule_broadcast_planes_agree(self):
        graph = constant_degree_expander(12)
        sink = max(graph.nodes, key=lambda v: graph.degree[v])
        schedule, _ = find_walk_schedule(graph, sink, f=0.3, phi_hint=0.4)
        expected = (
            schedule.seed, schedule.walks_per_message, schedule.steps,
            schedule.degree, schedule.k,
        )
        results = {}
        for plane in ("broadcast", "columnar"):
            outputs, metrics = broadcast_schedule(
                graph, sink, schedule, plane=plane
            )
            assert all(v == expected for v in outputs.values())
            results[plane] = dataclasses.astuple(metrics)
        assert results["broadcast"] == results["columnar"]

    def test_schedule_broadcast_with_coefficients(self):
        graph = constant_degree_expander(10)
        sink = max(graph.nodes, key=lambda v: graph.degree[v])
        schedule, _ = find_walk_schedule(graph, sink, f=0.3, phi_hint=0.4)
        (outputs, metrics), (object_out, object_metrics) = (
            broadcast_schedule(graph, sink, schedule, model="local",
                               include_coefficients=True, plane=plane)
            for plane in ("columnar", "broadcast"))
        assert outputs == object_out
        assert metrics == object_metrics
        received = next(iter(outputs.values()))
        # Length varies with k: base 5-tuple plus the k coefficients,
        # which must equal the seed's splitmix64 expansion.
        assert len(received) == 5 + schedule.k
        assert received[5:] == schedule_hash(schedule).coefficients

    def test_arrival_report_planes_agree(self):
        graph = constant_degree_expander(16)
        sink = max(graph.nodes, key=lambda v: graph.degree[v])
        results = {}
        for plane in ("broadcast", "columnar"):
            outcome = gather_with_load_balancing(
                graph, sink, f=0.3, simulate_arrival_report=True,
                plane=plane,
            )
            assert outcome.delivered_fraction >= 0.7 - 1e-9
            assert outcome.report_metrics is not None
            assert outcome.report_metrics.messages > 0
            assert any("report" in entry for entry in outcome.detail)
            results[plane] = dataclasses.astuple(outcome.report_metrics)
        assert results["broadcast"] == results["columnar"]

    def test_notify_arrivals_direct(self):
        graph = constant_degree_expander(10)
        sink = max(graph.nodes, key=lambda v: graph.degree[v])
        regular = build_regularized_split(graph)
        split_graph = regular.split.split
        index_of = {
            u: i for i, u in enumerate(sorted(split_graph.nodes, key=repr))
        }
        arrived = set(list(index_of)[:5])
        source = (sink, 0)
        outputs, metrics = notify_arrivals(
            split_graph, source, arrived, index_of
        )
        expected = tuple(sorted(index_of[m] for m in arrived))
        assert all(v == expected for v in outputs.values())
        assert metrics.messages > 0


# ---------------------------------------------------------------------------
# Hash descriptions (the broadcastable k-wise family member)
# ---------------------------------------------------------------------------
class TestHashDescription:
    def test_roundtrip(self):
        h = KWiseHash(k=5, range_size=12, seed=9)
        assert KWiseHash.from_description(h.describe()) == h
        rebuilt = KWiseHash.from_description(
            h.describe(include_coefficients=True)
        )
        assert rebuilt == h
        assert rebuilt.coefficients == h.coefficients

    def test_description_length_varies_with_k(self):
        short = KWiseHash(k=4, range_size=8, seed=1)
        long = KWiseHash(k=9, range_size=8, seed=1)
        assert len(short.describe(include_coefficients=True)) == 4 + 4
        assert len(long.describe(include_coefficients=True)) == 4 + 9

    def test_corrupted_coefficients_rejected(self):
        h = KWiseHash(k=4, range_size=8, seed=2)
        description = list(h.describe(include_coefficients=True))
        description[-1] ^= 1
        with pytest.raises(ValueError, match="coefficients"):
            KWiseHash.from_description(description)

    def test_truncated_description_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            KWiseHash.from_description((4, 8))
