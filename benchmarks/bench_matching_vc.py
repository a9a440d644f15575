"""Corollary 6.4: (1 − ε)-approximate matching and (1 + ε)-approximate
vertex cover.

Series regenerated:

* quality vs the exact optimum across an ε sweep (matching and VC);
* who-wins vs the greedy baselines (½-approximate maximal matching,
  2-approximate matching-based VC);
* ablation: with vs without Solomon's bounded-degree
  sparsifier — the sparsifier caps the Δ entering the decomposition's
  ε* = ε/(2Δ − 1), which is the paper's reason for using it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import (
    bench_payload,
    fmt,
    print_table,
    sweep_run_many,
    write_bench_json,
)

from repro.applications import (
    approximate_maximum_matching,
    approximate_minimum_vertex_cover,
    greedy_matching,
    greedy_vertex_cover,
    maximum_matching_exact,
    minimum_vertex_cover_exact,
)
from repro.applications._template import kpr_decomposer
from repro.graphs import random_planar_triangulation


def test_matching_quality_sweep(benchmark):
    graph = random_planar_triangulation(110, seed=2)
    optimum = len(maximum_matching_exact(graph))
    baseline = len(greedy_matching(graph))
    epsilons = [0.4, 0.25, 0.15]

    def run():
        return [
            (eps, approximate_maximum_matching(graph, eps, decomposer=kpr_decomposer))
            for eps in epsilons
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [eps, result.value, optimum, baseline, fmt(result.value / optimum),
         result.extras["sparsifier_delta"]]
        for eps, result in results
    ]
    print_table(
        "Cor 6.4 — (1−ε)-approximate maximum matching",
        ["ε", "decomposition", "exact OPT", "greedy (½)", "ratio", "Δ after sparsifier"],
        rows,
    )
    for eps, result in results:
        assert result.value >= (1 - eps) * optimum


def test_vertex_cover_quality_sweep(benchmark):
    graph = random_planar_triangulation(90, seed=3)
    optimum = len(minimum_vertex_cover_exact(graph))
    baseline = len(greedy_vertex_cover(graph))
    epsilons = [0.4, 0.25]

    def run():
        return [
            (eps, approximate_minimum_vertex_cover(
                graph, eps, decomposer=kpr_decomposer))
            for eps in epsilons
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [eps, result.value, optimum, baseline, fmt(result.value / optimum),
         f"{result.exact_clusters}/{result.total_clusters}"]
        for eps, result in results
    ]
    print_table(
        "Cor 6.4 — (1+ε)-approximate minimum vertex cover (smaller is better)",
        ["ε", "decomposition", "exact OPT", "greedy (2)", "ratio", "exact clusters"],
        rows,
    )
    for eps, result in results:
        if result.all_exact:
            assert result.value <= (1 + eps) * optimum
        assert result.value < baseline  # beats the 2-approximation


def test_matching_granular_decomposition(benchmark):
    """Force a multi-cluster decomposition (fixed-ε KPR, an elongated
    instance) so the distributed combine step is actually exercised; the
    (1 − ε) bound must survive the inter-cluster edge loss."""
    from repro.graphs import triangulated_grid

    graph = triangulated_grid(40, 4)  # elongated: chopping is forced
    optimum = len(maximum_matching_exact(graph))
    grains = [0.4, 0.2, 0.1]

    def run():
        out = []
        for grain in grains:
            def decomposer(g, _eps_star, grain=grain):
                return kpr_decomposer(g, grain, depth=1, diameter_slack=1.0)

            result = approximate_maximum_matching(
                graph, grain, decomposer=decomposer
            )
            out.append((grain, result))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [grain, len(result.decomposition.cluster_members()), result.value,
         optimum, fmt(result.value / optimum)]
        for grain, result in results
    ]
    print_table(
        "Cor 6.4 — matching with forced cluster granularity (40×4 strip)",
        ["ε (= KPR grain)", "clusters", "matching", "exact OPT", "ratio"],
        rows,
    )
    for grain, result in results:
        assert result.value >= (1 - grain) * optimum


def test_matching_greedy_run_many_sweep(benchmark):
    """Sweep the ½-approximate proposal-matching baseline over seeds via
    ``engine.run_many`` and record the uniform schema to
    ``BENCH_matching_vc.json``."""
    import random

    from repro.congest import Trial
    from repro.congest.classic import ProposalMatchingAlgorithm

    graph = random_planar_triangulation(400, seed=17)
    n = graph.number_of_nodes()
    horizon = 40 * max(4, n.bit_length() ** 2)
    rng = random.Random(31)
    trials = [
        Trial(
            graph,
            inputs={v: rng.randrange(1 << 30) for v in graph.nodes},
            max_rounds=horizon + 2,
        )
        for _ in range(8)
    ]

    def run():
        return sweep_run_many(
            "greedy_matching_planar_400", ProposalMatchingAlgorithm(horizon),
            trials, processes=1,
        )

    record, results = benchmark.pedantic(run, rounds=1, iterations=1)
    for outputs, _metrics in results:
        matched = {v for v, p in outputs.items() if p is not None}
        assert not any(
            u not in matched and v not in matched for u, v in graph.edges
        )  # maximality
    print_table(
        "Cor 6.4 baseline — proposal matching seed sweep via engine.run_many",
        ["workload", "n", "trials", "rounds", "messages", "bits", "wall s"],
        [[record["workload"], record["n"], record["trials"],
          record["rounds"], record["messages"], record["bits"],
          fmt(record["wall_clock_s"], 3)]],
    )
    write_bench_json("matching_vc", bench_payload("matching_vc", [record]))


def test_ablation_sparsifier(benchmark):
    """Solomon sparsifier on vs off: ε* (hence decomposition work) blows up
    with the raw Δ when the sparsifier is disabled.  The wheel graph is
    the canonical case: planar with Δ = n − 1, which the sparsifier caps
    at O(α/ε) without losing the matching."""
    import networkx as nx

    graph = nx.wheel_graph(150)
    epsilon = 0.25

    def run():
        with_sparsifier = approximate_maximum_matching(
            graph, epsilon, decomposer=kpr_decomposer, use_sparsifier=True
        )
        without_sparsifier = approximate_maximum_matching(
            graph, epsilon, decomposer=kpr_decomposer, use_sparsifier=False
        )
        return with_sparsifier, without_sparsifier

    with_s, without_s = benchmark.pedantic(run, rounds=1, iterations=1)
    raw_delta = max(d for _, d in graph.degree)
    print_table(
        "Ablation — Cor 6.4 with/without the bounded-degree sparsifier",
        ["variant", "matching", "Δ entering decomposition", "ε*"],
        [
            ["with sparsifier (paper)", with_s.value,
             with_s.extras["sparsifier_delta"], fmt(with_s.extras["epsilon_star"], 5)],
            ["without sparsifier", without_s.value, raw_delta,
             fmt(without_s.extras["epsilon_star"], 5)],
        ],
    )
    assert with_s.extras["sparsifier_delta"] <= raw_delta
    assert with_s.extras["epsilon_star"] >= without_s.extras["epsilon_star"]
