"""Corollary 6.2 + Lemma 4.1: expander decompositions.

Series regenerated:

* the (ε, φ) expander decomposition of Observation 3.1 / Corollary 6.2:
  measured minimum cluster conductance vs the target
  φ = Ω(ε/(log 1/ε + log Δ));
* the (ε, φ, c) overlapping decomposition of Lemma 4.1: cut fraction,
  measured min Φ(G_S), and overlap c = O(log 1/ε);
* ablation: Lemma 4.4 with vs without the Step 3 light-link
  removal — without it, merged clusters' conductance collapses, which is
  exactly why the paper introduces the step.
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import (
    bench_payload,
    fmt,
    print_table,
    workload_record,
    write_bench_json,
)

from repro.decomposition import (
    expander_decomposition_obs31,
    overlap_expander_decomposition,
)
from repro.graphs import conductance, triangulated_grid


def test_obs31_conductance_vs_target(benchmark):
    graph = triangulated_grid(9, 9)
    epsilons = [0.5, 0.35, 0.25]

    def run():
        out = []
        for eps in epsilons:
            start = time.perf_counter()
            clustering, phi_target = expander_decomposition_obs31(graph, eps)
            elapsed = time.perf_counter() - start
            worst = math.inf
            for members in clustering.clusters().values():
                if len(members) > 1:
                    worst = min(worst, conductance(graph.subgraph(members)))
            out.append((eps, clustering.cut_fraction(graph), phi_target,
                        None if worst is math.inf else worst,
                        len(clustering.clusters()), elapsed))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [eps, fmt(cut), fmt(phi_target, 4),
         fmt(worst, 4) if worst is not None else "—", k]
        for eps, cut, phi_target, worst, k, _elapsed in results
    ]
    print_table(
        "Cor 6.2 — (ε, φ) expander decomposition: measured min Φ vs target",
        ["ε", "cut fraction", "φ target", "min Φ measured", "clusters"],
        rows,
    )
    # Uniform schema: the decomposition is a centralized reproduction of
    # Observation 3.1 — no simulator rounds/messages/bits to report.
    write_bench_json("expander_decomposition", bench_payload(
        "expander_decomposition",
        [
            workload_record(
                f"obs31_eps{eps}",
                n=graph.number_of_nodes(),
                m=graph.number_of_edges(),
                wall_clock_s=elapsed,
                rounds=None,
                messages=None,
                bits=None,
                epsilon=eps,
                cut_fraction=cut,
                phi_target=phi_target,
                min_conductance=worst,
                clusters=k,
            )
            for eps, cut, phi_target, worst, k, elapsed in results
        ],
    ))
    for eps, cut, _t, _w, _k, _e in results:
        assert cut <= eps + 1e-12


def test_lemma41_overlap_decomposition(benchmark):
    graph = triangulated_grid(9, 9)
    epsilons = [0.5, 0.3, 0.2]

    def run():
        out = []
        for eps in epsilons:
            decomposition, stats = overlap_expander_decomposition(graph, eps)
            out.append((eps, stats))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [eps, fmt(stats.final_cut_fraction),
         fmt(stats.min_conductance, 4)
         if stats.min_conductance is not math.inf else "—",
         stats.max_overlap, stats.iterations]
        for eps, stats in results
    ]
    print_table(
        "Lemma 4.1 — (ε, φ, c) overlap decomposition: c = O(log 1/ε)",
        ["ε", "cut fraction", "min Φ(G_S)", "overlap c", "iterations"],
        rows,
    )
    for eps, stats in results:
        assert stats.final_cut_fraction <= eps + 1e-12
        assert stats.max_overlap <= stats.iterations + 1


def _ring_of_cliques(clique_count: int = 10, clique_size: int = 4):
    """Dense K4 blobs joined into a ring by single edges — the light links
    Step 3 is designed to refuse to merge over (planar, arboricity ≤ 3)."""
    import networkx as nx

    graph = nx.Graph()
    for index in range(clique_count):
        offset = index * clique_size
        for a in range(clique_size):
            for b in range(a + 1, clique_size):
                graph.add_edge(offset + a, offset + b)
        next_offset = ((index + 1) % clique_count) * clique_size
        graph.add_edge(offset, next_offset)  # the light bridge
    return graph


def test_ablation_light_link_removal(benchmark):
    """Step 3 of Lemma 4.4: sweep the light-link threshold strength.

    On a ring of K4 blobs joined by single bridge edges, merging across a
    bridge tanks Φ(G_S).  With the threshold off (or at the paper's
    worst-case constant, which never binds at this scale) the merges
    happen; cranking the constant makes Step 3 refuse them — keeping
    conductance high at the cost of more surviving inter-cluster edges.
    That is exactly the tradeoff Lemma 4.5's analysis prices in.
    """
    graph = _ring_of_cliques()
    # ε below the blob-level cut fraction (10 bridges / 70 edges ≈ 0.14):
    # reaching it requires merging across bridges, which is what the
    # threshold decides about.
    epsilon = 0.05
    settings = [
        ("removal off (ablated)", dict(light_link_removal=False)),
        ("paper constant (×1)", dict(light_link_constant=1.0)),
        ("aggressive (×1200)", dict(light_link_constant=1200.0)),
    ]

    def run():
        return [
            (name, overlap_expander_decomposition(graph, epsilon, **kwargs)[1])
            for name, kwargs in settings
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    def phi(stats):
        return (
            fmt(stats.min_conductance, 4)
            if stats.min_conductance is not math.inf
            else "—"
        )

    print_table(
        "Ablation — Lemma 4.4 Step 3 light-link threshold "
        "(ring of K4 blobs with single-edge bridges)",
        ["variant", "cut fraction", "min Φ(G_S)", "overlap c"],
        [
            [name, fmt(stats.final_cut_fraction), phi(stats), stats.max_overlap]
            for name, stats in results
        ],
    )
    by_name = dict(results)
    aggressive = by_name["aggressive (×1200)"]
    off = by_name["removal off (ablated)"]
    if (aggressive.min_conductance is not math.inf
            and off.min_conductance is not math.inf):
        # The threshold mechanism must buy strictly better conductance here.
        assert aggressive.min_conductance > off.min_conductance
