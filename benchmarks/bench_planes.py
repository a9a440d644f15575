"""Every registered execution plane on the classic CONGEST workloads.

For each family workload — Luby MIS, (Δ+1)-colouring, BFS with a tight
and with an idle-round-bound horizon, proposal matching — the bench
loops over :func:`repro.congest.runtime.plane_names` and runs a seeded
trial sweep on every plane that supports one of the workload's
implementations (the object-family classic or its columnar port).  Every
plane runs through ``run_many(..., plane=name)``, so the batch-only
``grid`` plane executes the sweep as one trial-major program while the
single-run planes execute it trial by trial.  A newly registered plane is
benchmarked here without touching this file; a plane that no workload
can run fails the bench.

Before any number is reported, every plane's outputs (values *and*
vertex order) and every ``NetworkMetrics`` field are asserted equal, per
trial, to the run on the family's per-message reference plane
(``reference_plane_for``), and the two families' references are asserted
to agree with each other.  The reference planes are executable specs,
not tuned for speed: they run once, for the identity check, and their
time is reported as ``reference_s`` on each fast plane's record rather
than as a workload of its own.

The speedups of the planes over the executors they replaced are on
record in ``BENCH_engine.json`` (engine vs seed stack),
``BENCH_delivery.json`` (broadcast plane vs per-message delivery) and
``BENCH_columnar.json`` (columnar plane vs broadcast plane).

Usage::

    PYTHONPATH=src python benchmarks/bench_planes.py [--quick] [--json PATH]

``--quick`` shrinks the instances so the whole run finishes in a few
seconds (the perf-smoke budget in ``scripts/perf_smoke.sh``).  Results
are written to ``BENCH_planes.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import networkx as nx

from _common import (
    bench_payload,
    fmt,
    print_table,
    workload_record,
    write_bench_json,
)

from repro.congest import Trial, run_many
from repro.congest.algorithms import BFSTreeAlgorithm, ColumnarBFSTree
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarTrialColoring,
    LubyMISAlgorithm,
    ProposalMatchingAlgorithm,
    TrialColoringAlgorithm,
)
from repro.congest.runtime import get_plane, plane_names, reference_plane_for
from repro.graphs import random_regular_expander, triangulated_grid

REPEATS = 3


def seeded_inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def family_variants(problem, graph):
    """``(horizon, seeded, {plane kind: algorithm factory})`` for one
    problem on ``graph``; ``seeded`` says whether trials take seeded
    inputs."""
    n = graph.number_of_nodes()
    if problem == "mis":
        horizon = 20 * max(4, n.bit_length() ** 2)
        return horizon, True, {
            "object": lambda: LubyMISAlgorithm(horizon),
            "columnar": lambda: ColumnarLubyMIS(horizon),
        }
    if problem == "coloring":
        palette = max(d for _, d in graph.degree) + 1
        horizon = 40 * max(4, n.bit_length() ** 2)
        return horizon, True, {
            "object": lambda: TrialColoringAlgorithm(palette, horizon),
            "columnar": lambda: ColumnarTrialColoring(palette, horizon),
        }
    if problem == "matching":
        # Object family only: exercises the broadcast plane's
        # per-neighbour unicast path for dict outboxes.
        horizon = 40 * max(4, n.bit_length() ** 2)
        return horizon, True, {
            "object": lambda: ProposalMatchingAlgorithm(horizon),
        }
    root = next(iter(graph.nodes))
    if problem == "bfs":
        # A tight horizon (eccentricity + completion-wave slack) keeps
        # the run delivery-bound rather than idle-round-bound.
        horizon = nx.eccentricity(graph, v=root) + 3
    else:
        # "bfs-idle": an n + 4 horizon leaves most rounds idle, so the
        # run is bound by active-set skipping.
        horizon = n + 4
    return horizon, False, {
        "object": lambda: BFSTreeAlgorithm(root, horizon),
        "columnar": lambda: ColumnarBFSTree(root, horizon),
    }


def time_plane(name, make, trials, repeats):
    """Best-of-``repeats`` wall clock of the sweep on plane ``name``."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        results = run_many(make(), trials, processes=1, plane=name)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, results)
    return best


def assert_identical(label, results, expected):
    for trial, ((outputs, metrics), (e_outputs, e_metrics)) in enumerate(
        zip(results, expected, strict=True)
    ):
        if outputs != e_outputs:
            raise AssertionError(f"{label} trial {trial}: outputs diverged")
        if list(outputs) != list(e_outputs):
            raise AssertionError(
                f"{label} trial {trial}: output vertex order diverged"
            )
        if metrics != e_metrics:
            raise AssertionError(
                f"{label} trial {trial}: metrics diverged "
                f"({metrics} != {e_metrics})"
            )


def bench_workload(name, graph, problem, n_trials):
    """Run the workload on every supporting plane, assert each plane
    against its family's reference, and return one record per fast plane
    (the reference planes' time rides along as ``reference_s``)."""
    horizon, seeded, variants = family_variants(problem, graph)
    trials = [
        Trial(graph, inputs=seeded_inputs(graph, seed) if seeded else None,
              max_rounds=horizon + 2)
        for seed in range(n_trials)
    ]
    runs = {}
    for plane_name in plane_names():
        plane = get_plane(plane_name)
        make = variants.get(plane.kind)
        if make is None or not plane.supports(make()):
            continue
        repeats = 1 if plane.reference else REPEATS
        runs[plane_name] = time_plane(plane_name, make, trials, repeats)

    references = {
        family: reference_plane_for(make()).name
        for family, make in variants.items()
    }
    for plane_name, (_, results) in runs.items():
        reference = references[get_plane(plane_name).kind]
        assert_identical(
            f"{name} on {plane_name} vs {reference}", results,
            runs[reference][1],
        )
    first, *others = references.values()
    for reference in others:
        assert_identical(
            f"{name}: {reference} vs {first}", runs[reference][1],
            runs[first][1],
        )

    records = []
    for plane_name, (seconds, results) in runs.items():
        if get_plane(plane_name).reference:
            continue
        reference = references[get_plane(plane_name).kind]
        reference_s = runs[reference][0]
        messages = sum(metrics.messages for _, metrics in results)
        records.append(workload_record(
            f"{name}[{plane_name}]",
            n=graph.number_of_nodes(),
            m=graph.number_of_edges(),
            trials=n_trials,
            wall_clock_s=seconds,
            rounds=sum(metrics.rounds for _, metrics in results),
            messages=messages,
            bits=sum(metrics.total_bits for _, metrics in results),
            plane=plane_name,
            reference=reference,
            reference_s=reference_s,
            speedup_vs_reference=reference_s / seconds,
            messages_per_sec=messages / seconds,
        ))
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small instances; finishes in a few seconds",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="where to write the results JSON "
             "(default: BENCH_planes.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_trials = 2
        workloads = [
            ("luby_mis_expander",
             random_regular_expander(512, 16, seed=2), "mis"),
            ("coloring_grid", triangulated_grid(24, 24), "coloring"),
            ("bfs_expander",
             random_regular_expander(1024, 8, seed=3), "bfs"),
            ("bfs_idle_grid", triangulated_grid(16, 16), "bfs-idle"),
            ("matching_grid", triangulated_grid(16, 16), "matching"),
        ]
    else:
        n_trials = 4
        workloads = [
            ("luby_mis_expander_2k",
             random_regular_expander(2000, 32, seed=2), "mis"),
            ("luby_mis_expander_10k",
             random_regular_expander(10000, 16, seed=4), "mis"),
            ("coloring_grid_2k", triangulated_grid(45, 45), "coloring"),
            ("coloring_expander_4k",
             random_regular_expander(4000, 16, seed=5), "coloring"),
            ("bfs_expander_10k",
             random_regular_expander(10000, 16, seed=6), "bfs"),
            ("bfs_idle_grid_1k", triangulated_grid(32, 32), "bfs-idle"),
            ("matching_grid_1k", triangulated_grid(32, 32), "matching"),
        ]

    results = []
    for name, graph, problem in workloads:
        results.extend(bench_workload(name, graph, problem, n_trials))

    benchmarked = {r["plane"] for r in results}
    benchmarked |= {r["reference"] for r in results}
    missing = [name for name in plane_names() if name not in benchmarked]
    if missing:
        raise SystemExit(
            f"registered planes with no benchmark workload: "
            f"{', '.join(missing)} — add an implementation of their "
            f"family to family_variants()"
        )

    print_table(
        "Every registered plane vs its family's reference "
        "(identical outputs and metrics asserted per trial)",
        ["workload", "n", "trials", "msgs", "ref s", "seconds", "vs ref",
         "msgs/s"],
        [
            [r["workload"], r["n"], r["trials"], r["messages"],
             fmt(r["reference_s"], 4), fmt(r["wall_clock_s"], 4),
             fmt(r["speedup_vs_reference"], 2), int(r["messages_per_sec"])]
            for r in results
        ],
    )

    geomeans = {
        name: statistics.geometric_mean(
            [r["speedup_vs_reference"] for r in results
             if r["plane"] == name]
        )
        for name in dict.fromkeys(r["plane"] for r in results)
    }
    payload = bench_payload(
        "planes",
        results,
        quick=args.quick,
        geomean_speedup_vs_reference=geomeans,
    )
    path = write_bench_json("planes", payload, args.json)
    for name, value in geomeans.items():
        print(f"geomean speedup of {name} vs its reference: {value:.2f}x")
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    main()
