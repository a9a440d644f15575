"""Resilience benchmark: guarantee degradation under injected faults.

Each workload runs a seeded sweep of a classic CONGEST algorithm (Luby
MIS, BFS tree, (Δ+1) trial colouring — all on the columnar plane) under
one fault model from :mod:`repro.congest.runtime.faults` at increasing
intensity, then re-verifies the paper guarantee on the surviving
(non-crashed) vertices with the :mod:`repro.congest.validators`
checkers:

``crash``
    Crash-stop vertex failures with per-round probability *p*.
``drop``
    Lossy links: each message independently vanishes with probability *p*.
``delay``
    Bounded-delay asynchrony: each message is deferred by a uniform
    ``d ≤ D`` rounds (``D`` is the intensity knob).
``corrupt``
    Byzantine low-bit corruption: each message's payload integers get
    their low bit flipped with probability *p*.

The *reported* quantities are the units the guarantees are stated in:
violation counts and rates from the validators, timeout counts (trials
that exhausted ``max_rounds``), and the injected-fault tallies from
``NetworkMetrics``.  Intensity 0 is always included so each curve starts
from the (validated) fault-free baseline, and each
``(algorithm, model)`` pair's breaking threshold — the smallest swept
intensity with a non-zero violation or timeout rate — is summarised in
the payload's ``breaking_points``.

``--recovery`` additionally sweeps the *recovered* counterpart of each
curve: the self-healing / restarting algorithm variants for crash
faults, and the ack/retransmit reliable-delivery wrapper
(:mod:`repro.congest.runtime.recovery`) for message faults.  The
payload's ``recovery_summary`` pairs each recovered curve with its
baseline and reports which intensities were restored to a zero
violation rate plus the round/bit overhead the recovery mechanism paid.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py \
        [--quick] [--recovery] [--json PATH]

``--quick`` shrinks graphs and trial counts so the run fits the
untimed CI smoke step.  Results are written to ``BENCH_resilience.json`` at
the repository root (schema v2, one workload record per curve point).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import networkx as nx

from _common import bench_payload, fmt, print_table, write_bench_json

from repro.congest import (
    ColumnarReliable,
    FaultPlan,
    Network,
    check_bfs_tree,
    check_coloring,
    check_mis,
)
from repro.congest.algorithms import ColumnarBFSTree, ColumnarRestartingBFS
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarSelfHealingMIS,
    ColumnarTrialColoring,
)
from repro.graphs import random_regular_expander, triangulated_grid


def seeded_inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def fault_plan(model, intensity, seed):
    if model == "crash":
        return FaultPlan(seed=seed, crash=intensity)
    if model == "drop":
        return FaultPlan(seed=seed, drop=intensity)
    if model == "delay":
        return FaultPlan(seed=seed, delay=int(intensity))
    if model == "corrupt":
        return FaultPlan(seed=seed, corrupt=intensity)
    raise ValueError(f"unknown fault model {model!r}")


def build_algorithms(quick):
    """One entry per algorithm: graph, factory, input seeding, horizon,
    and the validator closure mapping (graph, outputs, crashed) → report."""
    if quick:
        expander = random_regular_expander(96, 6, seed=2)
        grid = triangulated_grid(8, 8)
        trials = 6
    else:
        expander = random_regular_expander(256, 8, seed=2)
        grid = triangulated_grid(16, 16)
        trials = 16

    mis_horizon = 20 * max(4, expander.number_of_nodes().bit_length() ** 2)
    root = next(iter(grid.nodes))
    bfs_horizon = nx.eccentricity(grid, v=root) + 3
    delta = max(d for _, d in grid.degree)
    # Quick mode trims the colouring horizon: fault-free runs halt in a
    # few rounds either way, but heavy-corruption trials ride the full
    # horizon to their timeout, and that wall-clock dominates the smoke
    # budget at the 40x setting.
    color_horizon = (10 if quick else 40) * max(
        4, grid.number_of_nodes().bit_length() ** 2
    )

    return [
        {
            "name": "mis",
            "graph": expander,
            "make": lambda: ColumnarLubyMIS(mis_horizon),
            "needs_inputs": True,
            "max_rounds": mis_horizon + 2,
            "trials": trials,
            "check": lambda graph, outputs, crashed:
                check_mis(graph, outputs, crashed=crashed),
        },
        {
            "name": "bfs",
            "graph": grid,
            "make": lambda: ColumnarBFSTree(root, bfs_horizon + 40),
            "needs_inputs": False,
            "max_rounds": bfs_horizon + 42,
            "trials": trials,
            "root": root,
            "bfs_horizon": bfs_horizon,
            "check": lambda graph, outputs, crashed:
                check_bfs_tree(graph, outputs, root, crashed=crashed),
        },
        {
            "name": "coloring",
            "graph": grid,
            "make": lambda: ColumnarTrialColoring(delta + 1, color_horizon),
            "needs_inputs": True,
            "max_rounds": color_horizon + 2,
            "trials": trials,
            "palette": delta + 1,
            "color_horizon": color_horizon,
            "check": lambda graph, outputs, crashed:
                check_coloring(graph, outputs, crashed=crashed,
                               palette=delta + 1),
        },
    ]


# Which recovery mechanism wins each guarantee back.  Crash faults need
# *algorithmic* redundancy (a crashed vertex is gone; no retransmission
# brings it back), so they get the self-healing / restarting variants.
# Message faults (drop, delay, corrupt) get the ack/retransmit wrapper
# from runtime.recovery — stacked on the self-healing MIS so the
# repair phase also mops up any residual loss past the retry budget.
# Coloring has no crash-recovery variant, so that pair is skipped.
def build_recovered(specs, trials=None):
    """Fault-tolerant counterparts for the ``--recovery`` sweep.

    Returns specs shaped like :func:`build_algorithms` entries plus a
    ``models`` set (which fault models this counterpart answers) and a
    ``recovery`` label recorded on every curve point it produces.
    ``trials`` overrides the baseline trial count (quick mode runs the
    expensive wrapped sweeps on fewer trials; :func:`recovery_summary`
    normalizes overheads per trial so the ratios stay comparable).
    """
    by_name = {
        name: dict(spec, trials=trials or spec["trials"])
        for name, spec in ((s["name"], s) for s in specs)
    }
    recovered = []

    mis = by_name["mis"]
    bl = mis["graph"].number_of_nodes().bit_length()
    luby_rounds, repair_rounds = 6 * bl, 4 * bl + 8
    sh_rounds = luby_rounds + repair_rounds + 1

    def make_self_healing():
        return ColumnarSelfHealingMIS(luby_rounds, repair_rounds)

    recovered.append(dict(
        mis,
        models={"crash"},
        make=make_self_healing,
        max_rounds=sh_rounds + 2,
        recovery="self-healing",
    ))
    recovered.append(dict(
        mis,
        models={"drop", "delay", "corrupt"},
        make=lambda: ColumnarReliable(make_self_healing(), retries=2),
        max_rounds=6 * sh_rounds + 2,
        recovery="reliable+self-healing",
    ))

    bfs = by_name["bfs"]
    # RestartingBFS halts exactly at its horizon; 3x the fault-free
    # eccentricity bound leaves room for crash-triggered re-elections to
    # re-converge.
    restart_horizon = 3 * bfs["bfs_horizon"] + 12

    def make_restarting():
        return ColumnarRestartingBFS(bfs["root"], restart_horizon)

    recovered.append(dict(
        bfs,
        models={"crash"},
        make=make_restarting,
        max_rounds=restart_horizon + 2,
        recovery="restarting",
    ))
    recovered.append(dict(
        bfs,
        models={"drop", "delay", "corrupt"},
        make=lambda: ColumnarReliable(make_restarting(), retries=2),
        max_rounds=6 * restart_horizon + 2,
        recovery="reliable+restarting",
    ))

    coloring = by_name["coloring"]
    recovered.append(dict(
        coloring,
        models={"drop", "delay", "corrupt"},
        make=lambda: ColumnarReliable(
            ColumnarTrialColoring(coloring["palette"],
                                  coloring["color_horizon"]),
            retries=2,
        ),
        max_rounds=6 * coloring["color_horizon"] + 2,
        recovery="reliable",
    ))
    return recovered


# Intensity 0 heads every sweep: the validated fault-free anchor of the
# degradation curve.  Crash probabilities stay small — they compound
# per-round — while drop rates range up to heavy loss.
FAULT_SWEEPS = {
    "crash": [0.0, 0.002, 0.01, 0.05],
    "drop": [0.0, 0.02, 0.1, 0.3],
    "delay": [0, 1, 2, 4],
    "corrupt": [0.0, 0.05, 0.2, 0.5],
}
QUICK_SWEEPS = {
    "crash": [0.0, 0.01, 0.05],
    "drop": [0.0, 0.1, 0.3],
    "delay": [0, 2],
    "corrupt": [0.0, 0.2],
}


def run_curve_point(spec, model, intensity, seed_base=0):
    """Run one algorithm × fault model × intensity sweep and aggregate."""
    graph = spec["graph"]
    recovery = spec.get("recovery")
    checked = violations = timeouts = 0
    dropped = duplicated = delayed = crashed = corrupted = 0
    rounds = messages = bits = 0
    details = []
    start = time.perf_counter()
    for index in range(spec["trials"]):
        plan = fault_plan(model, intensity, seed_base + index)
        net = Network(graph)
        inputs = (seeded_inputs(graph, seed_base + index)
                  if spec["needs_inputs"] else None)
        try:
            outputs = net.run(
                spec["make"](), max_rounds=spec["max_rounds"],
                inputs=inputs, plane="columnar",
                faults=plan if plan.active else None,
            )
        except RuntimeError as exc:
            # Either the scheduler's max_rounds cap or the algorithm's
            # own horizon guard: both mean the trial ran out of time.
            if ("did not halt" not in str(exc)
                    and "exceeded horizon" not in str(exc)):
                raise
            timeouts += 1
        else:
            report = spec["check"](graph, outputs,
                                   net.metrics.crashed_vertices)
            checked += report.checked
            violations += report.violations
            if report.details and len(details) < 3:
                # The trial seed makes each sampled violation
                # replayable: seed both fault_plan() and
                # seeded_inputs() with it to reproduce the run.
                details.append({
                    "seed": seed_base + index,
                    "example": report.details[0],
                })
        metrics = net.metrics
        rounds += metrics.rounds
        messages += metrics.messages
        bits += metrics.total_bits
        dropped += metrics.dropped
        duplicated += metrics.duplicated
        delayed += metrics.delayed
        crashed += metrics.crashed
        corrupted += metrics.corrupted
    elapsed = time.perf_counter() - start
    suffix = "_recovered" if recovery else ""
    return {
        "workload": f"{spec['name']}_{model}_{intensity}{suffix}",
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "trials": spec["trials"],
        "wall_clock_s": elapsed,
        "rounds": rounds,
        "messages": messages,
        "bits": bits,
        "algorithm": spec["name"],
        "fault_model": model,
        "intensity": intensity,
        "recovery": recovery,
        "checked": checked,
        "violations": violations,
        "violation_rate": violations / checked if checked else 0.0,
        "timeouts": timeouts,
        "timeout_rate": timeouts / spec["trials"],
        "faults_dropped": dropped,
        "faults_duplicated": duplicated,
        "faults_delayed": delayed,
        "faults_crashed": crashed,
        "faults_corrupted": corrupted,
        "sample_violations": details,
    }


def breaking_points(records):
    """Smallest swept intensity per (algorithm, model) where the
    *baseline* guarantee degrades (violations or timeouts appear)."""
    points = {}
    for record in records:
        if record.get("recovery"):
            continue
        key = f"{record['algorithm']}/{record['fault_model']}"
        degraded = record["violations"] > 0 or record["timeouts"] > 0
        if degraded and (key not in points
                         or record["intensity"] < points[key]):
            points[key] = record["intensity"]
    return points


def recovery_summary(records):
    """Pair each recovered curve with its baseline and report the win.

    Per ``algorithm/model`` pair: the intensities where the baseline
    violated (or timed out) and the recovered run restored a clean
    guarantee, plus the mean round/bit overhead the recovery mechanism
    paid across the shared sweep.
    """
    baseline = {
        (r["algorithm"], r["fault_model"], r["intensity"]): r
        for r in records if not r.get("recovery")
    }
    summary = {}
    for record in records:
        if not record.get("recovery"):
            continue
        base = baseline.get((record["algorithm"], record["fault_model"],
                             record["intensity"]))
        if base is None:
            continue
        key = f"{record['algorithm']}/{record['fault_model']}"
        entry = summary.setdefault(key, {
            "recovery": record["recovery"],
            "restored_intensities": [],
            "round_overhead": [],
            "bit_overhead": [],
        })
        broken = base["violations"] > 0 or base["timeouts"] > 0
        healed = record["violations"] == 0 and record["timeouts"] == 0
        if broken and healed:
            entry["restored_intensities"].append(record["intensity"])
        # Per-trial normalization: recovered sweeps may run fewer
        # trials than their baseline (quick mode).
        scale = base["trials"] / record["trials"]
        if base["rounds"]:
            entry["round_overhead"].append(
                scale * record["rounds"] / base["rounds"]
            )
        if base["bits"]:
            entry["bit_overhead"].append(
                scale * record["bits"] / base["bits"]
            )
    for entry in summary.values():
        for field in ("round_overhead", "bit_overhead"):
            ratios = entry[field]
            entry[field] = (round(sum(ratios) / len(ratios), 2)
                            if ratios else None)
        entry["restored_intensities"].sort()
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small graphs and trial counts; fits the perf-smoke budget",
    )
    parser.add_argument(
        "--recovery", action="store_true",
        help="also sweep the recovered counterparts (self-healing / "
             "restarting variants, reliable-delivery wrapper) and "
             "report baseline-vs-recovered curves",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="where to write the results JSON "
             "(default: BENCH_resilience.json at the repo root)",
    )
    args = parser.parse_args(argv)

    sweeps = QUICK_SWEEPS if args.quick else FAULT_SWEEPS
    specs = build_algorithms(args.quick)
    sweep_specs = [(spec, sorted(sweeps)) for spec in specs]
    if args.recovery:
        recovered = build_recovered(specs, trials=3 if args.quick else None)
        sweep_specs += [
            (spec, sorted(spec["models"])) for spec in recovered
        ]
    records = []
    for spec, models in sweep_specs:
        for model in models:
            for intensity in sweeps[model]:
                record = run_curve_point(spec, model, intensity)
                if intensity == 0 and (record["violations"]
                                       or record["timeouts"]):
                    raise AssertionError(
                        f"{record['workload']}: fault-free run must "
                        "satisfy its guarantee"
                    )
                records.append(record)

    print_table(
        "Guarantee degradation under injected faults "
        "(validators re-verify each paper guarantee on live vertices)",
        ["workload", "recovery", "trials", "violations", "rate",
         "timeouts", "crashed", "dropped", "delayed", "corrupted",
         "rounds"],
        [
            [r["workload"], r["recovery"] or "-", r["trials"],
             r["violations"], fmt(r["violation_rate"], 4), r["timeouts"],
             r["faults_crashed"], r["faults_dropped"], r["faults_delayed"],
             r["faults_corrupted"], r["rounds"]]
            for r in records
        ],
    )

    points = breaking_points(records)
    extras = {}
    if args.recovery:
        summary = recovery_summary(records)
        extras["recovery_summary"] = summary
        restored = [key for key, entry in summary.items()
                    if entry["restored_intensities"]]
        for key in sorted(summary):
            entry = summary[key]
            print(
                f"recovery {key} [{entry['recovery']}]: restored at "
                f"{entry['restored_intensities'] or 'none'}, overhead "
                f"{entry['round_overhead']}x rounds / "
                f"{entry['bit_overhead']}x bits"
            )
        if len(restored) < 2:
            raise AssertionError(
                "recovery sweep must restore at least two "
                f"algorithm/model pairs to a zero violation rate at an "
                f"intensity where the baseline breaks; got {restored}"
            )
    payload = bench_payload(
        "resilience",
        records,
        quick=args.quick,
        fault_sweeps={k: list(v) for k, v in sweeps.items()},
        breaking_points=points,
        **extras,
    )
    path = write_bench_json("resilience", payload, args.json)
    for key, intensity in sorted(points.items()):
        print(f"breaking threshold {key}: intensity {intensity}")
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    main()
