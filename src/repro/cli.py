"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``decompose``
    Build an (ε, D, T)-decomposition of a generated instance and print
    the measured parameters (Theorem 1.1).
``approximate``
    Run one of the Section 6.1 approximation algorithms.
``test-property``
    Run the Corollary 6.6 property tester.
``gather``
    Run an information-gathering backend on an expander instance
    (Lemmas 2.2 / 2.5).
``simulate``
    Sweep a classic CONGEST baseline (Luby MIS, proposal matching,
    (Δ+1)-colouring, BFS) over ``--trials N`` seeds through the
    runtime's batched :func:`repro.congest.run_many` runner.  ``--plane``
    picks the execution plane by runtime plane name (``auto`` resolves
    per problem and grid-batches serial columnar sweeps into one
    trial-major grid; ``grid`` forces that batching), and
    ``--processes N`` fans per-trial execution over worker processes.
    ``--faults 'crash=0.01,drop=0.05,delay=2'`` injects a
    :class:`repro.congest.FaultPlan` (reseeded per trial);
    ``--max-rounds`` overrides the per-problem horizon, and exhausting
    it exits with a diagnostic instead of a traceback.

Instances are specified as ``family:size[:seed]`` with families
``grid``, ``tri-grid``, ``planar``, ``tree``, ``outerplanar``, ``cactus``,
``path``, ``cycle``, ``expander``.
"""

from __future__ import annotations

import argparse
import sys

import networkx as nx


def build_instance(spec: str) -> nx.Graph:
    """Parse ``family:size[:seed]`` into a graph."""
    from repro import graphs

    parts = spec.split(":")
    if len(parts) < 2:
        raise ValueError("instance spec must be family:size[:seed]")
    family, size = parts[0], int(parts[1])
    seed = int(parts[2]) if len(parts) > 2 else 0
    side = max(2, round(size ** 0.5))
    builders = {
        "grid": lambda: graphs.grid_graph(side, side),
        "tri-grid": lambda: graphs.triangulated_grid(side, side),
        "planar": lambda: graphs.random_planar_triangulation(size, seed),
        "tree": lambda: graphs.random_tree(size, seed),
        "outerplanar": lambda: graphs.random_outerplanar(size, seed),
        "cactus": lambda: graphs.random_cactus(size, seed),
        "path": lambda: graphs.path_graph(size),
        "cycle": lambda: graphs.cycle_graph(size),
        "expander": lambda: graphs.random_regular_expander(
            size + (size % 2), 4, seed
        ),
    }
    if family not in builders:
        raise ValueError(
            f"unknown family {family!r}; choose from {sorted(builders)}"
        )
    return builders[family]()


def cmd_decompose(args: argparse.Namespace) -> int:
    from repro import edt_decomposition
    from repro.decomposition.edt import run_gather_on_groups

    graph = build_instance(args.instance)
    decomposition = edt_decomposition(graph, args.epsilon, variant=args.variant)
    print(f"instance: {args.instance} "
          f"(n={graph.number_of_nodes()}, m={graph.number_of_edges()})")
    print(f"cut fraction: {decomposition.epsilon(graph):.4f} (target {args.epsilon})")
    print(f"max cluster diameter: {decomposition.diameter(graph)}")
    print(f"clusters: {len(decomposition.cluster_members())}")
    print(f"construction rounds (ledger): {decomposition.construction_rounds}")
    if args.measure_routing:
        measured = run_gather_on_groups(
            graph, decomposition, backend="load_balancing"
        )
        print(f"measured routing T: {measured}")
    return 0


def cmd_approximate(args: argparse.Namespace) -> int:
    from repro.applications import (
        approximate_max_cut,
        approximate_maximum_independent_set,
        approximate_maximum_matching,
        approximate_minimum_dominating_set,
        approximate_minimum_vertex_cover,
    )
    from repro.applications._template import kpr_decomposer

    solvers = {
        "max-cut": approximate_max_cut,
        "matching": approximate_maximum_matching,
        "vertex-cover": approximate_minimum_vertex_cover,
        "independent-set": approximate_maximum_independent_set,
        "dominating-set": approximate_minimum_dominating_set,
    }
    graph = build_instance(args.instance)
    decomposer = kpr_decomposer if args.fast else None
    kwargs = {"decomposer": decomposer} if decomposer else {}
    result = solvers[args.problem](graph, args.epsilon, **kwargs)
    print(f"instance: {args.instance} "
          f"(n={graph.number_of_nodes()}, m={graph.number_of_edges()})")
    print(f"problem: {args.problem}  ε = {args.epsilon}")
    print(f"objective value: {result.value}")
    print(f"clusters: {result.total_clusters} "
          f"(exactly solved: {result.exact_clusters})")
    print(f"construction rounds: {result.construction_rounds}")
    return 0


def cmd_test_property(args: argparse.Namespace) -> int:
    from repro.applications import PROPERTY_REGISTRY, test_minor_closed_property

    graph = build_instance(args.instance)
    verdict = test_minor_closed_property(graph, args.property, epsilon=args.epsilon)
    print(f"instance: {args.instance} "
          f"(n={graph.number_of_nodes()}, m={graph.number_of_edges()})")
    print(f"property: {args.property}  ε = {args.epsilon}")
    print(f"verdict: {'ACCEPT' if verdict.accepted else 'REJECT'}")
    if verdict.reasons:
        print(f"detectors fired: {', '.join(sorted(set(verdict.reasons)))}")
    print(f"rounds: {verdict.rounds}")
    return 0 if verdict.accepted else 1


def cmd_gather(args: argparse.Namespace) -> int:
    from repro.gathering import (
        gather_with_load_balancing,
        gather_with_random_walks,
    )

    graph = build_instance(args.instance)
    sink = max(graph.nodes, key=lambda v: graph.degree[v])
    total = 2 * graph.number_of_edges()
    print(f"instance: {args.instance}  sink: {sink!r}  messages: {total}")
    if args.backend in ("load-balancing", "both"):
        outcome = gather_with_load_balancing(
            graph, sink, f=args.f,
            simulate_arrival_report=args.simulate_routing,
            plane=args.plane,
        )
        print(f"load balancing: delivered {outcome.delivered_fraction:.1%} "
              f"in {outcome.rounds} rounds")
        if outcome.report_metrics is not None:
            report = outcome.report_metrics
            print(f"  arrival report ({args.plane} plane): "
                  f"{report.rounds} rounds, {report.messages} messages, "
                  f"{report.total_bits} bits")
    if args.backend in ("walks", "both"):
        delivered, rounds, schedule = gather_with_random_walks(
            graph, sink, f=args.f, phi_hint=0.15,
            simulate_walk_routing=args.simulate_routing,
            plane=args.plane,
        )
        print(f"random walks:   delivered {len(delivered) / total:.1%} "
              f"in {rounds} rounds (seed {schedule.seed}, "
              f"{schedule.schedule_bits}-bit schedule)")
        if args.simulate_routing:
            print(f"  walk routing simulated on the {args.plane} plane: "
                  f"token forwarding matched the leader's schedule search")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    import os
    import random
    import time

    from repro.congest import FaultPlan, Trial, run_many
    from repro.congest.algorithms import BFSTreeAlgorithm, ColumnarBFSTree
    from repro.congest.classic import (
        ColumnarLubyMIS,
        ColumnarTrialColoring,
        LubyMISAlgorithm,
        ProposalMatchingAlgorithm,
        TrialColoringAlgorithm,
    )
    from repro.congest.runtime import (
        plane_names,
        supports_vectorized,
        variant_for_plane,
    )

    graph = build_instance(args.instance)
    n = graph.number_of_nodes()
    needs_inputs = True
    # Each problem declares its implementations per plane *family*; the
    # plane table maps the requested --plane name to a family (and
    # raises with the table-derived supported list when a problem has
    # no implementation for it — no hand-maintained error text).
    if args.problem == "mis":
        horizon = 20 * max(4, n.bit_length() ** 2)
        variants = {
            "object": lambda: LubyMISAlgorithm(horizon),
            "columnar": lambda: ColumnarLubyMIS(horizon),
        }

        def summarize(outputs):
            return f"|IS| = {sum(1 for flag in outputs.values() if flag)}"
    elif args.problem == "matching":
        horizon = 40 * max(4, n.bit_length() ** 2)
        variants = {"object": lambda: ProposalMatchingAlgorithm(horizon)}

        def summarize(outputs):
            matched = sum(
                1 for partner in outputs.values() if partner is not None
            )
            return f"|M| = {matched // 2}"
    elif args.problem == "coloring":
        delta = max((d for _, d in graph.degree), default=0)
        horizon = 40 * max(4, n.bit_length() ** 2)
        variants = {
            "object": lambda: TrialColoringAlgorithm(delta + 1, horizon),
            "columnar": lambda: ColumnarTrialColoring(delta + 1, horizon),
        }

        def summarize(outputs):
            return f"colors = {len(set(outputs.values()))}"
    else:  # bfs
        root = min(graph.nodes, key=repr)
        horizon = n + 2
        variants = {
            "object": lambda: BFSTreeAlgorithm(root, horizon),
            "columnar": lambda: ColumnarBFSTree(root, horizon),
        }
        needs_inputs = False

        def summarize(outputs):
            reached = sum(1 for out in outputs.values() if out is not None)
            return f"reached = {reached}/{n}"

    try:
        algorithm = variant_for_plane(variants, args.plane)()
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    if args.rng == "vectorized" and not supports_vectorized(algorithm):
        # Table-derived diagnostic (like --plane resolution): name the
        # incompatible combination and the planes whose variant *does*
        # draw vectorized, instead of failing deep inside execution.
        supporting = []
        for name in plane_names():
            try:
                candidate = variant_for_plane(variants, name)()
            except ValueError:
                continue
            if supports_vectorized(candidate):
                supporting.append(name)
        detail = (
            f"planes with a vectorized variant: {', '.join(supporting)}"
            if supporting
            else f"no registered plane has a vectorized variant of "
                 f"problem {args.problem!r}"
        )
        print(
            f"simulate: --rng vectorized is not supported by "
            f"{type(algorithm).__name__} (plane {args.plane!r}, rng_modes "
            f"{tuple(getattr(algorithm, 'rng_modes', ('exact',)))}); "
            f"{detail}",
            file=sys.stderr,
        )
        return 2

    plan = None
    if args.faults is not None:
        try:
            plan = FaultPlan.parse(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}") from None

    max_rounds = args.max_rounds if args.max_rounds is not None else horizon + 2
    rng = random.Random(args.seed)
    trials = []
    for index in range(args.trials):
        inputs = (
            {v: rng.randrange(1 << 30) for v in graph.nodes}
            if needs_inputs
            else None
        )
        trials.append(
            Trial(graph, inputs=inputs, max_rounds=max_rounds,
                  model=args.model,
                  faults=plan.reseed(plan.seed + index) if plan else None)
        )

    start = time.perf_counter()
    try:
        results = run_many(
            algorithm, trials, processes=args.processes,
            plane=args.plane, rng=args.rng,
        )
    except RuntimeError as exc:
        if "did not halt within" not in str(exc):
            raise
        # Routine under fault injection: the adversary starved the
        # algorithm past its round cap.  Diagnose instead of tracebacking.
        print(f"simulate: {exc} "
              f"(instance {args.instance}, problem {args.problem}"
              f"{', faults ' + args.faults if args.faults else ''}); "
              f"raise --max-rounds or weaken --faults",
              file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    print(f"instance: {args.instance} "
          f"(n={n}, m={graph.number_of_edges()})  problem: {args.problem}")
    print(f"trials: {args.trials}  processes: {args.processes}  "
          f"available cpus: {os.cpu_count() or 1}  model: {args.model}  "
          f"plane: {args.plane}  rng: {args.rng}"
          + (f"  faults: {args.faults}" if args.faults else ""))
    for index, (outputs, metrics) in enumerate(results):
        fault_note = ""
        if plan is not None:
            fault_note = (f"  dropped = {metrics.dropped}  "
                          f"duplicated = {metrics.duplicated}  "
                          f"delayed = {metrics.delayed}  "
                          f"crashed = {metrics.crashed}  "
                          f"corrupted = {metrics.corrupted}")
        print(f"  trial {index}: rounds = {metrics.rounds}  "
              f"messages = {metrics.messages}  bits = {metrics.total_bits}  "
              f"{summarize(outputs)}{fault_note}")
    total_rounds = sum(metrics.rounds for _, metrics in results)
    total_messages = sum(metrics.messages for _, metrics in results)
    total_bits = sum(metrics.total_bits for _, metrics in results)
    print(f"sweep total: rounds = {total_rounds}  "
          f"messages = {total_messages}  bits = {total_bits}  "
          f"wall clock = {elapsed:.3f}s")
    if plan is not None:
        # One-line adversary summary: what the fault plan actually did
        # across the sweep, without JSON spelunking.
        print("faults: crashed = {}  dropped = {}  duplicated = {}  "
              "delayed = {}  corrupted = {}".format(
                  *(sum(getattr(metrics, field) for _, metrics in results)
                    for field in ("crashed", "dropped", "duplicated",
                                  "delayed", "corrupted"))))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minor-free network decomposition toolkit (PODC 2023 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="build an (ε, D, T)-decomposition")
    p.add_argument("instance", help="family:size[:seed], e.g. planar:200:1")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--variant", choices=["51", "52"], default="52")
    p.add_argument("--measure-routing", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("approximate", help="run a Section 6.1 algorithm")
    p.add_argument("problem", choices=[
        "max-cut", "matching", "vertex-cover", "independent-set",
        "dominating-set",
    ])
    p.add_argument("instance")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--fast", action="store_true",
                   help="use the KPR decomposer instead of Theorem 1.1")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("test-property", help="run the Corollary 6.6 tester")
    p.add_argument("property", choices=["planar", "forest", "outerplanar",
                                        "cactus"])
    p.add_argument("instance")
    p.add_argument("--epsilon", type=float, default=0.2)
    p.set_defaults(func=cmd_test_property)

    from repro.congest.runtime import plane_names

    p = sub.add_parser("gather", help="run an information-gathering backend")
    p.add_argument("instance")
    p.add_argument("--backend", choices=["load-balancing", "walks", "both"],
                   default="both")
    p.add_argument("--f", type=float, default=0.25)
    p.add_argument("--simulate-routing", action="store_true",
                   help="run the routers' communication steps (walk-token "
                        "forwarding, arrival notification) through the "
                        "simulator on the plane given by --plane")
    p.add_argument("--plane", choices=("auto", *plane_names(batch=False)),
                   default="auto",
                   help="execution plane for --simulate-routing (runtime "
                        "plane name; 'auto' resolves the variable-width "
                        "columnar routers)")
    p.set_defaults(func=cmd_gather)

    p = sub.add_parser(
        "simulate",
        help="sweep a classic CONGEST baseline through the runtime's "
             "batched run_many",
    )
    p.add_argument("problem", choices=["mis", "matching", "coloring", "bfs"])
    p.add_argument("instance")
    p.add_argument("--trials", type=int, default=1,
                   help="number of seeded trials in the sweep")
    p.add_argument("--processes", type=int, default=1,
                   help="worker processes for run_many (1 = serial)")
    p.add_argument("--model", choices=["congest", "local"], default="congest")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed deriving the per-trial vertex seeds")
    from repro.congest.runtime import plane_names

    p.add_argument("--plane", choices=("auto", *plane_names()),
                   default="auto",
                   help="execution plane (runtime plane name); 'auto' "
                        "resolves the fastest plane of the problem's "
                        "implementation family and grid-batches serial "
                        "columnar sweeps; 'grid' forces trial-major grid "
                        "batching")
    p.add_argument("--rng", choices=["exact", "vectorized"],
                   default="exact",
                   help="randomness discipline (repro.congest.RngPlan): "
                        "'exact' (default) keeps the byte-identity "
                        "per-vertex random.Random streams; 'vectorized' "
                        "draws counter-based Philox columns — "
                        "deterministic and plane-independent, but a "
                        "different stream; requires a plane whose "
                        "variant declares the mode")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault plan as comma-separated knobs, e.g. "
                        "'crash=0.01,drop=0.05,dup=0.01,delay=2,"
                        "corrupt=0.05,target=degree:0.25,seed=7' "
                        "(repro.congest.FaultPlan.parse); each trial "
                        "reseeds the plan with seed+trial so a sweep "
                        "draws independent fault schedules")
    p.add_argument("--max-rounds", type=int, default=None,
                   help="override the per-problem round horizon (faulty "
                        "runs may need more rounds than the fault-free "
                        "default)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
