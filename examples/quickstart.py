"""Quickstart: build an (ε, D, T)-decomposition and exercise its routing.

Runs Theorem 1.1 on a planar instance, validates every invariant of the
decomposition, and then actually executes the routing algorithm A on each
routing group (measuring T rather than trusting the formula).  The last
section demonstrates **execution-plane selection** (``plane=`` on the
simulator wrappers, ``--plane`` on the CLI — see docs/ARCHITECTURE.md):
the same BFS runs on the object plane and on the columnar plane with
byte-identical outputs and metrics.

Usage::

    python examples/quickstart.py [n] [epsilon]
"""

import sys

from repro import edt_decomposition
from repro.congest.algorithms import bfs_tree
from repro.decomposition import check_edt_decomposition
from repro.decomposition.edt import run_gather_on_groups
from repro.graphs import triangulated_grid


def main(side: int = 12, epsilon: float = 0.25) -> None:
    graph = triangulated_grid(side, side)
    print(
        f"instance: {side}x{side} triangulated grid "
        f"(n={graph.number_of_nodes()}, m={graph.number_of_edges()})"
    )
    print(f"target epsilon: {epsilon}")

    decomposition = edt_decomposition(graph, epsilon, variant="52")
    stats = check_edt_decomposition(
        graph, decomposition, epsilon, max_diameter=graph.number_of_nodes()
    )
    print("\n(ε, D, T)-decomposition built and validated:")
    print(f"  clusters:              {stats['clusters']}")
    print(f"  cut fraction (≤ ε):    {stats['cut_fraction']:.4f}")
    print(f"  max cluster diameter:  {stats['max_diameter']}")
    print(f"  construction rounds:   {decomposition.construction_rounds}")

    measured_t = run_gather_on_groups(graph, decomposition, backend="load_balancing")
    print(f"  measured routing T:    {measured_t} rounds "
          f"(load-balancing backend, full Lemma 2.2 pipeline)")

    members = decomposition.cluster_members()
    biggest = max(members.values(), key=len)
    print(f"\nlargest cluster has {len(biggest)} vertices; leader = "
          f"{decomposition.leaders[max(members, key=lambda c: len(members[c]))]!r}")

    # Execution-plane selection: every simulator wrapper takes a plane
    # name from the runtime's fixed plane table (and the CLI takes
    # --plane).  The planes are
    # byte-identical on outputs and metrics; they differ only in speed.
    root = next(iter(graph.nodes))
    tree_obj, metrics_obj = bfs_tree(graph, root, plane="broadcast")
    tree_col, metrics_col = bfs_tree(graph, root, plane="columnar")
    assert tree_obj == tree_col
    assert (metrics_obj.rounds, metrics_obj.messages,
            metrics_obj.total_bits) == (metrics_col.rounds,
                                        metrics_col.messages,
                                        metrics_col.total_bits)
    print("\nexecution planes (see docs/ARCHITECTURE.md):")
    print(f"  bfs_tree(plane='broadcast') == bfs_tree(plane='columnar'): "
          f"{metrics_col.rounds} rounds, {metrics_col.messages} messages, "
          f"{metrics_col.total_bits} bits on both planes")


if __name__ == "__main__":
    side = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    epsilon = float(sys.argv[2]) if len(sys.argv) > 2 else 0.25
    main(side, epsilon)
