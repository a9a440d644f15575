"""Minimum dominating set via the decomposition template — an *extension*.

The paper's Section 7 asks which further problems fit the
decompose-and-solve-locally framework.  Minimum dominating set is the
classic candidate (the related work solves it in LOCAL on planar graphs
[CHW08, ASS19, LPW13]); it does **not** admit a Solomon-style
bounded-degree sparsifier, so the paper leaves it open.  We implement the
natural decomposition algorithm and *measure* its quality instead of
claiming a (1 + ε) bound:

* decompose with parameter ε;
* each cluster leader gathers G[S ∪ N(S)] (one extra hop — still O(T + 1)
  routing) and solves the *covering* problem exactly: the smallest subset
  of S ∪ N(S) dominating all of S;
* the union over clusters dominates V.

Soundness is unconditional (every vertex lies in some cluster and is
dominated by that cluster's solution).  The cost bound is
Σ_S OPT_S ≤ Σ_S |OPT ∩ (S ∪ N(S))|, i.e. optimal up to the multiplicity
with which OPT vertices appear in neighbourhood-closed clusters — small
when the decomposition's boundary is small, which the benchmark reports.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.applications._template import ApproxResult, Decomposer, default_decomposer
from repro.applications.exact import ExactBudgetExceeded


def greedy_dominating_set(graph: nx.Graph) -> set:
    """Classic ln(Δ)-greedy: repeatedly take the vertex covering the most
    uncovered vertices (the sequential baseline)."""
    uncovered = set(graph.nodes)
    dominating: set = set()
    while uncovered:
        best = max(
            graph.nodes,
            key=lambda v: (
                len(({v} | set(graph.neighbors(v))) & uncovered),
                repr(v),
            ),
        )
        dominating.add(best)
        uncovered -= {best} | set(graph.neighbors(best))
    return dominating


def minimum_dominating_set_exact(
    graph: nx.Graph,
    targets: set | None = None,
    candidates: set | None = None,
    budget: int = 500_000,
) -> set:
    """Smallest subset of ``candidates`` dominating every vertex of
    ``targets`` (defaults: all of V for both).

    Branch & bound on the most-constrained uncovered target; greedy upper
    bound for pruning.  Raises :class:`ExactBudgetExceeded` on blow-up.
    """
    targets = set(graph.nodes) if targets is None else set(targets)
    candidates = set(graph.nodes) if candidates is None else set(candidates)
    closed: dict[Hashable, set] = {
        v: ({v} | set(graph.neighbors(v))) for v in graph.nodes
    }
    for t in targets:
        if not (closed[t] & candidates):
            raise ValueError(f"target {t!r} cannot be dominated by candidates")

    # Greedy upper bound (also the incumbent).
    incumbent: set = set()
    uncovered = set(targets)
    while uncovered:
        best = max(
            candidates,
            key=lambda v: (len(closed[v] & uncovered), repr(v)),
        )
        incumbent.add(best)
        uncovered -= closed[best]
    best_solution = [set(incumbent)]
    counter = [budget]

    def lower_bound(uncovered_now: set) -> int:
        """Disjoint closed-neighbourhood packing: targets no single
        candidate can cover in pairs each need their own dominator."""
        if not uncovered_now:
            return 0
        blocked: set = set()
        packing = 0
        for t in sorted(
            uncovered_now, key=lambda x: (len(closed[x] & candidates), repr(x))
        ):
            dominators = closed[t] & candidates
            if dominators & blocked:
                continue
            packing += 1
            blocked |= dominators
        return packing

    def branch(uncovered_now: set, chosen: set) -> None:
        counter[0] -= 1
        if counter[0] < 0:
            raise ExactBudgetExceeded("dominating-set budget exhausted")
        if not uncovered_now:
            if len(chosen) < len(best_solution[0]):
                best_solution[0] = set(chosen)
            return
        if len(chosen) + lower_bound(uncovered_now) >= len(best_solution[0]):
            return
        # Branch on the hardest target: fewest candidate dominators.
        target = min(
            uncovered_now,
            key=lambda t: (len(closed[t] & candidates), repr(t)),
        )
        options = sorted(
            closed[target] & candidates,
            key=lambda v: (-len(closed[v] & uncovered_now), repr(v)),
        )
        for v in options:
            branch(uncovered_now - closed[v], chosen | {v})

    branch(set(targets), set())
    result = best_solution[0]
    leftover = {t for t in targets if not (closed[t] & result)}
    if leftover:
        raise AssertionError(f"dominating set misses targets {leftover}")
    return result


def approximate_minimum_dominating_set(
    graph: nx.Graph,
    epsilon: float,
    decomposer: Decomposer | None = None,
    cluster_budget: int = 20_000,
) -> ApproxResult:
    """The extension algorithm (see module docstring); quality is measured,
    not guaranteed — ``extras['boundary_multiplicity']`` reports the
    overlap factor the analysis depends on."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    decomposer = decomposer or default_decomposer
    decomposition = decomposer(graph, epsilon / 2.0)
    dominating: set = set()
    exact_count, total = 0, 0
    multiplicity: dict[Hashable, int] = {}
    for members in decomposition.cluster_members().values():
        closed_cluster = set(members)
        for v in members:
            closed_cluster.update(graph.neighbors(v))
        for v in closed_cluster:
            multiplicity[v] = multiplicity.get(v, 0) + 1
        sub = graph.subgraph(closed_cluster)
        total += 1
        try:
            dominating |= minimum_dominating_set_exact(
                sub,
                targets=set(members),
                candidates=closed_cluster,
                budget=cluster_budget,
            )
            exact_count += 1
        except ExactBudgetExceeded:
            # Greedy restricted to the cluster's covering problem.
            uncovered = set(members)
            while uncovered:
                best = max(
                    closed_cluster,
                    key=lambda v: (
                        len(({v} | set(graph.neighbors(v))) & uncovered),
                        repr(v),
                    ),
                )
                dominating.add(best)
                uncovered -= {best} | set(graph.neighbors(best))
    _assert_dominating(graph, dominating)
    return ApproxResult(
        solution=dominating,
        value=len(dominating),
        decomposition=decomposition,
        exact_clusters=exact_count,
        total_clusters=total,
        construction_rounds=decomposition.construction_rounds,
        routing_rounds=decomposition.routing_rounds,
        extras={
            "boundary_multiplicity": max(multiplicity.values(), default=1),
        },
    )


def _assert_dominating(graph: nx.Graph, dominating: set) -> None:
    for v in graph.nodes:
        if v not in dominating and not any(
            u in dominating for u in graph.neighbors(v)
        ):
            raise AssertionError(f"vertex {v!r} not dominated")
