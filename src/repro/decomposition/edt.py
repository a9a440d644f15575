"""(ε, D, T)-decompositions: the paper's main object (Section 5, Thm 1.1).

Structure of this module, mirroring the paper:

* :func:`local_edt_lemma51` / :func:`local_edt_lemma52` — the two
  *existential* constructions of Section 5.1, run as leader-local
  computation on a gathered cluster topology:

  - Lemma 5.1: overlap expander decomposition (Lemma 4.1) → expel weakly
    attached vertices → per-cluster Lemma 2.2 routing (failed vertices F_S
    expelled) → KPR diameter reduction.  T = 2^O(log² 1/ε) · O(log Δ).
  - Lemma 5.2: Fact 3.1 expander decomposition → shared Lemma 2.6 walk
    schedule (one bit string for all clusters) → KPR.  T = poly(1/ε, log Δ).

* :func:`refine_merge` — Lemma 5.3: heavy-stars merging on the cluster
  graph with the vol(S)-based light-link rule; improves ε by (1 − 1/(16α))
  at the cost D' = 3D + 2 and T' = O((T + 1)/ε) (satellites forward their
  load through the inter-star edges into the center's routing group).

* :func:`refine_local` — Lemmas 5.4/5.5: every cluster leader locally
  recomputes a fresh decomposition of its cluster with ε* = ε/(32α),
  resetting D and T.

* :func:`edt_decomposition` — Theorem 1.1: alternate refine_merge and
  refine_local from the trivial (1, 0, 0)-decomposition until the measured
  cut fraction reaches ε.

Routing is *measured*: :func:`run_gather_on_groups` executes the selected
backend (load balancing per Lemma 2.2 or derandomized walks per Lemma 2.5)
on every routing group and records the max rounds as the decomposition's
T.  During construction the backends can run in ``analytic`` mode (charge
the paper's formula against measured φ̂) to keep iteration affordable; the
final decomposition is always measurable.
"""

from __future__ import annotations

import math
from typing import Hashable

import networkx as nx

from repro.decomposition.heavy_stars import heavy_stars
from repro.decomposition.kpr import kpr_low_diameter_decomposition
from repro.decomposition.existential import expander_decomposition_fact31
from repro.decomposition.overlap_expander import overlap_expander_decomposition
from repro.decomposition.types import (
    Clustering,
    EDTDecomposition,
    RoutingGroup,
)
from repro.graphs.cluster_graph import build_cluster_graph
from repro.graphs.conductance import conductance
from repro.graphs.stats import GraphStats


# ---------------------------------------------------------------------------
# Local (leader-side) constructions — Section 5.1
# ---------------------------------------------------------------------------
def _max_degree_vertex(graph: nx.Graph) -> Hashable:
    return max(graph.nodes, key=lambda v: (graph.degree[v], repr(v)))


def _analytic_gather_rounds(subgraph: nx.Graph, backend: str) -> int:
    """The paper's T formula charged against the measured conductance φ̂.

    Lemma 2.2 (load balancing): O(φ̂⁻⁴ log³ m̂);
    Lemma 2.5 (walks):          O(φ̂⁻⁴ log² m̂).
    """
    m_hat = max(2, subgraph.number_of_edges())
    phi_hat = max(conductance(subgraph), 1e-6)
    log_m = math.log2(m_hat)
    exponent = 3 if backend == "load_balancing" else 2
    return min(10 ** 9, math.ceil((phi_hat ** -4) * (log_m ** exponent)))


def local_edt_lemma51(
    subgraph: nx.Graph,
    epsilon: float,
    alpha: int | None = None,
    measure_routing: bool = False,
    gather_f: float | None = None,
) -> dict:
    """Lemma 5.1 construction on a (gathered) topology ``subgraph``.

    Returns ``{"parts": [set, ...], "groups": {part_index: RoutingGroup},
    "routing_rounds": T}``.  Parts partition V(subgraph); parts of size 1
    have no routing group; several parts can share one group (they came
    from the same overlap cluster G_S, whose v⋆ serves them all — the
    paper's shared-leader feature).
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if alpha is None:
        alpha = max(1, GraphStats.for_graph(subgraph).degeneracy)
    if subgraph.number_of_edges() == 0:
        return {
            "parts": [{v} for v in subgraph.nodes],
            "groups": {},
            "routing_rounds": 0,
        }

    # Step 0: (ε/4, φ, c) overlap expander decomposition (Lemma 4.1).
    decomposition, stats = overlap_expander_decomposition(
        subgraph, epsilon / 4.0, alpha=alpha, measure_conductance=False
    )
    c = max(1, decomposition.max_overlap())

    # Step 1: expel u with deg_{G_S}(u) ≤ deg(u)/4 into singletons.
    working = []
    singles: list[set] = []
    for cluster in decomposition.clusters:
        members = set(cluster.members)
        if len(members) > 1:
            sub_s = cluster.subgraph()
            expelled = {
                u
                for u in members
                if sub_s.degree[u] <= subgraph.degree[u] / 4.0
            }
            members -= expelled
            singles.extend({u} for u in expelled)
        if members:
            working.append((members, cluster))
    parts: list[set] = list(singles)
    groups: dict[int, RoutingGroup] = {}
    routing_rounds = 0

    for members, cluster in working:
        if len(members) == 1:
            parts.append(set(members))
            continue
        g_s = cluster.subgraph()
        sink = _max_degree_vertex(g_s)
        if measure_routing:
            from repro.gathering.load_balancing import gather_with_load_balancing

            f = gather_f if gather_f is not None else max(
                1e-3, epsilon / (16.0 * c)
            )
            outcome = gather_with_load_balancing(g_s, sink, f=min(0.45, f))
            # F_S: vertices with more than half their messages undelivered.
            per_vertex: dict[Hashable, int] = {}
            for (v, _i) in outcome.delivered:
                per_vertex[v] = per_vertex.get(v, 0) + 1
            failed = {
                u
                for u in members
                if u != sink
                and per_vertex.get(u, 0) < g_s.degree[u] / 2.0
            }
            members = members - failed
            parts.extend({u} for u in failed)
            measured = 8 * outcome.rounds  # the paper's ×8 repetition
        else:
            measured = _analytic_gather_rounds(g_s, "load_balancing")
        routing_rounds = max(routing_rounds, measured)
        group = RoutingGroup(
            nodes=frozenset(g_s.nodes),
            edges=frozenset(frozenset(e) for e in g_s.edges),
            sink=sink,
            measured_rounds=measured,
            backend="load_balancing" if measure_routing else "analytic",
        )
        if not members:
            continue
        # Step 3: KPR diameter reduction inside G[members].
        inner = kpr_low_diameter_decomposition(
            subgraph.subgraph(members), epsilon / 4.0
        )
        for piece in inner.clusters().values():
            index = len(parts)
            parts.append(set(piece))
            if len(piece) > 1:
                groups[index] = group
    return {"parts": parts, "groups": groups, "routing_rounds": routing_rounds}


def local_edt_lemma52(
    subgraph: nx.Graph,
    epsilon: float,
    measure_routing: bool = False,
) -> dict:
    """Lemma 5.2 construction: Fact 3.1 clusters + one shared walk schedule.

    Same return shape as :func:`local_edt_lemma51`.  The shared schedule's
    bit length is recorded on each routing group (the part of B_v that is
    identical for all vertices).
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if subgraph.number_of_edges() == 0:
        return {
            "parts": [{v} for v in subgraph.nodes],
            "groups": {},
            "routing_rounds": 0,
        }
    clustering, phi = expander_decomposition_fact31(subgraph, epsilon / 4.0)

    # Step 1: expel weakly attached vertices (deg_{G[S]}(u) ≤ deg(u)/4).
    refined: list[set] = []
    for members in clustering.clusters().values():
        members = set(members)
        if len(members) > 1:
            induced = subgraph.subgraph(members)
            expelled = {
                u for u in members if induced.degree[u] <= subgraph.degree[u] / 4.0
            }
            members -= expelled
            refined.extend({u} for u in expelled)
        if members:
            refined.append(members)

    multi = [members for members in refined if len(members) > 1]
    singles = [members for members in refined if len(members) == 1]
    parts: list[set] = list(singles)
    groups: dict[int, RoutingGroup] = {}
    routing_rounds = 0
    schedule_bits = 0

    cluster_graphs = [subgraph.subgraph(members).copy() for members in multi]
    sinks = [_max_degree_vertex(g) for g in cluster_graphs]
    delivered_sets: list[set] | None = None
    if measure_routing and cluster_graphs:
        from repro.gathering.random_walks import find_shared_walk_schedule

        f = min(0.45, max(1e-3, epsilon / 16.0))
        schedule, delivered_sets = find_shared_walk_schedule(
            cluster_graphs, sinks, f=f, phi_hint=max(phi, 0.05)
        )
        routing_rounds = 8 * schedule.execution_rounds()
        schedule_bits = schedule.schedule_bits

    for idx, (members, g_i, sink) in enumerate(zip(multi, cluster_graphs, sinks)):
        members = set(members)
        if delivered_sets is not None:
            per_vertex: dict[Hashable, int] = {}
            for (v, _i) in delivered_sets[idx]:
                per_vertex[v] = per_vertex.get(v, 0) + 1
            failed = {
                u
                for u in members
                if u != sink and per_vertex.get(u, 0) < g_i.degree[u] / 2.0
            }
            members -= failed
            parts.extend({u} for u in failed)
            measured = routing_rounds
        else:
            measured = _analytic_gather_rounds(g_i, "walks")
            routing_rounds = max(routing_rounds, measured)
        group = RoutingGroup(
            nodes=frozenset(g_i.nodes),
            edges=frozenset(frozenset(e) for e in g_i.edges),
            sink=sink,
            measured_rounds=measured,
            schedule_bits=schedule_bits,
            backend="walks" if measure_routing else "analytic",
        )
        if not members:
            continue
        inner = kpr_low_diameter_decomposition(
            subgraph.subgraph(members), epsilon / 4.0
        )
        for piece in inner.clusters().values():
            index = len(parts)
            parts.append(set(piece))
            if len(piece) > 1:
                groups[index] = group
    return {"parts": parts, "groups": groups, "routing_rounds": routing_rounds}


# ---------------------------------------------------------------------------
# Global refinement operators — Section 5.2
# ---------------------------------------------------------------------------
def trivial_decomposition(graph: nx.Graph) -> EDTDecomposition:
    """The (1, 0, 0)-decomposition: every vertex a singleton, its own leader."""
    clustering = Clustering.singletons(graph)
    leaders = {v: v for v in graph.nodes}
    return EDTDecomposition(clustering=clustering, leaders=leaders)


def refine_merge(
    graph: nx.Graph,
    decomposition: EDTDecomposition,
    epsilon_threshold: float,
    alpha: int,
) -> EDTDecomposition:
    """Lemma 5.3: one heavy-stars merge round on the cluster graph.

    Light links are dropped when |E(S, C_Q)| ≤ ε/(32α) · vol(S) (volume of
    the *member set*, per the Lemma); satellites adopt the center's id and
    leader; the new routing is the composition (satellite groups, then the
    center's), so the merged cluster's group list concatenates them.
    """
    clustering = decomposition.clustering
    assignment = clustering.assignment
    cluster_graph = build_cluster_graph(graph, assignment)
    if cluster_graph.number_of_edges() == 0:
        return decomposition
    stars_result = heavy_stars(cluster_graph)

    members = clustering.clusters()
    threshold = epsilon_threshold / (32.0 * alpha)
    stats = GraphStats.for_graph(graph)

    def crossing_weight(a: Hashable, b: Hashable) -> int:
        return cluster_graph[a][b]["weight"] if cluster_graph.has_edge(a, b) else 0

    star_of: dict[Hashable, Hashable] = {}
    for center, satellites in stars_result.stars.items():
        for satellite in satellites:
            volume_s = stats.volume(members[satellite])
            if crossing_weight(center, satellite) <= threshold * volume_s:
                continue  # light link removed — S stays its own cluster
            star_of[satellite] = center

    new_assignment = {
        v: star_of.get(cluster, cluster) for v, cluster in assignment.items()
    }
    new_clustering = Clustering(new_assignment)
    new_leaders: dict = {}
    new_groups: dict = {}
    for cluster_id in set(new_assignment.values()):
        new_leaders[cluster_id] = decomposition.leaders[cluster_id]
        merged_groups = list(decomposition.groups.get(cluster_id, []))
        for satellite, center in star_of.items():
            if center == cluster_id:
                merged_groups.extend(decomposition.groups.get(satellite, []))
        if merged_groups:
            new_groups[cluster_id] = merged_groups

    ledger = decomposition.ledger
    d_hat = _max_cluster_diameter_estimate(graph, new_clustering)
    t_old = decomposition.routing_rounds
    ledger.charge("lemma53.heavy_stars", (d_hat + 1) * (stars_result.coloring_rounds + 4))
    ledger.charge("lemma53.steps34", 2 * (d_hat + 1))
    new_t = math.ceil((t_old + 1) / max(epsilon_threshold, 1e-9))
    return EDTDecomposition(
        clustering=new_clustering,
        leaders=new_leaders,
        groups=new_groups,
        ledger=ledger,
        routing_rounds=new_t,
    )


def _max_cluster_diameter_estimate(graph: nx.Graph, clustering: Clustering) -> int:
    estimate = 0
    for cluster_members in clustering.clusters().values():
        if len(cluster_members) <= 1:
            continue
        sub = graph.subgraph(cluster_members)
        if not nx.is_connected(sub):
            estimate = max(estimate, len(cluster_members))
            continue
        start = min(sub.nodes, key=repr)
        lengths = nx.single_source_shortest_path_length(sub, start)
        far = max(lengths, key=lambda v: (lengths[v], repr(v)))
        lengths2 = nx.single_source_shortest_path_length(sub, far)
        estimate = max(estimate, max(lengths2.values()))
    return estimate


def refine_local(
    graph: nx.Graph,
    decomposition: EDTDecomposition,
    epsilon: float,
    alpha: int,
    variant: str = "52",
    measure_routing: bool = False,
) -> EDTDecomposition:
    """Lemmas 5.4/5.5: leader-local recomputation inside every cluster.

    Each leader gathers its cluster topology (cost O(T), charged) and
    locally computes a fresh (ε*, D*, T*)-decomposition with ε* = ε/(32α)
    via Lemma 5.1 (``variant='51'``) or Lemma 5.2 (``variant='52'``).
    """
    if variant not in ("51", "52"):
        raise ValueError("variant must be '51' or '52'")
    epsilon_star = epsilon / (32.0 * alpha)
    members = decomposition.clustering.clusters()
    new_assignment: dict = {}
    new_leaders: dict = {}
    new_groups: dict = {}
    next_id = 0
    routing_rounds = 0
    for cluster_id, vertex_set in members.items():
        sub = graph.subgraph(vertex_set).copy()
        if sub.number_of_edges() == 0:
            for v in vertex_set:
                new_assignment[v] = next_id
                new_leaders[next_id] = v
                next_id += 1
            continue
        if variant == "51":
            local = local_edt_lemma51(
                sub, epsilon_star, alpha=alpha, measure_routing=measure_routing
            )
        else:
            local = local_edt_lemma52(
                sub, epsilon_star, measure_routing=measure_routing
            )
        routing_rounds = max(routing_rounds, local["routing_rounds"])
        for part_index, part in enumerate(local["parts"]):
            cluster_new = next_id
            next_id += 1
            for v in part:
                new_assignment[v] = cluster_new
            group = local["groups"].get(part_index)
            if group is not None:
                new_groups[cluster_new] = [group]
                new_leaders[cluster_new] = group.sink
            else:
                new_leaders[cluster_new] = min(part, key=repr)
    ledger = decomposition.ledger
    t_old = decomposition.routing_rounds
    label = "lemma54" if variant == "51" else "lemma55"
    if variant == "51":
        ledger.charge(
            f"{label}.gather_and_distribute",
            max(1, math.ceil((t_old + 1) * math.log2(max(2, 1 / epsilon)))),
        )
    else:
        d_hat = _max_cluster_diameter_estimate(graph, decomposition.clustering)
        ledger.charge(
            f"{label}.gather_and_distribute", t_old + routing_rounds + d_hat + 1
        )
    return EDTDecomposition(
        clustering=Clustering(new_assignment),
        leaders=new_leaders,
        groups=new_groups,
        ledger=ledger,
        routing_rounds=routing_rounds,
    )


# ---------------------------------------------------------------------------
# Theorem 1.1 driver
# ---------------------------------------------------------------------------
def edt_decomposition(
    graph: nx.Graph,
    epsilon: float,
    variant: str = "52",
    alpha: int | None = None,
    measure_routing: bool = False,
    max_outer_iterations: int | None = None,
) -> EDTDecomposition:
    """Theorem 1.1: build an (ε, D, T)-decomposition of an H-minor-free G.

    Alternates Lemma 5.3 merges with Lemma 5.4/5.5 local refinement
    starting from the trivial decomposition, until the measured cut
    fraction is ≤ ε.  ``variant`` picks the T regime of Theorem 1.1:
    ``'51'`` → T = 2^O(log² 1/ε)·O(log Δ) (Lemma 5.4 path);
    ``'52'`` → T = poly(1/ε, log Δ) (Lemma 5.5 path).

    The ledger charges measured primitive costs throughout; with
    ``measure_routing`` the final T is additionally *executed* by the
    gather backend on every routing group.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if alpha is None:
        alpha = max(1, GraphStats.for_graph(graph).degeneracy)
    if max_outer_iterations is None:
        shrink = 1.0 - 1.0 / (16.0 * alpha)
        max_outer_iterations = max(
            2, 2 * math.ceil(math.log(epsilon) / math.log(shrink))
        )
    decomposition = trivial_decomposition(graph)
    if graph.number_of_edges() == 0:
        return decomposition
    epsilon_current = 1.0
    for _outer in range(max_outer_iterations):
        measured = decomposition.epsilon(graph)
        if measured <= epsilon:
            break
        epsilon_current = min(epsilon_current, measured)
        decomposition = refine_merge(
            graph, decomposition, epsilon_threshold=max(epsilon, epsilon_current), alpha=alpha
        )
        decomposition = refine_local(
            graph,
            decomposition,
            epsilon=epsilon,
            alpha=alpha,
            variant=variant,
            measure_routing=False,
        )
    if measure_routing:
        run_gather_on_groups(graph, decomposition)
    return decomposition


def run_gather_on_groups(
    graph: nx.Graph,
    decomposition: EDTDecomposition,
    f: float = 0.2,
    backend: str | None = None,
) -> int:
    """Execute the routing algorithm A on every distinct routing group.

    Deduplicates shared groups, runs the gather backend (the group's own,
    or ``backend`` override), multiplies by the paper's ×8 repetition, and
    records the max as the decomposition's measured T.  Returns T.
    """
    seen: dict[tuple, int] = {}
    worst = 0
    for groups in decomposition.groups.values():
        for group in groups:
            key = (group.nodes, group.edges, group.sink)
            if key in seen:
                continue
            sub = group.subgraph()
            if sub.number_of_edges() == 0:
                seen[key] = 0
                continue
            chosen = backend or group.backend
            if chosen in ("analytic", "load_balancing"):
                from repro.gathering.load_balancing import (
                    gather_with_load_balancing,
                )

                outcome = gather_with_load_balancing(sub, group.sink, f=f)
                rounds = 8 * outcome.rounds
            else:
                from repro.gathering.random_walks import gather_with_random_walks

                _, exec_rounds, _ = gather_with_random_walks(
                    sub, group.sink, f=f, phi_hint=0.1
                )
                rounds = 8 * exec_rounds
            group.measured_rounds = rounds
            seen[key] = rounds
            worst = max(worst, rounds)
    decomposition.routing_rounds = worst
    return worst
