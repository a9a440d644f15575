"""Existential expander decompositions (Section 3).

* :func:`expander_decomposition_fact31` — Fact 3.1's recursive sparse-cut
  scheme: while some cluster admits a cut of conductance < φ =
  ε/(4 log |V|), cut it and recurse.  The charging argument bounds the cut
  edges by ε|E| *provided every performed cut has conductance < φ*; the
  implementation preserves exactly that invariant (cuts are only taken
  when their measured conductance is < φ), so the ε bound is
  unconditional.  Sub-φ cuts are searched exactly on small clusters and by
  Cheeger sweep on larger ones; when no sub-φ cut is found the cluster is
  accepted (for small clusters this certifies Φ ≥ φ exactly; for large
  ones the sweep's quadratic tightness makes misses harmless in practice —
  measured conductances are reported by the validation).

* :func:`expander_decomposition_obs31` — Observation 3.1's three-step
  pipeline for H-minor-free graphs, achieving φ = Ω(ε / (log 1/ε + log Δ))
  independent of n: KPR low-diameter decomposition (clusters have ≤
  Δ^{O(1/ε)} vertices), then Fact 3.1 inside each cluster, then once more
  (cluster sizes now bounded through Lemma 2.7).
"""

from __future__ import annotations

import math

import networkx as nx

from repro.decomposition.kpr import kpr_low_diameter_decomposition
from repro.decomposition.types import Clustering
from repro.graphs.conductance import (
    cheeger_sweep_cut,
    conductance_of_set,
    enumerate_cut_conductances,
    enumerated_cut,
)


def _find_sub_phi_cut(graph: nx.Graph, phi: float, exact_limit: int = 14):
    """A vertex set S with Φ(S) < φ, or None if none was found.

    Exact enumeration below ``exact_limit`` vertices; Cheeger sweep above.
    """
    n = graph.number_of_nodes()
    if n < 2:
        return None
    if not nx.is_connected(graph):
        components = list(nx.connected_components(graph))
        return set(components[0])
    if n <= exact_limit:
        # The first minimum, as a strict-< scan over the enumeration
        # order would keep.
        values = enumerate_cut_conductances(graph)
        best = int(values.argmin())
        if values[best] < phi:
            return enumerated_cut(list(graph.nodes), best)
        return None
    sweep = cheeger_sweep_cut(graph)
    if sweep is not None and conductance_of_set(graph, sweep) < phi:
        return sweep
    return None


def expander_decomposition_fact31(
    graph: nx.Graph,
    epsilon: float,
    phi: float | None = None,
) -> tuple[Clustering, float]:
    """Fact 3.1: an (ε, φ) expander decomposition with φ = ε / (4 log |V|).

    Returns ``(clustering, phi)``.  The ε bound is guaranteed by the
    charging argument (only sub-φ cuts are ever taken); the φ bound is
    exact on clusters small enough to enumerate and best-effort (Cheeger
    sweep) above — see the module docstring.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    n = graph.number_of_nodes()
    if phi is None:
        phi = epsilon / (4 * math.log2(max(4, n)))
    final: list[set] = []
    stack: list[set] = [set(c) for c in nx.connected_components(graph)]
    while stack:
        piece = stack.pop()
        if len(piece) <= 1:
            final.append(piece)
            continue
        sub = graph.subgraph(piece)
        cut = _find_sub_phi_cut(sub, phi)
        if cut is None:
            final.append(piece)
            continue
        stack.append(set(cut))
        stack.append(piece - set(cut))
    return Clustering.from_sets(final), phi


def expander_decomposition_obs31(
    graph: nx.Graph,
    epsilon: float,
    kpr_depth: int = 3,
) -> tuple[Clustering, float]:
    """Observation 3.1: (ε, φ) with φ = Ω(ε / (log 1/ε + log Δ)) on
    H-minor-free graphs.

    Three steps, each allotted ε/3: KPR LDD, then Fact 3.1 within each
    cluster, then Fact 3.1 again (the second pass benefits from the
    Lemma 2.7 size bound).  Returns ``(clustering, phi_target)`` where
    ``phi_target`` is the Observation's conductance value for this Δ and
    ε; measured per-cluster conductances are asserted by the validation
    helpers.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if graph.number_of_nodes() == 0:
        return Clustering({}), 1.0
    step = epsilon / 3.0
    ldd = kpr_low_diameter_decomposition(graph, step, depth=kpr_depth)

    def refine(clustering: Clustering) -> Clustering:
        parts: list[set] = []
        for members in clustering.clusters().values():
            sub = graph.subgraph(members)
            inner, _ = expander_decomposition_fact31(sub, step)
            parts.extend(inner.clusters().values())
        return Clustering.from_sets(parts)

    second = refine(ldd)
    third = refine(second)
    delta = max((d for _, d in graph.degree), default=1)
    phi_target = epsilon / (
        16 * (math.log2(max(2, 1 / epsilon)) + math.log2(max(2, delta)))
    )
    return third, phi_target
