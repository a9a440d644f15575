"""Memoized per-graph statistics: degrees, volumes, cuts, degeneracy.

The refinement loops in :mod:`repro.decomposition.edt` and
:mod:`repro.decomposition.overlap_expander`, and the conductance helpers in
:mod:`repro.graphs.conductance`, repeatedly need the same quantities —
``deg(v)``, ``vol(S)``, ``|∂S|``, total volume, degeneracy — and the seed
recomputed each from scratch inside the loop (full-edge scans for cuts,
min-degree peeling for every degeneracy query).  :class:`GraphStats`
computes them once per graph and serves them from a cache:

* degrees and total volume are materialized at construction (O(n));
* ``cut_size(S)`` iterates only edges incident to S — O(vol S), not O(m) —
  and memoizes results for ``frozenset`` arguments (the decomposition
  code's member sets are frozensets, so repeated refinement queries hit);
* ``degeneracy`` is computed lazily once.

Instances are cached per graph object (weakly, so graphs can still be
garbage collected) via :meth:`GraphStats.for_graph`, through the shared
:class:`~repro.graphs.cache.PerGraphCache` protocol — the same staleness
probe (n, m, and the degree table, O(n)) that guards the CONGEST
engine's ``CompiledTopology`` cache, so the two can never disagree about
whether a graph changed.  The probe cannot see a *degree-preserving*
rewire (e.g. ``nx.double_edge_swap``) — call :meth:`GraphStats.invalidate`
(which drops **all** registered per-graph caches) after one, or use a
fresh graph copy.  Graphs mutated *between* ``for_graph`` and a query on
the returned instance are the caller's responsibility — hold stats only
across read-only phases.
"""

from __future__ import annotations

import weakref
from typing import Hashable, Iterable

import networkx as nx

from repro.graphs.cache import PerGraphCache, invalidate_graph_caches

_CUT_CACHE_LIMIT = 4096


class GraphStats:
    """Cached structural statistics of one ``networkx.Graph``."""

    __slots__ = (
        "n",
        "m",
        "degree",
        "total_volume",
        "_adj",
        "_graph_ref",
        "_degeneracy",
        "_cut_cache",
        "__weakref__",
    )

    def __init__(self, graph: nx.Graph) -> None:
        self.n = graph.number_of_nodes()
        self.m = graph.number_of_edges()
        # graph.adj wraps graph._adj; holding it does not keep the graph
        # object itself alive (the weak cache stays collectible).
        self._adj = graph.adj
        # dict(graph.degree) keeps networkx semantics (self-loops count 2).
        self.degree = dict(graph.degree)
        self.total_volume = sum(self.degree.values())
        self._graph_ref = weakref.ref(graph)
        self._degeneracy: int | None = None
        self._cut_cache: dict[frozenset, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def for_graph(cls, graph: nx.Graph) -> "GraphStats":
        """The memoized stats for ``graph``.

        Rebuilt whenever n, m, or any vertex degree changed; a
        degree-preserving rewire is invisible to this check (see the
        module docstring) and needs :meth:`invalidate`.
        """
        return _stats_cache.get(graph)

    @classmethod
    def invalidate(cls, graph: nx.Graph) -> None:
        """Drop **every** registered per-graph cache entry for ``graph``
        (after an in-place mutation the staleness check cannot detect).
        Clearing all caches at once keeps the engine's compiled topology
        and these stats in sync."""
        invalidate_graph_caches(graph)

    # ------------------------------------------------------------------
    def volume(self, vertices: Iterable[Hashable]) -> int:
        """vol(S) = Σ_{v∈S} deg(v) from the cached degree table."""
        degree = self.degree
        return sum(degree[v] for v in vertices)

    def cut_size(self, vertices: Iterable[Hashable]) -> int:
        """|∂S| by iterating only S's incident edges — O(vol S).

        ``frozenset`` arguments are memoized (bounded cache), so the
        refinement loops that re-query the same member sets pay once.
        """
        if isinstance(vertices, frozenset):
            cached = self._cut_cache.get(vertices)
            if cached is not None:
                return cached
            value = self._cut_count(vertices)
            if len(self._cut_cache) < _CUT_CACHE_LIMIT:
                self._cut_cache[vertices] = value
            return value
        inside = vertices if isinstance(vertices, set) else set(vertices)
        return self._cut_count(inside)

    def _cut_count(self, inside) -> int:
        adj = self._adj
        total = 0
        for u in inside:
            if u not in adj:
                continue
            for v in adj[u]:
                if v not in inside:
                    total += 1
        return total

    @property
    def degeneracy(self) -> int:
        """d(G), computed lazily once via the exact peeling algorithm."""
        if self._degeneracy is None:
            from repro.graphs.arboricity import degeneracy as _degeneracy

            graph = self._graph_ref()
            if graph is None:  # graph collected: rebuild from adjacency
                graph = nx.Graph()
                graph.add_nodes_from(self.degree)
                for u in self._adj:
                    for v in self._adj[u]:
                        graph.add_edge(u, v)
            self._degeneracy = _degeneracy(graph)
        return self._degeneracy


def _stats_fresh(stats: GraphStats, graph: nx.Graph) -> bool:
    """Degree-table staleness probe: one pass over the degree view covers
    n, m, and per-vertex degrees (degrees determine 2m)."""
    if stats.n != len(graph):
        return False
    degree = stats.degree
    for v, d in graph.degree:
        if degree.get(v, -1) != d:
            return False
    return True


_stats_cache = PerGraphCache(GraphStats, _stats_fresh)
