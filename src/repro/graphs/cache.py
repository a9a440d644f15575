"""One per-graph memoization protocol for compiled graph artifacts.

Two subsystems compile a ``networkx.Graph`` into a derived object and
memoize it per graph instance: the CONGEST engine's
:class:`~repro.congest.engine.CompiledTopology` and the structural-stats
cache :class:`~repro.graphs.stats.GraphStats`.  Before this module each
kept its own ``WeakKeyDictionary`` with its own copy of the staleness
check — which meant a mutation could be detected by one cache and missed
by the other, serving a stale compilation next to fresh stats.

:class:`PerGraphCache` centralizes the protocol:

* weak-keyed memoization (graphs stay garbage-collectible);
* an O(n) staleness probe on every hit — the caller supplies ``fresh``,
  a predicate comparing the cached value's recorded degree table against
  the live graph (n, m, and per-vertex degrees; degrees determine 2m);
* registration in a module-level registry so
  :func:`invalidate_graph_caches` drops *every* compiled artifact for a
  graph at once.

The staleness probe cannot see a *degree-preserving* rewire (e.g.
``nx.double_edge_swap``): every vertex keeps its degree, so n, m, and
the degree table all match while adjacency changed.  After such a
mutation call :func:`invalidate_graph_caches` (or the ``invalidate``
classmethod on either cached type — both now clear all registered
caches), or pass a fresh graph copy.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Any, Callable

import networkx as nx

_REGISTRY: "list[PerGraphCache]" = []


class PerGraphCache:
    """Weak per-graph memo cache with a shared staleness/invalidation
    protocol.

    Parameters
    ----------
    build:
        ``graph -> value``; called on a miss or when ``fresh`` rejects
        the cached value.
    fresh:
        ``(value, graph) -> bool``; must compare the value's recorded
        n/degree table against the live graph.  Returning ``False``
        triggers a rebuild.
    """

    __slots__ = ("build", "fresh", "_instances")

    def __init__(
        self,
        build: Callable[[nx.Graph], Any],
        fresh: Callable[[Any, nx.Graph], bool],
    ) -> None:
        self.build = build
        self.fresh = fresh
        self._instances: "weakref.WeakKeyDictionary[nx.Graph, Any]" = (
            weakref.WeakKeyDictionary()
        )
        _REGISTRY.append(self)

    def get(self, graph: nx.Graph) -> Any:
        value = self._instances.get(graph)
        if value is not None and self.fresh(value, graph):
            return value
        value = self.build(graph)
        self._instances[graph] = value
        return value

    def invalidate(self, graph: nx.Graph) -> None:
        """Drop this cache's entry for ``graph`` only.  Almost always you
        want :func:`invalidate_graph_caches` instead, which keeps every
        compiled artifact in sync."""
        self._instances.pop(graph, None)


def invalidate_graph_caches(graph: nx.Graph) -> None:
    """Drop every registered cache's entry for ``graph``.

    The remedy for in-place mutations the degree-table staleness probe
    cannot detect (degree-preserving rewires): clearing all registries at
    once guarantees no subsystem keeps serving a stale compilation while
    another rebuilds.
    """
    for cache in _REGISTRY:
        cache.invalidate(graph)


def graph_fingerprint(graph: nx.Graph) -> str:
    """Content digest of a graph: vertices, adjacency, and attributes.

    A blake2b hex digest over n, m, every vertex (with its attribute
    dict) and every edge (with its attribute dict), in the graph's own
    iteration order.  Unlike the instance-keyed :class:`PerGraphCache`
    this names graph *content*, so two structurally identical copies —
    a graph, its ``copy()`` and its pickle round-trip — share one
    fingerprint.  Dict insertion order survives pickling, so the digest
    is stable across that round-trip; it is *not* an isomorphism test
    (a relabelled or reordered build hashes differently, which for
    content digests of benchmark inputs is the conservative direction).
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(
        f"{graph.number_of_nodes()}|{graph.number_of_edges()}".encode()
    )
    for vertex, data in graph.nodes(data=True):
        digest.update(
            repr((vertex, sorted(data.items()) if data else ())).encode()
        )
    for u, v, data in graph.edges(data=True):
        digest.update(
            repr((u, v, sorted(data.items()) if data else ())).encode()
        )
    return digest.hexdigest()
