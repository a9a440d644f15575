"""Compiled topology for the CONGEST/LOCAL simulator.

The seed executor re-derived everything per round; this module owns the
one-time **compilation** of a ``networkx.Graph`` into dense-int form —
:class:`CompiledTopology` — that every execution plane runs over.  The
executors themselves live in the runtime package
(:mod:`repro.congest.runtime`): the shared round scheduler and the
object-plane engine in :mod:`repro.congest.runtime.scheduler`, the plane
registry in :mod:`repro.congest.runtime.planes`, and the trial-batched
``run_many``/grid executor in :mod:`repro.congest.runtime.batch`.

:class:`CompiledTopology`
    Built once per :class:`~repro.congest.network.Network`.  Vertices are
    indexed to dense ints ``0..n-1`` (in ``graph.nodes`` order, so outputs
    keep the seed executor's ordering); adjacency is stored four ways:

    * ``neighbor_tuples[i]`` — the deterministic sorted tuple handed to
      :class:`~repro.congest.network.NodeContext` (identical to the seed);
    * ``neighbor_sets[i]`` — a ``frozenset`` for O(1) send validation;
    * CSR arrays ``indptr``/``indices`` — **numpy** ``int64`` arrays over
      dense ints: the canonical compiled adjacency, exposed for
      vectorized whole-graph analyses (degree/volume reductions, the
      columnar plane's delivery arrays, block-diagonal grid composition);
    * ``neighbor_index_tuples[i]`` — the CSR slice
      ``indices[indptr[i]:indptr[i+1]]`` materialized once as a tuple of
      Python ints, which is what the object plane's delivery loop
      iterates (inbox-dict writes need Python ints; unboxing numpy
      scalars per round would give the speedup back).

    Compilations are memoized per graph through the shared
    :class:`~repro.graphs.cache.PerGraphCache` protocol — the same
    staleness probe and registry as :class:`~repro.graphs.stats.GraphStats`,
    so one ``invalidate`` drops both and a degree-preserving rewire can
    never serve a stale topology next to fresh stats.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.graphs.cache import PerGraphCache, invalidate_graph_caches


class CompiledTopology:
    """One-time compilation of a ``networkx.Graph`` into dense-int form.

    Attributes
    ----------
    vertices:
        Vertex ids in ``graph.nodes`` order; position is the dense index.
    index_of:
        ``{vertex id: dense index}``.
    neighbor_tuples:
        Per dense index, the neighbours as a tuple sorted by ``repr`` (the
        deterministic order the seed executor exposed via ``NodeContext``).
    neighbor_sets:
        Per dense index, the same neighbours as a ``frozenset`` for O(1)
        send validation.
    indptr / indices:
        CSR adjacency over dense indices as numpy ``int64`` arrays
        (``indices[indptr[i]:indptr[i+1]]`` are ``i``'s neighbours) —
        the canonical compiled adjacency, for vectorized whole-graph
        analyses; the object plane's round loop itself iterates the
        materialized Python-int tuples below.
    neighbor_index_tuples:
        The CSR slices materialized once as tuples of Python ints — the
        broadcast delivery loop's iteration order.
    degrees:
        Per dense index, ``len(neighbor_tuples[i])``.
    """

    __slots__ = (
        "n",
        "m",
        "vertices",
        "index_of",
        "neighbor_tuples",
        "neighbor_sets",
        "neighbor_index_tuples",
        "indptr",
        "indices",
        "index_dtype",
        "degrees",
        "_columnar_plane",
        "__weakref__",
    )

    @classmethod
    def for_graph(cls, graph: nx.Graph) -> "CompiledTopology":
        """Memoized compilation, so sweeps that rebuild ``Network`` objects
        over one graph compile the topology once.

        Served through the shared per-graph cache protocol
        (:mod:`repro.graphs.cache`): staleness is detected by comparing n
        and the full degree table (O(n)).  The one mutation class this
        cannot see is a degree-preserving rewire (e.g.
        ``nx.double_edge_swap``) between ``Network`` constructions — call
        :meth:`invalidate` after such mutations, or pass a fresh graph
        copy.
        """
        return _topology_cache.get(graph)

    @classmethod
    def invalidate(cls, graph: nx.Graph) -> None:
        """Drop **every** registered per-graph cache entry for ``graph``
        (after an in-place mutation the staleness check cannot detect) —
        the compiled topology and the ``GraphStats`` cache stay in sync."""
        invalidate_graph_caches(graph)

    def __init__(self, graph: nx.Graph) -> None:
        vertices = list(graph.nodes)
        index_of = {v: i for i, v in enumerate(vertices)}
        neighbor_tuples = [
            tuple(sorted(graph.neighbors(v), key=repr)) for v in vertices
        ]
        indptr = [0]
        indices: list[int] = []
        for nbrs in neighbor_tuples:
            indices.extend(index_of[u] for u in nbrs)
            indptr.append(len(indices))
        self.n = len(vertices)
        self.m = graph.number_of_edges()
        self.vertices = vertices
        self.index_of = index_of
        self.neighbor_tuples = neighbor_tuples
        self.neighbor_sets = [frozenset(nbrs) for nbrs in neighbor_tuples]
        self.neighbor_index_tuples = [
            tuple(indices[start:stop])
            for start, stop in zip(indptr, indptr[1:])
        ]
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        # int64 everywhere: this is the byte-level reference the
        # narrowed StreamTopology path is differentially tested against.
        self.index_dtype = self.indices.dtype
        self.degrees = [len(nbrs) for nbrs in neighbor_tuples]
        self._columnar_plane = None

    def columnar_plane(self):
        """Lazily compiled arrays for the columnar delivery plane
        (:mod:`repro.congest.columnar`): numpy degree/rank tables, plus
        the edge tables (sorted edge keys for O(log m) vectorized
        adjacency checks, index-sorted rows for pulled broadcasts) that
        build on first use.  Built on the first columnar run over this
        topology and cached alongside the CSR arrays."""
        plane = self._columnar_plane
        if plane is None:
            from repro.congest.columnar import CompiledDeliveryPlane

            plane = self._columnar_plane = CompiledDeliveryPlane(self)
        return plane


def _topology_fresh(topology: CompiledTopology, graph: nx.Graph) -> bool:
    """Degree-table staleness probe: one pass over the degree view covers
    n, m, and per-vertex degrees (degrees determine 2m)."""
    if topology.n != len(graph):
        return False
    index_of = topology.index_of
    degrees = topology.degrees
    for v, d in graph.degree:
        i = index_of.get(v)
        if i is None or degrees[i] != d:
            return False
    return True


_topology_cache = PerGraphCache(
    CompiledTopology, _topology_fresh, name="compiled-topology"
)

