"""Simulating cluster-graph algorithms on the real network, and the
message-size obstruction that motivates the paper.

Section 4.1: every step of the heavy-stars algorithm simulates cleanly in
CONGEST (O(log n)-bit messages over cluster BFS trees) *except Step 1* —
each cluster must find the neighbouring cluster maximizing |E(S, S′)|,
which requires aggregating a per-neighbour-cluster edge-count table up
the BFS tree.  The table's size grows with the number of distinct
neighbouring clusters seen in a subtree, i.e. Θ(k log n) bits — fine in
LOCAL, a bandwidth violation in CONGEST.  "This bottleneck is precisely
why the above low-diameter decomposition is not efficient in the CONGEST
model."

:class:`HeaviestNeighborAggregation` implements that aggregation as a
genuine node algorithm.  Run it in LOCAL mode and it computes, for every
cluster, the heaviest neighbouring cluster; run it in CONGEST mode on any
non-trivial clustering and the executor raises
:class:`~repro.congest.network.BandwidthExceededError` — the measured
form of the paper's obstruction.  :func:`measure_step1_message_bits`
packages the experiment: it returns the max message size the aggregation
needed, to be compared against the CONGEST budget.

The paper's resolution — gather everything at a high-degree vertex with
the Lemma 2.2 router and decide locally — is the `repro.gathering`
package.
"""

from __future__ import annotations

from typing import Any, Hashable, Mapping

import networkx as nx
import numpy as np

from repro.congest.columnar import (
    ColumnarAlgorithm,
    ColumnarContext,
    ListedValues,
)
from repro.congest.message import Broadcast, ColumnarSpec, Message
from repro.congest.network import Network, NodeAlgorithm, NodeContext


class HeaviestNeighborAggregation(NodeAlgorithm):
    """Convergecast of {neighbour-cluster: edge-count} tables to the
    cluster root, then broadcast of the argmax back down.

    ``input`` per vertex: ``(cluster_id, parent_or_None, children,
    boundary)`` where ``boundary`` maps each neighbouring cluster id to
    the number of this vertex's incident edges into it.  Phases:

    1. leaves start; every vertex merges its children's tables into its
       own and sends the merged table to its parent (ONE message — whose
       bit size is the whole point);
    2. the root computes the argmax and floods it down.

    Outputs ``(heaviest_neighbor_cluster, weight)`` at every vertex (or
    ``None`` for clusters with no neighbours).
    """

    def __init__(self, horizon: int) -> None:
        super().__init__()
        self.horizon = horizon
        self.cluster: Hashable = None
        self.parent: Hashable | None = None
        self.pending_children: set = set()
        self.table: dict = {}
        self.children: tuple = ()
        self.answer: tuple | None = None
        self._sent_up = False
        self._is_root = False

    def spawn(self) -> "HeaviestNeighborAggregation":
        return HeaviestNeighborAggregation(self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        self.cluster, self.parent, children, boundary = self.input
        self.children = tuple(children)
        self.pending_children = set(children)
        self.table = dict(boundary)
        self._is_root = self.parent is None

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        if ctx.round_number > self.horizon:
            raise RuntimeError("aggregation exceeded horizon")
        outgoing: dict[Any, Message] = {}
        for sender, message in inbox.items():
            kind, payload = message.payload
            if kind == 0 and sender in self.pending_children:
                self.pending_children.discard(sender)
                for cluster, count in payload:
                    self.table[cluster] = self.table.get(cluster, 0) + count
            elif kind == 1:
                self.answer = tuple(payload) if payload is not None else None
                # One shared down-message to every child subtree.
                out = Broadcast(Message((1, payload)), self.children)
                self.halt()
                return out
        if not self.pending_children and not self._sent_up:
            self._sent_up = True
            if self._is_root:
                if self.table:
                    best = max(
                        self.table, key=lambda c: (self.table[c], repr(c))
                    )
                    payload = (best, self.table[best])
                else:
                    payload = None
                self.answer = payload
                out = Broadcast(Message((1, payload)), self.children)
                self.halt()
                return out
            # The single up-message carrying the whole table: its size is
            # Θ(#distinct neighbouring clusters × log n) bits.
            encoded = tuple(sorted(self.table.items(), key=lambda kv: repr(kv[0])))
            outgoing[self.parent] = Message((0, encoded))
        return outgoing

    def output(self):
        return self.answer


class ColumnarClusterAnnounce(ColumnarAlgorithm):
    """One columnar round of cluster announcements → boundary tables.

    The genuinely distributed way to learn the per-neighbour-cluster edge
    counts that Step 1 aggregates (the seed computed them centrally from
    the assignment): every vertex broadcasts its cluster's dense rank —
    a single ``O(log n)``-bit typed column, CONGEST-safe — and each
    vertex's boundary table is a bincount over its received column,
    keeping only foreign clusters.  ``input`` per vertex is its cluster
    rank; outputs are ``{cluster_rank: edge_count}`` dicts.
    """

    spec = ColumnarSpec(("cluster", np.uint32),)
    # Inputs are dense cluster ranks, state is row-keyed lists/arrays —
    # trial-major grid batching applies.
    grid_safe = True

    def setup(self, ctx: ColumnarContext) -> None:
        self.cluster = np.array(
            [int(rank) for rank in ctx.inputs], dtype=np.int64
        )
        self.tables: list = [None] * ctx.n

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        if ctx.round_number == 1:
            ctx.emit_columns(stepped, cluster=self.cluster)
            return
        inbox = ctx.inbox
        if len(inbox):
            receivers = inbox.receivers()
            clusters = inbox.column("cluster").astype(np.int64)
            foreign = clusters != self.cluster[receivers]
            if foreign.any():
                width = int(self.cluster.max()) + 1
                keys = receivers[foreign] * width + clusters[foreign]
                counts = np.bincount(keys)
                for key in np.flatnonzero(counts).tolist():
                    vertex, cluster = divmod(key, width)
                    table = self.tables[vertex]
                    if table is None:
                        table = self.tables[vertex] = {}
                    table[cluster] = int(counts[key])
        ctx.halt(stepped)

    def outputs(self, ctx: ColumnarContext) -> ListedValues:
        return ListedValues([table or {} for table in self.tables])


def distributed_boundary_tables(
    graph: nx.Graph, assignment: Mapping, model: str = "congest"
) -> tuple[dict, "Any"]:
    """Compute every vertex's ``{neighbouring cluster: edge count}`` table
    by genuine message passing (two CONGEST rounds of
    :class:`ColumnarClusterAnnounce` on the columnar plane) instead of
    reading the assignment centrally.

    Returns ``({vertex: {cluster: count}}, metrics)``; agrees exactly
    with the centrally computed boundaries that
    :func:`_cluster_bfs_inputs` derives (asserted in
    ``tests/test_columnar.py``).
    """
    ranks = {
        cluster: rank
        for rank, cluster in enumerate(
            sorted(set(assignment.values()), key=repr)
        )
    }
    by_rank = {rank: cluster for cluster, rank in ranks.items()}
    inputs = {v: ranks[assignment[v]] for v in graph.nodes}
    net = Network(graph, model=model)
    outputs = net.run(ColumnarClusterAnnounce(), max_rounds=4, inputs=inputs)
    tables = {
        v: {by_rank[rank]: count for rank, count in table.items()}
        for v, table in outputs.items()
    }
    return tables, net.metrics


def _cluster_bfs_inputs(graph: nx.Graph, assignment: Mapping) -> dict:
    """Per-vertex (cluster, parent, children, boundary) over intra-cluster
    BFS trees rooted at each cluster's min-repr vertex."""
    clusters: dict = {}
    for v, cluster in assignment.items():
        clusters.setdefault(cluster, set()).add(v)
    inputs: dict = {}
    for cluster, members in clusters.items():
        sub = graph.subgraph(members)
        root = min(members, key=repr)
        parents: dict = {root: None}
        children: dict = {v: [] for v in members}
        for parent, child in nx.bfs_edges(sub, root):
            parents[child] = parent
            children[parent].append(child)
        for v in members:
            boundary: dict = {}
            for u in graph.neighbors(v):
                other = assignment[u]
                if other != cluster:
                    boundary[other] = boundary.get(other, 0) + 1
            inputs[v] = (
                cluster,
                parents.get(v),
                tuple(children[v]),
                tuple(boundary.items()),
            )
    return inputs


def measure_step1_message_bits(
    graph: nx.Graph,
    assignment: Mapping,
    model: str = "local",
) -> dict:
    """Run the Step 1 aggregation; return the measured message-size facts.

    With ``model='local'`` the run always succeeds and the result reports
    ``max_message_bits`` vs the CONGEST budget (``congest_budget_bits``)
    — the quantitative form of the paper's obstruction.  With
    ``model='congest'`` the executor raises BandwidthExceededError
    whenever a table overflows the budget (tests exercise both).

    Returns ``{"answers", "max_message_bits", "congest_budget_bits",
    "rounds", "messages", "total_bits", "violates_congest"}`` where
    ``answers`` maps each cluster to its (heaviest neighbour, weight)
    pair.
    """
    inputs = _cluster_bfs_inputs(graph, assignment)
    # Boundary tuples are (cluster, count) pairs; clusters must be
    # encodable — enforce via bits_for_payload at Message construction.
    inputs = {
        v: (c, p, ch, tuple((cl, cnt) for cl, cnt in b))
        for v, (c, p, ch, b) in inputs.items()
    }
    horizon = 4 * graph.number_of_nodes() + 8
    net = Network(graph, model=model)
    outputs = net.run(
        HeaviestNeighborAggregation(horizon),
        max_rounds=horizon + 2,
        inputs=inputs,
    )
    answers: dict = {}
    for v, result in outputs.items():
        cluster = assignment[v]
        if cluster not in answers:
            answers[cluster] = result
    return {
        "answers": answers,
        "max_message_bits": net.metrics.max_edge_bits_in_round,
        "congest_budget_bits": net.bandwidth_bits,
        "rounds": net.metrics.rounds,
        "messages": net.metrics.messages,
        "total_bits": net.metrics.total_bits,
        "violates_congest": net.metrics.max_edge_bits_in_round
        > net.bandwidth_bits,
    }
