"""Routing schedules from derandomized lazy random walks (Section 2.2).

Pipeline, following Lemmas 2.3–2.6:

1. Build the *regularized* expander split  fG⋄: the expander split G⋄ with
   self-loops added so every vertex has the same even degree d = O(1).
2. Associate each message (the i-th of deg(v) messages of vertex v) with
   the split vertex (v, i); start r lazy random walks per message, where
   r = Θ((|E|/Δ)·log(1/f) + log τ).
3. Drive every walk for τ = τ_mix(fG⋄) steps using decisions drawn from a
   k-wise independent hash h(step, walk, origin) ∈ {1, …, 2d}: values
   1..d move along the corresponding incident edge (self-loops stay);
   values d+1..2d stay put — exactly the paper's implementation of the
   lazy walk with (1 + log d) fair coins per step.
4. *Goodness* (paper definition): a message is good if ≥ 1 of its walks
   ends inside X_{v⋆} and no visited (vertex, time) pair ever holds more
   than 3r walks; overloaded (vertex, time) pairs discard all their walks.
5. Derandomize: Lemmas 2.3/2.4 show a random member of the hash family
   makes every message good with probability ≥ 1 − f, so members for which
   ≥ (1 − f) of messages are good exist in abundance; enumerate seeds
   deterministically and keep the first witness.  The schedule is the seed
   — O(k log n) bits — which a leader can broadcast (Lemma 2.5), or share
   across many disjoint subgraphs (Lemma 2.6).

The CONGEST cost of *executing* a schedule is 3r·τ rounds (3r rounds per
walk step); the simulation returns measured congestion so tests can check
the 3r bound actually bites where the paper says it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.congest.columnar import ColumnarAlgorithm, ColumnarContext
from repro.congest.message import ColumnarSpec, Message, VarColumn
from repro.congest.network import Network, NodeAlgorithm, NodeContext
from repro.congest.runtime import variant_for_plane
from repro.gathering.kwise import KWiseHash, VECTOR_PRIME, check_key_fields
from repro.graphs.expander_split import ExpanderSplit


@dataclass(frozen=True)
class RegularizedSplit:
    """fG⋄: expander split vertices with per-vertex edge slots of width d.

    ``slots[u]`` is a length-d tuple: entry j is the neighbour reached by
    decision j (entries equal to ``u`` are self-loops).  All vertices have
    exactly d slots; d is even.  ``index`` numbers the vertices 0..n−1 in
    ``repr`` order and iterates in that order.
    """

    split: ExpanderSplit
    degree: int
    slots: dict
    index: dict

    @property
    def vertices(self) -> list:
        return list(self.slots)


def build_regularized_split(graph: nx.Graph) -> RegularizedSplit:
    """Build fG⋄ = expander split + self-loops up to a uniform even degree."""
    split = ExpanderSplit(graph)
    sg = split.split
    max_degree = max((d for _, d in sg.degree), default=0)
    d = max_degree if max_degree % 2 == 0 else max_degree + 1
    d = max(d, 2)
    slots = {}
    for u in sg.nodes:
        neighbors = sorted(sg.neighbors(u), key=repr)
        loops = d - len(neighbors)
        slots[u] = tuple(neighbors + [u] * loops)
    index = {u: i for i, u in enumerate(sorted(sg.nodes, key=repr))}
    return RegularizedSplit(split=split, degree=d, slots=slots, index=index)


@dataclass(frozen=True)
class WalkSchedule:
    """A derandomized routing schedule (the broadcastable bit string).

    ``seed`` identifies the hash family member; ``walks_per_message`` = r;
    ``steps`` = τ; ``degree`` = d of fG⋄.  ``schedule_bits`` is the
    paper's O(k log n) description length.
    """

    seed: int
    walks_per_message: int
    steps: int
    degree: int
    k: int
    good_fraction: float

    @property
    def schedule_bits(self) -> int:
        prime_bits = VECTOR_PRIME.bit_length()
        return self.k * prime_bits

    def execution_rounds(self) -> int:
        """CONGEST rounds to run the schedule: 3r per step (paper)."""
        return 3 * self.walks_per_message * self.steps


def _walk_parameters(
    graph: nx.Graph,
    v_star: Hashable,
    f: float,
    mixing_steps: int,
    constant_c: float,
) -> tuple[int, int]:
    """r and k per Section 2.2 (with tunable hidden constant)."""
    m = graph.number_of_edges()
    degree_star = max(graph.degree[v_star], 1)
    ratio = (2 * m) / degree_star  # |V⋄| / |X_{v⋆}|
    r = max(
        2,
        math.ceil(constant_c * (ratio * math.log(2.0 / f) + math.log(max(2, mixing_steps)))),
    )
    d = 2  # refined by caller; k only needs the right order
    k = max(4, (1 + math.ceil(math.log2(2 * d))) * 2 * r * mixing_steps)
    return r, k


def simulate_walks(
    regular: RegularizedSplit,
    origins: Sequence[tuple],
    hash_function: KWiseHash,
    walks_per_message: int,
    steps: int,
    congestion_cap: int | None = None,
) -> dict:
    """Simulate all walks (vectorized); returns positions and congestion.

    ``origins`` lists (message_id, start_split_vertex).  Walks β = 0..r−1
    of message index i start at that message's split vertex; decisions come
    from ``hash_function.hash_triple(step, global_walk_index,
    origin_index)``, streamed step by step through
    :meth:`~repro.gathering.kwise.KWiseHash.step_decisions` (which raises
    if the ids overflow the key packing); decision values < d move along
    the corresponding edge slot (self-loop slots stay), values ≥ d stay
    put — the lazy walk.  Origin indices are ``regular.index``, which
    also orders the vertices: a walk's state is its vertex index times
    the table width, so each step is one ``take`` from a flat step table
    and each step's loads one ``bincount`` over the states.

    Returns a dict with:

    ``final``      — {message_id: list of final split vertex indices of its
                      surviving walks (as split vertices)};
    ``discarded``  — number of walks dropped by the 3r congestion rule;
    ``max_load``   — max surviving walks co-located at any (vertex, step).
    """
    d = regular.degree
    cap = congestion_cap if congestion_cap is not None else 3 * walks_per_message
    vertex_list = list(regular.index)
    n = len(vertex_list)
    # A walk's state is its vertex index times ``width``, so the step
    # table is flat: step_table[state + c] is the state decision c leads
    # to — slot c for c < d, the walk's own vertex for the lazy values.
    # Discarded walks park on the extra vertex n, which maps to itself
    # and is never counted.
    width = max(d, hash_function.range_size)
    step_table = np.repeat(np.arange(n + 1, dtype=np.int64) * width, width)
    for u, slots in regular.slots.items():
        row = regular.index[u] * width
        step_table[row : row + d] = [regular.index[s] * width for s in slots]

    r = walks_per_message
    message_ids = [message_id for message_id, _ in origins]
    origin_idx = np.repeat(
        np.array([regular.index[start] for _, start in origins], dtype=np.int64),
        r,
    )
    state = origin_idx * width
    walk_idx = np.arange(len(origin_idx), dtype=np.uint64)
    parked = n * width
    discarded = 0
    max_load = 0
    for decisions in hash_function.step_decisions(walk_idx, origin_idx, steps):
        state = step_table.take(state + decisions)
        loads = np.bincount(state, minlength=parked)
        step_max = int(loads[:parked:width].max()) if n else 0
        max_load = max(max_load, step_max)
        if step_max > cap:
            over = loads > cap
            over[parked:] = False
            victims = over[state]
            discarded += int(victims.sum())
            state[victims] = parked
    positions = state // width
    final: dict = {}
    for i, message_id in enumerate(message_ids):
        survivors = [
            vertex_list[p] for p in positions[i * r : (i + 1) * r].tolist()
            if p != n
        ]
        if survivors:
            final[message_id] = survivors
    return {"final": final, "discarded": discarded, "max_load": max_load}


# ---------------------------------------------------------------------------
# Walk-token forwarding: the schedule execution as real message passing
# ---------------------------------------------------------------------------
class WalkTokenRouter(NodeAlgorithm):
    """Lemma 2.5's schedule *execution* as a message-passing program.

    Runs over the regularized split fG⋄ (one simulator vertex per split
    vertex).  Each vertex holds **walk tokens** — ``(walk id, origin
    index)`` pairs — and every round is one lazy-walk step: decisions
    come from the k-wise hash every vertex learned through the schedule
    broadcast, tokens whose decision indexes a real edge slot are
    forwarded as one variable-length message per (sender, neighbour)
    pair (the flattened pair list), and the 3r congestion rule is
    applied *locally*: a vertex whose load after the step exceeds the
    cap discards everything it holds, exactly as
    :func:`simulate_walks`'s global bincount rule does per vertex.

    Round protocol: round 1 sends the step-1 moves; round ``t`` (for
    ``2 ≤ t ≤ τ``) folds the step-``t−1`` arrivals, applies the
    congestion rule, and sends step ``t``; round ``τ+1`` folds the last
    arrivals, applies the final rule, and halts — ``τ+1`` rounds total.
    (The paper charges 3r CONGEST rounds per step to serialize token
    lists through O(log n)-bit messages; the simulator instead measures
    the full lists' bits, so the analytic round cost stays
    :meth:`WalkSchedule.execution_rounds` and the router is normally run
    with ``model="local"``.)

    Outputs per vertex: ``(sorted surviving token pairs, discarded
    count, peak load)`` — :func:`execute_walk_schedule` folds them back
    into the :func:`simulate_walks` outcome shape and the two agree
    token for token.
    """

    def __init__(self, degree: int, steps: int, cap: int,
                 hash_function: KWiseHash) -> None:
        super().__init__()
        self.degree = degree
        self.steps = steps
        self.cap = cap
        self.hash = hash_function
        self.tokens: list[tuple[int, int]] = []
        self.discarded = 0
        self.max_load = 0

    def spawn(self) -> "WalkTokenRouter":
        return WalkTokenRouter(self.degree, self.steps, self.cap, self.hash)

    def initialize(self, ctx: NodeContext) -> None:
        flat = self.input or ()
        self.tokens = [
            (int(flat[i]), int(flat[i + 1])) for i in range(0, len(flat), 2)
        ]

    def on_round(self, ctx: NodeContext, inbox: Mapping) -> dict:
        for message in inbox.values():
            flat = message.payload
            for j in range(0, len(flat), 2):
                self.tokens.append((flat[j], flat[j + 1]))
        if ctx.round_number > 1:
            # Positions after step round_number - 1 are now complete:
            # record the load and apply the congestion rule.
            load = len(self.tokens)
            if load > self.max_load:
                self.max_load = load
            if load > self.cap:
                self.discarded += load
                self.tokens = []
        step = ctx.round_number
        if step > self.steps:
            self.halt()
            return {}
        if not self.tokens:
            return {}
        hash_triple = self.hash.hash_triple
        neighbors = ctx.neighbors
        real_slots = len(neighbors)  # slots beyond these are self-loops
        outgoing: dict = {}
        kept: list[tuple[int, int]] = []
        for walk, origin in self.tokens:
            decision = hash_triple(step, walk, origin)
            if decision < real_slots:
                flat = outgoing.get(neighbors[decision])
                if flat is None:
                    flat = outgoing[neighbors[decision]] = []
                flat.append(walk)
                flat.append(origin)
            else:
                kept.append((walk, origin))
        self.tokens = kept
        return {
            target: Message(tuple(flat)) for target, flat in outgoing.items()
        }

    def output(self):
        return (tuple(sorted(self.tokens)), self.discarded, self.max_load)


class ColumnarWalkTokenRouter(ColumnarAlgorithm):
    """Round-vectorized port of :class:`WalkTokenRouter` onto the
    columnar plane's variable-width columns.

    The whole graph's tokens live in three parallel arrays (walk id,
    origin index, current vertex); each round hashes every token at once
    (:meth:`~repro.gathering.kwise.KWiseHash.hash_triples_vectorized`),
    groups the movers by (sender, destination) with one stable sort, and
    emits each group's flattened pair list as one
    :class:`~repro.congest.message.VarColumn` segment — byte-identical
    messages, metrics, and outputs to the object-plane original, with
    zero per-token Python on the fast path.  Arrival folding is the
    zero-copy :meth:`~repro.congest.columnar.ColumnarContext.gather_var`.
    """

    spec = ColumnarSpec(VarColumn("tokens"))
    # Token state is dense-row keyed (no vertex-id resolution after
    # setup: per-row inputs only) and every emission is gated on
    # ``~ctx.halted`` — safe for trial-major grid batching.
    grid_safe = True

    def __init__(self, degree: int, steps: int, cap: int,
                 hash_function: KWiseHash) -> None:
        self.degree = degree
        self.steps = steps
        self.cap = cap
        self.hash = hash_function

    def spawn(self) -> "ColumnarWalkTokenRouter":
        return ColumnarWalkTokenRouter(
            self.degree, self.steps, self.cap, self.hash
        )

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        walks, origins, at = [], [], []
        for i, flat in enumerate(ctx.inputs):
            if not flat:
                continue
            pairs = np.asarray(flat, dtype=np.int64).reshape(-1, 2)
            walks.append(pairs[:, 0])
            origins.append(pairs[:, 1])
            at.append(np.full(len(pairs), i, dtype=np.int64))
        empty = np.empty(0, dtype=np.int64)
        self.walk = np.concatenate(walks) if walks else empty
        self.orig = np.concatenate(origins) if origins else empty
        self.at = np.concatenate(at) if at else empty
        self.discarded = np.zeros(n, dtype=np.int64)
        self.max_load = np.zeros(n, dtype=np.int64)

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        inbox = ctx.inbox
        if len(inbox):
            # Fold arrivals: each message's var segment is a flattened
            # pair list, so the zero-copy per-vertex concatenation
            # decodes with two strided views.
            pool, vertex_indptr = ctx.gather_var("tokens")
            counts = (vertex_indptr[1:] - vertex_indptr[:-1]) // 2
            self.walk = np.concatenate([self.walk, pool[0::2]])
            self.orig = np.concatenate([self.orig, pool[1::2]])
            self.at = np.concatenate([
                self.at,
                np.repeat(np.arange(ctx.n, dtype=np.int64), counts),
            ])
        if ctx.round_number > 1:
            loads = np.bincount(self.at, minlength=ctx.n)
            np.maximum(self.max_load, loads, out=self.max_load)
            over = loads > self.cap
            if over.any():
                self.discarded += np.where(over, loads, 0)
                keep = ~over[self.at]
                self.walk = self.walk[keep]
                self.orig = self.orig[keep]
                self.at = self.at[keep]
        step = ctx.round_number
        if step > self.steps:
            ctx.halt(stepped)
            return
        if not len(self.walk):
            return
        decisions = self.hash.hash_triples_vectorized(
            step, self.walk.astype(np.uint64), self.orig.astype(np.uint64)
        ).astype(np.int64)
        # Decisions below the sender's real degree move along that CSR
        # slot; self-loop slots and lazy decisions stay put.
        moving = (decisions < ctx.degrees[self.at]) & stepped[self.at]
        if moving.any():
            m_at = self.at[moving]
            dest = ctx.indices[ctx.indptr[m_at] + decisions[moving]]
            # One stable sort groups the movers into the object plane's
            # per-(sender, destination) messages.
            order = np.argsort(m_at * ctx.n + dest, kind="stable")
            m_at = m_at[order]
            dest = dest[order]
            boundary = np.empty(len(m_at), dtype=bool)
            boundary[0] = True
            np.not_equal(
                m_at[1:] * ctx.n + dest[1:],
                m_at[:-1] * ctx.n + dest[:-1],
                out=boundary[1:],
            )
            group_starts = np.flatnonzero(boundary)
            group_sizes = np.diff(np.append(group_starts, len(m_at)))
            pool = np.empty(2 * len(m_at), dtype=np.int64)
            pool[0::2] = self.walk[moving][order]
            pool[1::2] = self.orig[moving][order]
            ctx.emit_var(
                m_at[group_starts], dest[group_starts],
                tokens=(pool, 2 * group_sizes),
            )
            keep = ~moving
            self.walk = self.walk[keep]
            self.orig = self.orig[keep]
            self.at = self.at[keep]

    def outputs(self, ctx: ColumnarContext) -> list:
        held: list[list] = [[] for _ in range(ctx.n)]
        for walk, origin, vertex in zip(
            self.walk.tolist(), self.orig.tolist(), self.at.tolist()
        ):
            held[vertex].append((walk, origin))
        return [
            (tuple(sorted(held[i])), int(self.discarded[i]),
             int(self.max_load[i]))
            for i in range(ctx.n)
        ]


_WALK_ROUTER_VARIANTS = {
    "object": WalkTokenRouter,
    "columnar": ColumnarWalkTokenRouter,
}


def schedule_hash(schedule: "WalkSchedule") -> KWiseHash:
    """The k-wise family member a :class:`WalkSchedule` names (the
    object every vertex reconstructs from the broadcast description)."""
    return KWiseHash(
        k=schedule.k, range_size=2 * schedule.degree, seed=schedule.seed,
        prime=VECTOR_PRIME,
    )


def execute_walk_schedule(
    regular: RegularizedSplit,
    origins: Sequence[tuple],
    schedule: "WalkSchedule",
    congestion_cap: int | None = None,
    model: str = "local",
    plane: str | None = "auto",
) -> dict:
    """Run a found schedule as real message passing over fG⋄.

    The distributed counterpart of :func:`simulate_walks`: walk tokens
    are forwarded by :class:`WalkTokenRouter` (or its columnar port,
    picked by ``plane`` through the runtime plane table) and the returned
    dict has the same ``final`` / ``discarded`` / ``max_load`` shape —
    equal entry for entry to the centralized simulation — plus the
    measured :class:`~repro.congest.metrics.NetworkMetrics` under
    ``"metrics"``.  ``model`` defaults to ``"local"`` because a step's
    token lists exceed one O(log n)-bit message; the paper serializes
    them over 3r rounds per step
    (:meth:`WalkSchedule.execution_rounds`), which stays the analytic
    round cost.
    """
    r = schedule.walks_per_message
    cap = congestion_cap if congestion_cap is not None else 3 * r
    check_key_fields(
        max(0, len(origins) * r - 1),
        max(regular.index.values(), default=0),
        schedule.steps,
    )
    inputs: dict = {}
    message_ids = []
    for i, (message_id, start) in enumerate(origins):
        message_ids.append(message_id)
        origin_index = regular.index[start]
        flat = inputs.setdefault(start, [])
        for beta in range(r):
            flat.extend((i * r + beta, origin_index))
    net = Network(regular.split.split, model=model)
    algorithm = variant_for_plane(_WALK_ROUTER_VARIANTS, plane)(
        regular.degree, schedule.steps, cap, schedule_hash(schedule)
    )
    outputs = net.run(
        algorithm,
        max_rounds=schedule.steps + 3,
        inputs={v: tuple(flat) for v, flat in inputs.items()},
        plane=plane,
    )
    position: dict[int, Hashable] = {}
    discarded = 0
    max_load = 0
    for vertex, (tokens, vertex_discarded, vertex_peak) in outputs.items():
        discarded += vertex_discarded
        if vertex_peak > max_load:
            max_load = vertex_peak
        for walk, _origin in tokens:
            position[walk] = vertex
    final: dict = {}
    for i, message_id in enumerate(message_ids):
        survivors = [
            position[j] for j in range(i * r, (i + 1) * r) if j in position
        ]
        if survivors:
            final[message_id] = survivors
    return {
        "final": final,
        "discarded": discarded,
        "max_load": max_load,
        "metrics": net.metrics,
    }


def _message_origins(graph: nx.Graph, v_star: Hashable) -> list[tuple]:
    """The paper's message set: the i-th of deg(v) messages of vertex v
    starts at split vertex (v, i); v⋆'s own messages are home already."""
    origins = []
    for v in graph.nodes:
        if v == v_star:
            continue
        for i in range(graph.degree[v]):
            origins.append(((v, i), (v, i)))
    return origins


def _good_fraction(
    graph: nx.Graph,
    regular: RegularizedSplit,
    v_star: Hashable,
    outcome: dict,
    total_messages: int,
) -> tuple[float, set]:
    sink = set(regular.split.gadget_vertices(v_star))
    delivered = {
        message_id
        for message_id, finals in outcome["final"].items()
        if any(p in sink for p in finals)
    }
    return len(delivered) / max(1, total_messages), delivered


def find_walk_schedule(
    graph: nx.Graph,
    v_star: Hashable,
    f: float = 0.25,
    phi_hint: float | None = None,
    constant_c: float = 1.0,
    mixing_constant: float = 2.0,
    independence: int | None = None,
    max_seeds: int = 64,
) -> tuple[WalkSchedule, set]:
    """Lemma 2.5: deterministically find a routing schedule for ``graph``.

    The vertex that knows the topology (a cluster leader) runs this
    locally: enumerate hash seeds 0, 1, 2, … and return the first whose
    simulated walks deliver ≥ (1 − f) of the messages.  Existence of a
    witness follows from Lemmas 2.3/2.4; ``max_seeds`` guards against
    misparameterization (raise rather than loop forever).

    ``independence`` overrides the k used for the hash family; the
    paper-accurate k = (1 + log d)·2r·τ is the default shape but any
    k ≥ 4 reproduces the routing behaviour (only the proof needs full
    k).  Returns (schedule, delivered message ids).
    """
    schedule, delivered, _regular, _origins = _find_walk_schedule_full(
        graph, v_star, f=f, phi_hint=phi_hint, constant_c=constant_c,
        mixing_constant=mixing_constant, independence=independence,
        max_seeds=max_seeds,
    )
    return schedule, delivered


def _find_walk_schedule_full(
    graph: nx.Graph,
    v_star: Hashable,
    f: float = 0.25,
    phi_hint: float | None = None,
    constant_c: float = 1.0,
    mixing_constant: float = 2.0,
    independence: int | None = None,
    max_seeds: int = 64,
) -> tuple[WalkSchedule, set, "RegularizedSplit | None", list]:
    """:func:`find_walk_schedule` plus the regularized split and message
    origins it built — callers that go on to *execute* the schedule
    (:func:`execute_walk_schedule`) reuse them instead of rebuilding the
    per-vertex gadget construction.  ``regular`` is ``None`` (and
    ``origins`` empty) for edgeless graphs."""
    if not 0 < f < 0.5:
        raise ValueError("f must lie in (0, 1/2)")
    m = graph.number_of_edges()
    if m == 0:
        schedule = WalkSchedule(0, 0, 0, 2, 4, 1.0)
        return schedule, set(), None, []
    regular = build_regularized_split(graph)
    n_split = len(regular.vertices)
    if phi_hint is None:
        phi_hint = 0.2  # caller normally passes the decomposition's φ
    tau = max(
        2,
        math.ceil(mixing_constant * (phi_hint ** -2) * math.log(max(2, n_split))),
    )
    r, k_paper = _walk_parameters(graph, v_star, f, tau, constant_c)
    k = independence if independence is not None else min(k_paper, 16)

    origins = _message_origins(graph, v_star)
    total_messages = len(origins)

    target = 1.0 - f
    best: tuple[float, int, set] | None = None
    for seed in range(max_seeds):
        h = KWiseHash(
            k=k, range_size=2 * regular.degree, seed=seed, prime=VECTOR_PRIME
        )
        outcome = simulate_walks(regular, origins, h, r, tau)
        fraction, delivered = _good_fraction(
            graph, regular, v_star, outcome, total_messages
        )
        if best is None or fraction > best[0]:
            best = (fraction, seed, delivered)
        if fraction >= target:
            schedule = WalkSchedule(
                seed=seed,
                walks_per_message=r,
                steps=tau,
                degree=regular.degree,
                k=k,
                good_fraction=fraction,
            )
            # v⋆'s own deg(v⋆) messages are home already.
            for i in range(graph.degree[v_star]):
                delivered.add((v_star, i))
            return schedule, delivered, regular, origins
    raise RuntimeError(
        f"no seed among {max_seeds} reached delivery {target:.3f}; best was "
        f"{best[0]:.3f} (seed {best[1]}) — increase r via constant_c"
    )


def find_shared_walk_schedule(
    subgraphs: Sequence[nx.Graph],
    sinks: Sequence[Hashable],
    f: float = 0.25,
    phi_hint: float | None = None,
    constant_c: float = 1.0,
    mixing_constant: float = 2.0,
    independence: int | None = None,
    max_seeds: int = 64,
) -> tuple[WalkSchedule, list[set]]:
    """Lemma 2.6: one schedule shared by many disjoint subgraphs.

    Uses a single hash seed for all subgraphs; r and τ are maxima over the
    subgraphs (the paper's η and ζ).  The delivery guarantee is aggregate:
    ≥ (1 − f) of the union of all messages.  Returns the schedule and the
    per-subgraph delivered sets.
    """
    if len(subgraphs) != len(sinks):
        raise ValueError("need one sink per subgraph")
    live = [
        (g, sink) for g, sink in zip(subgraphs, sinks) if g.number_of_edges() > 0
    ]
    if not live:
        return WalkSchedule(0, 0, 0, 2, 4, 1.0), [set() for _ in subgraphs]
    regulars = [build_regularized_split(g) for g, _ in live]
    if phi_hint is None:
        phi_hint = 0.2
    zeta = max(len(r.vertices) for r in regulars)
    tau = max(
        2, math.ceil(mixing_constant * (phi_hint ** -2) * math.log(max(2, zeta)))
    )
    r_value = 2
    for (g, sink) in live:
        r_i, _ = _walk_parameters(g, sink, f, tau, constant_c)
        r_value = max(r_value, r_i)
    degree = max(r.degree for r in regulars)
    k = independence if independence is not None else 16

    payloads = []
    total_messages = 0
    for (g, sink), regular in zip(live, regulars):
        origins = []
        for v in g.nodes:
            if v == sink:
                continue
            for i in range(g.degree[v]):
                origins.append(((v, i), (v, i)))
                total_messages += 1
        payloads.append((g, sink, regular, origins))

    target = 1.0 - f
    best_fraction = -1.0
    for seed in range(max_seeds):
        h = KWiseHash(k=k, range_size=2 * degree, seed=seed, prime=VECTOR_PRIME)
        all_delivered: list[set] = []
        delivered_count = 0
        for g, sink, regular, origins in payloads:
            # Each subgraph uses its own slot tables but the shared hash;
            # decisions ≥ 2·d_i fall back to "stay" (a lazy step), which
            # preserves the walk distribution shape.
            outcome = simulate_walks(regular, origins, h, r_value, tau)
            _, delivered = _good_fraction(g, regular, sink, outcome, 1)
            all_delivered.append(delivered)
            delivered_count += len(delivered)
        fraction = delivered_count / max(1, total_messages)
        best_fraction = max(best_fraction, fraction)
        if fraction >= target:
            schedule = WalkSchedule(
                seed=seed,
                walks_per_message=r_value,
                steps=tau,
                degree=degree,
                k=k,
                good_fraction=fraction,
            )
            # Re-inflate to the original subgraph list (empty graphs → ∅),
            # and credit each sink its own messages.
            out: list[set] = []
            live_iter = iter(zip(live, all_delivered))
            for g, sink in zip(subgraphs, sinks):
                if g.number_of_edges() == 0:
                    out.append(set())
                    continue
                (_, _), delivered = next(live_iter)
                for i in range(g.degree[sink]):
                    delivered.add((sink, i))
                out.append(delivered)
            return schedule, out
    raise RuntimeError(
        f"no shared seed among {max_seeds} reached delivery {target:.3f}; "
        f"best was {best_fraction:.3f}"
    )


def broadcast_schedule(
    graph: nx.Graph,
    v_star: Hashable,
    schedule: WalkSchedule,
    model: str = "congest",
    plane: str | None = "auto",
    include_coefficients: bool = False,
):
    """Lemma 2.5's distribution step, actually simulated.

    The leader v⋆ knows the schedule; every vertex must learn it before
    the walks can run.  Flood the schedule's description — ``(seed, r, τ,
    d, k)``, an O(log n)-bit payload — from v⋆ through
    :func:`repro.congest.algorithms.flood_values`; ``plane`` selects the
    execution plane by runtime plane name (``"auto"`` runs the
    variable-width columnar flood, byte-identical to the object plane).
    With ``include_coefficients=True`` the k expanded hash coefficients
    ride along (:meth:`~repro.gathering.kwise.KWiseHash.describe`), so
    the payload length varies with k — the description then usually
    exceeds one CONGEST message and needs ``model="local"``, which is
    exactly the paper's point in broadcasting only the O(k log n)-bit
    seed.  Returns ``(outputs, metrics)``: every vertex's received
    description plus the measured round/message/bit counts of the flood.
    """
    from repro.congest.algorithms import flood_values

    payload = (
        schedule.seed,
        schedule.walks_per_message,
        schedule.steps,
        schedule.degree,
        schedule.k,
    )
    if include_coefficients:
        payload = payload + schedule_hash(schedule).coefficients
    return flood_values(graph, v_star, payload, model=model, plane=plane)


def gather_with_random_walks(
    graph: nx.Graph,
    v_star: Hashable,
    f: float = 0.25,
    simulate_schedule_broadcast: bool = False,
    simulate_walk_routing: bool = False,
    plane: str | None = "auto",
    **kwargs,
) -> tuple[set, int, WalkSchedule]:
    """Convenience wrapper: find a schedule and report (delivered, rounds).

    Rounds = schedule broadcast cost (schedule_bits / bandwidth, charged
    as ⌈bits / log n⌉·D̂ with D̂ folded into execution rounds by the
    caller) + 3rτ execution; we return the execution rounds, the paper's
    dominant term.  With ``simulate_schedule_broadcast=True`` the
    Lemma 2.5 distribution step is run through the simulator
    (:func:`broadcast_schedule`) and its *measured* rounds are added to
    the returned total.  With ``simulate_walk_routing=True`` the found
    schedule is additionally *executed* as real message passing over fG⋄
    (:func:`execute_walk_schedule`, on the execution plane named by
    ``plane``) and the delivered set is cross-checked against the
    leader's centralized search — a divergence raises.
    """
    schedule, delivered, regular, origins = _find_walk_schedule_full(
        graph, v_star, f=f, **kwargs
    )
    rounds = schedule.execution_rounds()
    if simulate_walk_routing and regular is not None:
        outcome = execute_walk_schedule(
            regular, origins, schedule, plane=plane
        )
        _, routed = _good_fraction(
            graph, regular, v_star, outcome, len(origins)
        )
        for i in range(graph.degree[v_star]):
            routed.add((v_star, i))
        if routed != delivered:
            raise RuntimeError(
                "simulated walk routing diverged from the leader's "
                "schedule search"
            )
    if simulate_schedule_broadcast:
        outputs, metrics = broadcast_schedule(
            graph, v_star, schedule, plane=plane
        )
        if any(received is None for received in outputs.values()):
            raise RuntimeError("schedule broadcast did not reach all vertices")
        rounds += metrics.rounds
    return delivered, rounds, schedule
