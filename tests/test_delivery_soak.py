"""Randomized differential soak: the delivery planes vs their references.

The PR-2 engine has three object-plane delivery paths (full broadcast,
subset broadcast, dense-int unicast) plus per-round deferred metric
reductions; PR 3 adds the columnar plane (typed broadcast and unicast
columns, array-reduction accounting).  This suite drives randomly drawn
(graph family × algorithm × seed × model) combinations through both
``Network.run`` and the per-message reference executor
(``Network._run_reference`` — the seed loop for object-plane algorithms,
the per-``Message`` columnar reference for ``ColumnarAlgorithm``s) and
asserts byte-identical outputs (values *and* vertex order) and identical
``NetworkMetrics`` counters.

Adversarial coverage: the object-plane mixer interleaves the three
object delivery paths; the columnar mixer interleaves full-fanout
broadcasts, random unicast subsets, silent (empty) rounds, and signed
payloads, over families that include single-neighbour vertices (stars,
paths) and isolated-vertex components.  The ported classics (columnar
MIS / coloring / BFS / flood) additionally soak against their
*object-plane originals*, proving plane-for-plane identity end to end.

The draw is deterministic (one master seed) so failures reproduce; the
instances stay small so the whole soak runs in a few seconds inside
tier 1.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.congest import (
    Broadcast,
    ColumnarAlgorithm,
    ColumnarSpec,
    Message,
    Network,
    NodeAlgorithm,
)
from repro.congest.algorithms import ColumnarBFSTree, ColumnarFloodValue
from repro.congest.columnar import ListedValues
from repro.congest.classic import ColumnarLubyMIS, ColumnarTrialColoring
from repro.congest.algorithms import (
    BFSTreeAlgorithm,
    BroadcastAlgorithm,
    FloodMaxLeaderElection,
)
from repro.congest.classic import (
    LubyMISAlgorithm,
    ProposalMatchingAlgorithm,
    TrialColoringAlgorithm,
)
from repro.graphs import (
    random_cactus,
    random_outerplanar,
    random_planar_triangulation,
    random_regular_expander,
    random_tree,
    triangulated_grid,
)

MASTER_SEED = 20230725
N_TRIALS = 48


FAMILIES = {
    "path": lambda rng: nx.path_graph(rng.randrange(2, 30)),
    "cycle": lambda rng: nx.cycle_graph(rng.randrange(3, 30)),
    "star": lambda rng: nx.star_graph(rng.randrange(2, 20)),
    "tree": lambda rng: random_tree(rng.randrange(5, 35), seed=rng.randrange(100)),
    "grid": lambda rng: triangulated_grid(
        rng.randrange(2, 6), rng.randrange(2, 6)
    ),
    "planar": lambda rng: random_planar_triangulation(
        rng.randrange(8, 36), seed=rng.randrange(100)
    ),
    "outerplanar": lambda rng: random_outerplanar(
        rng.randrange(6, 30), seed=rng.randrange(100)
    ),
    "cactus": lambda rng: random_cactus(
        rng.randrange(6, 30), seed=rng.randrange(100)
    ),
    "expander": lambda rng: random_regular_expander(
        2 * rng.randrange(6, 18), 4, seed=rng.randrange(100)
    ),
    "disconnected": lambda rng: nx.disjoint_union(
        nx.path_graph(rng.randrange(2, 8)), nx.cycle_graph(rng.randrange(3, 8))
    ),
}


class RandomMixerAlgorithm(NodeAlgorithm):
    """Adversarial emitter: each round each node picks — deterministically
    from its per-vertex seed — between a full broadcast, a subset
    broadcast, a unicast dict, and silence, exercising path interleavings
    the classic algorithms never produce."""

    def __init__(self, horizon: int = 6) -> None:
        super().__init__()
        self.horizon = horizon

    def spawn(self) -> "RandomMixerAlgorithm":
        return RandomMixerAlgorithm(self.horizon)

    def initialize(self, ctx) -> None:
        self.rng = random.Random(self.input)
        self.received = 0

    def on_round(self, ctx, inbox):
        self.received += sum(m.payload[1] for m in inbox.values())
        if ctx.round_number >= self.horizon:
            self.halt()
            return {}
        choice = self.rng.randrange(4)
        payload = (0, self.rng.randrange(8))
        if not ctx.neighbors or choice == 3:
            return {}
        if choice == 0:
            return ctx.broadcast(Message(payload))
        if choice == 1:
            k = self.rng.randrange(len(ctx.neighbors) + 1)
            return Broadcast(
                Message(payload), self.rng.sample(ctx.neighbors, k)
            )
        targets = self.rng.sample(
            ctx.neighbors, self.rng.randrange(len(ctx.neighbors)) + 1
        )
        return {u: Message((0, self.rng.randrange(8))) for u in targets}

    def output(self):
        return self.received


class ColumnarMixerAlgorithm(ColumnarAlgorithm):
    """Adversarial columnar emitter: each round each unhalted vertex picks
    — deterministically from its per-vertex seed — between a full
    broadcast, a unicast to a random neighbour subset, and silence
    (whole-round silence included), with a signed payload column, so the
    fast path's group interleavings, empty rounds, and sign-bit sizing
    all get exercised against the per-message reference."""

    spec = ColumnarSpec(("tag", np.uint8), ("delta", np.int16))

    def __init__(self, horizon: int = 6) -> None:
        self.horizon = horizon

    def spawn(self) -> "ColumnarMixerAlgorithm":
        return ColumnarMixerAlgorithm(self.horizon)

    def setup(self, ctx) -> None:
        self.rngs = [random.Random(seed) for seed in ctx.inputs]
        self.received = np.zeros(ctx.n, dtype=np.int64)
        self.heard = np.zeros(ctx.n, dtype=np.int64)

    def on_round(self, ctx) -> None:
        self.received += ctx.reduce_neighbors("sum", "delta")
        self.heard += ctx.reduce_neighbors("count")
        stepped = ~ctx.halted
        if ctx.round_number >= self.horizon:
            ctx.halt(stepped)
            return
        broadcast_ids = []
        broadcast_deltas = []
        unicast_senders = []
        unicast_receivers = []
        unicast_deltas = []
        indptr = ctx.indptr
        indices = ctx.indices
        for i in np.flatnonzero(stepped).tolist():
            rng = self.rngs[i]
            choice = rng.randrange(4)
            neighbors = indices[indptr[i]:indptr[i + 1]].tolist()
            if not neighbors or choice == 3:
                continue
            if choice == 0:
                broadcast_ids.append(i)
                broadcast_deltas.append(rng.randrange(-300, 300))
            else:
                k = rng.randrange(len(neighbors)) + 1
                for u in rng.sample(neighbors, k):
                    unicast_senders.append(i)
                    unicast_receivers.append(u)
                    unicast_deltas.append(rng.randrange(-300, 300))
        if broadcast_ids:
            ctx.emit_columns(
                np.array(broadcast_ids), tag=0,
                delta=np.array(broadcast_deltas),
            )
        if unicast_senders:
            ctx.emit_columns(
                np.array(unicast_senders), np.array(unicast_receivers),
                tag=1, delta=np.array(unicast_deltas),
            )

    def outputs(self, ctx) -> ListedValues:
        return ListedValues([
            (int(s), int(c)) for s, c in zip(self.received, self.heard)
        ])


def algorithm_for(kind: str, graph: nx.Graph, rng: random.Random):
    n = graph.number_of_nodes()
    if kind == "mis":
        horizon = 20 * max(4, n.bit_length() ** 2)
        return LubyMISAlgorithm(horizon), horizon + 2, True
    if kind == "matching":
        horizon = 40 * max(4, n.bit_length() ** 2)
        return ProposalMatchingAlgorithm(horizon), horizon + 2, True
    if kind == "coloring":
        delta = max((d for _, d in graph.degree), default=0)
        horizon = 40 * max(4, n.bit_length() ** 2)
        return TrialColoringAlgorithm(delta + 1, horizon), horizon + 2, True
    if kind == "bfs":
        root = min(graph.nodes, key=repr)
        return BFSTreeAlgorithm(root, n + 2), n + 4, False
    if kind == "flood":
        root = min(graph.nodes, key=repr)
        return BroadcastAlgorithm(root, rng.randrange(1 << 16), n + 2), n + 4, False
    if kind == "leader":
        return FloodMaxLeaderElection(n + 1), n + 3, False
    if kind == "mixer":
        return RandomMixerAlgorithm(), 10, True
    if kind == "columnar_mixer":
        return ColumnarMixerAlgorithm(), 10, True
    if kind == "columnar_mis":
        horizon = 20 * max(4, n.bit_length() ** 2)
        return ColumnarLubyMIS(horizon), horizon + 2, True
    if kind == "columnar_coloring":
        delta = max((d for _, d in graph.degree), default=0)
        horizon = 40 * max(4, n.bit_length() ** 2)
        return ColumnarTrialColoring(delta + 1, horizon), horizon + 2, True
    if kind == "columnar_bfs":
        root = min(graph.nodes, key=repr)
        return ColumnarBFSTree(root, n + 2), n + 4, False
    if kind == "columnar_flood":
        root = min(graph.nodes, key=repr)
        return (
            ColumnarFloodValue(root, rng.randrange(1 << 16), n + 2),
            n + 4,
            False,
        )
    raise AssertionError(kind)


ALGORITHMS = [
    "mis", "matching", "coloring", "bfs", "flood", "leader", "mixer",
    "columnar_mixer", "columnar_mis", "columnar_coloring", "columnar_bfs",
    "columnar_flood",
]

# Object-plane originals of the ported columnar classics — the cross-plane
# soak below proves the two *implementations* identical, not just the two
# executors of one implementation.
CROSS_PLANE = {
    "columnar_mis": "mis",
    "columnar_coloring": "coloring",
    "columnar_bfs": "bfs",
    "columnar_flood": "flood",
}


def _trial_specs():
    rng = random.Random(MASTER_SEED)
    specs = []
    families = sorted(FAMILIES)
    for trial in range(N_TRIALS):
        specs.append(
            (
                trial,
                rng.choice(families),
                rng.choice(ALGORITHMS),
                rng.choice(["congest", "local"]),
                rng.randrange(1 << 30),
            )
        )
    return specs


@pytest.mark.parametrize(
    "trial,family,kind,model,seed",
    _trial_specs(),
    ids=lambda value: str(value),
)
def test_soak_engine_matches_reference(trial, family, kind, model, seed):
    rng = random.Random(seed)
    graph = FAMILIES[family](rng)
    rng_state = rng.getstate()
    algorithm, max_rounds, needs_inputs = algorithm_for(kind, graph, rng)
    inputs = None
    if needs_inputs:
        input_rng = random.Random(seed + 1)
        inputs = {v: input_rng.randrange(1 << 30) for v in graph.nodes}

    engine_net = Network(graph, model=model)
    engine_out = engine_net.run(
        algorithm.spawn(), max_rounds=max_rounds, inputs=inputs
    )
    reference_net = Network(graph, model=model)
    reference_out = reference_net._run_reference(
        algorithm.spawn(), max_rounds=max_rounds, inputs=inputs
    )

    assert engine_out == reference_out
    assert list(engine_out) == list(reference_out)
    assert engine_net.metrics == reference_net.metrics

    # Cross-plane: a ported columnar classic must also match its
    # object-plane original byte for byte (outputs, order, metrics).
    original_kind = CROSS_PLANE.get(kind)
    if original_kind is not None:
        replay_rng = random.Random()
        replay_rng.setstate(rng_state)
        original, original_max_rounds, _ = algorithm_for(
            original_kind, graph, replay_rng
        )
        original_net = Network(graph, model=model)
        original_out = original_net.run(
            original.spawn(), max_rounds=original_max_rounds, inputs=inputs
        )
        assert engine_out == original_out
        assert list(engine_out) == list(original_out)
        assert engine_net.metrics == original_net.metrics
