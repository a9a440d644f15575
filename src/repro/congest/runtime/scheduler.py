"""The shared round scheduler: one spine for every execution plane.

Every executor in this repository — the seed reference loop, the
compiled object-plane engine, the columnar plane, and the trial-batched
grid — runs the same *round protocol*: check whether every vertex has
halted, enforce the ``max_rounds`` cap (raising the same ``RuntimeError``
text), tick the round counter, advance one round, and flush deferred
metric reductions exactly once on the way out (normal exit *or*
exception).  :func:`run_rounds` owns that protocol; executors supply
three closures (``done``, ``advance``, ``flush``) and inherit identical
halting/round-cap/flush semantics by construction instead of by
re-implementation.

This module also owns the object-plane executors themselves:

:func:`execute`
    The active-set scheduler with the broadcast-aware delivery plane.
    Per round it steps only not-yet-halted vertices and delivers
    messages directly into the *next* round's inbox dicts,
    double-buffered across rounds.

:func:`execute_reference`
    The seed round loop — the executable specification every fast plane
    is differentially tested against.  Reallocates every inbox each
    round and scans all vertices for halting, exactly as the seed
    executor did.  Do not optimize this function; optimize the planes.

:func:`release_round_buffers` / the per-topology inbox pool
    Reusable double-buffered inbox lists, keyed weakly by topology.  A
    run checks a buffer pair out of the pool (or allocates one) and
    returns it *empty* on the way out; sweeps release between graphs so
    a long batch never pins one trial's peak-round inboxes.  The pool is
    owned here; :func:`repro.congest.runtime.batch.run_many` releases it
    between graphs.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Mapping

import numpy as np

from repro.congest.message import Broadcast, Message
from repro.congest.metrics import NetworkMetrics

# Below this many entries a per-round reduction uses the Python builtins;
# at or above it, numpy's fused int64 reductions win over interpreter sums.
_VECTOR_MIN = 1024


# ---------------------------------------------------------------------------
# The shared round spine
# ---------------------------------------------------------------------------
def run_rounds(
    *,
    metrics,
    max_rounds: int,
    done: Callable[[], bool],
    advance: Callable[[int], None],
    flush: Callable[[], None] | None = None,
) -> None:
    """Drive one execution's round loop with the shared semantics.

    ``done()`` is checked at the top of every round (a run where every
    vertex halts during setup records zero rounds); ``advance(r)`` runs
    round ``r`` (1-based); ``flush()`` — if given — runs exactly once in
    a ``finally`` so deferred metric reductions and pooled buffers are
    folded even when ``advance`` raises mid-round.  Exceeding
    ``max_rounds`` raises ``RuntimeError`` with the executor-uniform
    message before the offending round is recorded.

    >>> metrics = NetworkMetrics()
    >>> pending = {"rounds": 3}
    >>> run_rounds(
    ...     metrics=metrics, max_rounds=10,
    ...     done=lambda: pending["rounds"] == 0,
    ...     advance=lambda r: pending.update(rounds=pending["rounds"] - 1),
    ... )
    >>> metrics.rounds
    3
    """
    round_number = 0
    try:
        while not done():
            round_number += 1
            if round_number > max_rounds:
                raise RuntimeError(
                    f"algorithm did not halt within {max_rounds} rounds"
                )
            metrics.record_round()
            advance(round_number)
    finally:
        if flush is not None:
            flush()


# ---------------------------------------------------------------------------
# Pooled double-buffered inboxes (object plane)
# ---------------------------------------------------------------------------
# Reusable double-buffered inbox lists, keyed weakly by topology.  A run
# checks a buffer pair out of the pool (or allocates one) and returns it
# *empty* on the way out, so serial sweeps over one graph stop paying the
# per-trial reallocation of n list slots plus every per-vertex dict that
# the previous trials already grew.  ``release_round_buffers`` drops the
# cached pair(s); ``run_many`` calls it between trials on different
# graphs and after a sweep so a long batch never holds one trial's
# peak-round inboxes for the lifetime of the whole batch.
_INBOX_POOL: "weakref.WeakKeyDictionary[Any, tuple]" = (
    weakref.WeakKeyDictionary()
)


def release_round_buffers(topology=None) -> None:
    """Drop pooled inbox buffers — for ``topology``, or all of them.

    Call between sweeps over different graphs (``run_many`` does) so a
    long batch never pins one topology's peak-round inbox memory.

    >>> release_round_buffers()  # drop every pooled pair
    >>> len(_INBOX_POOL)
    0
    """
    if topology is None:
        _INBOX_POOL.clear()
    else:
        _INBOX_POOL.pop(topology, None)


def _validate_pedantic(sender, message, receivers, neighbor_set, limit,
                       bandwidth_bits, count_append, size_append):
    """Replay the reference executor's per-receiver validation order.

    The broadcast fast paths validate once per broadcast; when that quick
    guard fails (non-neighbour receiver, non-``Message`` payload,
    ``Message`` subclass, bandwidth overflow) this function re-checks in
    the exact order the reference executor would, so the raised
    exception — type, message, and which receiver it names — is
    byte-identical.  It also *counts* per receiver as it validates
    (appending ``(1, bits)`` pairs to the deferred broadcast lists):
    the reference counts every copy validated before the offending one,
    and an exception must leave exactly those counted here too.  Returns
    the message's bit size when the broadcast is legal after all (e.g. a
    ``Message`` subclass); the caller must then *not* count it again.
    """
    from repro.congest.network import _bandwidth_error

    bits = 0
    for receiver in receivers:
        if receiver not in neighbor_set:
            raise ValueError(
                f"node {sender!r} sent to non-neighbor {receiver!r}"
            )
        if not isinstance(message, Message):
            raise TypeError(
                f"node {sender!r} sent a non-Message object: {message!r}"
            )
        bits = message.bit_size
        if bits > limit:
            raise _bandwidth_error(bits, sender, receiver, bandwidth_bits)
        count_append(1)
        size_append(bits)
    return bits


# ---------------------------------------------------------------------------
# The compiled object-plane engine
# ---------------------------------------------------------------------------
def execute(
    topology,
    algorithm,
    *,
    model: str,
    bandwidth_bits: int,
    metrics: NetworkMetrics,
    max_rounds: int = 10_000,
    inputs: Mapping[Any, Any] | None = None,
    faults=None,
) -> dict[Any, Any]:
    """Run ``algorithm`` on ``topology`` with the active-set scheduler.

    Same observable semantics as the seed executor: outputs keyed in
    ``graph.nodes`` order, identical metrics counters, identical
    exceptions on non-neighbor sends, non-``Message`` objects, bandwidth
    violations, and ``max_rounds`` exhaustion.  ``Broadcast`` outboxes
    are delivered by the vectorized broadcast plane.  ``faults``
    optionally supplies a :class:`~repro.congest.runtime.faults.FaultPlan`:
    crashes are drawn at the top of each round and the round's validated
    sends detour through the fault state's per-message fate pass before
    delivery (see :mod:`repro.congest.runtime.faults`).

    Normally reached through ``Network.run`` via the plane table:

    >>> import networkx as nx
    >>> from repro.congest.network import FunctionAlgorithm, Network
    >>> def step(state, ctx, inbox):
    ...     return state, {}, True, ctx.degree
    >>> Network(nx.path_graph(3)).run(
    ...     FunctionAlgorithm(step), plane="broadcast")
    {0: 1, 1: 2, 2: 1}
    """
    from repro.congest.network import NodeContext, _bandwidth_error

    n = topology.n
    vertices = topology.vertices
    instances = []
    contexts = []
    step_fns = []
    for i in range(n):
        instance = algorithm.spawn()
        instance.input = None if inputs is None else inputs.get(vertices[i])
        ctx = NodeContext(
            node=vertices[i], neighbors=topology.neighbor_tuples[i], n=n
        )
        instance.initialize(ctx)
        instances.append(instance)
        contexts.append(ctx)
        step_fns.append(instance.on_round)

    index_of = topology.index_of
    neighbor_sets = topology.neighbor_sets
    neighbor_tuples = topology.neighbor_tuples
    neighbor_index_tuples = topology.neighbor_index_tuples
    congest = model == "congest"
    # Single comparison per payload: in LOCAL mode the limit is unreachable.
    limit = bandwidth_bits if congest else (1 << 62)

    # Double-buffered inboxes: ``read`` is consumed this round, ``fill``
    # receives next round's messages.  Dicts are allocated lazily on a
    # vertex's first-ever delivery (``None`` until then — vertices that
    # never receive never allocate) and reused across rounds; only dirty
    # dicts are ever cleared.  Vertices with no pending messages read the
    # shared immutable empty inbox.  The buffer pair itself is pooled per
    # topology (checked out here, returned empty in ``flush``), so
    # back-to-back runs on one graph reuse the grown dicts.
    pooled = _INBOX_POOL.pop(topology, None)
    if pooled is not None:
        read, fill = pooled
    else:
        read = [None] * n
        fill = [None] * n
    empty_inbox: dict[Any, Message] = {}
    dirty_read: list[int] = []
    dirty_fill: list[int] = []

    active = [i for i in range(n) if not instances[i].halted]
    if faults is None:
        fault_state = None
        round_sends: list | None = None
    else:
        from repro.congest.runtime.faults import FaultState

        fault_state = FaultState.for_single(faults, topology)
        round_sends = []
    message_count = 0
    total_bits = 0
    max_edge = metrics.max_edge_bits_in_round
    # Per-round deferred accounting, reduced once per round (the vector
    # check): one bits entry per unicast message; one (copies, bits) pair
    # per broadcast.
    round_bits: list[int] = []
    bcast_counts: list[int] = []
    bcast_sizes: list[int] = []

    def done() -> bool:
        return not active

    def advance(round_number: int) -> None:
        nonlocal active, read, fill, dirty_read, dirty_fill
        nonlocal message_count, total_bits, max_edge
        still_active: list[int] = []
        still_append = still_active.append
        dirty_append = dirty_fill.append
        bits_append = round_bits.append
        count_append = bcast_counts.append
        size_append = bcast_sizes.append
        if fault_state is not None:
            eligible = np.zeros(n, dtype=bool)
            eligible[active] = True
            crashed_rows = fault_state.crash_step(round_number, eligible)
            if crashed_rows.size:
                newly_crashed = set(crashed_rows.tolist())
                active = [i for i in active if i not in newly_crashed]
        for i in active:
            ctx = contexts[i]
            ctx.round_number = round_number
            inbox = read[i]
            sent = step_fns[i](
                ctx, inbox if inbox is not None else empty_inbox
            )
            if sent:
                if sent.__class__ is Broadcast:
                    message = sent.message
                    receivers = sent.to
                    if receivers is None:
                        # Full broadcast: receivers are the compiled
                        # neighbour list — membership holds by
                        # construction; validate the payload once.
                        targets = neighbor_index_tuples[i]
                        if targets:
                            if message.__class__ is Message:
                                bits = message._bit_size
                                if bits < 0:
                                    bits = message.bit_size
                                if bits > limit:
                                    raise _bandwidth_error(
                                        bits, ctx.node,
                                        neighbor_tuples[i][0],
                                        bandwidth_bits,
                                    )
                                count_append(len(targets))
                                size_append(bits)
                            else:
                                # Counts per receiver internally.
                                _validate_pedantic(
                                    ctx.node, message,
                                    neighbor_tuples[i], neighbor_sets[i],
                                    limit, bandwidth_bits,
                                    count_append, size_append,
                                )
                            if round_sends is not None:
                                for j in targets:
                                    round_sends.append((i, j, message))
                            else:
                                sender = ctx.node
                                for j in targets:
                                    box = fill[j]
                                    if box:
                                        box[sender] = message
                                    else:
                                        if box is None:
                                            box = fill[j] = {}
                                        dirty_append(j)
                                        box[sender] = message
                    elif receivers:
                        # Subset broadcast: one C-level superset check
                        # replaces the per-receiver membership loop.
                        nbrs = neighbor_sets[i]
                        if (message.__class__ is Message
                                and nbrs.issuperset(receivers)):
                            bits = message._bit_size
                            if bits < 0:
                                bits = message.bit_size
                            if bits > limit:
                                raise _bandwidth_error(
                                    bits, ctx.node, next(iter(receivers)),
                                    bandwidth_bits,
                                )
                            count_append(len(receivers))
                            size_append(bits)
                        else:
                            # Counts per receiver internally.
                            _validate_pedantic(
                                ctx.node, message, receivers, nbrs,
                                limit, bandwidth_bits,
                                count_append, size_append,
                            )
                        if round_sends is not None:
                            for u in receivers:
                                round_sends.append((i, index_of[u], message))
                        else:
                            sender = ctx.node
                            for u in receivers:
                                j = index_of[u]
                                box = fill[j]
                                if box:
                                    box[sender] = message
                                else:
                                    if box is None:
                                        box = fill[j] = {}
                                    dirty_append(j)
                                    box[sender] = message
                else:
                    # Unicast path: explicit dict outbox.
                    sender = ctx.node
                    nbrs = neighbor_sets[i]
                    for receiver, message in sent.items():
                        if receiver not in nbrs:
                            raise ValueError(
                                f"node {sender!r} sent to non-neighbor "
                                f"{receiver!r}"
                            )
                        if message.__class__ is not Message:
                            if not isinstance(message, Message):
                                raise TypeError(
                                    f"node {sender!r} sent a non-Message "
                                    f"object: {message!r}"
                                )
                        # Fast path past the lazy property: shared
                        # messages hit the cached slot after the first
                        # read.
                        bits = message._bit_size
                        if bits < 0:
                            bits = message.bit_size
                        if bits > limit:
                            raise _bandwidth_error(
                                bits, sender, receiver, bandwidth_bits
                            )
                        bits_append(bits)
                        if round_sends is not None:
                            round_sends.append((i, index_of[receiver], message))
                            continue
                        j = index_of[receiver]
                        box = fill[j]
                        if box:
                            box[sender] = message
                        else:
                            if box is None:
                                box = fill[j] = {}
                            dirty_append(j)
                            box[sender] = message
            if not instances[i]._halted:
                still_append(i)
        if round_sends is not None:
            # Fate pass over the validated sends (accounting above is
            # unaffected — drops and delays are delivery-side), then
            # deliver the survivors through the same box protocol.
            delivered = fault_state.object_round(round_number, round_sends)
            round_sends.clear()
            for i, j, message in delivered:
                box = fill[j]
                if box:
                    box[vertices[i]] = message
                else:
                    if box is None:
                        box = fill[j] = {}
                    dirty_append(j)
                    box[vertices[i]] = message
        active = still_active
        # Per-round vector reduction of the deferred counters.
        if round_bits:
            message_count += len(round_bits)
            if len(round_bits) >= _VECTOR_MIN:
                arr = np.array(round_bits, dtype=np.int64)
                total_bits += int(arr.sum())
                peak = int(arr.max())
            else:
                total_bits += sum(round_bits)
                peak = max(round_bits)
            if peak > max_edge:
                max_edge = peak
            round_bits.clear()
        if bcast_sizes:
            if len(bcast_sizes) >= _VECTOR_MIN:
                counts = np.array(bcast_counts, dtype=np.int64)
                sizes = np.array(bcast_sizes, dtype=np.int64)
                message_count += int(counts.sum())
                total_bits += int(counts @ sizes)
                peak = int(sizes.max())
            else:
                message_count += sum(bcast_counts)
                total_bits += sum(
                    c * b for c, b in zip(bcast_counts, bcast_sizes)
                )
                peak = max(bcast_sizes)
            if peak > max_edge:
                max_edge = peak
            bcast_counts.clear()
            bcast_sizes.clear()
        for j in dirty_read:
            read[j].clear()
        dirty_read.clear()
        read, fill = fill, read
        dirty_read, dirty_fill = dirty_fill, dirty_read

    def flush() -> None:
        nonlocal message_count, total_bits, max_edge
        # Fold an interrupted round's deferred counters (an exception can
        # fire mid-round, after some messages were already validated — the
        # reference executor counts exactly those) and flush once.
        if round_bits:
            message_count += len(round_bits)
            total_bits += sum(round_bits)
            max_edge = max(max_edge, max(round_bits))
        if bcast_sizes:
            message_count += sum(bcast_counts)
            total_bits += sum(
                c * b for c, b in zip(bcast_counts, bcast_sizes)
            )
            max_edge = max(max_edge, max(bcast_sizes))
        metrics.record_batch(message_count, total_bits, max_edge)
        if fault_state is not None:
            fault_state.flush(metrics)
        # Return the buffers to the pool *empty*: both dirty sets (an
        # exception can leave messages on either side mid-round, and a
        # normal exit leaves the final round's undelivered sends in
        # ``read`` after the swap) are cleared before check-in.
        for j in dirty_read:
            read[j].clear()
        for j in dirty_fill:
            fill[j].clear()
        dirty_read.clear()
        dirty_fill.clear()
        _INBOX_POOL[topology] = (read, fill)

    run_rounds(
        metrics=metrics, max_rounds=max_rounds,
        done=done, advance=advance, flush=flush,
    )
    return {vertices[i]: instances[i].output() for i in range(n)}


# ---------------------------------------------------------------------------
# The seed reference executor (the object plane's executable spec)
# ---------------------------------------------------------------------------
def execute_reference(
    topology,
    algorithm,
    *,
    model: str,
    bandwidth_bits: int,
    metrics: NetworkMetrics,
    max_rounds: int = 10_000,
    inputs: Mapping[Any, Any] | None = None,
    faults=None,
) -> dict[Any, Any]:
    """The seed round loop, kept as the engine's executable spec.

    Reallocates every inbox each round and scans all vertices for
    halting — O(n) per round regardless of activity.  A ``Broadcast``
    outbox is expanded to its equivalent dict up front (the protocol's
    *definition*) and then validated, counted, and delivered exactly
    as the seed executor did per edge.  Used by ``tests/test_engine.py``
    and ``tests/test_delivery_soak.py`` for differential checks.  Do not
    optimize this function; optimize the planes.

    Reached through ``Network.run(plane="reference")`` or the
    ``Network._run_reference`` shorthand:

    >>> import networkx as nx
    >>> from repro.congest.network import FunctionAlgorithm, Network
    >>> def step(state, ctx, inbox):
    ...     return state, {}, True, ctx.n
    >>> Network(nx.path_graph(3)).run(
    ...     FunctionAlgorithm(step), plane="reference")
    {0: 3, 1: 3, 2: 3}
    """
    from repro.congest.network import BandwidthExceededError, NodeContext

    n = topology.n
    vertex_list = topology.vertices
    neighbor_tuple_of = {
        v: topology.neighbor_tuples[i] for i, v in enumerate(vertex_list)
    }
    neighbor_set_of = {
        v: topology.neighbor_sets[i] for i, v in enumerate(vertex_list)
    }

    def validate_and_count(sender: Any, sent: Mapping[Any, Message]) -> None:
        # Precomputed frozensets: membership is O(1) per message, not
        # O(deg) as with the seed's neighbour tuples.
        neighbor_set = neighbor_set_of[sender]
        for receiver, message in sent.items():
            if receiver not in neighbor_set:
                raise ValueError(
                    f"node {sender!r} sent to non-neighbor {receiver!r}"
                )
            if not isinstance(message, Message):
                raise TypeError(
                    f"node {sender!r} sent a non-Message object: {message!r}"
                )
            if model == "congest" and message.bit_size > bandwidth_bits:
                raise BandwidthExceededError(
                    f"message of {message.bit_size} bits from {sender!r} to "
                    f"{receiver!r} exceeds CONGEST bandwidth "
                    f"{bandwidth_bits} bits"
                )
            metrics.record_message(message.bit_size)
            metrics.record_edge_load(message.bit_size)

    nodes: dict[Any, Any] = {}
    contexts: dict[Any, NodeContext] = {}
    for v in vertex_list:
        instance = algorithm.spawn()
        instance.input = None if inputs is None else inputs.get(v)
        ctx = NodeContext(node=v, neighbors=neighbor_tuple_of[v], n=n)
        instance.initialize(ctx)
        nodes[v] = instance
        contexts[v] = ctx

    inboxes: dict[Any, dict[Any, Message]] = {v: {} for v in vertex_list}

    if faults is None:
        fault_state = None
    else:
        from repro.congest.runtime.faults import FaultState

        fault_state = FaultState.for_single(faults, topology)
    index_of = topology.index_of

    def done() -> bool:
        return all(node.halted for node in nodes.values())

    def advance(round_number: int) -> None:
        nonlocal inboxes
        if fault_state is not None:
            eligible = np.fromiter(
                (not nodes[v].halted for v in vertex_list),
                dtype=bool, count=n,
            )
            for row in fault_state.crash_step(
                round_number, eligible
            ).tolist():
                nodes[vertex_list[row]].halt()
        outboxes: dict[Any, dict[Any, Message]] = {}
        for v, node in nodes.items():
            if node.halted:
                continue
            ctx = contexts[v]
            ctx.round_number = round_number
            sent = node.on_round(ctx, inboxes[v])
            if isinstance(sent, Broadcast):
                sent = sent.expand(ctx.neighbors)
            if sent:
                validate_and_count(v, sent)
                outboxes[v] = sent
        inboxes = {v: {} for v in vertex_list}
        if fault_state is None:
            for sender, sent in outboxes.items():
                for receiver, message in sent.items():
                    inboxes[receiver][sender] = message
        else:
            fresh = [
                (index_of[sender], index_of[receiver], message)
                for sender, sent in outboxes.items()
                for receiver, message in sent.items()
            ]
            for i, j, message in fault_state.object_round(
                round_number, fresh
            ):
                inboxes[vertex_list[j]][vertex_list[i]] = message

    run_rounds(
        metrics=metrics, max_rounds=max_rounds, done=done, advance=advance,
        flush=(
            None if fault_state is None
            else lambda: fault_state.flush(metrics)
        ),
    )
    return {v: node.output() for v, node in nodes.items()}
