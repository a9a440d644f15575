"""Synchronous message-passing network simulator (LOCAL and CONGEST models).

The simulator implements the model of Section 1 of the paper: the network is
a graph ``G = (V, E)``; computation proceeds in synchronous rounds; in each
round every vertex sends one message to each neighbour, receives one message
from each neighbour, and then performs arbitrary local computation.  In the
CONGEST model each message is limited to ``O(log n)`` bits; in the LOCAL
model message size is unbounded.

Public API
----------
``Message``
    A payload plus an explicit bit-size used for bandwidth accounting.
``Broadcast``
    Outbox sentinel: one shared message for every neighbour (or a
    subset), delivered through the engine's vectorized broadcast plane —
    validated once per broadcast instead of once per edge.  Build one
    with ``ctx.broadcast(message)``.
``NodeAlgorithm`` / ``NodeContext``
    Base class for per-vertex algorithms and the per-vertex view of the
    network (id, neighbours, round number).
``Network``
    The synchronous executor, with per-edge bandwidth enforcement and
    round/message/bit metrics.  A thin facade over the runtime plane
    table: the round loop itself lives in
    ``repro.congest.runtime.scheduler`` (``repro.congest.engine`` keeps
    only the one-time ``CompiledTopology`` compilation).
``CompiledTopology`` / ``run_many`` / ``Trial``
    The engine's one-time topology compilation and the batched benchmark
    runner: ``run_many(algorithm, trials, processes=N)`` grid-batches
    grid-safe columnar sweeps into one block-diagonal trial-major
    execution (``repro.congest.runtime.batch``) and otherwise fans a
    sweep of graphs/seeds out over a multiprocessing pool.
``runtime`` (``repro.congest.runtime``)
    The unified execution runtime: the fixed plane table ``PLANES``
    (``reference`` / ``broadcast`` / ``columnar`` /
    ``columnar-reference`` / ``grid``) that ``Network.run`` resolves
    planes through by name and dispatches with ``run_plane``, the shared
    round scheduler, the compilation entries, and trial-major grid
    execution.
``ColumnarSpec`` / ``VarColumn`` / ``ColumnarAlgorithm`` / ``ColumnarContext`` / ``ColumnarInbox``
    The columnar message plane (``repro.congest.columnar``): algorithms
    that declare a typed schema — fixed-width integer fields, optionally
    interleaved with variable-width ``VarColumn`` fields (ragged integer
    sequences over a shared payload pool, emitted via ``ctx.emit_var``
    and consumed via the zero-copy ``ctx.gather_var``) — are written as
    round-vectorized programs; the engine delivers each round as numpy
    columns over the compiled CSR topology (per-vertex inboxes are array
    segments) and computes metrics as array reductions — zero
    per-message Python objects on the fast path.  ``Network.run``
    resolves the plane automatically through the runtime plane table
    (``plane_kind``), never by ``isinstance``.
``RoundLedger``
    Cost accounting for composite cluster-level algorithms whose primitives
    have measured CONGEST costs (the two accounting levels are set out
    in ``repro.congest.metrics``).
``FaultPlan``
    Fault injection as a scheduler concern
    (``repro.congest.runtime.faults``): crash-stop failures, message
    drop/duplication, and bounded-delay asynchrony, driven by
    counter-based Philox streams and injected at the shared delivery
    seams — every plane executes the same plan identically,
    with zero algorithm changes (``Network.run(..., faults=plan)``).
``RngPlan``
    The randomness discipline as a plan (``repro.congest.runtime.rng``):
    ``"exact"`` (default) keeps the byte-identity per-vertex
    ``random.Random`` streams; ``"vectorized"`` opts randomized
    columnar algorithms into counter-based Philox column draws keyed
    ``(seed, vertex, round)`` — deterministic and plane-independent,
    but distributional rather than stream-identical vs exact mode
    (``Network.run(..., rng="vectorized")``,
    ``run_many(..., rng="vectorized")``, ``simulate --rng vectorized``).
``GuaranteeReport`` / ``check_mis`` / ``check_bfs_tree`` / ``check_coloring`` / ``check_decomposition``
    Guarantee validators (``repro.congest.validators``): re-verify a
    run's paper guarantee restricted to the live (non-crashed) vertices
    and report structured violation counts — the measurement layer of
    the resilience benchmarks.
"""

from repro.congest.columnar import (
    ColumnarAlgorithm,
    ColumnarContext,
    ColumnarInbox,
    VertexView,
    execute_columnar,
)
from repro.congest.engine import CompiledTopology
from repro.congest.runtime import (
    PLANES,
    ColumnarReliable,
    FaultPlan,
    GridTopology,
    ReliableNodeAlgorithm,
    RngPlan,
    Trial,
    execute_grid,
    plane_names,
    resolve_plane,
    run_many,
    run_plane,
    supported_planes,
)
from repro.congest.message import (
    Broadcast,
    ColumnarSpec,
    Message,
    VarColumn,
    bits_for_int,
    bits_for_payload,
)
from repro.congest.metrics import NetworkMetrics, RoundLedger
from repro.congest.validators import (
    GuaranteeReport,
    check_bfs_tree,
    check_coloring,
    check_decomposition,
    check_mis,
)
from repro.congest.network import (
    BandwidthExceededError,
    Network,
    NodeContext,
    NodeAlgorithm,
)
from repro.congest.cluster_sim import (
    ColumnarClusterAnnounce,
    HeaviestNeighborAggregation,
    distributed_boundary_tables,
    measure_step1_message_bits,
)
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarSelfHealingMIS,
    ColumnarTrialColoring,
    SelfHealingMIS,
    delta_plus_one_coloring,
    distributed_greedy_matching,
    luby_mis,
)
from repro.congest.algorithms import (
    BFSTreeAlgorithm,
    BroadcastAlgorithm,
    ColorReductionAlgorithm,
    ColumnarBFSTree,
    ColumnarRestartingBFS,
    RestartingBFS,
    ColumnarConvergecastSum,
    ColumnarFloodValue,
    ColumnarVarFlood,
    ConvergecastSumAlgorithm,
    FloodMaxLeaderElection,
    bfs_tree,
    broadcast,
    cole_vishkin_forest_coloring,
    cole_vishkin_schedule_length,
    convergecast_sum,
    elect_leaders,
    flood_values,
)

__all__ = [
    "CompiledTopology",
    "PLANES",
    "FaultPlan",
    "GridTopology",
    "RngPlan",
    "Trial",
    "run_many",
    "execute_grid",
    "plane_names",
    "resolve_plane",
    "run_plane",
    "supported_planes",
    "Broadcast",
    "Message",
    "ColumnarSpec",
    "VarColumn",
    "ColumnarAlgorithm",
    "ColumnarContext",
    "ColumnarInbox",
    "ColumnarLubyMIS",
    "ColumnarReliable",
    "ColumnarRestartingBFS",
    "ColumnarSelfHealingMIS",
    "ColumnarTrialColoring",
    "ColumnarBFSTree",
    "ReliableNodeAlgorithm",
    "RestartingBFS",
    "SelfHealingMIS",
    "ColumnarConvergecastSum",
    "ColumnarFloodValue",
    "ColumnarVarFlood",
    "flood_values",
    "ColumnarClusterAnnounce",
    "distributed_boundary_tables",
    "execute_columnar",
    "VertexView",
    "bits_for_int",
    "bits_for_payload",
    "NetworkMetrics",
    "RoundLedger",
    "GuaranteeReport",
    "check_bfs_tree",
    "check_coloring",
    "check_decomposition",
    "check_mis",
    "BandwidthExceededError",
    "Network",
    "NodeContext",
    "NodeAlgorithm",
    "BFSTreeAlgorithm",
    "BroadcastAlgorithm",
    "ColorReductionAlgorithm",
    "ConvergecastSumAlgorithm",
    "FloodMaxLeaderElection",
    "bfs_tree",
    "broadcast",
    "cole_vishkin_forest_coloring",
    "cole_vishkin_schedule_length",
    "convergecast_sum",
    "elect_leaders",
    "delta_plus_one_coloring",
    "distributed_greedy_matching",
    "luby_mis",
    "HeaviestNeighborAggregation",
    "measure_step1_message_bits",
]
