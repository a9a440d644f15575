"""The synchronous network executor for the LOCAL and CONGEST models.

Usage sketch::

    net = Network(graph, model="congest")
    outputs = net.run(MyAlgorithm(), max_rounds=100)

``MyAlgorithm`` subclasses :class:`NodeAlgorithm`; one independent instance
is created per vertex.  The executor delivers all messages sent in round r
at the beginning of round r + 1 and stops when every node has halted (or
``max_rounds`` is hit, which raises).

Execution planes
----------------
:meth:`Network.run` keeps this public API but is a thin facade over the
**runtime plane table** (:mod:`repro.congest.runtime.planes`): the
topology is compiled to dense ints once in ``__init__`` (via the
runtime's single compilation entry), and the plane that actually steps
the rounds is resolved *by name* — ``run(algorithm, plane="broadcast")``
— or automatically from the algorithm's declared ``plane_kind``
(``plane=None``/``"auto"``).  There is no ``isinstance`` dispatch here:
object-family algorithms (:class:`NodeAlgorithm`) resolve to the
broadcast-aware active-set engine, columnar-family ones
(:class:`~repro.congest.columnar.ColumnarAlgorithm`) to the columnar
plane, and the per-message reference executors back both families as
their executable specs (:meth:`Network._run_reference`, which
``tests/test_engine.py`` and ``tests/test_columnar.py`` check the fast
planes against).

Batch sweeps over many graphs/seeds should use
:func:`repro.congest.run_many` (:mod:`repro.congest.runtime.batch`),
which grid-batches grid-safe columnar sweeps into one block-diagonal
execution and otherwise fans trials out over a ``multiprocessing`` pool.

The broadcast protocol
----------------------
Instead of a dict, :meth:`NodeAlgorithm.on_round` may return a
:class:`~repro.congest.message.Broadcast` — one shared message for every
neighbour (``Broadcast(message)``, or ``ctx.broadcast(message)``) or for
an explicit subset (``Broadcast(message, to=receivers)``).  A broadcast
is *semantically* the dict ``{u: message for u in receivers}``: identical
inbox contents, per-edge message/bit accounting, bandwidth enforcement,
and validation errors.  The difference is purely operational — the engine
validates the shared payload once per broadcast and counts
``len(receivers) × bits`` with one multiply instead of paying per-edge
dict iteration, membership checks, and counter updates, which is what
makes the broadcast-heavy classic algorithms fast.  The reference
executor (:meth:`Network._run_reference`) expands a ``Broadcast`` to its
dict form up front and runs the seed loop unchanged, so differential
tests cover the protocol end to end.

Engine-level contract notes:

* the inbox mapping passed to :meth:`NodeAlgorithm.on_round` is owned by
  the executor and valid only for the duration of the call (the engine
  clears and reuses it two rounds later); algorithms must copy it if they
  need it afterwards;
* the ``Message`` inside a ``Broadcast`` is shared by every receiver —
  messages are immutable, so this is observationally identical to the
  expanded dict, whose values are the same object anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import networkx as nx

from repro.congest.message import Broadcast, Message, bandwidth_bits_for
from repro.congest.metrics import NetworkMetrics
from repro.congest.runtime.compile import compile_topology
from repro.congest.runtime.planes import (
    reference_plane_for,
    resolve_plane,
    run_plane,
)
from repro.congest.runtime.rng import RngPlan, _check_rng_modes


class BandwidthExceededError(RuntimeError):
    """A message exceeded the CONGEST per-edge per-round bandwidth."""


def _bandwidth_error(bits, sender, receiver, bandwidth_bits):
    """The fast planes' bandwidth-violation error, naming the message's
    size, its sender and receiver ids and the budget.

    >>> _bandwidth_error(40, "a", "b", 32)
    BandwidthExceededError("message of 40 bits from 'a' to 'b' exceeds CONGEST bandwidth 32 bits")
    """
    return BandwidthExceededError(
        f"message of {bits} bits from {sender!r} to {receiver!r} "
        f"exceeds CONGEST bandwidth {bandwidth_bits} bits"
    )


@dataclass
class NodeContext:
    """The per-vertex view of the network handed to a node algorithm.

    Attributes
    ----------
    node:
        This vertex's identifier (also its unique ID in the model's sense).
    neighbors:
        Tuple of adjacent vertex identifiers, in a fixed deterministic order.
    n:
        Number of vertices in the network (known to all nodes, as is standard
        for CONGEST algorithms that depend on ``log n``).
    round_number:
        Current round, starting at 0 for the initialization step.
    """

    node: Any
    neighbors: tuple
    n: int
    round_number: int = 0

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def broadcast(self, message: Message, to: Any = None) -> Broadcast:
        """Ergonomic outbox for ``on_round``: one shared ``message`` to all
        neighbours (or the subset ``to``), delivered through the engine's
        vectorized broadcast plane.  ``return ctx.broadcast(msg)`` is
        equivalent to ``return {u: msg for u in ctx.neighbors}``."""
        return Broadcast(message, to)


class NodeAlgorithm:
    """Base class for per-vertex synchronous algorithms.

    Lifecycle: the executor calls :meth:`initialize` once, then repeatedly
    calls :meth:`on_round` with the inbox of messages received that round
    (empty in the first communication round).  The algorithm returns either
    a dict mapping a subset of neighbours to :class:`Message` objects, or a
    :class:`~repro.congest.message.Broadcast` when one shared message goes
    to all neighbours (or a subset) — the fast path for broadcast-heavy
    algorithms.  Calling :meth:`halt` stops the node; the run ends when all
    nodes have halted.

    One instance of the subclass is created per vertex via ``spawn``;
    subclasses store per-vertex state on ``self``.

    ``plane_kind = "object"`` declares the execution-plane family to the
    runtime plane table (:mod:`repro.congest.runtime.planes`): object-family
    algorithms run on the ``reference``/``broadcast`` planes,
    resolved by name — never by ``isinstance``.  ``rng_modes`` declares
    which randomness disciplines the algorithm implements
    (:mod:`repro.congest.runtime.rng`); object-family algorithms draw
    from per-vertex ``random.Random`` state directly, so they support
    only the byte-identity default.
    """

    plane_kind = "object"
    rng_modes = ("exact",)

    def __init__(self) -> None:
        self._halted = False

    # -- factory -----------------------------------------------------------
    def spawn(self) -> "NodeAlgorithm":
        """Create a fresh per-vertex instance (default: same class, no args).

        Subclasses whose ``__init__`` takes configuration should override
        this to propagate it.
        """
        return type(self)()

    # -- lifecycle hooks ----------------------------------------------------
    def initialize(self, ctx: NodeContext) -> None:
        """Set up per-vertex state.  Called once before round 1."""

    def on_round(
        self, ctx: NodeContext, inbox: Mapping[Any, Message]
    ) -> "dict[Any, Message] | Broadcast":
        """Process the inbox, update state, return outgoing messages.

        The return value is either ``{neighbor: Message}`` or a
        :class:`~repro.congest.message.Broadcast` (see
        :meth:`NodeContext.broadcast`).  ``inbox`` is owned by the
        executor and valid only for the duration of this call — copy it
        if you need it later.
        """
        raise NotImplementedError

    def output(self) -> Any:
        """The node's final output, collected after the run."""
        return None

    # -- control ------------------------------------------------------------
    def halt(self) -> None:
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted


class Network:
    """Synchronous executor over a ``networkx.Graph``.

    Parameters
    ----------
    graph:
        The communication topology.  Vertex ids must be hashable; they play
        the role of the ``O(log n)``-bit unique identifiers of the model.
    model:
        ``"congest"`` (bandwidth-limited) or ``"local"`` (unlimited).
    bandwidth_factor:
        In CONGEST mode, each message may carry at most
        ``bandwidth_factor * ceil(log2 n)`` bits (the constant in the
        model's ``O(log n)``).  Default 32, generous enough for the tuples
        our algorithms send while still scaling as Θ(log n).
    """

    def __init__(
        self,
        graph: nx.Graph,
        model: str = "congest",
        bandwidth_factor: int = 32,
    ) -> None:
        if model not in ("congest", "local"):
            raise ValueError(f"unknown model {model!r}")
        if graph.number_of_nodes() == 0:
            raise ValueError("network must have at least one vertex")
        self.graph = graph
        self.model = model
        self.bandwidth_bits = bandwidth_bits_for(
            graph.number_of_nodes(), bandwidth_factor
        )
        self.metrics = NetworkMetrics()
        self._topology = compile_topology(graph)

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: NodeAlgorithm,
        max_rounds: int = 10_000,
        inputs: Mapping[Any, Any] | None = None,
        plane: str | None = None,
        faults=None,
        rng=None,
    ) -> dict[Any, Any]:
        """Execute ``algorithm`` at every vertex until all halt.

        ``inputs`` optionally provides a per-vertex input value, exposed to
        the node as ``self.input`` before :meth:`NodeAlgorithm.initialize`.

        Returns the dict of per-vertex outputs.  ``plane`` selects the
        execution plane by name
        (:mod:`repro.congest.runtime.planes` — ``reference``,
        ``broadcast``, ``columnar``, ``columnar-reference``);
        ``None``/``"auto"`` resolves the fastest plane of the algorithm's
        declared family (``plane_kind``).  Every plane keeps the same
        observable contract: output keying in ``graph.nodes`` order,
        identical :class:`~repro.congest.metrics.NetworkMetrics`
        counters, identical validation errors.

        ``faults`` optionally takes a
        :class:`~repro.congest.runtime.faults.FaultPlan` applied by the
        plane's executor (crash-stop, drop, duplication, bounded delay);
        the fault counters land on :attr:`metrics`.  A zero plan is
        byte-identical to ``faults=None`` on every plane.

        ``rng`` optionally takes an
        :class:`~repro.congest.runtime.rng.RngPlan` (or a mode string):
        ``"exact"`` — the default — is byte-identical to ``rng=None``;
        ``"vectorized"`` requires the algorithm to declare it in
        ``rng_modes`` and is rejected here otherwise, before any plane
        executes.
        """
        rng_plan = RngPlan.coerce(rng)
        _check_rng_modes(algorithm, rng_plan.vectorized)
        return run_plane(
            resolve_plane(algorithm, plane),
            self._topology,
            algorithm,
            model=self.model,
            bandwidth_bits=self.bandwidth_bits,
            metrics=self.metrics,
            max_rounds=max_rounds,
            inputs=inputs,
            faults=faults,
            rng=rng_plan if rng_plan.vectorized else None,
        )

    # ------------------------------------------------------------------
    def _run_reference(
        self,
        algorithm: NodeAlgorithm,
        max_rounds: int = 10_000,
        inputs: Mapping[Any, Any] | None = None,
        faults=None,
        rng=None,
    ) -> dict[Any, Any]:
        """Run on the algorithm family's per-message reference plane.

        Object-family algorithms get the retained seed loop
        (:func:`repro.congest.runtime.scheduler.execute_reference` —
        every inbox reallocated, every vertex scanned, every message
        validated and counted one at a time); columnar programs get the
        per-``Message`` columnar reference executor.  Both are the
        executable specifications the fast planes are differentially
        tested against (``tests/test_engine.py``,
        ``tests/test_columnar.py``, ``tests/test_delivery_soak.py``).
        They are not tuned for speed and no benchmark times them.
        """
        return self.run(
            algorithm,
            max_rounds,
            inputs,
            plane=reference_plane_for(algorithm),
            faults=faults,
            rng=rng,
        )


class FunctionAlgorithm(NodeAlgorithm):
    """Adapter turning a plain function into a node algorithm.

    The function receives ``(state, ctx, inbox)`` and returns
    ``(new_state, outgoing, done, output)``.  Useful for small tests.
    """

    def __init__(
        self,
        step: Callable[[Any, NodeContext, Mapping[Any, Message]], tuple],
        initial_state: Callable[[NodeContext], Any] = lambda ctx: None,
    ) -> None:
        super().__init__()
        self._step = step
        self._initial_state = initial_state
        self._state: Any = None
        self._output: Any = None

    def spawn(self) -> "FunctionAlgorithm":
        return FunctionAlgorithm(self._step, self._initial_state)

    def initialize(self, ctx: NodeContext) -> None:
        self._state = self._initial_state(ctx)

    def on_round(self, ctx, inbox):
        self._state, outgoing, done, self._output = self._step(
            self._state, ctx, inbox
        )
        if done:
            self.halt()
        return outgoing

    def output(self) -> Any:
        return self._output
