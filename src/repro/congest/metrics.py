"""Round, message, and bit metrics; cost ledger for composite algorithms.

Two levels of accounting are used in this repository:

* :class:`NetworkMetrics` — raw counters maintained by the simulator while a
  node algorithm executes: rounds, messages, bits, and the worst per-edge
  per-round load (which must never exceed the CONGEST bandwidth).

* :class:`ScalarAccountant` — the deferred form of the first: executors
  on the fast planes accumulate whole-round array reductions here and
  fold them into a :class:`NetworkMetrics` exactly once (via
  :meth:`NetworkMetrics.record_batch`) when the run ends, so per-message
  counter updates never touch the hot path.  The trial-batched grid
  executor (:mod:`repro.congest.runtime.batch`) uses a per-trial
  sibling with the same ``add(senders, bits, copies=None)`` interface.

* :class:`RoundLedger` — accounting for composite *cluster-level* algorithms
  (the decomposition algorithms of Sections 4–5).  The paper analyses those
  algorithms as a sequence of primitives, each with a proven CONGEST round
  cost parameterized by measured quantities (cluster diameter D, overlap c,
  routing time T, number of load-balancing steps, …).  The ledger charges
  each primitive its measured cost and keeps a labelled breakdown so
  benchmarks can report which phase dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class NetworkMetrics:
    """Raw counters for one simulated execution.

    The fault counters (``dropped``/``duplicated``/``delayed``/
    ``corrupted`` messages, ``crashed`` vertices) stay zero on
    fault-free runs — part of the zero-fault identity contract of
    :mod:`repro.congest.runtime.faults`.  ``crashed_vertices`` is the
    tuple of crashed vertex ids in crash order, so resilience reports
    (:mod:`repro.congest.validators`) can restrict guarantee checks to
    the live vertices without re-deriving the fault schedule."""

    rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_edge_bits_in_round: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    crashed: int = 0
    corrupted: int = 0
    crashed_vertices: tuple = ()

    def record_round(self) -> None:
        self.rounds += 1

    def record_message(self, bit_size: int) -> None:
        self.messages += 1
        self.total_bits += bit_size

    def record_edge_load(self, bits: int) -> None:
        if bits > self.max_edge_bits_in_round:
            self.max_edge_bits_in_round = bits

    def record_batch(self, messages: int, total_bits: int, peak_bits: int) -> None:
        """Fold one batch of deferred counters in a single update — the
        flush path of the engine's per-round (and the columnar plane's
        per-array) reductions.  Equivalent to ``messages`` interleaved
        ``record_message``/``record_edge_load`` calls whose sizes sum to
        ``total_bits`` and peak at ``peak_bits``; fault tallies fold
        through :meth:`record_faults`."""
        self.messages += messages
        self.total_bits += total_bits
        if peak_bits > self.max_edge_bits_in_round:
            self.max_edge_bits_in_round = peak_bits

    def record_faults(
        self,
        *,
        dropped: int = 0,
        duplicated: int = 0,
        delayed: int = 0,
        crashed: int = 0,
        corrupted: int = 0,
        crashed_vertices: tuple = (),
    ) -> None:
        """Fold one fault-injected execution's adversary tallies (the
        flush path of :meth:`repro.congest.runtime.faults.FaultState.flush`)."""
        self.dropped += dropped
        self.duplicated += duplicated
        self.delayed += delayed
        self.crashed += crashed
        self.corrupted += corrupted
        if crashed_vertices:
            self.crashed_vertices = self.crashed_vertices + tuple(
                crashed_vertices
            )

    def merge(self, other: "NetworkMetrics") -> None:
        """Accumulate another execution's counters into this one (sequential
        composition: rounds add, edge peak takes the max, crashed vertex
        logs concatenate)."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.total_bits += other.total_bits
        self.max_edge_bits_in_round = max(
            self.max_edge_bits_in_round, other.max_edge_bits_in_round
        )
        self.dropped += other.dropped
        self.duplicated += other.duplicated
        self.delayed += other.delayed
        self.crashed += other.crashed
        self.corrupted += other.corrupted
        if other.crashed_vertices:
            self.crashed_vertices = (
                self.crashed_vertices + other.crashed_vertices
            )


class ScalarAccountant:
    """Deferred message/bit counters for one execution.

    The columnar executors call :meth:`add` with one int64 bit-size
    array per validated emission batch (``senders`` rides along for
    interface parity with the grid's per-trial accountant and is unused
    here) and :meth:`flush` exactly once on the way out — equivalent to
    the per-message ``record_message``/``record_edge_load`` interleaving
    of the reference executor, in three scalar updates per batch.
    """

    __slots__ = ("messages", "total_bits", "peak_bits")

    def __init__(self) -> None:
        self.messages = 0
        self.total_bits = 0
        self.peak_bits = 0

    def add(self, senders, bits, copies=None) -> None:
        """Count one batch: ``bits[k]`` is message ``k``'s size, or,
        with ``copies`` (a broadcast's per-sender copy count, e.g. the
        senders' degrees), the size of each of sender ``k``'s
        ``copies[k]`` identical copies — the same totals as repeating
        every entry ``copies[k]`` times, without building that array.
        A sender with no copies adds nothing, not even to the peak.

        >>> import numpy as np
        >>> acc = ScalarAccountant()
        >>> acc.add(np.array([0, 1]), np.array([5, 9]))
        >>> acc.add(np.array([2, 3, 4]), np.array([4, 6, 12]),
        ...         copies=np.array([3, 1, 0]))
        >>> acc.messages, acc.total_bits, acc.peak_bits
        (6, 32, 9)
        """
        if copies is None:
            self.messages += len(bits)
            self.total_bits += int(bits.sum())
            peak = int(bits.max())
        else:
            live = copies > 0
            if live.all():
                peak = int(bits.max())
            elif live.any():
                peak = int(bits[live].max())
            else:
                return
            self.messages += int(copies.sum())
            self.total_bits += int(bits @ copies)
        if peak > self.peak_bits:
            self.peak_bits = peak

    def flush(self, metrics: "NetworkMetrics") -> None:
        metrics.record_batch(self.messages, self.total_bits, self.peak_bits)


@dataclass
class RoundLedger:
    """Labelled CONGEST round cost accumulator for composite algorithms.

    Each ``charge(label, rounds)`` call adds a cost measured for one
    primitive (e.g. one BFS aggregation over a cluster of measured diameter
    D, or one execution of the routing algorithm with measured T).  The
    total is the round complexity of the sequential composition.

    Parallel phases over disjoint clusters are charged once with the
    *maximum* cluster cost via :meth:`charge_parallel`, matching the paper's
    "in parallel for all clusters" statements (congestion between
    overlapping clusters must be folded into the per-cluster cost by the
    caller, as the paper does with its factor-``c`` overhead).
    """

    breakdown: dict[str, int] = field(default_factory=dict)

    def charge(self, label: str, rounds: int) -> None:
        if rounds < 0:
            raise ValueError(f"negative round charge for {label!r}: {rounds}")
        self.breakdown[label] = self.breakdown.get(label, 0) + rounds

    def charge_parallel(self, label: str, per_cluster_rounds: list[int]) -> None:
        """Charge one parallel phase: cost is the max over clusters."""
        self.charge(label, max(per_cluster_rounds, default=0))

    def merge(self, other: "RoundLedger", prefix: str = "") -> None:
        for label, rounds in other.breakdown.items():
            self.charge(prefix + label, rounds)

    @property
    def total_rounds(self) -> int:
        return sum(self.breakdown.values())

    def __str__(self) -> str:  # pragma: no cover - debugging convenience
        lines = [f"total rounds: {self.total_rounds}"]
        for label in sorted(self.breakdown, key=self.breakdown.get, reverse=True):
            lines.append(f"  {label}: {self.breakdown[label]}")
        return "\n".join(lines)
