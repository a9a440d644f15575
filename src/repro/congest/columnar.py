"""The columnar message plane: typed payload columns over the CSR topology.

The object plane (:mod:`repro.congest.runtime.scheduler`) materializes
every round's traffic as per-vertex dicts of
:class:`~repro.congest.message.Message` objects — flexible, but each
message costs dict writes, payload sizing, and Python-level inbox
iteration.  The algorithms this repository actually benchmarks exchange
*small fixed-width numeric payloads* (ids, colors, levels, coin flips) —
or, for the Lemma 2.2/2.5 gathering routers, *ragged integer sequences*
(walk-token lists, schedule descriptions) typed as
:class:`~repro.congest.message.VarColumn` fields over a shared payload
pool.  The columnar plane exploits that:

* an algorithm declares a typed schema
  (:class:`~repro.congest.message.ColumnarSpec`, e.g.
  ``(("kind", uint8), ("value", uint32))``) and is written as a
  *round-vectorized* program (:class:`ColumnarAlgorithm`): one
  ``on_round(ctx)`` call per round for the whole graph, not one per
  vertex;
* emission is ``ctx.emit_columns(senders, **fields)`` (broadcast over the
  compiled CSR neighbour segments) or
  ``ctx.emit_columns(senders, receivers, **fields)`` (unicast) — numpy
  arrays in, no per-message Python objects;
* variable-width fields emit through ``ctx.emit_var(senders[, receivers],
  name=(pool, lengths))``: each message's ragged sequence is one segment
  of a shared int64 pool, fanned out / permuted / delivered by CSR
  scatters (:func:`~repro.congest.runtime.compile._ragged_gather`) and
  consumed per vertex by the zero-copy :meth:`ColumnarContext.gather_var`;
* the engine delivers the entire round as structured columns laid out
  over the CSR topology: a sender column, one column per payload field,
  and segment offsets per receiver (``inbox.indptr``) — the *per-vertex
  numpy inboxes* are slices of those global arrays
  (:meth:`ColumnarInbox.for_vertex`);
* per-round metric accounting (message count, ``deg × bits``, peak edge
  load) is computed as array reductions over the same columns, with the
  bit-sizing rule shared with :func:`~repro.congest.message.bits_for_payload`
  so the counters stay byte-identical to the object plane;
* inbox consumption is :meth:`ColumnarContext.reduce_neighbors`
  (``min | max | sum | argmin | argmax | any | count``) — single
  segmented-numpy operations, so MIS coin comparison, Luby priority
  argmin, coloring conflict detection, and BFS level relaxation never
  iterate an inbox in Python.

Differential reference
----------------------
:func:`execute_columnar` has a ``reference=True`` mode — the *dict plane*
for columnar programs.  It runs the same round-vectorized algorithm but
expands every emission into per-message Python
:class:`~repro.congest.message.Message` objects (payload = the field
tuple, or the bare value for single-field specs), validates and counts
each one exactly as the seed executor would (``bits_for_payload``
sizing, per-message ``record_message``/``record_edge_load``), and
rebuilds the next inbox the slow way.  ``tests/test_columnar.py`` and
``tests/test_delivery_soak.py`` assert the fast path byte-identical to
it — and the ported classics additionally byte-identical to their
object-plane originals (``LubyMISAlgorithm`` et al.) end to end.

Ordering contract: a round's inbox arrays are grouped by receiver
(CSR-segment order) and, within a receiver, ordered by emission order —
the inbox is *equivalent to* a stable sort of the round's traffic by
receiver.  Most rounds are assembled by that sort; dense fault-free
broadcast rounds assemble the same arrays by *pulling* each receiver's
sending neighbours off the index-sorted adjacency
(:func:`_deliver_pulled`).  All reductions except ``argmin``/``argmax``
are order-insensitive; the arg reductions break ties toward the earliest
emitted message.

Delivery phases
---------------
A sorted round (:func:`_deliver_fast`) is a sequence of named phases,
each a plain function in :mod:`repro.congest.runtime.compile` over the
``(senders, receivers, columns, var)`` message tuple: broadcast fan-out
(``_fan_out``), validated-prefix accounting (``_account_prefix``),
concatenation (``_concat``), subset gather (``_subset``) and
receiver-sorted assembly (``_assemble_sorted``).  The fault pass
(:meth:`~repro.congest.runtime.faults.FaultState.columnar_step`) and the
reliability wrapper
(:class:`~repro.congest.runtime.recovery.ColumnarReliable`) call the
same phases instead of keeping copies.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from typing import Any

import numpy as np

from repro.congest.message import ColumnarSpec, Message, VarColumn
from repro.congest.metrics import ScalarAccountant
from repro.congest.runtime.compile import (
    _account_prefix,
    _assemble_sorted,
    _concat_ranked,
    _cumsum0,
    _fan_out,
    _ragged_gather,
)
from repro.congest.runtime.rng import (
    ExactRng,
    RngPlan,
    _check_rng_modes,
    rng_state_for,
)
from repro.congest.runtime.scheduler import run_rounds

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min

# The order-insensitive reductions: each op's ufunc, and its identity —
# also the default ``empty`` and what a masked-out message reads as.
_UFUNCS = {
    "sum": np.add, "min": np.minimum, "max": np.maximum,
    "any": np.logical_or,
}
_IDENTITY = {"sum": 0, "min": _INT64_MAX, "max": _INT64_MIN, "any": False}


def _segment_reduce(values, indptr, ufunc, empty, out_dtype=None):
    """Reduce ``values`` over the segments ``[indptr[i], indptr[i+1])``.

    Handles empty segments (they get ``empty``), which bare
    ``ufunc.reduceat`` silently corrupts: passing only the non-empty
    starts makes each reduceat slice span exactly one segment, because
    empty segments contribute no elements between consecutive starts.
    """
    n = len(indptr) - 1
    counts = indptr[1:] - indptr[:-1]
    nonempty = counts > 0
    out = np.full(n, empty, dtype=out_dtype if out_dtype is not None else values.dtype)
    if values.size and nonempty.any():
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
    return out


def _check_sums_fit(values, indptr):
    """Raise :class:`OverflowError` if the exact sum of some int64
    segment ``values[indptr[i]:indptr[i+1]]`` leaves the int64 range.

    The common case costs one magnitude bound: no segment can overflow
    when the longest segment times the largest ``|value|`` fits.  Past
    that bound the check is exact: each value splits into ``high · 2^32
    + low`` with ``0 <= low < 2^32``, both halves sum per segment
    without overflow (fewer than ``2^31`` messages), and the carry-
    adjusted high sum must stay in ``[-2^31, 2^31)``.
    """
    if not values.size:
        return
    bound = max(int(values.max()), -int(values.min()))
    if bound * int((indptr[1:] - indptr[:-1]).max()) <= _INT64_MAX:
        return
    low_sums = _segment_reduce(values & 0xFFFFFFFF, indptr, np.add, 0)
    high_sums = _segment_reduce(values >> 32, indptr, np.add, 0)
    high_sums += low_sums >> 32
    if np.any((high_sums < -(1 << 31)) | (high_sums >= 1 << 31)):
        raise OverflowError("a segment's int64 sum overflows")


class ColumnarInbox:
    """One round's delivered traffic as receiver-segmented columns.

    ``senders[indptr[i]:indptr[i+1]]`` are the dense sender ids of vertex
    ``i``'s messages; each payload field is a parallel column in the
    spec's declared dtype.  This *is* the per-vertex numpy inbox — a
    vertex's view is a zero-copy slice (:meth:`for_vertex`), and whole
    rounds reduce in one segmented op (:meth:`reduce`).

    Variable-width fields (:class:`~repro.congest.message.VarColumn`)
    are stored ragged: ``var_pools[name]`` is one shared int64 payload
    pool for the whole round and ``var_indptr[name]`` the per-*message*
    offset index into it (message ``k``'s sequence is
    ``pool[var_indptr[k]:var_indptr[k+1]]``).  Because messages are
    receiver-sorted, every vertex's — and, on a grid, every trial
    block's — var payload occupies one contiguous pool segment, which is
    what makes :meth:`gather_var` a zero-copy re-index.

    ``ranks``, when the delivery carried them, are the messages' edge
    ranks in the topology's delivery plane (:meth:`edge_ranks`).
    """

    __slots__ = (
        "n", "senders", "indptr", "columns", "var_pools", "var_indptr",
        "_receivers", "_ranks",
    )

    def __init__(self, n, senders, indptr, columns, var_pools=None,
                 var_indptr=None, ranks=None) -> None:
        self.n = n
        self.senders = senders
        self.indptr = indptr
        self.columns = columns
        self.var_pools = {} if var_pools is None else var_pools
        self.var_indptr = {} if var_indptr is None else var_indptr
        self._receivers = None
        self._ranks = ranks

    @classmethod
    def empty(cls, n: int, spec: ColumnarSpec) -> "ColumnarInbox":
        return cls(
            n,
            np.empty(0, dtype=np.int64),
            np.zeros(n + 1, dtype=np.int64),
            {name: np.empty(0, dtype=dtype) for name, dtype in spec.fields},
            {name: np.empty(0, dtype=np.int64) for name in spec.var_names},
            {name: np.zeros(1, dtype=np.int64) for name in spec.var_names},
        )

    def __len__(self) -> int:
        return len(self.senders)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def counts(self) -> np.ndarray:
        """Per-vertex message counts (``np.diff(indptr)``)."""
        return self.indptr[1:] - self.indptr[:-1]

    def receivers(self) -> np.ndarray:
        """Per-message receiver ids (the segment each message lies in)."""
        if self._receivers is None:
            self._receivers = np.repeat(
                np.arange(self.n, dtype=np.int64), self.counts
            )
        return self._receivers

    def edge_ranks(self, plane) -> np.ndarray:
        """Per-message edge ranks in ``plane``, the topology's
        :class:`~repro.congest.runtime.compile.DeliveryPlane`: the ranks
        unicast validation or the fan-out found, carried through the
        fault pass and the receiver sort.  An inbox assembled without
        them (the reference plane, a pulled or fault-free broadcast
        round) searches once, with :meth:`DeliveryPlane.ranks
        <repro.congest.runtime.compile.DeliveryPlane.ranks>`.

        >>> import networkx as nx
        >>> from repro.congest.runtime.compile import compile_topology
        >>> plane = compile_topology(nx.path_graph(3)).columnar_plane()
        >>> inbox = ColumnarInbox(               # 1 → 0 and 1 → 2
        ...     3, np.array([1, 1]), np.array([0, 1, 1, 2]), {})
        >>> inbox.edge_ranks(plane).tolist()
        [1, 2]
        """
        if self._ranks is None:
            self._ranks = plane.ranks(self.senders, self.receivers())[0]
        return self._ranks

    def for_vertex(self, i: int) -> dict:
        """Vertex ``i``'s inbox as zero-copy array slices.  Var fields
        appear as a list of per-message value arrays."""
        start, stop = int(self.indptr[i]), int(self.indptr[i + 1])
        view = {"senders": self.senders[start:stop]}
        for name, column in self.columns.items():
            view[name] = column[start:stop]
        for name, pool in self.var_pools.items():
            indptr = self.var_indptr[name]
            view[name] = [
                pool[int(indptr[k]):int(indptr[k + 1])]
                for k in range(start, stop)
            ]
        return view

    def var(self, name: str) -> tuple:
        """Var field ``name`` as ``(pool, per-message indptr)`` — message
        ``k``'s sequence is ``pool[indptr[k]:indptr[k+1]]``."""
        return self.var_pools[name], self.var_indptr[name]

    def gather_var(self, name: str, where=None) -> tuple:
        """Per-vertex concatenation of the received var sequences.

        Returns ``(pool, vertex_indptr)``: vertex ``i``'s received
        values, concatenated in message (emission) order, are
        ``pool[vertex_indptr[i]:vertex_indptr[i+1]]``.  With no mask
        this is **zero-copy** — messages are already receiver-sorted, so
        the vertex boundaries are just the message-level offset index
        sampled at each vertex's message boundaries.  ``where`` is an
        optional per-message bool mask; masked-out messages contribute
        no values (this path gathers).

        >>> inbox = ColumnarInbox(
        ...     2,
        ...     np.array([1], dtype=np.int64),      # one message, to 0
        ...     np.array([0, 1, 1], dtype=np.int64),
        ...     {},
        ...     {"ids": np.array([4, 5], dtype=np.int64)},
        ...     {"ids": np.array([0, 2], dtype=np.int64)},
        ... )
        >>> pool, vertex_indptr = inbox.gather_var("ids")
        >>> pool.tolist(), vertex_indptr.tolist()
        ([4, 5], [0, 2, 2])
        """
        pool = self.var_pools[name]
        indptr = self.var_indptr[name]
        if where is None:
            return pool, indptr[self.indptr]
        where = np.asarray(where, dtype=bool)
        lengths = np.where(where, indptr[1:] - indptr[:-1], 0)
        keep = np.flatnonzero(where)
        selected = _ragged_gather(pool, indptr[:-1][keep], lengths[keep])
        # The kept values' running count, sampled at vertex boundaries.
        return selected, _cumsum0(lengths)[self.indptr]

    def reduce(self, op, values=None, where=None, empty=None):
        """One segmented reduction over every vertex's inbox at once.

        Parameters
        ----------
        op:
            ``"min" | "max" | "sum" | "argmin" | "argmax" | "any" |
            "count"``.
        values:
            A field name, or a per-message array (e.g. a derived
            combined key).  Unused for ``"count"``.
        where:
            Optional per-message bool mask, one flag per message (any
            other length raises :class:`ValueError`); masked-out
            messages are invisible to the reduction.
        empty:
            Value for vertices with no (selected) messages.  Defaults:
            ``sum`` → 0, ``any`` → False, ``min`` → int64 max,
            ``max`` → int64 min, ``argmin``/``argmax`` → -1.

        ``argmin``/``argmax`` return *message indices into this inbox*
        (usable to index ``senders`` or any column), -1 where empty;
        ties break toward the earliest emitted message.

        ``sum`` is exact or fails closed: values reduce as int64, and
        if some segment's exact sum leaves the int64 range the call
        raises :class:`OverflowError` instead of wrapping around.
        ``sum``, ``min`` and ``max`` likewise raise on a (selected)
        uint64 value above int64 max, which int64 cannot hold;
        ``argmin``/``argmax`` compare uint64 values as they are.

        >>> inbox = ColumnarInbox(
        ...     2,
        ...     np.array([1, 1], dtype=np.int64),   # vertex 0 got 2 msgs
        ...     np.array([0, 2, 2], dtype=np.int64),
        ...     {"value": np.array([5, 3], dtype=np.int32)},
        ... )
        >>> inbox.reduce("min", "value", empty=-1).tolist()
        [3, -1]
        >>> inbox.reduce("count").tolist()
        [2, 0]
        """
        indptr = self.indptr
        if where is not None:
            where = np.asarray(where, dtype=bool)
            if where.shape != (len(self),):
                raise ValueError(
                    f"where has shape {where.shape}, expected one flag "
                    f"per message ({len(self)},)"
                )
            if where.all():
                # Selecting every message is no mask.
                where = None
        if op == "count":
            if where is not None:
                indptr = _cumsum0(where)[indptr]
            return indptr[1:] - indptr[:-1]
        if isinstance(values, str):
            values = self.columns[values]
        values = np.asarray(values)
        if op in ("argmin", "argmax"):
            return self._arg_reduce(op, values, where,
                                    -1 if empty is None else empty)
        if op not in _IDENTITY:
            raise ValueError(f"unknown reduction {op!r}")
        identity = _IDENTITY[op]
        if op == "any":
            values = values.astype(bool, copy=False)
            if where is not None:
                values = values & where
        else:
            if values.dtype == np.uint64:
                # The int64 cast would wrap these negative: fail closed.
                read = values if where is None else values[where]
                if read.size and int(read.max()) > _INT64_MAX:
                    raise OverflowError("a uint64 value exceeds int64 max")
            if values.dtype != np.int64:
                values = values.astype(np.int64)
            if where is not None:
                # Masked-out messages read as the op's identity.
                values = np.where(where, values, identity)
        if op == "sum":
            _check_sums_fit(values, indptr)
        fill = identity if empty is None else empty
        out = _segment_reduce(
            values, indptr, _UFUNCS[op], fill,
            np.bool_ if op == "any" else None,
        )
        if where is not None and fill != identity:
            # Segments whose messages are all masked out read as
            # ``empty``, not as the identity.
            out[~_segment_reduce(where, indptr, np.logical_or, False)] = fill
        return out

    def _arg_reduce(self, op, values, where, empty):
        """``argmin``/``argmax`` by first hit: each segment's extreme,
        then the earliest message per segment that attains it."""
        n = self.n
        indptr = self.indptr
        original = None
        if where is not None:
            original = np.flatnonzero(where)
            values = values[original]
            indptr = _cumsum0(where)[indptr]
        # Integers (uint64 included) and bools compare as they are;
        # anything else is compared as the int64 it would be cast to.
        if values.dtype.kind not in "biu":
            values = values.astype(np.int64)
        out = np.full(n, empty, dtype=np.int64)
        counts = indptr[1:] - indptr[:-1]
        nonempty = counts > 0
        if not nonempty.any():
            return out
        starts = indptr[:-1][nonempty]
        ufunc = np.minimum if op == "argmin" else np.maximum
        extreme = ufunc.reduceat(values, starts)
        hits = np.flatnonzero(values == np.repeat(extreme, counts[nonempty]))
        # Every non-empty segment attains its extreme, so its first hit
        # is the first hit at or after its start.
        first = hits[np.searchsorted(hits, starts)]
        out[nonempty] = first if original is None else original[first]
        return out


class ColumnarContext:
    """The whole-graph view handed to a :class:`ColumnarAlgorithm`.

    Attributes
    ----------
    n, vertices:
        Vertex count and the dense-index → vertex-id table (``graph.nodes``
        order, like the object plane's output keying).
    indptr, indices, degrees:
        The compiled CSR adjacency (``int64``); ``degrees`` is the numpy
        degree table.
    repr_rank:
        Per dense index, the vertex's rank in ``sorted(vertices, key=repr)``
        — the vectorized stand-in for the object plane's
        ``repr``-comparison tie-breaks (identical outcomes whenever vertex
        reprs are distinct, which holds for every graph in this
        repository).
    inputs:
        Per-vertex inputs aligned to dense indices (``None`` where absent).
    rng:
        The run's draw state (:mod:`repro.congest.runtime.rng`): an
        :class:`~repro.congest.runtime.rng.ExactRng` over the inputs by
        default (byte-identical per-vertex ``random.Random`` streams),
        or the vectorized Philox state when the run opted into
        ``rng="vectorized"``.  Algorithms branch on ``ctx.rng.vectorized``.
    round_number, inbox, halted:
        Current round (1-based), this round's :class:`ColumnarInbox`, and
        the halt mask (read it freely; mutate only via :meth:`halt`).

    >>> import networkx as nx
    >>> from repro.congest.runtime.compile import compile_topology
    >>> topology = compile_topology(nx.path_graph(3))
    >>> ctx = ColumnarContext(
    ...     topology, topology.columnar_plane(),
    ...     ColumnarSpec(("level", np.int64)), [None] * 3)
    >>> ctx.index_of(2)
    2
    >>> ctx.halt(np.array([0, 2]))
    >>> ctx.halted.tolist()
    [True, False, True]
    """

    __slots__ = (
        "n", "vertices", "indptr", "indices", "degrees", "repr_rank",
        "inputs", "rng", "round_number", "inbox", "halted",
        "_index_of", "_index_dtype", "_plane", "_spec", "_emissions",
        "_halted_count",
    )

    def __init__(self, topology, plane, spec, inputs_list, rng=None) -> None:
        self.n = topology.n
        self.vertices = topology.vertices
        self.indptr = topology.indptr
        self.indices = topology.indices
        self._index_dtype = topology.indices.dtype
        self.degrees = plane.degrees
        self.repr_rank = plane.repr_rank
        self.inputs = inputs_list
        self.rng = ExactRng(inputs_list) if rng is None else rng
        self.round_number = 0
        self.inbox = ColumnarInbox.empty(topology.n, spec)
        self.halted = np.zeros(topology.n, dtype=bool)
        self._index_of = topology.index_of
        self._plane = plane
        self._spec = spec
        self._emissions: list = []
        self._halted_count = 0

    def index_of(self, vertex: Any) -> int:
        """Dense index of a vertex id."""
        return self._index_of[vertex]

    def halt(self, which) -> None:
        """Halt vertices (bool mask over ``n``, or dense indices).  The
        run ends when every vertex has halted.  Transitions are one-way."""
        which = np.asarray(which)
        if which.dtype == np.bool_:
            self.halted |= which
        else:
            self.halted[which] = True
        self._halted_count = int(np.count_nonzero(self.halted))

    def reduce_neighbors(self, op, values=None, where=None, empty=None):
        """Segmented reduction over this round's inbox — see
        :meth:`ColumnarInbox.reduce`."""
        return self.inbox.reduce(op, values, where=where, empty=empty)

    def gather_var(self, name, where=None):
        """Per-vertex concatenation of this round's received var-field
        sequences — see :meth:`ColumnarInbox.gather_var`."""
        return self.inbox.gather_var(name, where=where)

    # -- emission ------------------------------------------------------------
    def emit_columns(self, senders, receivers=None, **fields) -> None:
        """Queue this round's outgoing messages as columns.

        ``senders`` is a bool mask over all vertices or an array of dense
        indices.  With ``receivers=None`` every sender broadcasts one
        message to each of its neighbours (field values are per *sender*
        and fan out over the CSR segment); with ``receivers`` given (an
        array aligned with ``senders``) each (sender, receiver) pair is
        one unicast message and field values are per *message*.  Fields
        must match the algorithm's :class:`ColumnarSpec` exactly; values
        are range-checked against the declared dtypes here — silent
        overflow truncation is rejected at emit time.  Specs with
        variable-width fields must emit through :meth:`emit_var`.

        >>> import networkx as nx
        >>> from repro.congest.runtime.compile import compile_topology
        >>> topology = compile_topology(nx.path_graph(3))
        >>> ctx = ColumnarContext(
        ...     topology, topology.columnar_plane(),
        ...     ColumnarSpec(("level", np.int64)), [None] * 3)
        >>> ctx.emit_columns(np.array([1]), level=7)  # 1 broadcasts 7
        >>> len(ctx._emissions)
        1
        """
        if self._spec.var_names:
            raise ValueError(
                "spec declares variable-width fields "
                f"{list(self._spec.var_names)}; emit with ctx.emit_var"
            )
        self._emit(senders, receivers, fields)

    def emit_var(self, senders, receivers=None, **fields) -> None:
        """Queue outgoing messages carrying variable-width fields.

        Same sender/receiver semantics as :meth:`emit_columns`.  Each
        var field's value is either ``(pool, lengths)`` — a 2-tuple of
        *numpy arrays*: a flat int64 value pool plus one sequence length
        per sender/message — or a plain list of per-row sequences
        (converted to that form; a tuple of non-array sequences counts
        as per-row sequences, not as a pool).  On a
        broadcast, a sender's sequence fans out to each of its
        neighbours; fixed fields, if the spec declares any, are passed
        alongside exactly as in :meth:`emit_columns`.

        >>> import networkx as nx
        >>> from repro.congest.runtime.compile import compile_topology
        >>> topology = compile_topology(nx.path_graph(3))
        >>> ctx = ColumnarContext(
        ...     topology, topology.columnar_plane(),
        ...     ColumnarSpec(VarColumn("tokens")), [None] * 3)
        >>> ctx.emit_var(  # vertex 1 unicasts (9, 9) to 0 and () to 2
        ...     np.array([1, 1]), np.array([0, 2]), tokens=[[9, 9], []])
        >>> len(ctx._emissions)
        1
        """
        self._emit(senders, receivers, fields)

    def _emit(self, senders, receivers, fields) -> None:
        spec = self._spec
        senders = np.asarray(senders)
        if senders.dtype == np.bool_:
            if senders.shape != (self.n,):
                raise ValueError(
                    "boolean sender mask must cover all vertices"
                )
            senders = np.flatnonzero(senders)
        else:
            senders = senders.astype(np.int64, copy=False)
            if senders.size and (
                int(senders.min()) < 0 or int(senders.max()) >= self.n
            ):
                raise ValueError("sender index out of range")
        # Dtype propagation: emission index columns adopt the topology's
        # (possibly int32-narrowed) index dtype, so inboxes, receiver
        # sorts, and segmented reductions downstream stay narrow instead
        # of silently upcasting.  Validation above ran in int64, so the
        # cast is range-safe.
        senders = senders.astype(self._index_dtype, copy=False)
        if senders.size and bool(self.halted[senders].any()):
            raise ValueError("columnar emission from a halted vertex")
        if receivers is not None:
            receivers = np.asarray(receivers).astype(np.int64, copy=False)
            if receivers.shape != senders.shape:
                raise ValueError(
                    "receivers must align one-to-one with senders"
                )
            if receivers.size and (
                int(receivers.min()) < 0 or int(receivers.max()) >= self.n
            ):
                raise ValueError("receiver index out of range")
            receivers = receivers.astype(self._index_dtype, copy=False)
        declared = set(spec.names) | set(spec.var_names)
        unknown = set(fields) - declared
        missing = declared - set(fields)
        if unknown or missing:
            raise ValueError(
                f"emission fields {sorted(fields)} do not match spec "
                f"fields {sorted(declared)}"
            )
        count = len(senders)
        if count == 0:
            return
        columns = {}
        for name in spec.names:
            value = np.asarray(fields[name])
            if value.dtype.kind not in "iub":
                raise TypeError(
                    f"columnar field {name!r}: values must be integers or "
                    f"bools, got dtype {value.dtype}"
                )
            value = value.astype(np.int64, copy=False)
            if value.ndim == 0:
                value = np.full(count, int(value), dtype=np.int64)
            elif len(value) != count:
                raise ValueError(
                    f"columnar field {name!r}: expected {count} values, "
                    f"got {len(value)}"
                )
            spec.check_range(name, value)
            columns[name] = value
        var_data = {}
        for name in spec.var_names:
            value = fields[name]
            # The (pool, lengths) fast-path form must be a pair of numpy
            # arrays: a 2-tuple of plain sequences is two per-row
            # sequences (a coincidentally balanced one would otherwise
            # be silently misread as pool form).
            if (
                isinstance(value, tuple) and len(value) == 2
                and isinstance(value[0], np.ndarray)
                and isinstance(value[1], np.ndarray)
            ):
                pool, lengths = value
            else:
                rows = [np.asarray(row, dtype=np.int64).ravel()
                        for row in value]
                lengths = np.array([len(row) for row in rows],
                                   dtype=np.int64)
                pool = (np.concatenate(rows) if rows
                        else np.empty(0, dtype=np.int64))
            pool = np.asarray(pool)
            if pool.dtype.kind not in "iub":
                raise TypeError(
                    f"columnar var field {name!r}: values must be "
                    f"integers or bools, got dtype {pool.dtype}"
                )
            pool = pool.astype(np.int64, copy=False).ravel()
            lengths = np.asarray(lengths).astype(np.int64, copy=False)
            if len(lengths) != count:
                raise ValueError(
                    f"columnar var field {name!r}: expected {count} "
                    f"sequence lengths, got {len(lengths)}"
                )
            if lengths.size and int(lengths.min()) < 0:
                raise ValueError(
                    f"columnar var field {name!r}: negative sequence "
                    f"length"
                )
            if int(lengths.sum()) != len(pool):
                raise ValueError(
                    f"columnar var field {name!r}: pool holds "
                    f"{len(pool)} values but lengths sum to "
                    f"{int(lengths.sum())}"
                )
            var_data[name] = (pool, lengths)
        # An emission group is a (message, ranks) pair.  Fresh sends carry
        # no ranks: delivery validates them by search.
        self._emissions.append(
            ((senders, receivers, columns, var_data), None)
        )


# ---------------------------------------------------------------------------
# Results: decode rules and the read-only vertex view
# ---------------------------------------------------------------------------
class DecodeRule:
    """How a columnar program's per-row state decodes to Python outputs.

    :meth:`rows` is the only decoder: a bulk read decodes every row in
    one call and a per-key read decodes its one row through the same
    call, so the two cannot differ in value or type.  :meth:`slice`
    restricts a rule to a contiguous row range (one grid trial's block)
    whose row references then resolve against that block's labels.
    """

    __slots__ = ()

    def rows(self, start: int, stop: int) -> list:
        """Decode rows ``[start, stop)`` into a list of Python values."""
        raise NotImplementedError

    def slice(self, start: int, stop: int, labels) -> "DecodeRule":
        """This rule over rows ``[start, stop)`` only, labelled ``labels``."""
        raise NotImplementedError


def _none_where(out: list, absent: np.ndarray) -> list:
    """``out`` with ``None`` at every row ``absent`` marks."""
    for i in np.flatnonzero(absent).tolist():
        out[i] = None
    return out


class PlainValues(DecodeRule):
    """Flags and plain values: ``values.tolist()``."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def rows(self, start: int, stop: int) -> list:
        return self.values[start:stop].tolist()

    def slice(self, start: int, stop: int, labels) -> "PlainValues":
        return PlainValues(self.values[start:stop])


class OptionalValues(DecodeRule):
    """Optional values: ``None`` where a row holds none.

    Without ``present`` a negative value means ``None`` (a flooded
    value, a colour); with it, the bool mask marks the rows that hold a
    value (a convergecast total may be any integer).
    """

    __slots__ = ("values", "present")

    def __init__(self, values: np.ndarray,
                 present: np.ndarray | None = None) -> None:
        self.values = values
        self.present = present

    def rows(self, start: int, stop: int) -> list:
        values = self.values[start:stop]
        absent = (
            values < 0 if self.present is None
            else ~self.present[start:stop]
        )
        return _none_where(values.tolist(), absent)

    def slice(self, start: int, stop: int, labels) -> "OptionalValues":
        return OptionalValues(
            self.values[start:stop],
            None if self.present is None else self.present[start:stop],
        )


class TreePairs(DecodeRule):
    """BFS tree entries: ``(label of parent, depth)``, ``None`` where
    ``depth < 0``.  ``parent`` holds rows; row ``r`` is labelled
    ``labels[r - base]``."""

    __slots__ = ("parent", "depth", "labels", "base")

    def __init__(self, parent: np.ndarray, depth: np.ndarray, labels,
                 base: int = 0) -> None:
        self.parent = parent
        self.depth = depth
        self.labels = labels
        self.base = base

    def rows(self, start: int, stop: int) -> list:
        depth = self.depth[start:stop]
        absent = depth < 0
        # Unreached rows hold parent -1: point them at row 0 of the
        # labels, which always exists, and overwrite them below.
        parents = np.where(
            absent, 0, self.parent[start:stop] - self.base
        ).tolist()
        labels = self.labels
        if not (isinstance(labels, range) and labels.start == 0
                and labels.step == 1):
            parents = [labels[row] for row in parents]
        return _none_where(list(zip(parents, depth.tolist())), absent)

    def slice(self, start: int, stop: int, labels) -> "TreePairs":
        return TreePairs(
            self.parent[start:stop], self.depth[start:stop], labels,
            self.base + start,
        )


class ListedValues(DecodeRule):
    """Outputs that are not flat arrays (tables, token tuples): the
    algorithm's Python list, handed over as it is."""

    __slots__ = ("values",)

    def __init__(self, values: list) -> None:
        self.values = values

    def rows(self, start: int, stop: int) -> list:
        return self.values[start:stop]

    def slice(self, start: int, stop: int, labels) -> "ListedValues":
        return ListedValues(self.values[start:stop])


class _DecodedValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._decoded())

    def __contains__(self, value) -> bool:
        return value in self._mapping._decoded()


class _DecodedItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        view = self._mapping
        return zip(view._labels, view._decoded())


class VertexView(Mapping):
    """The read-only per-vertex outputs of a columnar run.

    Keys are the vertex labels in ``graph.nodes`` order.  Values decode
    from the program's state arrays through one :class:`DecodeRule`:
    ``values()``, ``items()`` and ``==`` decode every row in one pass;
    ``view[v]`` maps ``v`` to its row through the topology's
    ``index_of`` and decodes that row alone.  The view keeps nothing it
    decodes, so a second bulk read decodes again: a caller that reads
    the values twice keeps its own ``dict(view.items())``.  The view
    compares equal to the dict the reference executors return, in both
    directions, and every value is a Python object, never a numpy
    scalar.

    >>> view = VertexView(["b", "a"], {"b": 0, "a": 1},
    ...                   OptionalValues(np.array([7, -1])))
    >>> view["b"], view["a"]
    (7, None)
    >>> view == {"a": None, "b": 7}, {"a": None, "b": 7} == view
    (True, True)
    >>> list(view.items())
    [('b', 7), ('a', None)]
    >>> tree = VertexView(["b", "a"], {"b": 0, "a": 1}, TreePairs(
    ...     np.array([0, 0]), np.array([0, 1]), ["b", "a"]))
    >>> tree["a"]
    ('b', 1)
    """

    __slots__ = ("_labels", "_index", "_rule")

    def __init__(self, labels, index, rule: DecodeRule) -> None:
        if not isinstance(rule, DecodeRule):
            raise TypeError(
                f"columnar outputs must be a DecodeRule, got "
                f"{type(rule).__name__}"
            )
        self._labels = labels
        self._index = index
        self._rule = rule

    def _decoded(self) -> list:
        return self._rule.rows(0, len(self._labels))

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, vertex) -> bool:
        return vertex in self._index

    def __getitem__(self, vertex):
        row = self._index[vertex]
        return self._rule.rows(row, row + 1)[0]

    def values(self) -> ValuesView:
        return _DecodedValues(self)

    def items(self) -> ItemsView:
        return _DecodedItems(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != len(self):
            return False
        if not isinstance(other, dict):
            other = dict(other.items())
        return dict(self.items()) == other

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"

    def __reduce__(self):
        # The labels, index and rule rebuild the view; nothing decoded
        # travels.
        return type(self), (self._labels, self._index, self._rule)


class ColumnarAlgorithm:
    """Base class for round-vectorized algorithms on the columnar plane.

    Subclasses set ``spec`` (a :class:`ColumnarSpec`) and implement:

    * :meth:`setup` — allocate per-vertex state arrays on ``self``;
    * :meth:`on_round` — one call per round for the *whole graph*:
      consume ``ctx.inbox`` (via :meth:`ColumnarContext.reduce_neighbors`),
      update state, emit via :meth:`ColumnarContext.emit_columns`, and
      :meth:`ColumnarContext.halt` finished vertices;
    * :meth:`outputs` — the per-vertex outputs, as a :class:`DecodeRule`
      over the state arrays (rows aligned to dense indices).  The
      executors wrap it, undecoded, in a :class:`VertexView`.

    Like the object plane, configured subclasses override :meth:`spawn`
    so each run gets a fresh instance.  ``Network.run`` resolves the
    plane through the runtime plane table via :attr:`plane_kind`, so a
    columnar algorithm drops into every existing harness (``run_many``
    sweeps, the CLI, benchmarks) unchanged.

    Plane capabilities
    ------------------
    ``plane_kind = "columnar"`` is what the runtime plane table
    (:mod:`repro.congest.runtime.planes`) keys on — no ``isinstance``
    dispatch anywhere.  ``grid_safe`` opts a subclass into **trial-major
    grid batching** (:mod:`repro.congest.runtime.batch`): the whole
    program then also runs as one block-diagonal ``(T·n)``-row grid over
    T independent trials.  A subclass is grid-safe when its ``setup`` /
    ``on_round`` / ``outputs`` touch vertices only through the context's
    arrays (``ctx.inputs``, ``ctx.degrees``, ``ctx.repr_rank``, masks
    over ``ctx.n``, fancy-indexable ``ctx.index_of`` results) — i.e. it
    never assumes a vertex id resolves to exactly one dense row — AND
    every emission is gated on ``~ctx.halted`` (e.g. via a
    ``stepped = ~ctx.halted`` mask, as all ports here do), never on a
    private liveness mask alone.  ``rng_modes`` declares which draw
    disciplines the subclass implements: every algorithm supports the
    byte-identity default ``"exact"``; randomized ports that also read
    vectorized Philox columns (via ``ctx.rng.randrange_rows`` /
    ``ctx.rng.uniform_rows``) add ``"vectorized"`` — see
    :mod:`repro.congest.runtime.rng`.  The second condition is what lets the
    grid executor *freeze* a trial that exceeded its per-trial round cap
    by halting its rows: an algorithm that keeps emitting from
    externally-halted rows would raise the halted-sender error instead
    of the serial run's round-cap error.  It is *not* grid-safe when
    per-vertex inputs embed vertex ids that are resolved row-by-row
    (see ``ColumnarConvergecastSum``).
    """

    spec: ColumnarSpec
    plane_kind = "columnar"
    grid_safe = False
    rng_modes = ("exact",)

    def spawn(self) -> "ColumnarAlgorithm":
        return type(self)()

    def setup(self, ctx: ColumnarContext) -> None:
        """Allocate state.  Called once, before round 1."""

    def on_round(self, ctx: ColumnarContext) -> None:
        raise NotImplementedError

    def outputs(self, ctx: ColumnarContext) -> DecodeRule:
        """The per-vertex outputs as state arrays plus a decode rule:
        :class:`PlainValues` (flags, plain values), :class:`OptionalValues`
        (``None`` where a row holds no value), :class:`TreePairs`
        (``(parent label, depth)``), or :class:`ListedValues` for a
        Python list of outputs that are not flat arrays.  Called once,
        after the last round; nothing is decoded until the result is
        read."""
        return ListedValues([None] * ctx.n)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------
#: Fan-out, as a share of the directed edge count E, from which a
#: broadcast round is pulled (:func:`_deliver_pulled`) instead of
#: sorted.  Pulling costs O(E) whatever the frontier; sorting costs
#: O(fan-out).  On the 10^6-node power-law CSR of ``stream-scale``
#: (E ≈ 8·10^6, shared 2-vCPU x86-64 VM, median of seven rounds), a
#: ``(kind, value)`` broadcast from random ascending senders, ``kind``
#: constant and ``value`` random, sorted/pulled in 966/226 ms at full
#: fan-out, 232/183 ms at 30 %, 193–200/168–172 ms at 26 %,
#: 159–168/175–187 ms at 24 %, 123–138/152–174 ms at 20 % and
#: 63/128 ms at 10 %: they cross near 25 %.  A one-column constant
#: broadcast (a BFS depth) crosses near 28 % (188/173 ms at 30 %,
#: 124/148 ms at 24 %).
PULL_MIN_FANOUT = 1 / 4


def _deliver_pulled(topology, plane, spec, group, limit, acc):
    """Assemble a dense broadcast round's inbox without a receiver sort,
    or return ``None`` when the round does not qualify.

    A round qualifies when its single emission group is a fixed-width
    broadcast from strictly ascending senders, within the bandwidth cap,
    whose fan-out is at least :data:`PULL_MIN_FANOUT` of the directed
    edges.  Then receiver ``r``'s messages are exactly its sending
    neighbours in ascending index — the order the stable receiver sort
    would produce — so the inbox is read straight off the index-sorted
    adjacency (``plane.by_index``): mask the sending neighbours, count
    them per row, gather each column through a per-vertex table.  A
    column whose senders all carry one value (a flood's value, a BFS
    depth, an MIS message kind) is filled instead, found by one min/max
    over the senders' values.  The round is counted per sender, each
    sender's degree its copy count.
    """
    (senders, receivers, columns, _var_data), _ranks = group
    if receivers is not None or spec.var_names:
        return None
    degrees = plane.degrees[senders]
    fanout = int(degrees.sum())
    if fanout == 0 or fanout < PULL_MIN_FANOUT * len(topology.indices):
        return None
    if len(senders) > 1 and not bool((senders[1:] > senders[:-1]).all()):
        return None
    bits = spec.bits_of(columns, None)
    cap = limit if isinstance(limit, int) else limit[senders]
    if bool((bits > cap).any()):
        return None  # the sort path raises after partial accounting
    n = topology.n
    is_sender = np.zeros(n, dtype=bool)
    is_sender[senders] = True
    by_index = plane.by_index
    sending = is_sender[by_index]
    inbox_senders = by_index[sending]
    # Running count of sending neighbours, in the index dtype: int32
    # exactly when E fits, and half the memory traffic of int64.
    kept = _cumsum0(sending, by_index.dtype)
    inbox_indptr = kept[topology.indptr].astype(np.int64)

    def pull(values, dtype):
        if values.min() == values.max():  # one value: fill, not gather
            return np.full(len(inbox_senders), values[0], dtype=dtype)
        by_vertex = np.zeros(n, dtype=dtype)
        by_vertex[senders] = values
        return by_vertex[inbox_senders]

    acc.add(senders, bits, degrees)
    inbox_columns = {
        name: pull(columns[name], dtype) for name, dtype in spec.fields
    }
    return ColumnarInbox(n, inbox_senders, inbox_indptr, inbox_columns)


def _deliver_fast(topology, plane, spec, groups, limit, bandwidth_bits, acc,
                  fault_state=None, round_number=0):
    """Validate, account, and deliver one round's emissions — pure array
    ops, zero per-message Python objects.

    ``acc`` is an accountant (``add(senders, bits, copies=None)`` — e.g.
    :class:`~repro.congest.metrics.ScalarAccountant`, or the per-trial
    grid accountant).  ``limit``/``bandwidth_bits`` are scalars for a
    single run, or per-*vertex* int64 tables for grid execution (each
    trial block carries its own budget).

    Dense fault-free broadcast rounds are pulled
    (:func:`_deliver_pulled`).  Every other round runs the delivery
    phases of :mod:`repro.congest.runtime.compile` over its message
    tuples: unicast groups are checked against the sorted edge keys,
    each batch is counted by validated-prefix accounting
    (``_account_prefix``: on a validation failure the messages before
    the offending one are counted, as in the reference executor, before
    the raise; a broadcast group is counted per sender, with its
    degrees as copy counts), broadcast groups fan out over the CSR
    (``_fan_out``), the batches are concatenated (``_concat_ranked``),
    and the inbox is receiver-sorted (``_assemble_sorted``).
    ``fault_state``
    optionally detours the batches through
    :meth:`~repro.congest.runtime.faults.FaultState.columnar_step`
    (drop/dup/delay as mask/repeat/delay-bucket array ops, merged with
    matured delayed batches) before the sort — sent messages are
    counted, delivery is what the adversary permits.

    ``groups`` are ``(message, ranks)`` pairs: ``ranks`` is ``None`` for
    a fresh emission and the edge ranks a reliability wrapper already
    holds for its retransmissions and acks.  Every batch goes
    with its edge ranks: a unicast batch with the ranks its validation
    found or confirmed (:meth:`DeliveryPlane.ranks
    <repro.congest.runtime.compile.DeliveryPlane.ranks>`: a group's own
    ranks are confirmed by one gather and compare, a group without them
    or with any wrong one is searched), a fan-out batch — only when a
    fault state reads them —
    with its copies' ranks gathered from :attr:`DeliveryPlane.slot_ranks
    <repro.congest.runtime.compile.DeliveryPlane.slot_ranks>`.  The
    ranks ride through the fate pass and the receiver sort into the
    inbox (:meth:`ColumnarInbox.edge_ranks`); a fault-free round with a
    broadcast batch carries none.
    """
    if fault_state is None and len(groups) == 1:
        inbox = _deliver_pulled(topology, plane, spec, groups[0], limit, acc)
        if inbox is not None:
            return inbox
    n = topology.n
    parts = []
    for message, hint in groups:
        senders, receivers, columns, var_data = message
        var_offsets = (
            {
                name: (pool, _cumsum0(lengths))
                for name, (pool, lengths) in var_data.items()
            }
            if spec.var_names else None
        )
        if receivers is None:
            deg = plane.degrees[senders]
            if not deg.any():
                continue
            # All of a sender's copies share one size: size and count
            # them per sender, then fan out.
            _account_prefix(acc, topology, message,
                            spec.bits_of(columns, var_offsets), limit,
                            bandwidth_bits, copies=deg)
            parts.append(_fan_out(
                topology.indptr, topology.indices, deg, message,
                None if fault_state is None else plane.slot_ranks,
            ))
        else:
            bits = spec.bits_of(columns, var_offsets)
            # One gather confirms the ranks a group carries, or one binary
            # search validates its pairs; validated, they are its ranks.
            ranks, adjacent = plane.ranks(senders, receivers, hint)
            _account_prefix(acc, topology, message, bits, limit,
                            bandwidth_bits, adjacent)
            parts.append((message, ranks))
    if fault_state is None:
        if not parts:
            return ColumnarInbox.empty(n, spec)
        message, ranks = _concat_ranked(parts)
    else:
        if not parts:
            # No fresh emissions this round, but a fault plan may still
            # owe matured delayed copies: feed an empty batch through the
            # fate pass instead of early-returning an empty inbox.
            empty = np.empty(0, dtype=np.int64)
            parts.append(((
                empty, empty, dict.fromkeys(spec.names, empty),
                dict.fromkeys(spec.var_names, (empty, empty)),
            ), empty))
        message, ranks = fault_state.columnar_step(round_number, parts)
        if not len(message[0]):
            return ColumnarInbox.empty(n, spec)
    return ColumnarInbox(n, *_assemble_sorted(n, message, spec.fields, ranks))


def _deliver_reference(topology, spec, groups, limit, bandwidth_bits,
                       metrics, fault_state=None, round_number=0):
    """The dict plane for columnar programs: every emission expanded to a
    per-message :class:`Message` (payload = field tuple / bare value),
    validated, sized via ``bits_for_payload``, and counted one message at
    a time — the executable spec the fast path is tested against.

    With a ``fault_state``, validated messages detour through
    :meth:`~repro.congest.runtime.faults.FaultState.object_round` (same
    per-message fate decisions as the fast path's ``columnar_step``)
    before bucketing, so the reference plane reproduces the fast plane's
    faulty deliveries message for message."""
    from repro.congest.network import BandwidthExceededError

    n = topology.n
    names = spec.names
    var_names = spec.var_names
    vertices = topology.vertices
    neighbors = topology.neighbor_index_tuples
    buckets: list = [None] * n
    fresh: list | None = [] if fault_state is not None else None
    for (senders, receivers, columns, var_data), _ranks in groups:
        sender_list = senders.tolist()
        value_lists = [columns[name].tolist() for name in names]
        var_lists = {}
        for name in var_names:
            pool, lengths = var_data[name]
            values = pool.tolist()
            offsets = _cumsum0(lengths).tolist()
            var_lists[name] = [
                tuple(values[offsets[k]:offsets[k + 1]])
                for k in range(len(lengths))
            ]
        receiver_list = None if receivers is None else receivers.tolist()
        for k, s in enumerate(sender_list):
            row = tuple(values[k] for values in value_lists)
            var_row = {name: var_lists[name][k] for name in var_names}
            message = Message(spec.payload_of(row, var_row))
            targets = (
                neighbors[s] if receiver_list is None
                else (receiver_list[k],)
            )
            for r in targets:
                if receiver_list is not None and r not in neighbors[s]:
                    raise ValueError(
                        f"node {vertices[s]!r} sent to non-neighbor "
                        f"{vertices[r]!r}"
                    )
                bits = message.bit_size
                if bits > limit:
                    raise BandwidthExceededError(
                        f"message of {bits} bits from {vertices[s]!r} to "
                        f"{vertices[r]!r} exceeds CONGEST bandwidth "
                        f"{bandwidth_bits} bits"
                    )
                metrics.record_message(bits)
                metrics.record_edge_load(bits)
                if fresh is not None:
                    fresh.append((s, r, (row, var_row)))
                    continue
                bucket = buckets[r]
                if bucket is None:
                    bucket = buckets[r] = []
                bucket.append((s, row, var_row))
    if fault_state is not None:
        for s, r, payload in fault_state.object_round(round_number, fresh):
            row, var_row = payload
            bucket = buckets[r]
            if bucket is None:
                bucket = buckets[r] = []
            bucket.append((s, row, var_row))
    sender_out: list = []
    value_out: list = [[] for _ in names]
    var_out: dict = {name: ([], [0]) for name in var_names}
    inbox_indptr = np.empty(n + 1, dtype=np.int64)
    inbox_indptr[0] = 0
    for r in range(n):
        bucket = buckets[r]
        if bucket:
            for s, row, var_row in bucket:
                sender_out.append(s)
                for j, value in enumerate(row):
                    value_out[j].append(value)
                for name in var_names:
                    pool, offsets = var_out[name]
                    pool.extend(var_row[name])
                    offsets.append(len(pool))
        inbox_indptr[r + 1] = len(sender_out)
    inbox_columns = {
        name: np.array(value_out[j], dtype=spec.dtypes[j])
        for j, name in enumerate(names)
    }
    var_pools = {
        name: np.array(var_out[name][0], dtype=np.int64)
        for name in var_names
    }
    var_indptrs = {
        name: np.array(var_out[name][1], dtype=np.int64)
        for name in var_names
    }
    return ColumnarInbox(
        n, np.array(sender_out, dtype=np.int64), inbox_indptr, inbox_columns,
        var_pools, var_indptrs,
    )


def _columnar_spec(algorithm) -> ColumnarSpec:
    """The algorithm's :class:`ColumnarSpec`; a ``TypeError`` when it
    declares none (checked by every columnar executor before it runs)."""
    spec = getattr(algorithm, "spec", None)
    if not isinstance(spec, ColumnarSpec):
        raise TypeError(
            f"{type(algorithm).__name__}.spec must be a ColumnarSpec"
        )
    return spec


def execute_columnar(
    topology,
    algorithm: ColumnarAlgorithm,
    *,
    model: str,
    bandwidth_bits: int,
    metrics,
    max_rounds: int = 10_000,
    inputs: Mapping[Any, Any] | None = None,
    reference: bool = False,
    faults=None,
    rng=None,
) -> VertexView:
    """Run a :class:`ColumnarAlgorithm` over a compiled topology.

    Same observable contract as the object-plane executor: outputs keyed
    in ``graph.nodes`` order, ``NetworkMetrics`` counters identical to
    sending the equivalent ``Message`` objects, the same exception types
    and texts on non-neighbour sends / bandwidth violations /
    ``max_rounds`` exhaustion.  ``reference=True`` selects the
    per-message dict plane (see :func:`_deliver_reference`).

    The outputs come back as a read-only :class:`VertexView` over the
    program's final state arrays, not a dict: nothing is decoded inside
    the run.  The view equals the dict the object plane returns, keeps
    its key order, and decodes to Python values only.

    ``faults`` optionally takes a
    :class:`~repro.congest.runtime.faults.FaultPlan`: crashes are drawn
    at the top of each round (a crashed vertex halts before stepping)
    and validated emissions pass through the plan's drop/dup/delay fate
    pass before the receiver sort.  A zero plan is byte-identical to
    ``faults=None``.

    ``rng`` optionally takes an
    :class:`~repro.congest.runtime.rng.RngPlan` (or a mode string):
    ``"exact"`` — the default — keeps the per-vertex ``random.Random``
    streams and is byte-identical to ``rng=None``; ``"vectorized"``
    hands the algorithm counter-based Philox column draws instead,
    which requires the algorithm to declare ``"vectorized"`` in its
    ``rng_modes``.  The draw state is independent of the delivery
    plane, so vectorized runs agree bit-for-bit between
    ``reference=True`` and the fast path.
    """
    spec = _columnar_spec(algorithm)
    plane = topology.columnar_plane()
    instance = algorithm.spawn()
    vertices = topology.vertices
    inputs_list = (
        [None] * topology.n if inputs is None
        else [inputs.get(v) for v in vertices]
    )
    rng_plan = RngPlan.coerce(rng)
    _check_rng_modes(algorithm, rng_plan.vectorized)
    ctx = ColumnarContext(
        topology, plane, spec, inputs_list,
        rng_state_for(rng_plan, inputs_list),
    )
    instance.setup(ctx)
    limit = bandwidth_bits if model == "congest" else (1 << 62)
    acc = ScalarAccountant()  # deferred fast-path counters
    if faults is None:
        fault_state = None
    else:
        from repro.congest.runtime.faults import FaultState

        fault_state = FaultState.for_single(faults, topology)

    def done() -> bool:
        return ctx._halted_count >= ctx.n

    def advance(round_number: int) -> None:
        ctx.round_number = round_number
        if fault_state is not None:
            # Crash-stop draw before the round's compute: a crashed
            # vertex neither steps nor emits from this round on.
            rows = fault_state.crash_step(round_number, ~ctx.halted)
            if rows.size:
                ctx.halt(rows)
        ctx._emissions = []
        instance.on_round(ctx)
        groups = ctx._emissions
        if reference:
            ctx.inbox = _deliver_reference(
                topology, spec, groups, limit, bandwidth_bits,
                metrics, fault_state, round_number,
            )
        else:
            ctx.inbox = _deliver_fast(
                topology, plane, spec, groups, limit, bandwidth_bits, acc,
                fault_state, round_number,
            )

    def flush() -> None:
        acc.flush(metrics)
        if fault_state is not None:
            fault_state.flush(metrics)

    run_rounds(
        metrics=metrics, max_rounds=max_rounds,
        done=done, advance=advance, flush=flush,
    )
    return VertexView(vertices, topology.index_of, instance.outputs(ctx))
