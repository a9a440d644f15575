"""Compilation entry points for the unified CONGEST runtime.

Single place every plane gets its compiled artifacts from:

* :func:`compile_topology` — the per-graph :class:`CompiledTopology`
  (CSR adjacency + deterministic neighbour tuples), served through the
  shared per-graph cache (:mod:`repro.graphs.cache`) so sweeps compile
  once per graph;
* :func:`delivery_plane` — the lazily compiled columnar delivery arrays
  (:class:`DeliveryPlane`, one class for every topology type), cached
  on the topology so they share its memoization and invalidation;
* :func:`sorted_edge_keys` — the one sorted directed-edge key builder,
  called only by :class:`DeliveryPlane`, whose :meth:`~DeliveryPlane.ranks`
  and :meth:`~DeliveryPlane.endpoints` are the only code that encodes or
  decodes a key — and :func:`sorted_unique`, the one sort-based dedup
  (stream compile, colouring row sets);
* the **delivery phases** every columnar round moves its traffic
  through, each defined once over the ``(senders, receivers, columns,
  var)`` message tuple: broadcast fan-out (:func:`_fan_out`),
  validated-prefix accounting (:func:`_account_prefix`), concatenation
  (:func:`_concat`, and :func:`_concat_ranked` for messages paired with
  their edge ranks), subset gather (:func:`_subset`) and receiver-sorted
  assembly (:func:`_assemble_sorted`).  The columnar delivery step, the
  fault pass (:meth:`~repro.congest.runtime.faults.FaultState.columnar_step`)
  and the reliability wrapper
  (:class:`~repro.congest.runtime.recovery.ColumnarReliable`) all call
  them;
* :func:`compile_edge_stream` — the **memory-bounded scale path**: an
  edge-block stream (see :mod:`repro.graphs.streaming`) deduplicated and
  symmetrized by row chunks, one sort per chunk, into a
  :class:`StreamTopology` whose index/indptr dtypes auto-narrow to int32
  (:class:`CompileStats` reports what was seen and the tracked peak
  bytes);
* :class:`GridTopology` — the **trial-major columnar grid**: T
  independent trials composed into one block-diagonal CSR over
  ``sum(n_t)`` rows.  Block ``t`` occupies dense rows
  ``offsets[t]:offsets[t+1]``; edges never cross blocks, per-block
  ``repr`` ranks are preserved verbatim (reductions and tie-breaks
  inside a block behave exactly as in a single-trial run), and
  ``index_of[v]`` resolves to the *array* of ``v``'s replica rows — one
  per block — so vertex-keyed setup code (``self.depth[root] = 0``)
  transparently initializes every trial.  Built per sweep by
  :func:`repro.congest.runtime.batch.run_many`; the per-block
  compilations still come from the shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.congest.engine import CompiledTopology

#: Largest value an int32 index/indptr entry may hold.  The narrowing
#: decision compares both ``n`` and the *directed* edge count ``2m``
#: against this (indptr entries run to 2m); ``compile_edge_stream``'s
#: ``int32_limit`` hook lowers it so tests can exercise the ~2^31
#: overflow boundary without 2^31 edges of RAM.
INT32_LIMIT = 2**31 - 1


def compile_topology(graph) -> CompiledTopology:
    """Memoized per-graph compilation (the runtime's single entry —
    identical to ``CompiledTopology.for_graph``).  Already-compiled
    topologies (:class:`StreamTopology`, :class:`CompiledTopology`,
    grids) pass through unchanged, so ``Network(stream_topology)`` and
    ``run_many`` trials over streamed CSRs work everywhere an
    ``nx.Graph`` does.

    >>> import networkx as nx
    >>> graph = nx.path_graph(3)
    >>> topology = compile_topology(graph)
    >>> topology.n, topology.indices.tolist()
    (3, [1, 0, 2, 1])
    >>> compile_topology(graph) is topology  # served from the cache
    True
    >>> compile_topology(topology) is topology  # pre-compiled passthrough
    True
    """
    if hasattr(graph, "indptr"):
        return graph
    return CompiledTopology.for_graph(graph)


def delivery_plane(topology: CompiledTopology):
    """The topology's lazily compiled columnar delivery arrays."""
    return topology.columnar_plane()


def sorted_edge_keys(indptr, indices) -> np.ndarray:
    """The sorted ``sender * n + receiver`` keys of a CSR's directed
    edges, ``n`` its row count.  Keys are int64 whatever the index
    dtype, so narrowed int32 topologies cannot overflow, and
    ``key % n`` lists each row's neighbours in index order.

    >>> sorted_edge_keys(np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0])).tolist()
    [1, 2, 3, 6]
    """
    n = len(indptr) - 1
    degrees = np.diff(indptr.astype(np.int64, copy=False))
    senders = np.repeat(np.arange(n, dtype=np.int64), degrees)
    return np.sort(senders * n + indices.astype(np.int64, copy=False))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array by sort-and-mask: sort a copy, keep
    the first element and every element that differs from its
    predecessor.  numpy 2.x routes ``np.unique`` on integers through a
    hash table, which is tens of times slower than this on the
    runtime's uint64 edge keys and small per-round row sets.

    >>> sorted_unique(np.array([5, 3, 5, 0, 3])).tolist()
    [0, 3, 5]
    """
    return _first_of_runs(np.sort(values))


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """The first element of each run of equal values of a sorted array."""
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class DeliveryPlane:
    """The columnar delivery arrays of one topology, built the same way
    for every topology type from its CSR and its ``repr`` ranks:

    * :attr:`degrees` — the int64 row lengths;
    * :attr:`repr_rank` — each row's rank in the ``repr`` order of the
      vertex ids (reductions and tie-breaks compare ranks, never ids);
    * :attr:`edge_keys` — the sorted ``sender * n + receiver`` keys
      (:func:`sorted_edge_keys`).  A directed edge's position here is
      its **edge rank**, which unicast validation, the fault pass and
      the reliability wrapper all index by; :meth:`ranks` is the one
      search (and confirms ranks a caller already holds) and
      :meth:`endpoints` the one decoder.  On a grid, block
      ``t``'s ranks start at its first CSR slot, ``indptr[offsets[t]]``;
    * :attr:`slot_ranks` — each CSR slot's edge rank, so a broadcast
      copy, which is a CSR slot, is ranked by a gather;
    * :attr:`reverse` — the reverse-rank permutation, ``rank(u → v)`` to
      ``rank(v → u)``: an involution, because the edge table is
      symmetric;
    * :attr:`by_index` — the CSR's neighbour column with each row sorted
      by index (compiled rows are in ``repr``-rank order), in the
      topology's index dtype, built on the first pulled broadcast round
      (see :func:`repro.congest.columnar._deliver_pulled`).

    No edge table is built with the plane, and each is built at most
    once, by one search, on its first read: broadcast-only or sparse
    workloads never pay for a table they do not read.  The plane holds
    no reference to its topology.  On the path ``0 - 1 - 2`` (keys
    ``[1, 3, 5, 7]``) a non-edge reads ``adjacent=False``:

    >>> plane = DeliveryPlane(
    ...     np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]), np.arange(3)
    ... )
    >>> ranks, adjacent = plane.ranks(np.array([1, 0, 2, 2]),
    ...                               np.array([2, 2, 1, 2]))
    >>> ranks.tolist(), adjacent.tolist()
    ([2, 1, 3, 3], [True, False, True, False])
    >>> [rows.tolist() for rows in plane.endpoints(ranks[adjacent])]
    [[1, 2], [2, 1]]

    On the star ``1 - 0 - 2`` whose row 0 lists ``2`` before ``1`` (keys
    ``[1, 2, 3, 6]``), slot ``j`` is ranked by ``slot_ranks[j]`` and
    each rank's reverse by ``reverse``:

    >>> plane = DeliveryPlane(
    ...     np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]), np.arange(3)
    ... )
    >>> plane.slot_ranks.tolist(), plane.reverse.tolist()
    ([1, 0, 2, 3], [2, 3, 0, 1])
    """

    __slots__ = (
        "degrees", "repr_rank", "_indptr", "_indices", "_edge_keys",
        "_slot_ranks", "_reverse", "_by_index",
    )

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, repr_rank: np.ndarray
    ) -> None:
        self.degrees = np.diff(indptr.astype(np.int64, copy=False))
        self.repr_rank = repr_rank
        self._indptr = indptr
        self._indices = indices
        self._edge_keys = None
        self._slot_ranks = None
        self._reverse = None
        self._by_index = None

    @property
    def edge_keys(self) -> np.ndarray:
        if self._edge_keys is None:
            self._edge_keys = sorted_edge_keys(self._indptr, self._indices)
        return self._edge_keys

    def ranks(self, senders: np.ndarray, receivers: np.ndarray,
              hint=None) -> tuple:
        """``(ranks, adjacent)`` of each ``(sender, receiver)`` row pair,
        by one binary search.  A non-edge gets its insertion point
        clamped to the table (0 if edgeless), so a caller may index a
        per-edge table with it before the pair is rejected.

        ``hint`` optionally holds ranks the caller already knows, one per
        pair (the reliability wrapper's resends and acks carry them).
        When every one is in range and its key is its pair's, the hint
        is confirmed by one gather and compare and comes back as the
        ranks, all adjacent; otherwise the pairs are searched as without
        it, so a wrong hint costs a search, never a wrong rank.  On the
        path ``0 - 1 - 2`` (keys ``[1, 3, 5, 7]``), a matching hint and a
        swapped one:

        >>> plane = DeliveryPlane(
        ...     np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]), np.arange(3)
        ... )
        >>> senders, receivers = np.array([1, 2]), np.array([2, 1])
        >>> [a.tolist() for a in plane.ranks(senders, receivers,
        ...                                  np.array([2, 3]))]
        [[2, 3], [True, True]]
        >>> [a.tolist() for a in plane.ranks(senders, receivers,
        ...                                  np.array([3, 2]))]
        [[2, 3], [True, True]]
        """
        # int64 keys: with a narrowed topology the rows are int32 and
        # ``sender * n`` would overflow under NEP 50.
        keys = senders.astype(np.int64, copy=False) * len(self.degrees)
        keys += receivers
        table = self.edge_keys
        if not table.size:
            return (np.zeros(len(keys), dtype=np.intp),
                    np.zeros(len(keys), dtype=bool))
        if (
            hint is not None and len(hint)
            and hint.min() >= 0 and hint.max() < table.size
            and bool((table[hint] == keys).all())
        ):
            return hint, np.ones(len(keys), dtype=bool)
        ranks = np.searchsorted(table, keys)
        np.minimum(ranks, table.size - 1, out=ranks)
        return ranks, table[ranks] == keys

    def endpoints(self, ranks) -> tuple:
        """The int64 ``(senders, receivers)`` rows of edge ranks
        ``ranks``: the inverse of :meth:`ranks` on edges."""
        return np.divmod(self.edge_keys[ranks], len(self.degrees))

    @property
    def slot_ranks(self) -> np.ndarray:
        """The edge rank of CSR slot ``j``, the edge from ``j``'s row to
        ``indices[j]``."""
        table = self._slot_ranks
        if table is None:
            senders = np.repeat(
                np.arange(len(self.degrees), dtype=np.int64), self.degrees
            )
            table = self._slot_ranks = self.ranks(senders, self._indices)[0]
        return table

    @property
    def reverse(self) -> np.ndarray:
        """``reverse[rank(u → v)]`` is ``rank(v → u)``."""
        table = self._reverse
        if table is None:
            senders, receivers = self.endpoints(
                np.arange(len(self.edge_keys))
            )
            table = self._reverse = self.ranks(receivers, senders)[0]
        return table

    @property
    def by_index(self) -> np.ndarray:
        table = self._by_index
        if table is None:
            # Reuse the key table if a unicast already built it, but do
            # not keep one alive just for this.
            keys = self._edge_keys
            if keys is None:
                keys = sorted_edge_keys(self._indptr, self._indices)
            n = len(self._indptr) - 1
            table = self._by_index = (keys % n).astype(self._indices.dtype)
        return table


# ---------------------------------------------------------------------------
# Delivery phases over one round's message tuple
# ---------------------------------------------------------------------------
# The columnar delivery step, the fault pass and the reliability wrapper
# hand a round's traffic between these phases as one tuple
# ``(senders, receivers, columns, var)``: per-message sender and
# receiver rows, ``columns`` mapping each fixed field to a per-message
# array, and ``var`` mapping each var field to ``(pool, lengths)`` — one
# flat value pool and one sequence length per message.  An emission
# group is a ``(message, ranks)`` pair: a message tuple, with
# ``receivers=None`` for a broadcast, and the edge ranks its sender
# already holds for it, or ``None``.
def _cumsum0(counts: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Exclusive prefix sum with the total appended: CSR offsets for
    ``counts``.

    >>> _cumsum0(np.array([2, 0, 3])).tolist()
    [0, 2, 2, 5]
    """
    out = np.empty(len(counts) + 1, dtype=dtype)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


def _ragged_slots(starts, lengths):
    """The positions of the segments ``[starts[i], starts[i]+lengths[i])``,
    concatenated: one arange plus one repeat of each segment's
    input-minus-output offset.

    >>> _ragged_slots(np.array([4, 0]), np.array([2, 1])).tolist()
    [4, 5, 0]
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = starts - _cumsum0(lengths)[:-1]
    return np.arange(total, dtype=np.int64) + np.repeat(shift, lengths)


def _ragged_gather(pool, starts, lengths):
    """Concatenate the pool segments ``[starts[i], starts[i]+lengths[i])``
    — the CSR scatter every variable-width step reduces to (fan-out,
    subset, receiver sort, masked gathers).

    >>> _ragged_gather(np.arange(10, 20), np.array([4, 0]),
    ...                np.array([2, 1])).tolist()
    [14, 15, 10]
    """
    return pool[_ragged_slots(starts, lengths)]


def _fan_out(indptr, indices, counts, group, slot_ranks=None):
    """Broadcast fan-out: a broadcast group's message tuple, one copy
    per (sender, CSR neighbour) in sender-major CSR order, and the
    copies' edge ranks.  ``counts`` is the senders' degrees; each copy
    carries its sender's field values and var sequences.  A copy is a
    CSR slot, so its rank is a gather from ``slot_ranks``
    (:attr:`DeliveryPlane.slot_ranks`); without that table the ranks are
    ``None``.

    >>> (senders, receivers, columns, _var), ranks = _fan_out(
    ...     np.array([0, 1, 3, 4]), np.array([1, 0, 2, 1]), np.array([2]),
    ...     (np.array([1]), None, {"x": np.array([7])}, {}),
    ...     np.array([0, 1, 2, 3]))
    >>> senders.tolist(), receivers.tolist(), columns["x"].tolist()
    ([1, 1], [0, 2], [7, 7])
    >>> ranks.tolist()
    [1, 2]
    """
    senders, _receivers, columns, var = group
    copies_var = {}
    for name, (pool, lengths) in var.items():
        copy_lengths = np.repeat(lengths, counts)
        copies_var[name] = (
            _ragged_gather(
                pool, np.repeat(_cumsum0(lengths)[:-1], counts), copy_lengths
            ),
            copy_lengths,
        )
    # The slots die before the repeats below are built, as the gather's
    # own positions did, so a 10^6-node fan-out peaks no higher.
    slots = _ragged_slots(indptr[senders], counts)
    receivers = indices[slots]
    ranks = None if slot_ranks is None else slot_ranks[slots]
    del slots
    return (
        (
            np.repeat(senders, counts),
            receivers,
            {name: np.repeat(column, counts)
             for name, column in columns.items()},
            copies_var,
        ),
        ranks,
    )


def _account_prefix(acc, topology, message, bits, limit, bandwidth_bits,
                    adjacent=None, copies=None):
    """Validated-prefix accounting: count a batch's messages
    (``acc.add(senders, bits, copies)``), or, when one fails validation,
    count only the messages before it and raise its error — what the
    per-message reference executor counts and raises.  ``adjacent``
    (unicasts only) flags the pairs that are edges; each message is
    checked for adjacency before bandwidth.  ``limit`` and
    ``bandwidth_bits`` are scalars, or per-vertex tables on a grid
    (where the error names the sender's own trial budget).

    A broadcast group is accounted per sender, before its fan-out:
    ``message`` is the group (no receivers), ``bits`` its per-sender
    sizes and ``copies`` the senders' degrees.  Its first failing copy
    is the first copy of the first over-budget sender that has any, and
    goes to that sender's first CSR neighbour; every sender before it
    is counted with all its copies."""
    senders, receivers = message[0], message[1]
    count = len(bits)
    over = bits > (limit if isinstance(limit, int) else limit[senders])
    if copies is not None:
        over &= copies > 0
    bad_bandwidth = int(np.argmax(over)) if over.any() else count
    bad_adjacency = (
        count if adjacent is None or adjacent.all()
        else int(np.argmin(adjacent))
    )
    bad = min(bad_adjacency, bad_bandwidth)
    if bad == count:
        acc.add(senders, bits, copies)
        return
    if bad:
        acc.add(senders[:bad], bits[:bad],
                None if copies is None else copies[:bad])
    receiver = (
        receivers[bad] if copies is None
        else topology.indices[topology.indptr[senders[bad]]]
    )
    sender = topology.vertices[int(senders[bad])]
    receiver = topology.vertices[int(receiver)]
    if bad == bad_adjacency:
        raise ValueError(f"node {sender!r} sent to non-neighbor {receiver!r}")
    from repro.congest.network import _bandwidth_error

    if not isinstance(bandwidth_bits, int):
        bandwidth_bits = int(bandwidth_bits[senders[bad]])
    raise _bandwidth_error(int(bits[bad]), sender, receiver, bandwidth_bits)


def _concat(parts):
    """Concatenation: the message tuples ``parts`` as one, in order.  A
    single part is returned as is, uncopied."""
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([part[0] for part in parts]),
        np.concatenate([part[1] for part in parts]),
        {
            name: np.concatenate([part[2][name] for part in parts])
            for name in parts[0][2]
        },
        {
            name: (
                np.concatenate([part[3][name][0] for part in parts]),
                np.concatenate([part[3][name][1] for part in parts]),
            )
            for name in parts[0][3]
        },
    )


def _concat_ranked(parts):
    """Concatenation of ``(message, ranks)`` pairs: the messages as one
    (:func:`_concat`), and their edge ranks as one — or ``None`` when a
    part carries none.

    >>> message, ranks = _concat_ranked([
    ...     ((np.array([0]), np.array([1]), {}, {}), np.array([4])),
    ...     ((np.array([2]), np.array([1]), {}, {}), np.array([9]))])
    >>> message[0].tolist(), ranks.tolist()
    ([0, 2], [4, 9])
    """
    message = _concat([part for part, _ranks in parts])
    if any(ranks is None for _part, ranks in parts):
        return message, None
    if len(parts) == 1:
        return message, parts[0][1]
    return message, np.concatenate([ranks for _part, ranks in parts])


def _subset(message, idx):
    """Subset gather: the messages at ``idx``, in ``idx`` order (one
    fancy index per fixed column, one ragged gather per var pool)."""
    senders, receivers, columns, var = message
    taken_var = {}
    for name, (pool, lengths) in var.items():
        kept = lengths[idx]
        taken_var[name] = (
            _ragged_gather(pool, _cumsum0(lengths)[:-1][idx], kept), kept
        )
    return (
        senders[idx],
        receivers[idx],
        {name: column[idx] for name, column in columns.items()},
        taken_var,
    )


def _receiver_order(n, receivers):
    """The stable sort order of ``receivers`` (each ``< n``).

    Up to 2**16 rows the keys are 16-bit, and numpy's stable sort of
    ≤16-bit ints is an O(M) radix sort (at M = 5,000 a little faster
    than the packed sort below: 40 vs 43 µs).  Past that (10^6-node
    graphs, trial-major grids) one unstable sort of the int64 keys
    ``receiver << b | i`` (``b`` the bit length of the message count M)
    gives the same order: the message index ``i`` breaks every tie, and
    masking the sorted keys leaves ``i``.  Over 10^6 receivers that is
    24 ms at M = 1.2·10^6 and 105 ms at M = 5·10^6, against 65 and
    330 ms for two stable 16-bit passes and their composed gather.
    Keys wider than 63 bits fall back to a stable ``argsort`` of the
    receivers.
    """
    if n <= 1 << 16:
        return np.argsort(receivers.astype(np.uint16), kind="stable")
    count = len(receivers)
    shift = count.bit_length()
    if n.bit_length() + shift > 63:
        return np.argsort(receivers, kind="stable")
    keys = receivers.astype(np.int64)
    keys <<= shift
    keys |= np.arange(count, dtype=np.int64)
    keys.sort()
    keys &= (1 << shift) - 1
    return keys


def _assemble_sorted(n, message, fields, ranks=None):
    """Receiver-sorted assembly: a stable sort of the messages by
    receiver (:func:`_receiver_order`), returned as ``(senders, indptr,
    columns, var_pools, var_indptr, ranks)`` — the arrays of a
    :class:`~repro.congest.columnar.ColumnarInbox` over ``n`` rows.
    ``fields`` lists the fixed ``(name, dtype)`` fields; each column is
    cast to its dtype, and each var field becomes a pool plus a
    per-message offset index.  The messages' edge ranks, if given, are
    permuted with them; otherwise ``ranks`` is ``None``.

    >>> senders, indptr, columns, _pools, _offsets, ranks = _assemble_sorted(
    ...     3, (np.array([0, 1, 2]), np.array([2, 0, 2]),
    ...         {"x": np.array([5, 6, 7])}, {}), (("x", np.uint8),),
    ...     np.array([10, 11, 12]))
    >>> senders.tolist(), indptr.tolist(), columns["x"].tolist()
    ([1, 0, 2], [0, 1, 1, 3], [6, 5, 7])
    >>> ranks.tolist()
    [11, 10, 12]

    Past 2**16 rows the same order comes from the packed-key sort:

    >>> senders, indptr, columns, _pools, _offsets, _ranks = _assemble_sorted(
    ...     70_000, (np.array([0, 1, 2, 3]), np.array([69_999, 3, 69_999, 3]),
    ...              {"x": np.array([5, 6, 7, 8])}, {}), (("x", np.uint8),))
    >>> senders.tolist(), indptr[[3, 4, -1]].tolist(), columns["x"].tolist()
    ([1, 3, 0, 2], [0, 2, 4], [6, 8, 5, 7])
    """
    senders, receivers, columns, var = message
    order = _receiver_order(n, receivers)
    var_pools = {}
    var_indptr = {}
    for name, (pool, lengths) in var.items():
        sorted_lengths = lengths[order]
        var_pools[name] = _ragged_gather(
            pool, _cumsum0(lengths)[:-1][order], sorted_lengths
        )
        var_indptr[name] = _cumsum0(sorted_lengths)
    return (
        senders[order],
        _cumsum0(np.bincount(receivers, minlength=n)),
        {
            name: columns[name][order].astype(dtype, copy=False)
            for name, dtype in fields
        },
        var_pools,
        var_indptr,
        None if ranks is None else ranks[order],
    )


# ---------------------------------------------------------------------------
# Streaming scale layer: memory-bounded CSR compilation from edge blocks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompileStats:
    """What one :func:`compile_edge_stream` pass saw and allocated.

    ``peak_bytes`` is the tracked high-water mark of the compile pass's
    own major allocations (rank tables, block key scratch, chunk spill
    lists, each chunk's concatenation and deduped keys, the final CSR) —
    an allocation *model*, not an RSS probe; ``benchmarks/bench_scale.py``
    records ``ru_maxrss`` alongside it for the whole-process truth."""

    n: int
    m: int                      # unique undirected edges kept
    candidate_edges: int        # rows consumed from the stream
    self_loops: int             # candidates dropped as u == v
    duplicates: int             # candidates dropped by dedup/symmetrization
    blocks: int                 # edge blocks consumed
    index_dtype: str            # dtype of ``indices``
    indptr_dtype: str           # dtype of ``indptr``
    peak_bytes: int


class _PeakTracker:
    """Running-total allocation model for :class:`CompileStats.peak_bytes`."""

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def add(self, nbytes: int) -> None:
        self.current += int(nbytes)
        if self.current > self.peak:
            self.peak = self.current

    def pop(self, nbytes: int) -> None:
        self.current -= int(nbytes)


def _decimal_repr_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rank, by_rank)`` of vertices ``0..n-1`` under ``repr``
    (decimal-string) ordering: ``rank[v]`` is ``v``'s position and
    ``by_rank[r]`` the vertex at position ``r``.  Computed numerically:
    the string order of left-aligned decimals is the order of
    ``v * 10**(maxd - digits(v))`` with ties (prefix pairs like
    ``"2"``/``"20"``) broken shorter-first — no Python string sort,
    O(n log n) in numpy.

    >>> rank, by_rank = _decimal_repr_tables(12)
    >>> by_rank.tolist()
    [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9]
    >>> rank.tolist()
    [0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 2, 3]
    """
    if n <= 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    values = np.arange(n, dtype=np.int64)
    max_digits = len(str(n - 1))
    powers = 10 ** np.arange(max_digits, dtype=np.int64)
    digits = np.maximum(
        np.searchsorted(powers, values, side="right"), 1
    )
    padded = values * powers[max_digits - digits]
    key = padded * (max_digits + 1) + digits
    by_rank = np.argsort(key)
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = values
    return rank, by_rank


def _resolve_index_dtype(index_dtype, n, directed_edges, limit):
    """Apply the narrowing policy; raise on an unfittable explicit int32."""
    if index_dtype not in ("auto", "int32", "int64"):
        raise ValueError(
            f"index_dtype must be 'auto', 'int32' or 'int64', "
            f"not {index_dtype!r}"
        )
    fits = n <= limit and directed_edges <= limit
    if index_dtype == "int64":
        return np.dtype(np.int64)
    if index_dtype == "int32":
        if not fits:
            raise OverflowError(
                f"int32 CSR cannot hold n={n}, directed edges="
                f"{directed_edges} (limit {limit}); pass "
                f"index_dtype='int64' to opt out of narrowing"
            )
        return np.dtype(np.int32)
    return np.dtype(np.int32 if fits else np.int64)


def _scatter(values, groups, num_groups):
    """Yield ``(g, values[groups == g])`` for every non-empty group, in
    group order, each part a fresh array keeping ``values``' order —
    one stable counting sort (radix on the narrowest unsigned group
    dtype) instead of a mask per group."""
    narrow = groups.astype(np.min_scalar_type(num_groups - 1), copy=False)
    order = np.argsort(narrow, kind="stable")
    bounds = _cumsum0(np.bincount(groups, minlength=num_groups))
    for g in np.flatnonzero(bounds[1:] > bounds[:-1]):
        yield g, values[order[bounds[g]:bounds[g + 1]]]


def compile_edge_stream(
    blocks: Iterable[np.ndarray],
    n: int,
    *,
    index_dtype: str = "auto",
    int32_limit: int | None = None,
    row_chunk: int = 1 << 18,
) -> "StreamTopology":
    """Compile an edge-block stream into a memory-bounded CSR topology.

    ``blocks`` yields ``(k, 2)`` integer arrays of directed candidate
    edges over vertices ``0..n-1`` (e.g. the streams of
    :mod:`repro.graphs.streaming`).  Self-loops are dropped, every kept
    edge is symmetrized (``{u, v}`` appears as both ``u→v`` and
    ``v→u``), and duplicates are removed in three passes:

    1. each block's non-loop candidates go, in both orientations, to
       the spill list of their row's chunk (``row_chunk`` rows each) as
       the ``uint64`` key ``(row - base) << b | rank[col]``, with
       ``base`` the chunk's first row, ``b`` the bit length of
       ``n - 1`` and ``rank`` the ``repr`` order of the vertices;
    2. one sort-and-mask dedup per chunk (:func:`sorted_unique`, with
       the chunk's fresh concatenation sorted in place) — a *global*
       dedup, because each directed edge lives in exactly one chunk —
       leaves the chunk's edges ordered by ``(row, repr rank)``; the
       unique key count over 2 is ``m``, which fixes the index dtype;
    3. per chunk, ``indptr`` is one ``bincount`` of ``key >> b`` and a
       cumsum, and ``by_rank[key & mask]`` decodes the columns.

    No sort ever holds more than one chunk's keys, but the spill lists
    hold every directed candidate key until their chunk is deduped.

    Index/indptr dtypes auto-narrow to int32 when ``n`` and the directed
    edge count both fit (``index_dtype="auto"``); ``"int32"`` makes an
    unfittable input an :class:`OverflowError` instead of a silent
    upcast, ``"int64"`` opts out of narrowing entirely (the byte-level
    reference path).  ``int32_limit`` lowers the fit threshold — a test
    hook for exercising the ~2^31 indptr overflow boundary cheaply.
    ``row_chunk`` bounds the sort size only: it never changes the CSR.
    A ``ValueError`` is raised if a packed key would need more than 64
    bits.

    Within each CSR row, neighbours are ordered by ``repr`` rank —
    byte-compatible with :class:`CompiledTopology` over the same graph
    labelled ``0..n-1``, which is what makes streamed topologies
    differentially testable against the object planes.

    >>> blocks = [np.array([[0, 1], [1, 2], [2, 2], [1, 0]])]
    >>> topology = compile_edge_stream(blocks, 3)
    >>> topology.indices.tolist(), str(topology.index_dtype)
    ([1, 0, 2, 1], 'int32')
    >>> (topology.stats.m, topology.stats.self_loops,
    ...  topology.stats.duplicates)
    (2, 1, 1)

    A duplicate split across two blocks, one row per chunk:

    >>> blocks = [np.array([[0, 2], [2, 1]]), np.array([[2, 0]])]
    >>> topology = compile_edge_stream(blocks, 3, row_chunk=1)
    >>> topology.indptr.tolist(), topology.indices.tolist()
    ([0, 1, 2, 4], [2, 2, 0, 1])
    >>> topology.stats.m, topology.stats.duplicates
    (2, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    if row_chunk < 1:
        raise ValueError("row_chunk must be positive")
    shift = (n - 1).bit_length()
    if (min(row_chunk, n) - 1).bit_length() + shift > 64:
        raise ValueError(
            f"packed (row, rank) keys for n={n}, row_chunk={row_chunk} "
            f"need more than 64 bits; lower row_chunk"
        )
    limit = INT32_LIMIT if int32_limit is None else int(int32_limit)
    tracker = _PeakTracker()
    wide_shift = np.uint64(shift)

    rank, by_rank = _decimal_repr_tables(n)
    narrow_rank = rank.astype(np.min_scalar_type(n - 1))
    tracker.add(rank.nbytes + by_rank.nbytes + narrow_rank.nbytes)

    # Pass 1 — both orientations of every non-loop candidate, as packed
    # keys, into the spill list of their row's chunk.
    num_chunks = -(-n // row_chunk)
    chunk_parts: list[list[np.ndarray]] = [[] for _ in range(num_chunks)]
    candidates = loops = block_count = 0
    for block in blocks:
        arr = np.asarray(block)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge blocks must have shape (k, 2)")
        block_count += 1
        if not len(arr):
            continue
        candidates += len(arr)
        if int(arr.min()) < 0 or int(arr.max()) >= n:
            raise ValueError(
                f"edge endpoint out of range [0, {n}) in block "
                f"{block_count - 1}"
            )
        kept = np.compress(arr[:, 0] != arr[:, 1], arr, axis=0)
        loops += len(arr) - len(kept)
        pairs = kept.astype(np.uint64)
        pairs <<= wide_shift
        pairs[:, 0] |= narrow_rank[kept[:, 1]]
        pairs[:, 1] |= narrow_rank[kept[:, 0]]
        keys = pairs.ravel()
        chunk_ids = kept.ravel() // row_chunk
        tracker.add(
            arr.nbytes + kept.nbytes + keys.nbytes
            + 2 * chunk_ids.nbytes  # and the scatter order
        )
        for c, part in _scatter(keys, chunk_ids, num_chunks):
            part -= np.uint64(c * row_chunk) << wide_shift
            chunk_parts[c].append(part)
            tracker.add(part.nbytes)
        tracker.pop(
            arr.nbytes + kept.nbytes + keys.nbytes + 2 * chunk_ids.nbytes
        )

    # Pass 2 — per-chunk global dedup; sorted keys run in (row, repr
    # rank) order.
    chunk_keys: list[np.ndarray] = []
    for parts in chunk_parts:
        spilled = sum(part.nbytes for part in parts)
        merged = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
        )
        tracker.add(merged.nbytes)
        parts.clear()
        tracker.pop(spilled)
        merged.sort()  # in place: the concatenation is a fresh array
        unique = _first_of_runs(merged)
        tracker.add(unique.nbytes)
        tracker.pop(merged.nbytes)
        chunk_keys.append(unique)
    directed = sum(len(keys) for keys in chunk_keys)
    m = directed // 2
    duplicates = (candidates - loops) - m

    # Pass 3 — dtype decision, then each chunk's CSR rows: row
    # ``base + k`` holds the keys with ``key >> b == k``, and the low
    # bits are the column's repr rank.
    dtype = _resolve_index_dtype(index_dtype, n, directed, limit)
    indptr = np.empty(n + 1, dtype=dtype)
    indices = np.empty(directed, dtype=dtype)
    tracker.add(indptr.nbytes + indices.nbytes)
    columns = by_rank.astype(dtype)
    tracker.add(columns.nbytes)
    indptr[0] = 0
    offset = 0
    column_mask = np.uint64((1 << shift) - 1)
    for c, keys in enumerate(chunk_keys):
        base = c * row_chunk
        width = min(row_chunk, n - base)
        tracker.add(keys.nbytes)
        counts = np.bincount(
            (keys >> wide_shift).view(np.int64), minlength=width
        )
        np.cumsum(counts, out=counts)
        indptr[base + 1:base + width + 1] = offset + counts
        np.bitwise_and(keys, column_mask, out=keys)
        # Every rank is < n, so "clip" never clips; it only spares
        # take's buffered bounds check.
        np.take(columns, keys.view(np.int64),
                out=indices[offset:offset + len(keys)], mode="clip")
        offset += len(keys)
        tracker.pop(2 * keys.nbytes)
        chunk_keys[c] = None

    stats = CompileStats(
        n=n,
        m=m,
        candidate_edges=candidates,
        self_loops=loops,
        duplicates=duplicates,
        blocks=block_count,
        index_dtype=str(dtype),
        indptr_dtype=str(indptr.dtype),
        peak_bytes=tracker.peak,
    )
    return StreamTopology(n, indptr, indices, stats, repr_rank=rank)


class _IdentityIndex:
    """``index_of`` for dense integer vertices ``0..n-1`` — the identity
    map, without materializing a dict of n Python ints."""

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __getitem__(self, vertex: Any) -> int:
        index = self.get(vertex)
        if index is None:
            raise KeyError(vertex)
        return index

    def get(self, vertex: Any, default=None):
        if isinstance(vertex, (int, np.integer)) and 0 <= vertex < self._n:
            return int(vertex)
        return default

    def __contains__(self, vertex: Any) -> bool:
        return self.get(vertex) is not None

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(range(self._n))


class StreamTopology:
    """A CSR topology compiled from an edge-block stream.

    Quacks like :class:`CompiledTopology` everywhere the runtime looks —
    ``n``/``m``/``indptr``/``indices``/``vertices``/``index_of``/
    ``columnar_plane()`` — plus ``number_of_nodes()``/
    ``number_of_edges()`` so :class:`~repro.congest.network.Network`,
    ``run_many`` trials, and the grid chunker accept it wherever an
    ``nx.Graph`` goes (``compile_topology`` passes it through).  Vertices
    are dense ints ``0..n-1`` (``range``, not a list), ``index_of`` is an
    identity object, and the object-plane tables (``neighbor_tuples`` &c.)
    build lazily — they materialize Python objects per vertex, which is
    exactly what the scale path avoids, but small streamed topologies
    remain runnable on every plane for differential tests.

    Unlike ``CompiledTopology``, ``indptr``/``indices`` may be int32
    (:attr:`index_dtype`); :attr:`stats` carries the
    :class:`CompileStats` of the compile pass.
    """

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        stats: CompileStats,
        *,
        repr_rank: np.ndarray | None = None,
    ) -> None:
        self.n = int(n)
        self.m = stats.m
        self.indptr = indptr
        self.indices = indices
        self.index_dtype = indices.dtype
        self.stats = stats
        self.vertices = range(self.n)
        self.index_of = _IdentityIndex(self.n)
        self._repr_rank = repr_rank
        self._columnar_plane = None
        self._neighbor_tuples = None
        self._neighbor_sets = None

    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return self.m

    @property
    def repr_rank(self) -> np.ndarray:
        rank = self._repr_rank
        if rank is None:
            rank = self._repr_rank = _decimal_repr_tables(self.n)[0]
        return rank

    @property
    def degrees(self) -> np.ndarray:
        return (
            self.indptr[1:].astype(np.int64)
            - self.indptr[:-1].astype(np.int64)
        )

    @property
    def neighbor_tuples(self) -> list:
        tuples = self._neighbor_tuples
        if tuples is None:
            indptr, indices = self.indptr, self.indices
            tuples = self._neighbor_tuples = [
                tuple(indices[int(indptr[i]):int(indptr[i + 1])].tolist())
                for i in range(self.n)
            ]
        return tuples

    # Dense identity labelling: a neighbour's vertex id *is* its index,
    # so the object-plane tuple tables coincide.
    neighbor_index_tuples = neighbor_tuples

    @property
    def neighbor_sets(self) -> list:
        sets = self._neighbor_sets
        if sets is None:
            sets = self._neighbor_sets = [
                frozenset(t) for t in self.neighbor_tuples
            ]
        return sets

    def columnar_plane(self) -> DeliveryPlane:
        plane = self._columnar_plane
        if plane is None:
            plane = self._columnar_plane = DeliveryPlane(
                self.indptr, self.indices, self.repr_rank
            )
        return plane


class _GridIndex:
    """``index_of`` for a grid: maps a vertex id to the int64 array of
    its replica rows, one per block (fancy-indexable, so scalar
    vertex-keyed initialization fans out over every trial).  Raises
    ``KeyError`` when any block lacks the vertex — exactly the error a
    per-trial run on that block would hit."""

    __slots__ = ("_blocks", "_offsets")

    def __init__(self, blocks, offsets) -> None:
        self._blocks = blocks
        self._offsets = offsets

    def __getitem__(self, vertex: Any) -> np.ndarray:
        offsets = self._offsets
        return np.array(
            [
                offsets[t] + block.index_of[vertex]
                for t, block in enumerate(self._blocks)
            ],
            dtype=np.int64,
        )


class GridTopology:
    """T compiled topologies as one block-diagonal CSR (trial-major rows).

    Quacks like a :class:`CompiledTopology` for the columnar executor
    (``n``, ``vertices``, ``indptr``, ``indices``, ``index_of``,
    ``columnar_plane()``).  Blocks may have different sizes — per-trial
    bandwidth limits and round caps are the batch executor's job
    (:mod:`repro.congest.runtime.batch`), not the topology's.

    >>> import networkx as nx
    >>> grid = GridTopology([
    ...     compile_topology(nx.path_graph(2)),
    ...     compile_topology(nx.path_graph(3)),
    ... ])
    >>> grid.n, grid.offsets.tolist()
    (5, [0, 2, 5])
    >>> grid.trial_of(np.array([0, 1, 2, 4])).tolist()
    [0, 0, 1, 1]
    """

    __slots__ = (
        "blocks", "trials", "offsets", "block_sizes", "n", "m",
        "vertices", "index_of", "indptr", "indices", "index_dtype",
        "_columnar_plane",
    )

    def __init__(self, blocks: Sequence[CompiledTopology]) -> None:
        if not blocks:
            raise ValueError("grid needs at least one trial block")
        self.blocks = list(blocks)
        self.trials = len(self.blocks)
        sizes = np.array([block.n for block in self.blocks], dtype=np.int64)
        self.block_sizes = sizes
        offsets = np.zeros(self.trials + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self.offsets = offsets
        self.n = int(offsets[-1])
        self.m = sum(block.m for block in self.blocks)
        vertices: list = []
        for block in self.blocks:
            vertices.extend(block.vertices)
        self.vertices = vertices
        self.index_of = _GridIndex(self.blocks, offsets)
        # Dtype propagation: a grid of narrowed (int32) blocks stays
        # narrowed when the *composed* row/edge totals still fit —
        # mixing in one int64 block, or overflowing the block-diagonal
        # concatenation, widens the whole grid.  Casts are explicit:
        # int64 offsets would silently re-promote under NEP 50.
        total_edges = sum(int(block.indptr[-1]) for block in self.blocks)
        narrow = (
            self.n <= INT32_LIMIT
            and total_edges <= INT32_LIMIT
            and all(
                block.indices.dtype == np.int32 for block in self.blocks
            )
        )
        dtype = np.dtype(np.int32 if narrow else np.int64)
        self.index_dtype = dtype
        indptr_parts = [np.zeros(1, dtype=dtype)]
        indices_parts = []
        edge_offset = 0
        for t, block in enumerate(self.blocks):
            indptr_parts.append(
                block.indptr[1:].astype(dtype, copy=False) + dtype.type(edge_offset)
            )
            indices_parts.append(
                block.indices.astype(dtype, copy=False) + dtype.type(offsets[t])
            )
            edge_offset += int(block.indptr[-1])
        self.indptr = np.concatenate(indptr_parts)
        self.indices = np.concatenate(indices_parts)
        self._columnar_plane = None

    def columnar_plane(self) -> DeliveryPlane:
        """The grid's delivery plane over the composed CSR.  Per-block
        ``repr`` ranks are kept as-is: rank comparisons only ever happen
        between neighbours, which never cross blocks."""
        plane = self._columnar_plane
        if plane is None:
            plane = self._columnar_plane = DeliveryPlane(
                self.indptr, self.indices,
                np.concatenate(
                    [delivery_plane(block).repr_rank for block in self.blocks]
                ),
            )
        return plane

    def trial_of(self, rows: np.ndarray) -> np.ndarray:
        """The trial index of each dense grid row.  Uniform block sizes
        (the common same-graph seed sweep) take an integer division; the
        general case binary-searches the offset table."""
        sizes = self.block_sizes
        if self.trials == 1:
            return np.zeros(len(rows), dtype=np.int64)
        if int(sizes.min()) == int(sizes.max()):
            # Rows may arrive in the grid's narrowed dtype; trial ids
            # feed (trial * width + bits) bincount keys, so widen here.
            return (rows // int(sizes[0])).astype(np.int64, copy=False)
        return np.searchsorted(self.offsets[1:], rows, side="right")

