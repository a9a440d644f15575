"""Reliable delivery over the faulty CONGEST runtime: ack/retransmit
wrappers that win guarantees back.

The fault layer (:mod:`repro.congest.runtime.faults`) shows *where* the
paper's guarantees break; this module is the first half of winning them
back.  A reliability wrapper runs an unmodified inner algorithm on a
slowed-down clock: each **logical** round of the inner algorithm
occupies a **window** of ``2 * (retries + 1)`` physical rounds,
alternating data subrounds (fresh send, then retransmission of anything
unacknowledged) with acknowledgement subrounds.  Every wrapped data
message carries a sequence number (the logical round, mod 2^16) and a
payload checksum; the receiver accepts at most one copy per directed
edge per window, discards stale or corrupted traffic, and acks what it
accepts.  The effect is to convert message faults into round overhead:

* **drop** ``p`` — each message gets ``retries + 1`` independent
  transmission attempts, so the per-message loss residual is
  ``p^(retries + 1)``;
* **delay** ``D`` — a fresh send delayed by ``d ≤ window - 2`` rounds
  still lands inside its window, so with ``retries >= D / 2`` bounded
  delay, alone or with duplication, is invisible to the inner algorithm.
  That holds only while no other fault forces a retransmission: a
  retransmission sent at data subround ``2j`` and delayed by more than
  ``window - 2 - 2j`` rounds lands in the next window, where it is
  discarded as stale.  Drop or corrupt combined with delay can therefore
  lose messages the same drop or corrupt rate alone would not;
* **corrupt** — the runtime's Byzantine adversary flips the low bit of
  every integer field, which necessarily flips the sequence number's own
  low bit, so a corrupted wrapper message is always discarded as stale.
  The checksum is the general defence: its leaf weights are all even
  (``value_i * 2^(i+1)``), so a low-bit flip changes the recomputed sum
  by an even amount while the transmitted checksum field itself moves by
  an odd one — detection is exact against this adversary, probabilistic
  against arbitrary corruption;
* **dup** — the per-edge accepted flag makes redelivery idempotent;
* **crash** — a crashed peer simply never acks; the sender abandons the
  message when the window closes (bounded retries), exactly the
  crash-stop semantics the validators expect.

Two wrappers implement the same protocol on the two plane families:
:class:`ReliableNodeAlgorithm` (object planes, arbitrary payloads) and
:class:`ColumnarReliable` (columnar + grid planes, fixed-width specs —
the wrapper prepends ``rkind``/``rseq``/``rsum`` header fields to the
inner spec, so wrapped traffic still rides the array fast path, and
it fans out, concatenates and receiver-sorts with the columnar plane's
own delivery phases from :mod:`repro.congest.runtime.compile`).  The
inner algorithm needs **zero changes**: it sees logical rounds,
assembled logical inboxes, and its own spec.  Inner halts are deferred
to the end of the window (the wrapper still has that vertex's last
emission to retransmit), then applied for real — so a wrapped run halts,
and freezes on the grid plane, exactly like its inner run would.

With a zero-rate fault plan the wrapper still changes the execution (its
clock is slower by the window factor), so the byte-identity keystone for
wrappers is stated differently: wrapper + zero-rate plan is
byte-identical to wrapper + no plan at all (``tests/test_runtime.py``
enforces it per plane).

>>> import numpy as np
>>> payload_checksum((3, True))  # 3·2¹ + 1·2²
10
>>> payload_checksum((3 ^ 1, True)) != payload_checksum((3, True))
True
"""

from __future__ import annotations

import numpy as np

from repro.congest.columnar import ColumnarAlgorithm, ColumnarInbox
from repro.congest.message import Broadcast, ColumnarSpec, Message
from repro.congest.network import NodeAlgorithm
from repro.congest.runtime.compile import (
    _assemble_sorted,
    _concat,
    _concat_ranked,
    _fan_out,
)

_CHECKSUM_MOD = 1 << 30  # fits the uint32 rsum field
_HEADER_FIELDS = (("rkind", np.uint8), ("rseq", np.uint16),
                  ("rsum", np.uint32))
_SEQ_MOD = 1 << 16


def _int_leaves(value, out) -> None:
    if isinstance(value, bool):
        out.append(int(value))
    elif isinstance(value, (int, np.integer)):
        out.append(int(value))
    elif isinstance(value, (tuple, list)):
        for item in value:
            _int_leaves(item, out)


def payload_checksum(payload) -> int:
    """Checksum of a payload's integer leaves: ``Σ leaf_i * 2^(i+1)``
    mod ``2^30``.  Every weight is even, which is what makes detection
    of the runtime's low-bit-flip adversary exact (module docstring).

    >>> payload_checksum(7)
    14
    >>> payload_checksum((1, (2, 3)))
    34
    """
    leaves: list = []
    _int_leaves(payload, leaves)
    return sum(v << (i + 1) for i, v in enumerate(leaves)) % _CHECKSUM_MOD


class ReliableNodeAlgorithm(NodeAlgorithm):
    """Ack/retransmit wrapper for the object plane family.

    ``ReliableNodeAlgorithm(inner, retries=2)`` runs ``inner`` on a
    ``2 * (retries + 1)``-round window per logical round.  Data messages
    are ``Message((0, seq, checksum, payload))``, acks
    ``Message((1, seq, 0, 0))``; the protocol details are in the module
    docstring.  Outputs, inputs, and the logical round numbering the
    inner algorithm observes are untouched.
    """

    def __init__(self, inner: NodeAlgorithm, retries: int = 2) -> None:
        super().__init__()
        if int(retries) != retries or retries < 0:
            raise ValueError(
                f"retries must be a non-negative int, got {retries!r}"
            )
        self.inner = inner
        self.retries = int(retries)
        self.window = 2 * (self.retries + 1)

    def spawn(self) -> "ReliableNodeAlgorithm":
        return ReliableNodeAlgorithm(self.inner.spawn(), self.retries)

    def initialize(self, ctx) -> None:
        self.inner.input = getattr(self, "input", None)
        self.outstanding: dict = {}   # receiver -> wrapped Message
        self.accepted: dict = {}      # sender -> inner payload
        self.ack_to: set = set()      # senders owed an ack
        self.logical_inbox: dict = {} # sender -> Message, for next step
        self.inner.initialize(ctx)

    def on_round(self, ctx, inbox):
        window = self.window
        k = (ctx.round_number - 1) % window
        logical = (ctx.round_number - 1) // window + 1
        seq = logical % _SEQ_MOD
        for sender, message in inbox.items():
            payload = message.payload
            if not (isinstance(payload, tuple) and len(payload) == 4):
                continue  # corrupted beyond the protocol's framing
            rkind, rseq, rsum, body = payload
            if rseq != seq:
                continue  # stale window — or corrupted (seq bit flipped)
            if rkind == 1:
                self.outstanding.pop(sender, None)
            elif rkind == 0:
                if sender in self.accepted:
                    self.ack_to.add(sender)  # our ack was lost: re-ack
                elif payload_checksum(body) == rsum:
                    self.accepted[sender] = body
                    self.ack_to.add(sender)
        if k % 2 == 0:
            if k == 0:
                self._step_inner(ctx, logical, seq)
            outgoing = dict(self.outstanding)
        else:
            ack = Message((1, seq, 0, 0))
            outgoing = {sender: ack for sender in sorted(self.ack_to,
                                                         key=repr)}
            self.ack_to.clear()
        if k == window - 1:
            self.logical_inbox = {
                sender: Message(body)
                for sender, body in self.accepted.items()
            }
            self.accepted = {}
            self.outstanding = {}
            if self.inner.halted:
                self.halt()
        return outgoing

    def _step_inner(self, ctx, logical: int, seq: int) -> None:
        inbox, self.logical_inbox = self.logical_inbox, {}
        if self.inner.halted:
            return
        real_round = ctx.round_number
        ctx.round_number = logical
        try:
            sent = self.inner.on_round(ctx, inbox)
        finally:
            ctx.round_number = real_round
        if not sent:
            return
        if isinstance(sent, Broadcast):
            sent = sent.expand(ctx.neighbors)
        self.outstanding = {
            receiver: Message(
                (0, seq, payload_checksum(message.payload), message.payload)
            )
            for receiver, message in sent.items()
        }

    def output(self):
        return self.inner.output()


class ColumnarReliable(ColumnarAlgorithm):
    """Ack/retransmit wrapper for the columnar plane family (grid-safe
    whenever the inner algorithm is).

    The wrapper's spec prepends the protocol header to the inner spec —
    ``rkind`` (0 data / 1 ack), ``rseq`` (logical round mod 2^16), and
    ``rsum`` (checksum of the inner fields) — so a wrapped message costs
    56 extra bits and everything stays on the array fast path.  Only
    fixed-width inner specs are supported (variable-width traffic goes
    through :class:`ReliableNodeAlgorithm` on the object planes).

    The inner algorithm is stepped once per window with its own spec,
    an assembled logical :class:`ColumnarInbox`, and the logical round
    number swapped into the context; its emissions are captured and its
    halts deferred to the window boundary (so the wrapper can keep
    retransmitting a halting vertex's final messages).  Emission and
    retransmission are always gated on the *real* halt mask, which is
    what makes grid freezes and crash-stops behave exactly as they do
    for an unwrapped algorithm.
    """

    def __init__(self, inner: ColumnarAlgorithm, retries: int = 2) -> None:
        if int(retries) != retries or retries < 0:
            raise ValueError(
                f"retries must be a non-negative int, got {retries!r}"
            )
        inner_spec = inner.spec
        if inner_spec.var_names:
            raise ValueError(
                "ColumnarReliable supports fixed-width inner specs only; "
                f"spec declares var fields {list(inner_spec.var_names)}"
            )
        reserved = {name for name, _dtype in _HEADER_FIELDS}
        clash = reserved & set(inner_spec.names)
        if clash:
            raise ValueError(
                f"inner spec fields {sorted(clash)} collide with the "
                f"reliability header"
            )
        self.inner = inner
        self.retries = int(retries)
        self.window = 2 * (self.retries + 1)
        self.spec = ColumnarSpec(*_HEADER_FIELDS, *inner_spec.fields)
        self.grid_safe = bool(getattr(inner, "grid_safe", False))

    def spawn(self) -> "ColumnarReliable":
        return ColumnarReliable(self.inner.spawn(), self.retries)

    def setup(self, ctx) -> None:
        n = ctx.n
        self.n = n
        # The delivery plane's edge ranks (the ones unicast validation
        # and the fault pass use), so a wrapped run holds one edge table.
        self._plane = ctx._plane
        edges = int(ctx.indptr[-1])
        # Flags over edge ranks.  Acks are flagged at their data edge;
        # accepted data and owed acks at the data's reverse (ack-
        # direction) rank, which _absorb gathers from the plane's
        # reverse table.  Reversal is a bijection on the symmetric edge
        # table, so that is still one accepted flag per directed data
        # edge.
        self._accepted_edge = np.zeros(edges, dtype=bool)
        self._acked_edge = np.zeros(edges, dtype=bool)
        self._ack_pending = np.zeros(edges, dtype=bool)
        self._inner_halted = np.zeros(n, dtype=bool)
        self._out = None              # (senders, receivers, cols, sums, ranks)
        self._window_parts: list = [] # accepted message tuples
        self._logical_inbox = ColumnarInbox.empty(n, self.inner.spec)
        real_spec, real_inbox = ctx._spec, ctx.inbox
        ctx._spec = self.inner.spec
        ctx.inbox = self._logical_inbox
        try:
            self.inner.setup(ctx)
        finally:
            ctx._spec, ctx.inbox = real_spec, real_inbox

    def on_round(self, ctx) -> None:
        window = self.window
        k = (ctx.round_number - 1) % window
        logical = (ctx.round_number - 1) // window + 1
        seq = logical % _SEQ_MOD
        if len(ctx.inbox):
            self._absorb(ctx, seq)
        if k % 2 == 0:
            if k == 0:
                self._load_outstanding(
                    ctx, self._step_inner(ctx, logical), seq
                )
            self._retransmit(ctx, seq)
        else:
            self._send_acks(ctx, seq)
        if k == window - 1:
            self._close_window(ctx)

    # -- inner interception --------------------------------------------------
    def _step_inner(self, ctx, logical: int) -> list:
        """Step the inner algorithm one logical round behind swapped
        context state (spec, inbox, round number, halt mask) and return
        its captured emissions.  The swapped-in halt mask is the
        wrapper's deferred copy, so inner halts (which often follow a
        final emission the wrapper must still retransmit) don't reach
        the executor until the window closes."""
        self._inner_halted |= ctx.halted  # absorb crashes / grid freezes
        inbox, self._logical_inbox = (
            self._logical_inbox,
            ColumnarInbox.empty(self.n, self.inner.spec),
        )
        real = (ctx.halted, ctx._halted_count, ctx._spec, ctx._emissions,
                ctx.inbox, ctx.round_number)
        ctx.halted = self._inner_halted
        ctx._halted_count = int(np.count_nonzero(self._inner_halted))
        ctx._spec = self.inner.spec
        ctx._emissions = []
        ctx.inbox = inbox
        ctx.round_number = logical
        try:
            self.inner.on_round(ctx)
            captured = ctx._emissions
        finally:
            self._inner_halted = ctx.halted
            (ctx.halted, ctx._halted_count, ctx._spec, ctx._emissions,
             ctx.inbox, ctx.round_number) = real
        return captured

    def _load_outstanding(self, ctx, captured: list, seq: int) -> None:
        """Wrap the inner round's emissions: fan broadcasts out over the
        CSR and concatenate (the shared delivery phases), checksum each
        message, and stage everything as this window's outstanding
        (unacknowledged) data, with its edge ranks — a broadcast copy's
        gathered from the plane's slot table, a unicast's searched."""
        self._out = None
        if not captured:
            return
        plane = self._plane
        # A unicast to a non-neighbour gets some in-range rank here, not
        # its own: delivery finds the mismatch when the message is first
        # sent, searches, and rejects it as the unwrapped executor does.
        (out_s, out_r, out_c, _var), ranks = _concat_ranked([
            _fan_out(ctx.indptr, ctx.indices, ctx.degrees[message[0]],
                     message, plane.slot_ranks)
            if message[1] is None else (message, plane.ranks(*message[:2])[0])
            for message, _ranks in captured
        ])
        sums = self._checksums(out_c)
        self._acked_edge[ranks] = False  # lazily clear prior windows
        self._out = (out_s, out_r, out_c, sums, ranks)

    # -- protocol steps ------------------------------------------------------
    def _checksums(self, columns: dict) -> np.ndarray:
        total = np.zeros(
            len(next(iter(columns.values()))) if columns else 0,
            dtype=np.int64,
        )
        for i, name in enumerate(self.inner.spec.names):
            total = (
                total + (columns[name].astype(np.int64) << (i + 1))
            ) % _CHECKSUM_MOD
        return total

    def _absorb(self, ctx, seq: int) -> None:
        """Process one physical inbox: current-seq acks clear
        outstanding flags; fresh valid current-seq data is accepted
        (once per directed edge per window) and queued for ack.

        Each current-seq message's *reverse* edge rank (``receiver →
        sender``) is one gather: the plane's reverse table read at the
        forward ranks the delivery carried into the inbox
        (:meth:`ColumnarInbox.edge_ranks`).  It is an ack's data edge
        and a data message's ack edge — and, reversal being a bijection
        on edges, a data message's key in the accepted flags.
        """
        inbox = ctx.inbox
        current = np.flatnonzero(inbox.column("rseq") == seq)
        if not current.size:
            return
        plane = self._plane
        back = plane.reverse[inbox.edge_ranks(plane)[current]]
        kinds = inbox.column("rkind")[current]
        self._acked_edge[back[kinds == 1]] = True
        is_data = kinds == 0
        data = current[is_data]
        if not data.size:
            return
        back = back[is_data]
        # Every current-seq data message earns an ack (a redelivery
        # means our previous ack was lost), but only checksum-valid
        # first copies are accepted.
        inner_cols = {
            name: inbox.column(name)[data].astype(np.int64, copy=False)
            for name in self.inner.spec.names
        }
        valid = self._checksums(inner_cols) == inbox.column(
            "rsum"
        )[data].astype(np.int64, copy=False)
        self._ack_pending[back[valid]] = True
        fresh = valid & ~self._accepted_edge[back]
        if not fresh.any():
            return
        # Within-round duplicates: keep the first copy per edge.
        idx = np.flatnonzero(fresh)
        _unique, first = np.unique(back[idx], return_index=True)
        idx = idx[np.sort(first)]
        self._accepted_edge[back[idx]] = True
        pick = data[idx]
        self._window_parts.append((
            inbox.senders[pick],
            inbox.receivers()[pick],
            {name: column[idx] for name, column in inner_cols.items()},
            {},
        ))

    def _retransmit(self, ctx, seq: int) -> None:
        if self._out is None:
            return
        out_s, out_r, out_c, sums, ranks = self._out
        send = ~self._acked_edge[ranks] & ~ctx.halted[out_s]
        if not send.any():
            return
        idx = np.flatnonzero(send)
        count = len(idx)
        columns = {
            "rkind": np.zeros(count, dtype=np.int64),
            "rseq": np.full(count, seq, dtype=np.int64),
            "rsum": sums[idx],
        }
        for name in self.inner.spec.names:
            columns[name] = out_c[name][idx]
        # Each resend carries its rank, so delivery confirms it by a
        # gather instead of searching for it again.
        ctx._emissions.append(
            ((out_s[idx], out_r[idx], columns, {}), ranks[idx])
        )

    def _send_acks(self, ctx, seq: int) -> None:
        ranks = np.flatnonzero(self._ack_pending)
        if not ranks.size:
            return
        self._ack_pending[ranks] = False
        senders, receivers = self._plane.endpoints(ranks)
        live = ~ctx.halted[senders]
        if not live.any():
            return
        senders, receivers = senders[live], receivers[live]
        ranks = ranks[live]
        count = len(senders)
        columns = {
            "rkind": np.ones(count, dtype=np.int64),
            "rseq": np.full(count, seq, dtype=np.int64),
            "rsum": np.zeros(count, dtype=np.int64),
        }
        for name in self.inner.spec.names:
            columns[name] = np.zeros(count, dtype=np.int64)
        ctx._emissions.append(((senders, receivers, columns, {}), ranks))

    def _close_window(self, ctx) -> None:
        """Assemble the logical inbox from this window's accepted
        traffic (concatenation and receiver-sorted assembly, the shared
        delivery phases), reset the window state, and apply deferred
        inner halts for real."""
        parts = self._window_parts
        self._window_parts = []
        self._out = None
        # _ack_pending is already empty: the window's last subround is
        # an ack subround, and _send_acks clears what it reads.
        inner_spec = self.inner.spec
        if parts:
            self._logical_inbox = ColumnarInbox(self.n, *_assemble_sorted(
                self.n, _concat(parts), inner_spec.fields
            ))
            self._accepted_edge[:] = False
        else:
            self._logical_inbox = ColumnarInbox.empty(self.n, inner_spec)
        newly = self._inner_halted & ~ctx.halted
        if newly.any():
            ctx.halt(newly)

    def outputs(self, ctx):
        return self.inner.outputs(ctx)
