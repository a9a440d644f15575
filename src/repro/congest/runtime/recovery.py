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
* **delay** ``D`` — a copy delayed by ``d ≤ window - 2`` rounds still
  lands inside its window, so ``retries >= D / 2`` makes bounded delay
  *deterministically* invisible to the inner algorithm;
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
inner spec, so wrapped traffic still rides the array fast path).  The
inner algorithm needs **zero changes**: it sees logical rounds,
assembled logical inboxes, and its own spec.  Inner halts are deferred
to the end of the window (the wrapper still has that vertex's last
emission to retransmit), then applied for real — so a wrapped run halts,
and freezes on the grid plane, exactly like its inner run would.

With a zero-rate fault plan the wrapper still changes the execution (its
clock is slower by the window factor), so the byte-identity keystone for
wrappers is stated differently: wrapper + zero-rate plan is
byte-identical to wrapper + no plan at all (``tests/test_runtime.py``
enforces it per registered plane).

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
from repro.congest.runtime.faults import _cumsum0

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
        degrees = np.asarray(ctx.degrees, dtype=np.int64)
        edge_senders = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self._edge_keys = np.sort(edge_senders * n + ctx.indices)
        edges = len(self._edge_keys)
        self._accepted_edge = np.zeros(edges, dtype=bool)
        self._acked_edge = np.zeros(edges, dtype=bool)
        self._inner_halted = np.zeros(n, dtype=bool)
        self._out = None              # (senders, receivers, cols, sums, ranks)
        self._window_parts: list = [] # accepted (senders, receivers, cols)
        self._ack_pending: set = set()  # ack-direction edge ranks
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
        """Wrap the inner round's emissions: expand broadcasts over the
        CSR, checksum each message, and stage everything as this
        window's outstanding (unacknowledged) data."""
        self._out = None
        if not captured:
            return
        parts_s, parts_r, parts_c = [], [], []
        indptr, indices = ctx.indptr, ctx.indices
        degrees = np.asarray(ctx.degrees, dtype=np.int64)
        for senders, receivers, columns, _var in captured:
            if receivers is None:
                counts = degrees[senders]
                total = int(counts.sum())
                offsets = _cumsum0(counts)
                pos = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(offsets[:-1], counts)
                    + np.repeat(indptr[senders], counts)
                )
                parts_s.append(np.repeat(senders, counts))
                parts_r.append(indices[pos])
                parts_c.append({
                    name: np.repeat(column, counts)
                    for name, column in columns.items()
                })
            else:
                parts_s.append(senders)
                parts_r.append(receivers)
                parts_c.append(columns)
        if len(parts_s) == 1:
            out_s, out_r, out_c = parts_s[0], parts_r[0], parts_c[0]
        else:
            out_s = np.concatenate(parts_s)
            out_r = np.concatenate(parts_r)
            out_c = {
                name: np.concatenate([part[name] for part in parts_c])
                for name in parts_c[0]
            }
        sums = self._checksums(out_c)
        ranks = np.searchsorted(
            self._edge_keys,
            out_s.astype(np.int64, copy=False) * self.n + out_r,
        )
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
        (once per directed edge per window) and queued for ack."""
        inbox = ctx.inbox
        senders = inbox.senders
        receivers = inbox.receivers()
        rkind = inbox.column("rkind").astype(np.int64)
        rseq = inbox.column("rseq").astype(np.int64)
        current = rseq == seq
        acks = current & (rkind == 1)
        if acks.any():
            data_keys = (
                receivers[acks].astype(np.int64, copy=False) * self.n
                + senders[acks]
            )
            self._acked_edge[
                np.searchsorted(self._edge_keys, data_keys)
            ] = True
        data = np.flatnonzero(current & (rkind == 0))
        if not data.size:
            return
        ranks = np.searchsorted(
            self._edge_keys,
            senders[data].astype(np.int64, copy=False) * self.n
            + receivers[data],
        )
        # Every current-seq data message earns an ack (a redelivery
        # means our previous ack was lost), but only checksum-valid
        # first copies are accepted.
        inner_cols = {
            name: inbox.column(name).astype(np.int64)[data]
            for name in self.inner.spec.names
        }
        valid = self._checksums(inner_cols) == inbox.column(
            "rsum"
        ).astype(np.int64)[data]
        ack_keys = (
            receivers[data[valid]].astype(np.int64, copy=False) * self.n
            + senders[data[valid]]
        )
        self._ack_pending.update(
            np.searchsorted(self._edge_keys, ack_keys).tolist()
        )
        fresh = valid & ~self._accepted_edge[ranks]
        if not fresh.any():
            return
        # Within-round duplicates: keep the first copy per edge.
        idx = np.flatnonzero(fresh)
        _unique, first = np.unique(ranks[idx], return_index=True)
        idx = idx[np.sort(first)]
        self._accepted_edge[ranks[idx]] = True
        pick = data[idx]
        self._window_parts.append((
            senders[pick].copy(),
            receivers[pick].copy(),
            {name: column[idx] for name, column in inner_cols.items()},
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
        ctx._emissions.append((out_s[idx], out_r[idx], columns, {}))

    def _send_acks(self, ctx, seq: int) -> None:
        if not self._ack_pending:
            return
        ranks = np.fromiter(
            sorted(self._ack_pending), dtype=np.int64,
            count=len(self._ack_pending),
        )
        self._ack_pending.clear()
        keys = self._edge_keys[ranks]
        senders = keys // self.n
        receivers = keys % self.n
        live = ~ctx.halted[senders]
        if not live.any():
            return
        senders, receivers = senders[live], receivers[live]
        count = len(senders)
        columns = {
            "rkind": np.ones(count, dtype=np.int64),
            "rseq": np.full(count, seq, dtype=np.int64),
            "rsum": np.zeros(count, dtype=np.int64),
        }
        for name in self.inner.spec.names:
            columns[name] = np.zeros(count, dtype=np.int64)
        ctx._emissions.append((senders, receivers, columns, {}))

    def _close_window(self, ctx) -> None:
        """Assemble the logical inbox from this window's accepted
        traffic, reset the window state, and apply deferred inner halts
        for real."""
        parts = self._window_parts
        self._window_parts = []
        self._out = None
        self._ack_pending.clear()
        inner_spec = self.inner.spec
        if parts:
            senders = np.concatenate([part[0] for part in parts])
            receivers = np.concatenate([part[1] for part in parts])
            order = np.argsort(receivers, kind="stable")
            indptr = _cumsum0(np.bincount(receivers, minlength=self.n))
            columns = {
                name: np.concatenate(
                    [part[2][name] for part in parts]
                )[order].astype(dtype)
                for name, dtype in inner_spec.fields
            }
            self._logical_inbox = ColumnarInbox(
                self.n, senders[order], indptr, columns
            )
            self._accepted_edge[:] = False
        else:
            self._logical_inbox = ColumnarInbox.empty(self.n, inner_spec)
        newly = self._inner_halted & ~ctx.halted
        if newly.any():
            ctx.halt(newly)

    def outputs(self, ctx) -> list:
        return self.inner.outputs(ctx)
