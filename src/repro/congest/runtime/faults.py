"""Fault injection for the CONGEST runtime: one plan, every plane.

A :class:`FaultPlan` describes an adversary as five independent knobs —
crash-stop vertex failures (``crash``), per-message link loss (``drop``),
per-message duplication (``dup``), bounded-delay asynchrony
(``delay``: a message sent in round ``r`` arrives in round ``r + d`` for
a per-message ``d ≤ delay``), and Byzantine payload corruption
(``corrupt``: a per-message low-bit flip on every integer field) — plus
a ``target`` selector that reshapes *where* those rates land (see
"Targeted adversaries" below).  A :class:`FaultState` executes one plan
over one run: the executors consult it at two seams only — a crash draw
at the top of every round, and a fate pass over the round's validated
traffic just before delivery — so **every execution plane
injects the same faults with zero algorithm changes**.  The array fate
pass reuses the columnar plane's delivery phases
(:mod:`repro.congest.runtime.compile`) for every subset and merge.

Seed discipline
---------------
All randomness is counter-based (:class:`numpy.random.Philox`), keyed by
``(plan.seed, round)`` with the per-vertex / per-edge decision read at a
canonical index: vertices use their dense row, messages use their
directed edge's rank (:meth:`DeliveryPlane.ranks
<repro.congest.runtime.compile.DeliveryPlane.ranks>`, the search the
columnar plane validates unicasts with).  A fault
decision is therefore a pure function of ``(seed, round, edge)`` —
independent of emission order, of the executing plane, and of the
algorithm's own RNG streams — so the object engine, its reference loop,
the columnar plane, and the trial-major grid all realize byte-identical
fault schedules.  On a grid, each trial block draws from its *own*
plan's Philox stream and its edge ranks decompose as
``block edge offset + local rank`` (block key ranges are disjoint and
ordered), so a batched trial sees exactly the faults its single run
would.  Only the stream slices a plan can use (non-zero rate) are
drawn; each is read at its offset in the block's full layout, so the
uniforms do not depend on which other knobs are set (see
:meth:`FaultState._block_uniforms`).  Fates are decided per block, once
per round, in the first round-step that reads the block: the array
pass fills only the blocks its fresh traffic falls in, so a block that
sends nothing in a round is never drawn for it (a fate is a function
of ``(seed, round, edge)`` alone, so when it is drawn cannot change
it).  Each fill writes ``u < p`` (and the delay) into per-edge fate
tables that the array pass and the per-message pass both read.

Semantics
---------
* **Crash** (crash-stop): at the start of round ``r``, each still-running
  vertex crashes with probability ``crash``; a crashed vertex is halted
  permanently (it never steps or emits again) and messages arriving at
  it are discarded (counted as dropped).  Vertices draw at most one
  crash decision per round.
* **Drop / dup / delay** apply per message at delivery construction, in
  that order: dropped originals vanish; each survivor is duplicated with
  probability ``dup`` (the copy is adjacent to the original and, sharing
  its edge, shares its delay); each copy's delay ``d`` is uniform on
  ``{0, …, delay}``.  ``d = 0`` delivers normally; ``d ≥ 1`` buffers the
  copy until round ``r + d``, where matured traffic is delivered *before*
  that round's immediate messages (send-round order, emission order
  within a send round).  CONGEST algorithms send at most one message per
  directed edge per round, so one draw per ``(edge, round)`` suffices.
* **Corrupt** (Byzantine value corruption) is decided per
  ``(edge, round)`` *before* the drop draw and flips the low bit of
  every integer field of the message (booleans negate; non-integer
  payload leaves pass through).  The flip stays within the field's
  dtype bounds, so corrupted traffic still validates; duplicated and
  delayed copies share their original's corrupted payload.  Corruption
  never changes the bit accounting — sends are counted before fates.
* On the object family's dict inboxes (keyed by sender) a duplicate —
  and a delayed copy colliding with a fresher message from the same
  sender — collapses to the latest write, exactly as two same-round
  sends would; the columnar inbox keeps every copy as its own row.
  Fault counters are identical either way.

Targeted adversaries
--------------------
``target`` replaces the uniform i.i.d. placement of the rates with a
structured adversary; the *rates* keep their meaning, the *support*
changes:

* ``target="degree[:frac]"`` — top-degree targeting: only the
  ``ceil(frac * n)`` highest-degree vertices (default ``frac=0.25``;
  ties broken by dense row) can crash, and only edges incident to them
  see drop/dup/delay/corrupt.
* ``target="cut"`` — cut-edge targeting: message faults land only on
  bridge edges of the topology (both orientations); ``crash`` keeps its
  i.i.d. placement.
* ``target="budget"`` — an adaptive adversary with a per-round budget:
  each round it spends ``ceil(rate * m_r)`` drop/corrupt decisions (and
  ``ceil(dup * survivors)`` duplications) on the *busiest* edges of that
  round's actual traffic — messages ordered by their sender's send count
  this round, ties by edge rank.  The selection is a pure function of
  the round's traffic, so every plane realizes the same schedule;
  ``crash`` and ``delay`` stay i.i.d. under ``budget``.

Static targets are compiled into the per-edge/per-vertex rate tables at
:class:`FaultState` construction, so the Philox draw discipline — and
the zero-rate byte-identity keystone — is unchanged.

The keystone property, enforced per plane by ``tests/test_runtime.py``:
a zero-rate plan runs the fate pass (ranks carried, merge of matured
traffic, crash filter) yet is **byte-identical** — outputs and every
metrics counter — to running with no plan at all.  It draws no
uniforms, and every stream is dead in every block, so the pass builds
no fate table and takes no gather, mask or tally; a plan that is live
somewhere keeps dead slices at False / 0, which is what a zero rate
decides on any uniform (``u < 0`` is false, and a delay of
``floor(u * 1)`` is 0).

>>> plan = FaultPlan.parse("drop=0.25,delay=2,seed=7")
>>> (plan.drop, plan.delay, plan.seed)
(0.25, 2, 7)
>>> FaultPlan().active  # the zero plan injects nothing
False
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.congest.runtime.compile import (
    GridTopology,
    _concat_ranked,
    _cumsum0,
    _subset,
)


def _split(message, bounds):
    """Cut a message tuple at the row positions ``bounds`` (ascending,
    from 0 to its length) into consecutive views, var pools included.

    >>> parts = _split((np.arange(4), np.arange(4), {},
    ...                 {"seq": (np.arange(6), np.array([1, 2, 0, 3]))}),
    ...                [0, 1, 1, 4])
    >>> [(part[0].tolist(), part[3]["seq"][0].tolist()) for part in parts]
    [([0], [0]), ([], []), ([1, 2, 3], [1, 2, 3, 4, 5])]
    """
    senders, receivers, columns, var = message
    offsets = {name: _cumsum0(lengths) for name, (_p, lengths) in var.items()}
    return [
        (
            senders[lo:hi],
            receivers[lo:hi],
            {name: column[lo:hi] for name, column in columns.items()},
            {
                name: (pool[offsets[name][lo]:offsets[name][hi]],
                       lengths[lo:hi])
                for name, (pool, lengths) in var.items()
            },
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


@dataclass(frozen=True)
class FaultPlan:
    """One adversary configuration (see the module docstring).

    ``crash``/``drop``/``dup``/``corrupt`` are probabilities in
    ``[0, 1]``; ``delay`` is the maximum per-message delay ``D ≥ 0``
    (each copy's actual delay is uniform on ``{0, …, D}``); ``seed``
    keys the Philox streams; ``target`` selects a structured adversary
    (``""``, ``"degree[:frac]"``, ``"cut"``, or ``"budget"``).

    >>> FaultPlan(crash=0.5).active
    True
    >>> FaultPlan(drop=2.0)
    Traceback (most recent call last):
        ...
    ValueError: fault probability drop=2.0 outside [0, 1]
    >>> FaultPlan(drop=0.5, target="everything")
    Traceback (most recent call last):
        ...
    ValueError: unknown fault target 'everything'; expected degree[:frac], cut, or budget
    """

    seed: int = 0
    crash: float = 0.0
    drop: float = 0.0
    dup: float = 0.0
    delay: int = 0
    corrupt: float = 0.0
    target: str = ""

    def __post_init__(self) -> None:
        for name in ("crash", "drop", "dup", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= float(p) <= 1.0:
                raise ValueError(
                    f"fault probability {name}={p} outside [0, 1]"
                )
        if int(self.delay) != self.delay or self.delay < 0:
            raise ValueError(f"delay must be a non-negative int, got {self.delay!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")
        name, _, arg = self.target.partition(":")
        if name not in ("", "degree", "cut", "budget") or (
            arg and name != "degree"
        ):
            raise ValueError(
                f"unknown fault target {self.target!r}; expected "
                f"degree[:frac], cut, or budget"
            )
        if name == "degree" and arg:
            try:
                frac = float(arg)
            except ValueError:
                raise ValueError(
                    f"degree target fraction {arg!r} is not a number"
                ) from None
            if not 0.0 < frac <= 1.0:
                raise ValueError(
                    f"degree target fraction {arg} outside (0, 1]"
                )

    @property
    def active(self) -> bool:
        """True when any knob can actually perturb a run."""
        return bool(
            self.crash or self.drop or self.dup or self.delay or self.corrupt
        )

    def reseed(self, seed: int) -> "FaultPlan":
        """The same adversary on a fresh Philox stream — how sweeps give
        each trial independent fault schedules.

        >>> FaultPlan(drop=0.1, seed=3).reseed(9).seed
        9
        """
        return dataclasses.replace(self, seed=seed)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI-style spec: comma-separated ``key=value`` pairs
        over the field names (``crash``, ``drop``, ``dup``, ``delay``,
        ``corrupt``, ``seed``, ``target``).  ``target=degree:0.5`` works
        as-is — the colon is not a separator.

        >>> FaultPlan.parse("crash=0.01,corrupt=0.05")
        FaultPlan(seed=0, crash=0.01, drop=0.0, dup=0.0, delay=0, corrupt=0.05, target='')
        >>> FaultPlan.parse("drop=0.3,target=degree:0.5").target
        'degree:0.5'
        >>> FaultPlan.parse("jitter=1")
        Traceback (most recent call last):
            ...
        ValueError: unknown fault knob 'jitter'; expected crash, drop, dup, delay, corrupt, seed, target
        """
        kwargs: dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(
                    f"fault spec entry {part!r} is not key=value"
                )
            if key in ("crash", "drop", "dup", "corrupt"):
                kwargs[key] = float(value)
            elif key in ("delay", "seed"):
                kwargs[key] = int(value)
            elif key == "target":
                kwargs[key] = value.strip()
            else:
                raise ValueError(
                    f"unknown fault knob {key!r}; expected crash, drop, "
                    f"dup, delay, corrupt, seed, target"
                )
        return cls(**kwargs)


def _flip_int_leaves(value):
    """Flip the low bit of every integer leaf of a payload (bools
    negate); non-integer leaves pass through unchanged.

    >>> _flip_int_leaves((4, True, "tag", [7]))
    (5, False, 'tag', [6])
    """
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, np.integer)):
        return value ^ 1
    if isinstance(value, tuple):
        return tuple(_flip_int_leaves(item) for item in value)
    if isinstance(value, list):
        return [_flip_int_leaves(item) for item in value]
    return value


def _corrupt_payload(payload):
    """Corrupt one opaque object-seam payload: a ``Message`` (object
    planes) gets a fresh corrupted ``Message``; a decoded columnar
    ``(row, var_row)`` pair (the columnar reference executor) flips the
    same bits the array seam would."""
    from repro.congest.message import Message

    if isinstance(payload, Message):
        return Message(_flip_int_leaves(payload.payload))
    if (
        isinstance(payload, tuple)
        and len(payload) == 2
        and isinstance(payload[1], dict)
    ):
        row, var_row = payload
        return (
            tuple(_flip_int_leaves(item) for item in row),
            {
                name: tuple(_flip_int_leaves(item) for item in values)
                for name, values in var_row.items()
            },
        )
    return _flip_int_leaves(payload)


class FaultState:
    """One :class:`FaultPlan` (or one per trial block) bound to a run.

    ``topology`` is a compiled topology or a :class:`GridTopology`
    (whose blocks are the trials) and ``plans`` one plan per block — a
    single ``Network.run`` passes one (:meth:`for_single`), the grid
    executor one per trial so each block draws from its own plan's
    streams.  Messages are keyed by the topology's delivery-plane edge
    ranks.  The executors call:

    * :meth:`crash_step` once at the top of every round, with the
      still-running mask;
    * :meth:`columnar_step` (array form) or :meth:`object_round`
      (per-message form) on the round's validated traffic;
    * :meth:`flush` exactly once on the way out (single runs), folding
      the fault counters into the run's ``NetworkMetrics``.

    >>> import networkx as nx
    >>> from repro.congest.runtime.compile import compile_topology
    >>> topology = compile_topology(nx.path_graph(3))
    >>> state = FaultState.for_single(FaultPlan(drop=1.0), topology)
    >>> state.object_round(1, [(0, 1, "hello")])  # every message dropped
    []
    >>> int(state.dropped[0])
    1

    Fates are decided per trial block, in the first round that reads
    the block (:meth:`_fill`).  Here only block 0 (rows 0–2) sends in
    round 1, so block 1 (rows 3–5) is never drawn:

    >>> grid = GridTopology([topology, topology])
    >>> state = FaultState(
    ...     [FaultPlan(dup=0.5, seed=1), FaultPlan(dup=0.5, seed=2)], grid
    ... )
    >>> senders, receivers = np.array([0]), np.array([1])  # row 0 → row 1
    >>> ranks, _adjacent = grid.columnar_plane().ranks(senders, receivers)
    >>> _ = state.columnar_step(1, [((senders, receivers, {}, {}), ranks)])
    >>> state._fate_round
    [1, -1]
    """

    def __init__(self, plans: Sequence[FaultPlan], topology) -> None:
        self._plane = topology.columnar_plane()
        self._topologies = (
            topology.blocks if isinstance(topology, GridTopology)
            else [topology]
        )
        self._plans = list(plans)
        self.trials = len(self._plans)
        sizes = np.array(
            [block.n for block in self._topologies], dtype=np.int64
        )
        self.vertex_offsets = _cumsum0(sizes)
        self.n = int(self.vertex_offsets[-1])
        # Block key ranges of the plane's table are disjoint and
        # ascending, so a block's ranks are its first CSR slot plus its
        # local ranks — grid draws decompose into per-trial draws
        # exactly.
        edge_counts = np.array(
            [int(block.indptr[-1]) for block in self._topologies],
            dtype=np.int64,
        )
        self.edge_offsets = _cumsum0(edge_counts)
        self.edges = int(self.edge_offsets[-1])
        # Trial block of every dense row and edge rank (a grid's tallies
        # and its fate fills look blocks up per message).
        block_ids = np.arange(
            self.trials, dtype=np.min_scalar_type(self.trials - 1)
        )
        self._row_block = np.repeat(block_ids, sizes)
        self._edge_block = np.repeat(block_ids, edge_counts)
        # Per-vertex / per-edge fault tables, indexed by dense row /
        # canonical edge rank.
        self.crash_p = np.concatenate([
            np.full(topology.n, plan.crash, dtype=np.float64)
            for plan, topology in zip(self._plans, self._topologies)
        ]) if self.trials > 1 else np.full(
            self.n, self._plans[0].crash, dtype=np.float64
        )
        self.drop_p = self._edge_table("drop", edge_counts, np.float64)
        self.dup_p = self._edge_table("dup", edge_counts, np.float64)
        self.corrupt_p = self._edge_table("corrupt", edge_counts, np.float64)
        # delay d is uniform on {0, …, D}: floor(u * (D + 1)).
        self.delay_span = self._edge_table(
            "delay", edge_counts, np.int64, shift=1
        )
        self.budget_blocks = np.zeros(self.trials, dtype=bool)
        self._compile_targets()
        self._any_budget = bool(self.budget_blocks.any())
        self.crashed = np.zeros(self.n, dtype=bool)
        self.dropped = np.zeros(self.trials, dtype=np.int64)
        self.duplicated = np.zeros(self.trials, dtype=np.int64)
        self.delayed = np.zeros(self.trials, dtype=np.int64)
        self.corrupted = np.zeros(self.trials, dtype=np.int64)
        self.crashed_count = np.zeros(self.trials, dtype=np.int64)
        self.retired_rows = np.zeros(self.n, dtype=bool)
        self._any_retired = False
        self._crashed_rows: list[np.ndarray] = []  # crash order
        # arrival round → [(batch, ranks), …]
        self._buffer: dict[int, list] = {}
        self._pending: dict[int, list] = {}  # arrival round → [(i, j, msg)]
        self._fates = self._fate_tables()
        self._draw_runs = [self._live_runs(t) for t in range(self.trials)]
        self._scratch = np.empty(max(
            (hi - lo for runs in self._draw_runs
             for _start, slices in runs for _stream, lo, hi in slices),
            default=0,
        ))
        # The round each block's fate slices were last filled for.
        self._fate_round = [-1] * self.trials

    @classmethod
    def for_single(cls, plan: FaultPlan, topology) -> "FaultState":
        return cls([plan], topology)

    def _edge_table(self, field, edge_counts, dtype, shift=0):
        parts = [
            np.full(count, getattr(plan, field) + shift, dtype=dtype)
            for plan, count in zip(self._plans, edge_counts)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # -- targeted adversaries ------------------------------------------------
    def _compile_targets(self) -> None:
        """Fold each block's ``target`` selector into its slice of the
        rate tables (static targets) or flag it adaptive (``budget``).
        Rates on untargeted vertices/edges drop to zero; the Philox draw
        layout is untouched, so zero-rate identity survives verbatim."""
        for t, (plan, topology) in enumerate(
            zip(self._plans, self._topologies)
        ):
            name, _, arg = plan.target.partition(":")
            if not name:
                continue
            if name == "budget":
                self.budget_blocks[t] = True
                continue
            off = int(self.vertex_offsets[t])
            lo = int(self.edge_offsets[t])
            hi = int(self.edge_offsets[t + 1])
            senders, receivers = self._plane.endpoints(np.arange(lo, hi))
            senders -= off
            receivers -= off
            if name == "degree":
                frac = float(arg) if arg else 0.25
                degrees = topology.indptr[1:] - topology.indptr[:-1]
                count = max(1, math.ceil(frac * topology.n))
                order = np.argsort(-degrees, kind="stable")
                vmask = np.zeros(topology.n, dtype=bool)
                vmask[order[:count]] = True
                emask = vmask[senders] | vmask[receivers]
                self.crash_p[off:off + topology.n] *= vmask
            else:  # cut
                emask = self._bridge_mask(topology, senders, receivers)
            self.drop_p[lo:hi] *= emask
            self.dup_p[lo:hi] *= emask
            self.corrupt_p[lo:hi] *= emask
            self.delay_span[lo:hi] = np.where(
                emask, self.delay_span[lo:hi], 1
            )

    @staticmethod
    def _bridge_mask(topology, senders, receivers):
        """Boolean mask over a block's edge ranks: True on bridge edges
        (both orientations) of the block's undirected topology."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(topology.n))
        for i in range(topology.n):
            row = topology.indices[topology.indptr[i]:topology.indptr[i + 1]]
            graph.add_edges_from((i, int(j)) for j in row if i < j)
        bridges = set()
        for u, v in nx.bridges(graph):
            bridges.add((u, v))
            bridges.add((v, u))
        return np.fromiter(
            (
                (s, r) in bridges
                for s, r in zip(senders.tolist(), receivers.tolist())
            ),
            dtype=bool,
            count=len(senders),
        )

    # -- counter-based draws -------------------------------------------------
    def _live_runs(self, t: int) -> list:
        """Block ``t``'s live stream slices, grouped into runs of adjacent
        slices: ``[(start, [(stream, lo, hi), …]), …]`` with ``start``
        the run's offset in the block's Philox layout and ``[lo, hi)``
        each slice's place in its stream buffer.  A slice is live when
        the block's plan has a non-zero rate for it."""
        plan = self._plans[t]
        n_b = int(self.vertex_offsets[t + 1] - self.vertex_offsets[t])
        m_b = int(self.edge_offsets[t + 1] - self.edge_offsets[t])
        v_lo, e_lo = int(self.vertex_offsets[t]), int(self.edge_offsets[t])
        slices = [(0, v_lo, v_lo + n_b)] + [
            (stream, e_lo, e_lo + m_b) for stream in range(1, 5)
        ]
        live = (plan.crash, plan.drop, plan.dup, plan.delay, plan.corrupt)
        runs: list = []
        start, run_end = 0, -1
        for (stream, lo, hi), rate in zip(slices, live):
            if rate > 0:
                if start == run_end:
                    runs[-1][1].append((stream, lo, hi))
                else:
                    runs.append((start, [(stream, lo, hi)]))
                run_end = start + hi - lo
            start += hi - lo
        return runs

    def _fate_tables(self) -> tuple:
        """One fate table per stream — crash by dense row (bool); drop,
        dup and corrupt by edge rank (bool); delay by edge rank (the
        smallest unsigned dtype holding every plan's ``D``) — or
        ``None`` for a stream no block can fire on.  A dead stream gets
        no table, gather, mask or tally.  Budget blocks keep drop, dup
        and corrupt live: :meth:`_budget_override` rewrites those masks
        whatever the rates.  Slices a block never draws stay
        False / 0, which is what a zero rate decides on any uniform."""
        plans = self._plans
        live = [
            any(getattr(plan, name) for plan in plans)
            or (self._any_budget and name in ("drop", "dup", "corrupt"))
            for name in ("crash", "drop", "dup", "delay", "corrupt")
        ]
        delay_dtype = np.min_scalar_type(max(plan.delay for plan in plans))
        dtypes = (bool, bool, bool, delay_dtype, bool)
        sizes = (self.n,) + (self.edges,) * 4
        return tuple(
            np.zeros(size, dtype=dtype) if is_live else None
            for is_live, size, dtype in zip(live, sizes, dtypes)
        )

    def _block_uniforms(self, t: int, round_number: int):
        """Yield ``(stream, lo, hi, u)`` for each of block ``t``'s live
        slices in round ``round_number``: ``u`` holds the slice's
        uniforms, in a scratch buffer the next slice overwrites.

        Per block, one Philox stream keyed ``(seed, round)`` defines the
        layout ``[crash n_b | drop m_b | dup m_b | delay m_b | corrupt
        m_b]``.  Only the block's live slices are drawn: each run of
        adjacent live slices jumps to its start with
        ``Philox.advance(start // 4)`` — Philox4x64 emits four 64-bit
        words per counter step and ``Generator.random`` takes one word
        per double — and discards ``start % 4`` draws.  Every drawn
        uniform is therefore the one the full layout holds at that
        index.  The corrupt stream comes *after* the original four, so
        pre-corruption fault schedules are byte-identical to runs
        recorded before the knob existed."""
        seed = self._plans[t].seed
        for start, slices in self._draw_runs[t]:
            bit_generator = np.random.Philox(key=[seed, round_number])
            bit_generator.advance(start // 4)
            generator = np.random.Generator(bit_generator)
            generator.random(start % 4)
            for stream, lo, hi in slices:
                yield stream, lo, hi, generator.random(
                    out=self._scratch[:hi - lo]
                )

    def _fill(self, round_number: int, blocks) -> None:
        """Decide round ``round_number``'s fates for ``blocks``, each at
        most once per round: ``u < p`` for crash, drop, dup and corrupt,
        and a delay of ``floor(u · (D + 1))`` (truncation, ``u ≥ 0``),
        over each live slice's contiguous uniforms.  Blocks nobody reads
        this round keep last round's tables and are never drawn."""
        stamps = self._fate_round
        fates = self._fates
        rates = (self.crash_p, self.drop_p, self.dup_p, self.delay_span,
                 self.corrupt_p)
        for t in blocks:
            if stamps[t] == round_number:
                continue
            stamps[t] = round_number
            for stream, lo, hi, u in self._block_uniforms(t, round_number):
                if stream == 3:  # delay
                    np.multiply(u, rates[3][lo:hi], out=u)
                    np.copyto(fates[3][lo:hi], u, casting="unsafe")
                else:
                    np.less(u, rates[stream][lo:hi], out=fates[stream][lo:hi])

    def _tally(self, counter: np.ndarray, rows) -> None:
        if self.trials == 1:
            counter[0] += len(rows)
        else:
            counter += np.bincount(
                self._row_block[rows], minlength=self.trials
            )

    # -- crash-stop ----------------------------------------------------------
    def crash_step(self, round_number: int, eligible: np.ndarray) -> np.ndarray:
        """Draw this round's crashes among ``eligible`` (bool mask over
        all rows: the still-running vertices).  Marks and returns the
        newly crashed rows; the caller halts them on its plane."""
        crash_fate = self._fates[0]
        if crash_fate is None:
            return np.empty(0, dtype=np.int64)
        self._fill(round_number, range(self.trials))
        rows = np.flatnonzero(eligible & crash_fate)
        if rows.size:
            self.crashed[rows] = True
            self._crashed_rows.append(rows)
            self._tally(self.crashed_count, rows)
        return rows

    def retire_trials(self, trial_indices) -> None:
        """Mark fully-halted trials' blocks inert.  A single run ends the
        round its last vertex halts, so matured delayed traffic addressed
        past that round never exists there; in a grid batch the other
        blocks keep the clock running, and without retirement a matured
        copy landing on a completed block's crashed vertex would tally a
        drop its single run never counts.  Retired traffic is discarded
        silently, preserving the grid's byte-identity contract."""
        for t in trial_indices:
            lo, hi = self.vertex_offsets[t], self.vertex_offsets[t + 1]
            self.retired_rows[lo:hi] = True
        self._any_retired = bool(self.retired_rows.any())

    # -- columnar delivery ---------------------------------------------------
    def columnar_step(self, round_number, parts):
        """Apply message fates to one round's validated emissions and
        merge matured delayed traffic.

        ``parts`` is ``[(message, ranks), …]`` in emission order: each
        ``message`` a ``(senders, receivers, columns, var)`` tuple
        (``columns`` maps field names to int64 per-message arrays,
        ``var`` maps var-field names to ``(pool, lengths)``), each
        ``ranks`` its messages' edge ranks in the topology's delivery
        plane (found by unicast validation, or gathered from
        :attr:`DeliveryPlane.slot_ranks
        <repro.congest.runtime.compile.DeliveryPlane.slot_ranks>` by the
        fan-out; this pass searches nothing).  Returns ``(message,
        ranks)``: one message tuple holding the messages to deliver
        *this* round — matured copies first (send-round order, emission
        order within), then the round's immediate survivors, minus
        anything addressed to a crashed vertex — and their edge ranks,
        carried through every cut and copy.  The receiver sort
        downstream is stable, so this order is the within-receiver inbox
        order.

        Only the blocks the fresh ranks fall in get this round's fates
        (:meth:`_fill`), and only live streams are gathered.  The
        surviving copies are cut with one ``_subset`` in stable delay
        order and sliced into the immediate batch and one view per
        arrival round; a round nothing dropped, duplicated or delayed
        passes its message through uncut.  Matured batches are merged
        with ``_concat_ranked`` and the crash filter cut with
        ``_subset`` (the shared phases of
        :mod:`repro.congest.runtime.compile`).
        """
        message, ranks = _concat_ranked(parts)
        if len(message[0]):
            block_of = None if self.trials == 1 else self._edge_block[ranks]
            self._fill(round_number, (0,) if block_of is None else (
                np.flatnonzero(np.bincount(block_of, minlength=self.trials))
                .tolist()
            ))
            message, ranks = self._apply_fates(round_number, message,
                                               ranks, block_of)
        batches = self._buffer.pop(round_number, [])
        batches.append((message, ranks))
        message, ranks = _concat_ranked(batches)
        receivers = message[1]
        if self._any_retired and len(receivers):
            stale = self.retired_rows[receivers]
            if stale.any():
                keep = np.flatnonzero(~stale)
                message, ranks = _subset(message, keep), ranks[keep]
                receivers = message[1]
        if len(receivers):
            dead = self.crashed[receivers]
            if dead.any():
                self._tally(self.dropped, receivers[dead])
                keep = np.flatnonzero(~dead)
                message, ranks = _subset(message, keep), ranks[keep]
        return message, ranks

    def _apply_fates(self, round_number, message, ranks, block_of):
        """The fresh messages' corrupt, drop, dup and delay fates: buffer
        the delayed copies, with their ranks, by arrival round and
        return the immediate ones as ``(message, ranks)``.  Corruption
        flips payload columns only, never ranks."""
        _crash, drop_f, dup_f, delay_f, corrupt_f = self._fates
        senders = message[0]
        corrupt_mask = None if corrupt_f is None else corrupt_f[ranks]
        drop_mask = None if drop_f is None else drop_f[ranks]
        dup_mask = None if dup_f is None else dup_f[ranks]
        if self._any_budget:
            self._budget_override(ranks, block_of, senders, corrupt_mask,
                                  drop_mask, dup_mask)
        if corrupt_mask is not None and corrupt_mask.any():
            self._tally(self.corrupted, senders[corrupt_mask])
            message = (senders, message[1], *self._corrupt_columns(
                corrupt_mask, message[2], message[3]
            ))
        # One original-message index per copy, duplicates adjacent;
        # None while that is every message once, in order.
        sel = None
        if drop_mask is not None and drop_mask.any():
            self._tally(self.dropped, senders[drop_mask])
            sel = np.flatnonzero(~drop_mask)
        if dup_mask is not None:
            extra = dup_mask if sel is None else dup_mask[sel]
            if extra.any():
                kept = np.arange(len(senders)) if sel is None else sel
                self._tally(self.duplicated, senders[kept[extra]])
                sel = np.repeat(kept, extra.astype(np.int64) + 1)
        if sel is not None:
            ranks = ranks[sel]
        if delay_f is not None:
            delays = delay_f[ranks]
            if delays.any():
                order = np.argsort(delays, kind="stable")
                message = _subset(
                    message, order if sel is None else sel[order]
                )
                ranks = ranks[order]
                bounds = _cumsum0(np.bincount(delays)).tolist()
                batches = _split(message, bounds)
                self._tally(self.delayed, message[0][bounds[1]:])
                for delay, batch in enumerate(batches[1:], start=1):
                    if len(batch[0]):
                        self._buffer.setdefault(
                            round_number + delay, []
                        ).append((batch, ranks[bounds[delay]:
                                               bounds[delay + 1]]))
                return batches[0], ranks[:bounds[1]]
        return (message if sel is None else _subset(message, sel)), ranks

    # -- Byzantine corruption ------------------------------------------------
    @staticmethod
    def _corrupt_columns(corrupt_mask, columns, var):
        """Flip the low bit of every integer column entry on corrupted
        rows (bool columns negate).  The flip is dtype-bound safe: the
        columnar pipeline validated ranges before delivery, and ``v ^ 1``
        never leaves ``[low, high]`` when ``low`` is even and ``high``
        odd — true of every twos-complement integer dtype."""
        flipped = {}
        for name, column in columns.items():
            if column.dtype.kind in "iu":
                flipped[name] = np.where(corrupt_mask, column ^ 1, column)
            elif column.dtype.kind == "b":
                flipped[name] = np.where(corrupt_mask, ~column, column)
            else:
                flipped[name] = column
        if not var:
            return flipped, var
        new_var = {}
        for name, (pool, lengths) in var.items():
            rep = np.repeat(corrupt_mask, lengths)
            if pool.dtype.kind in "iu":
                new_var[name] = (np.where(rep, pool ^ 1, pool), lengths)
            else:
                new_var[name] = (pool, lengths)
        return flipped, new_var

    # -- adaptive (budget) adversary -----------------------------------------
    def _budget_override(self, ranks, block_of, senders, corrupt_mask,
                         drop_mask, dup_mask):
        """Rewrite the i.i.d. fate masks for budget blocks: spend
        ``ceil(rate * m_r)`` drop/corrupt decisions on the round's
        busiest messages (descending sender send-count, ties by edge
        rank), and ``ceil(dup * survivors)`` duplications on the busiest
        survivors.  Mutates the masks in place."""
        busy = np.bincount(senders, minlength=self.n)
        for t in np.flatnonzero(self.budget_blocks):
            idx = (
                np.arange(len(ranks)) if block_of is None
                else np.flatnonzero(block_of == t)
            )
            plan = self._plans[t]
            order = idx[np.lexsort((ranks[idx], -busy[senders[idx]]))]
            m_r = len(idx)
            for rate, mask in ((plan.corrupt, corrupt_mask),
                               (plan.drop, drop_mask)):
                mask[idx] = False
                if rate and m_r:
                    mask[order[:math.ceil(rate * m_r)]] = True
            survivors = order[~drop_mask[order]]
            dup_mask[idx] = False
            if plan.dup and len(survivors):
                dup_mask[
                    survivors[:math.ceil(plan.dup * len(survivors))]
                ] = True

    # -- per-message delivery (object planes, columnar reference) ------------
    def object_round(self, round_number: int, fresh: list) -> list:
        """Per-message form of :meth:`columnar_step` for the dict planes.

        ``fresh`` is ``[(sender_row, receiver_row, payload), …]`` in
        emission order; the payload is opaque (a ``Message``, or the
        columnar reference executor's decoded row).  Returns the tuples
        to deliver this round — matured first, then immediate survivors,
        dead receivers discarded — for the caller to write into its
        inboxes in order.  Every block's fates are filled (:meth:`_fill`)
        and read from the same tables as the array pass, so the
        decision rule exists once; a dead stream reads as never firing.
        """
        self._fill(round_number, range(self.trials))
        count = len(fresh)
        ranks = self._plane.ranks(
            np.fromiter((item[0] for item in fresh), np.int64, count),
            np.fromiter((item[1] for item in fresh), np.int64, count),
        )[0].tolist()
        dropf, dupf, delays, corrupt = (
            [0] * len(ranks) if fate is None else fate[ranks].tolist()
            for fate in self._fates[1:]
        )
        if fresh and self._any_budget:
            self._object_budget_override(ranks, fresh, corrupt, dropf, dupf)
        now = self._pending.pop(round_number, [])
        for k, item in enumerate(fresh):
            if corrupt[k]:
                self.corrupted[0] += 1
                item = (item[0], item[1], _corrupt_payload(item[2]))
            if dropf[k]:
                self.dropped[0] += 1
                continue
            copies = 2 if dupf[k] else 1
            if copies == 2:
                self.duplicated[0] += 1
            delay = delays[k]
            sink = (
                now if delay == 0
                else self._pending.setdefault(round_number + delay, [])
            )
            if delay:
                self.delayed[0] += copies
            for _copy in range(copies):
                sink.append(item)
        crashed = self.crashed
        out = []
        for item in now:
            if crashed[item[1]]:
                self.dropped[0] += 1
            else:
                out.append(item)
        return out

    def _object_budget_override(self, ranks, fresh, corrupt, dropf, dupf):
        """Per-message twin of :meth:`_budget_override` for the dict
        planes (single-trial only, like :meth:`object_round`): identical
        busiest-first order, so both seams realize the same schedule."""
        plan = self._plans[0]
        busy: dict = {}
        for sender, _receiver, _payload in fresh:
            busy[sender] = busy.get(sender, 0) + 1
        order = sorted(
            range(len(fresh)),
            key=lambda k: (-busy[fresh[k][0]], ranks[k]),
        )
        m_r = len(fresh)
        for rate, flags in ((plan.corrupt, corrupt), (plan.drop, dropf)):
            for k in range(m_r):
                flags[k] = False
            if rate and m_r:
                for k in order[:math.ceil(rate * m_r)]:
                    flags[k] = True
        survivors = [k for k in order if not dropf[k]]
        for k in range(m_r):
            dupf[k] = False
        if plan.dup and survivors:
            for k in survivors[:math.ceil(plan.dup * len(survivors))]:
                dupf[k] = True

    # -- reporting -----------------------------------------------------------
    def crashed_vertices(self, trial: int) -> tuple:
        """Trial ``trial``'s crashed vertex ids, in crash order (round
        order, ascending dense row within a round)."""
        lo = int(self.vertex_offsets[trial])
        hi = int(self.vertex_offsets[trial + 1])
        vertices = self._topologies[trial].vertices
        return tuple(
            vertices[row - lo]
            for rows in self._crashed_rows
            for row in rows.tolist()
            if lo <= row < hi
        )

    def flush(self, metrics) -> None:
        """Fold the fault counters into a single run's metrics (called
        once from the executor's flush; the grid assembles per-trial
        metrics itself)."""
        metrics.record_faults(
            dropped=int(self.dropped.sum()),
            duplicated=int(self.duplicated.sum()),
            delayed=int(self.delayed.sum()),
            crashed=int(self.crashed_count.sum()),
            corrupted=int(self.corrupted.sum()),
            crashed_vertices=self.crashed_vertices(0),
        )
