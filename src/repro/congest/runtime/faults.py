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
traffic just before delivery — so **every registered execution plane
injects the same faults with zero algorithm changes**.

Seed discipline
---------------
All randomness is counter-based (:class:`numpy.random.Philox`), keyed by
``(plan.seed, round)`` with the per-vertex / per-edge decision read at a
canonical index: vertices use their dense row, messages use their
directed edge's rank in the sorted ``sender * n + receiver`` key table
(the same table the columnar plane validates unicasts against).  A fault
decision is therefore a pure function of ``(seed, round, edge)`` —
independent of emission order, of the executing plane, and of the
algorithm's own RNG streams — so the object engine, its reference loop,
the columnar plane, and the trial-major grid all realize byte-identical
fault schedules.  On a grid, each trial block draws from its *own*
plan's Philox stream and its edge ranks decompose as
``block edge offset + local rank`` (block key ranges are disjoint and
ordered), so a batched trial sees exactly the faults its single run
would.

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
a zero-rate plan runs the full fault machinery (draws, fate masks,
merge) yet is **byte-identical** — outputs and every metrics counter —
to running with no plan at all.

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


def _cumsum0(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum with the total appended: CSR offsets for
    ``counts`` (shared by the columnar plane and the recovery layer).

    >>> _cumsum0(np.array([2, 0, 3])).tolist()
    [0, 2, 2, 5]
    """
    out = np.empty(len(counts) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


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

    ``blocks`` is ``[(plan, topology), …]`` in trial order — a single
    ``Network.run`` passes exactly one pair
    (:meth:`for_single`); the grid executor passes one per trial so
    each block draws from its own plan's streams.  The executors call:

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
    """

    def __init__(self, blocks: Sequence[tuple]) -> None:
        if not blocks:
            raise ValueError("fault state needs at least one block")
        self._plans = [plan for plan, _topology in blocks]
        self._topologies = [topology for _plan, topology in blocks]
        self.trials = len(blocks)
        sizes = np.array(
            [topology.n for topology in self._topologies], dtype=np.int64
        )
        self.vertex_offsets = _cumsum0(sizes)
        self.n = int(self.vertex_offsets[-1])
        # Canonical directed-edge ranks: each block's sorted
        # (sender * n + receiver) keys, shifted into grid row space.
        # Block key ranges are disjoint and ascending, so the
        # concatenation is globally sorted and a block's global rank is
        # its edge offset plus its local rank — grid draws decompose
        # into per-trial draws exactly.
        key_parts = []
        edge_counts = []
        n_total = self.n
        for t, topology in enumerate(self._topologies):
            off = int(self.vertex_offsets[t])
            degrees = topology.indptr[1:] - topology.indptr[:-1]
            senders = np.repeat(
                np.arange(topology.n, dtype=np.int64) + off, degrees
            )
            key_parts.append(
                np.sort(
                    senders * n_total
                    + (topology.indices.astype(np.int64, copy=False) + off)
                )
            )
            edge_counts.append(len(key_parts[-1]))
        self.edge_keys = (
            key_parts[0] if len(key_parts) == 1
            else np.concatenate(key_parts)
        )
        self.edge_offsets = _cumsum0(np.array(edge_counts, dtype=np.int64))
        self.edges = int(self.edge_offsets[-1])
        # Per-vertex / per-edge fault tables, indexed by dense row /
        # canonical edge rank.
        self.crash_p = np.concatenate([
            np.full(topology.n, plan.crash, dtype=np.float64)
            for plan, topology in blocks
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
        self.crashed = np.zeros(self.n, dtype=bool)
        self.dropped = np.zeros(self.trials, dtype=np.int64)
        self.duplicated = np.zeros(self.trials, dtype=np.int64)
        self.delayed = np.zeros(self.trials, dtype=np.int64)
        self.corrupted = np.zeros(self.trials, dtype=np.int64)
        self.crashed_count = np.zeros(self.trials, dtype=np.int64)
        self.retired_rows = np.zeros(self.n, dtype=bool)
        self._any_retired = False
        self._crashed_rows: list[np.ndarray] = []  # crash order
        self._buffer: dict[int, list] = {}   # arrival round → [batch, …]
        self._pending: dict[int, list] = {}  # arrival round → [(i, j, msg)]
        self._draw_round = -1
        self._draws: tuple = ()
        self._rank_dict: dict | None = None

    @classmethod
    def for_single(cls, plan: FaultPlan, topology) -> "FaultState":
        return cls([(plan, topology)])

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
        n_total = self.n
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
            keys = self.edge_keys[lo:hi]
            senders = keys // n_total - off
            receivers = keys % n_total - off
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
    def _uniforms(self, round_number: int) -> tuple:
        """Cache one round's uniforms: per block, one Philox stream keyed
        ``(seed, round)`` yields ``n`` crash draws then ``m`` draws each
        for drop, dup, delay, and corrupt — indexed by dense row / edge
        rank.  The corrupt stream is appended *after* the original four,
        so pre-corruption fault schedules are byte-identical to runs
        recorded before the knob existed."""
        if self._draw_round == round_number:
            return self._draws
        streams: tuple = ([], [], [], [], [])
        for t, plan in enumerate(self._plans):
            n_b = int(self.vertex_offsets[t + 1] - self.vertex_offsets[t])
            m_b = int(self.edge_offsets[t + 1] - self.edge_offsets[t])
            generator = np.random.Generator(
                np.random.Philox(key=[plan.seed, round_number])
            )
            u = generator.random(n_b + 4 * m_b)
            streams[0].append(u[:n_b])
            streams[1].append(u[n_b:n_b + m_b])
            streams[2].append(u[n_b + m_b:n_b + 2 * m_b])
            streams[3].append(u[n_b + 2 * m_b:n_b + 3 * m_b])
            streams[4].append(u[n_b + 3 * m_b:])
        self._draws = tuple(
            parts[0] if len(parts) == 1 else np.concatenate(parts)
            for parts in streams
        )
        self._draw_round = round_number
        return self._draws

    def _ranks(self, senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        # Delivery happens after validation, so every pair is an edge and
        # the binary search is exact.
        return np.searchsorted(
            self.edge_keys,
            senders.astype(np.int64, copy=False) * self.n + receivers,
        )

    def _tally(self, counter: np.ndarray, rows) -> None:
        if self.trials == 1:
            counter[0] += len(rows)
        else:
            counter += np.bincount(
                np.searchsorted(
                    self.vertex_offsets, rows, side="right"
                ) - 1,
                minlength=self.trials,
            )

    # -- crash-stop ----------------------------------------------------------
    def crash_step(self, round_number: int, eligible: np.ndarray) -> np.ndarray:
        """Draw this round's crashes among ``eligible`` (bool mask over
        all rows: the still-running vertices).  Marks and returns the
        newly crashed rows; the caller halts them on its plane."""
        crash_u = self._uniforms(round_number)[0]
        rows = np.flatnonzero(eligible & (crash_u < self.crash_p))
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
    def columnar_step(self, round_number, senders, receivers, columns, var):
        """Apply message fates to one round's concatenated emission
        columns and merge matured delayed traffic.

        ``columns`` maps field names to int64 per-message arrays; ``var``
        maps var-field names to ``(pool, lengths)``.  Returns the same
        four-tuple, holding the messages to deliver *this* round: matured
        copies first (send-round order, emission order within), then the
        round's immediate survivors, minus anything addressed to a
        crashed vertex.  The receiver sort downstream is stable, so this
        order is the within-receiver inbox order.
        """
        _crash_u, drop_u, dup_u, delay_u, corrupt_u = self._uniforms(
            round_number
        )
        if len(senders):
            ranks = self._ranks(senders, receivers)
            corrupt_mask = corrupt_u[ranks] < self.corrupt_p[ranks]
            drop_mask = drop_u[ranks] < self.drop_p[ranks]
            dup_mask = dup_u[ranks] < self.dup_p[ranks]
            if self.budget_blocks.any():
                self._budget_override(
                    ranks, senders, corrupt_mask, drop_mask, dup_mask
                )
            if corrupt_mask.any():
                self._tally(self.corrupted, senders[corrupt_mask])
                columns, var = self._corrupt_columns(
                    corrupt_mask, columns, var
                )
            if drop_mask.any():
                self._tally(self.dropped, senders[drop_mask])
            keep = np.flatnonzero(~drop_mask)
            extra = dup_mask[keep]
            if extra.any():
                self._tally(self.duplicated, senders[keep[extra]])
            # One original-message index per copy; duplicates adjacent.
            sel = np.repeat(keep, extra.astype(np.int64) + 1)
            copy_ranks = ranks[sel]
            delays = (
                delay_u[copy_ranks] * self.delay_span[copy_ranks]
            ).astype(np.int64)
            future = delays > 0
            if future.any():
                self._tally(self.delayed, senders[sel[future]])
                future_sel = sel[future]
                arrivals = round_number + delays[future]
                for arrival in np.unique(arrivals):
                    pick = future_sel[arrivals == arrival]
                    self._buffer.setdefault(int(arrival), []).append(
                        self._take(senders, receivers, columns, var, pick)
                    )
                sel = sel[~future]
            fresh = self._take(senders, receivers, columns, var, sel)
        else:
            fresh = (senders, receivers, columns, var)
        parts = self._buffer.pop(round_number, [])
        parts.append(fresh)
        if len(parts) == 1:
            senders, receivers, columns, var = parts[0]
        else:
            senders = np.concatenate([p[0] for p in parts])
            receivers = np.concatenate([p[1] for p in parts])
            columns = {
                name: np.concatenate([p[2][name] for p in parts])
                for name in columns
            }
            var = {
                name: (
                    np.concatenate([p[3][name][0] for p in parts]),
                    np.concatenate([p[3][name][1] for p in parts]),
                )
                for name in var
            }
        if self._any_retired and len(receivers):
            stale = self.retired_rows[receivers]
            if stale.any():
                senders, receivers, columns, var = self._take(
                    senders, receivers, columns, var, np.flatnonzero(~stale)
                )
        if len(receivers):
            dead = self.crashed[receivers]
            if dead.any():
                self._tally(self.dropped, receivers[dead])
                senders, receivers, columns, var = self._take(
                    senders, receivers, columns, var, np.flatnonzero(~dead)
                )
        return senders, receivers, columns, var

    @staticmethod
    def _take(senders, receivers, columns, var, idx):
        """Gather one message subset (fancy index per fixed column, one
        ragged gather per var pool) preserving ``idx`` order."""
        from repro.congest.columnar import _ragged_gather

        taken_var = {}
        for name, (pool, lengths) in var.items():
            starts = _cumsum0(lengths)[:-1]
            new_lengths = lengths[idx]
            taken_var[name] = (
                _ragged_gather(pool, starts[idx], new_lengths), new_lengths
            )
        return (
            senders[idx],
            receivers[idx],
            {name: column[idx] for name, column in columns.items()},
            taken_var,
        )

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
    def _budget_override(self, ranks, senders, corrupt_mask, drop_mask,
                         dup_mask):
        """Rewrite the i.i.d. fate masks for budget blocks: spend
        ``ceil(rate * m_r)`` drop/corrupt decisions on the round's
        busiest messages (descending sender send-count, ties by edge
        rank), and ``ceil(dup * survivors)`` duplications on the busiest
        survivors.  Mutates the masks in place."""
        block_of = (
            np.zeros(len(ranks), dtype=np.int64) if self.trials == 1
            else np.searchsorted(self.edge_offsets, ranks, side="right") - 1
        )
        busy = np.bincount(senders, minlength=self.n)
        for t in np.flatnonzero(self.budget_blocks):
            idx = np.flatnonzero(block_of == t)
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
        inboxes in order.
        """
        _crash_u, drop_u, dup_u, delay_u, corrupt_u = self._uniforms(
            round_number
        )
        rank_of = self._edge_rank_dict()
        span = self.delay_span
        ranks = [rank_of[(item[0], item[1])] for item in fresh]
        corrupt = [corrupt_u[r] < self.corrupt_p[r] for r in ranks]
        dropf = [drop_u[r] < self.drop_p[r] for r in ranks]
        dupf = [dup_u[r] < self.dup_p[r] for r in ranks]
        if fresh and self.budget_blocks.any():
            self._object_budget_override(ranks, fresh, corrupt, dropf, dupf)
        now = self._pending.pop(round_number, [])
        for k, item in enumerate(fresh):
            rank = ranks[k]
            if corrupt[k]:
                self.corrupted[0] += 1
                item = (item[0], item[1], _corrupt_payload(item[2]))
            if dropf[k]:
                self.dropped[0] += 1
                continue
            copies = 2 if dupf[k] else 1
            if copies == 2:
                self.duplicated[0] += 1
            delay = int(delay_u[rank] * span[rank])
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

    def _edge_rank_dict(self) -> dict:
        table = self._rank_dict
        if table is None:
            n = self.n
            table = self._rank_dict = {
                (int(key) // n, int(key) % n): rank
                for rank, key in enumerate(self.edge_keys.tolist())
            }
        return table

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
