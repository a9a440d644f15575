"""Trial-batched execution: ``run_many`` and the trial-major columnar grid.

``run_many`` runs one algorithm over many trials.  Three strategies,
picked by the ``plane`` argument and the plane table
(:data:`~repro.congest.runtime.planes.PLANES`):

* **grid** — the headline path: for a grid-safe
  :class:`~repro.congest.columnar.ColumnarAlgorithm`, all T trials are
  composed into one block-diagonal ``(Σ n_t)``-row CSR
  (:class:`~repro.congest.runtime.compile.GridTopology`) and executed as
  a *single* columnar program.  Every per-round numpy dispatch — column
  concatenation, the stable receiver sort, segmented reductions, metric
  accounting — is paid once per round for the whole sweep instead of
  once per round per trial.  Trials halt independently (a finished
  block's vertices simply stop emitting), per-trial round counts and
  message/bit/peak counters are tracked exactly (segmented by block), and
  outputs **and** metrics are byte-identical to running each trial through
  ``Network.run`` on the columnar plane (``tests/test_runtime.py``
  asserts this differentially, including uneven block sizes, mixed
  models, and early-halting trials).
* **serial per-trial** — one ``Network.run`` per trial in this process.
* **process pool** — ``processes > 1`` fans trials over a
  ``multiprocessing`` pool, shipping a sweep's common graph once per
  worker.

``plane="auto"`` (the default) picks the grid whenever the algorithm
opts in (``grid_safe``) and the sweep is serial with more than one
trial; any explicit plane name forces per-trial execution on that plane;
``plane="grid"`` forces the grid (raising, with table-derived text,
for algorithms that don't support it).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import networkx as nx
import numpy as np

from repro.congest.message import bandwidth_bits_for
from repro.congest.metrics import NetworkMetrics
from repro.congest.runtime import planes as _planes
from repro.congest.runtime.compile import GridTopology, compile_topology
from repro.congest.runtime.rng import (
    RngPlan,
    _check_rng_modes,
    grid_rng_state,
)
from repro.congest.runtime.scheduler import run_rounds


@dataclass
class Trial:
    """One job for :func:`run_many`: a topology plus optional per-vertex
    inputs (e.g. RNG seeds) and per-trial overrides.

    >>> import networkx as nx
    >>> trial = Trial(nx.path_graph(3), max_rounds=8)
    >>> trial.model is None  # unset overrides inherit run_many's value
    True
    """

    graph: nx.Graph
    inputs: Mapping[Any, Any] | None = None
    max_rounds: int | None = None
    model: str | None = None
    bandwidth_factor: int | None = None
    faults: Any = None
    rng: Any = None


# ---------------------------------------------------------------------------
# Trial-major columnar grid execution
# ---------------------------------------------------------------------------
class GridAccountant:
    """Per-trial deferred message/bit counters for one grid execution.

    Same ``add(senders, bits, copies=None)`` interface as
    :class:`~repro.congest.metrics.ScalarAccountant`, but segmented by
    trial block: message counts and exact int64 bit sums come from
    bincounts over each message's block index, and the per-trial peak is
    recovered from a (trial × bit-size) occupancy bincount — all
    vectorized, no per-message Python.  With ``copies`` (per-sender
    broadcast copy counts) each entry is weighted by its count, so a
    sender with no copies is absent from every counter, peak included.
    """

    __slots__ = ("trials", "_trial_of", "messages", "total_bits", "peak_bits")

    def __init__(self, grid: GridTopology) -> None:
        self.trials = grid.trials
        self._trial_of = grid.trial_of
        self.messages = np.zeros(grid.trials, dtype=np.int64)
        self.total_bits = np.zeros(grid.trials, dtype=np.int64)
        self.peak_bits = np.zeros(grid.trials, dtype=np.int64)

    def add(self, senders: np.ndarray, bits: np.ndarray,
            copies: np.ndarray | None = None) -> None:
        trials = self._trial_of(senders)
        # Integer-valued float64 sums are exact far beyond any round's
        # message and bit volume (< 2**53); the cumulative totals stay
        # int64.
        if copies is None:
            counts = np.bincount(trials, minlength=self.trials)
            volume = bits
        else:
            counts = np.bincount(
                trials, weights=copies, minlength=self.trials
            ).astype(np.int64)
            volume = bits * copies
        self.messages += counts
        self.total_bits += np.bincount(
            trials, weights=volume, minlength=self.trials
        ).astype(np.int64)
        width = int(bits.max()) + 1
        present = np.bincount(
            trials * width + bits, weights=copies,
            minlength=self.trials * width,
        ).reshape(self.trials, width)
        highest = width - 1 - np.argmax(present[:, ::-1] > 0, axis=1)
        np.maximum(
            self.peak_bits,
            np.where(counts > 0, highest, 0),
            out=self.peak_bits,
        )


def execute_grid(
    algorithm,
    jobs: "list[tuple]",
) -> list[tuple[Mapping, NetworkMetrics]]:
    """Run T independent trials as one block-diagonal columnar grid.

    ``jobs`` is the normalized trial list: one
    ``(graph, inputs, model, bandwidth_factor, max_rounds, faults, rng)``
    tuple per trial.  Returns ``[(outputs, metrics), ...]`` in trial order —
    byte-identical (outputs, output keying, and every metrics counter)
    to running each trial through ``Network.run`` on the columnar plane.
    Each trial's outputs are a read-only
    :class:`~repro.congest.columnar.VertexView` over its own rows of the
    grid's state arrays (slices, so it pickles without the other
    trials), decoded only when read.

    Exactness argument: blocks never share edges, per-block ``repr``
    ranks and RNG input streams are preserved verbatim, emission order
    within a receiver equals per-trial emission order (grid-wide masks
    enumerate each block's vertices in the same ascending dense order),
    and bandwidth budgets/round caps are enforced per block — so each
    block's state trajectory is the single-trial trajectory, round for
    round, until the round its last vertex halts (recorded as that
    trial's round count).

    One known divergence, for *defective* algorithms only: a
    bandwidth/adjacency validation error (a bug signal, not a supported
    configuration) is raised at the first offending message in
    grid-round order, which may belong to a later trial than the one
    serial execution would report first — the error text itself still
    matches that trial's single run.  Round-cap errors, by contrast,
    are attributed in serial trial order (see ``check_caps``).

    Variable-width columns
    ----------------------
    :class:`~repro.congest.message.VarColumn` payload pools need no
    grid-specific code: blocks occupy contiguous dense-row ranges and
    the delivery step receiver-sorts every round's messages, so each
    trial's ragged payloads land in one contiguous *pool segment* per
    block — per-trial pool segmentation falls out of the sort.  The
    zero-copy :meth:`~repro.congest.columnar.ColumnarInbox.gather_var`
    boundaries and the per-trial :class:`GridAccountant` bit sums
    (var-aware via :meth:`~repro.congest.message.ColumnarSpec.bits_of`)
    therefore stay byte-identical to single-trial runs
    (``tests/test_gathering_routers.py`` asserts this for the
    walk-token router and the var flood).

    Fault plans ride per trial: a job's ``faults`` slot optionally holds
    a :class:`~repro.congest.runtime.faults.FaultPlan`, and the grid
    builds one :class:`~repro.congest.runtime.faults.FaultState` over
    all blocks (a trial without a plan gets the zero plan, which is
    byte-identical to no plan at all).  Edge fate decisions depend only
    on each trial's own (seed, round, edge-rank) triple, so a grid sweep
    of fault intensities reproduces the corresponding single runs
    exactly.

    Rng plans ride per trial too (the trailing ``rng`` slot).  All-exact
    jobs share one lazily built per-vertex stream list — byte-identical
    to the streams this executor has always produced — while
    all-vectorized jobs draw per-block Philox columns that match each
    trial's single vectorized run.  One grid chunk cannot mix modes
    (:func:`~repro.congest.runtime.rng.grid_rng_state` rejects it):
    split the sweep instead.

    >>> import networkx as nx
    >>> from repro.congest.algorithms import ColumnarFloodValue
    >>> graph = nx.path_graph(3)
    >>> jobs = [(graph, None, "congest", 32, 10, None, None)] * 2
    >>> results = execute_grid(ColumnarFloodValue(0, 9, 4), jobs)
    >>> [(outputs[2], metrics.rounds) for outputs, metrics in results]
    [(9, 4), (9, 4)]
    """
    from repro.congest.columnar import (
        ColumnarContext,
        VertexView,
        _columnar_spec,
        _deliver_fast,
    )

    spec = _columnar_spec(algorithm)
    rng_plans = [RngPlan.coerce(job[6]) for job in jobs]
    _check_rng_modes(algorithm, any(plan.vectorized for plan in rng_plans))
    blocks = []
    # id(graph) → topology: probe each graph once.  Pre-compiled
    # topologies (e.g. int32-narrowed StreamTopology blocks from
    # compile_edge_stream) pass straight through compile_topology, and
    # GridTopology keeps the composed grid in the narrowed dtype when
    # every block is narrow and the block-diagonal totals still fit.
    compiled: dict[int, Any] = {}
    for graph, _inputs, model, _factor, _cap, _faults, _rng in jobs:
        if model not in ("congest", "local"):
            raise ValueError(f"unknown model {model!r}")
        if graph.number_of_nodes() == 0:
            raise ValueError("network must have at least one vertex")
        topology = compiled.get(id(graph))
        if topology is None:
            topology = compiled[id(graph)] = compile_topology(graph)
        blocks.append(topology)
    grid = GridTopology(blocks)
    offsets = grid.offsets

    if any(job[5] is not None for job in jobs):
        from repro.congest.runtime.faults import FaultPlan, FaultState

        fault_state = FaultState([
            job[5] if job[5] is not None else FaultPlan() for job in jobs
        ], grid)
    else:
        fault_state = None

    # Per-vertex budget tables: each block carries its own n-derived
    # bandwidth (and the LOCAL model's unreachable limit), so uneven and
    # mixed-model sweeps validate exactly as their single runs would.
    limits = np.empty(grid.n, dtype=np.int64)
    budgets = np.empty(grid.n, dtype=np.int64)
    caps = np.empty(grid.trials, dtype=np.int64)
    inputs_list: list = []
    for t, (graph, inputs, model, factor, max_rounds, _faults, _rng) in (
        enumerate(jobs)
    ):
        block = grid.blocks[t]
        bandwidth = bandwidth_bits_for(block.n, factor)
        start, stop = int(offsets[t]), int(offsets[t + 1])
        budgets[start:stop] = bandwidth
        limits[start:stop] = (
            bandwidth if model == "congest" else (1 << 62)
        )
        caps[t] = max_rounds
        if inputs is None:
            inputs_list.extend([None] * block.n)
        else:
            inputs_list.extend(inputs.get(v) for v in block.vertices)

    instance = algorithm.spawn()
    plane = grid.columnar_plane()
    ctx = ColumnarContext(
        grid, plane, spec, inputs_list,
        grid_rng_state(rng_plans, inputs_list, grid.block_sizes),
    )
    instance.setup(ctx)
    acc = GridAccountant(grid)
    rounds_of = np.zeros(grid.trials, dtype=np.int64)
    finished = np.zeros(grid.trials, dtype=bool)

    def note_transitions(round_number: int) -> None:
        halted_counts = np.add.reduceat(
            ctx.halted, offsets[:-1], dtype=np.int64
        )
        newly = ~finished & (halted_counts == grid.block_sizes)
        if newly.any():
            rounds_of[newly] = round_number
            finished[newly] = True
            if fault_state is not None:
                # A finished trial's single run has ended: its block must
                # see no further fault activity (matured delayed traffic
                # is discarded untallied), keeping per-trial counters
                # byte-identical to standalone execution.
                fault_state.retire_trials(np.flatnonzero(newly))

    note_transitions(0)  # trials fully halted during setup count 0 rounds

    def done() -> bool:
        return ctx._halted_count >= grid.n

    def check_caps(round_number: int) -> None:
        # Per-trial round caps, with serial-equivalent error attribution:
        # serial execution raises for the first trial *in trial order*
        # that needs more rounds than its cap.  A trial is in violation
        # once it is past its cap (still running, or finished late); it
        # raises only after every earlier trial has finished — until
        # then the earlier trial's own verdict is still open, exactly as
        # it would not yet have reached this trial serially.  A still-
        # running violated trial is *frozen* (its rows halted) at the
        # exact round its single run would have raised, so it executes
        # no round serial execution wouldn't — no emission, bandwidth
        # error, or algorithm-side effect from beyond the cap can
        # preempt an earlier trial's outcome.
        violated = np.where(finished, rounds_of > caps, round_number > caps)
        if violated.any():
            first = int(np.argmax(violated))
            if bool(finished[:first].all()):
                raise RuntimeError(
                    f"algorithm did not halt within {int(caps[first])} rounds"
                )
            frozen = violated & ~finished
            if frozen.any():
                rows = np.concatenate([
                    np.arange(offsets[t], offsets[t + 1], dtype=np.int64)
                    for t in np.flatnonzero(frozen)
                ])
                ctx.halt(rows)

    def advance(round_number: int) -> None:
        check_caps(round_number)
        if fault_state is not None:
            # Crash-stop draws after cap-freezing, before the round's
            # compute — frozen or finished rows are no longer eligible,
            # matching each trial's single-run eligibility mask.
            rows = fault_state.crash_step(round_number, ~ctx.halted)
            if rows.size:
                ctx.halt(rows)
        ctx.round_number = round_number
        ctx._emissions = []
        instance.on_round(ctx)
        ctx.inbox = _deliver_fast(
            grid, plane, spec, ctx._emissions, limits, budgets, acc,
            fault_state, round_number,
        )
        note_transitions(round_number)

    # The scratch metrics absorb the spine's global round ticks; per-trial
    # rounds are reconstructed from the halt transitions instead.  The
    # spine's cap is one round past the largest per-trial cap so
    # ``check_caps`` — which provably raises by round ``caps.max() + 1``
    # when any trial is in violation — always attributes the error to
    # the right trial before the generic backstop could fire.
    run_rounds(
        metrics=NetworkMetrics(), max_rounds=int(caps.max()) + 1,
        done=done, advance=advance,
    )
    # Every vertex halted — but a trial that finished *late* still fails
    # its own cap, exactly as its single run would have.
    late = rounds_of > caps
    if late.any():
        first = int(np.argmax(late))
        raise RuntimeError(
            f"algorithm did not halt within {int(caps[first])} rounds"
        )

    rule = instance.outputs(ctx)
    results: list[tuple[VertexView, NetworkMetrics]] = []
    for t in range(grid.trials):
        block = grid.blocks[t]
        start, stop = int(offsets[t]), int(offsets[t + 1])
        outputs = VertexView(
            block.vertices, block.index_of,
            rule.slice(start, stop, block.vertices),
        )
        metrics = NetworkMetrics(
            rounds=int(rounds_of[t]),
            messages=int(acc.messages[t]),
            total_bits=int(acc.total_bits[t]),
            max_edge_bits_in_round=int(acc.peak_bits[t]),
        )
        if fault_state is not None:
            metrics.record_faults(
                dropped=int(fault_state.dropped[t]),
                duplicated=int(fault_state.duplicated[t]),
                delayed=int(fault_state.delayed[t]),
                crashed=int(fault_state.crashed_count[t]),
                corrupted=int(fault_state.corrupted[t]),
                crashed_vertices=fault_state.crashed_vertices(t),
            )
        results.append((outputs, metrics))
    return results


# Grid chunk budget, in grid rows (Σ n_t per chunk).  One grid holds every
# trial's full per-vertex state simultaneously — including algorithm-side
# Python objects like per-vertex ``random.Random`` streams (~2.5 KB each)
# — so an unbounded 64×8k sweep would pin gigabytes and lose the
# amortization win to allocator pressure.  Chunks of ~32k rows keep the
# per-round dispatch amortization (each chunk still batches dozens of
# trials at benchmark sizes) with bounded residency; results concatenate
# and stay byte-identical per trial regardless of the chunking.
_GRID_ROWS_TARGET = 32768


def _grid_chunks(jobs: list) -> list[list]:
    chunks: list[list] = []
    current: list = []
    rows = 0
    for job in jobs:
        n = job[0].number_of_nodes()
        if current and rows + n > _GRID_ROWS_TARGET:
            chunks.append(current)
            current, rows = [], 0
        current.append(job)
        rows += n
    if current:
        chunks.append(current)
    return chunks


def _run_grid_chunked(algorithm, jobs: list) -> list:
    return [
        result
        for chunk in _grid_chunks(jobs)
        for result in execute_grid(algorithm, chunk)
    ]


# ---------------------------------------------------------------------------
# run_many
# ---------------------------------------------------------------------------
_POOL_SHARED: dict[str, Any] = {}


def _pool_init(shared_graph) -> None:
    """Pool initializer: receive a sweep's common graph once per worker
    instead of re-pickling it with every trial payload."""
    _POOL_SHARED["graph"] = shared_graph


def _run_trial(payload: tuple) -> tuple[Mapping, NetworkMetrics]:
    """Top-level worker (must be picklable for multiprocessing)."""
    from repro.congest.network import Network

    (
        algorithm, graph, inputs, model, bandwidth_factor, max_rounds,
        faults, rng, plane,
    ) = payload
    if graph is None:
        graph = _POOL_SHARED["graph"]
    net = Network(graph, model=model, bandwidth_factor=bandwidth_factor)
    outputs = net.run(
        algorithm, max_rounds=max_rounds, inputs=inputs, plane=plane,
        faults=faults, rng=rng,
    )
    return outputs, net.metrics


def normalize_jobs(
    trials: Iterable[nx.Graph | Trial | tuple],
    *,
    model: str = "congest",
    bandwidth_factor: int = 32,
    max_rounds: int = 10_000,
    faults=None,
    rng=None,
) -> list[tuple]:
    """Normalize a ``run_many`` trial list into the canonical 7-tuple job
    shape ``(graph, inputs, model, bandwidth_factor, max_rounds, faults,
    rng)``.

    This is the unit every batch executor speaks — :func:`execute_grid`
    consumes it directly, and the per-trial paths prefix it with the
    algorithm and plane.  Per-:class:`Trial` overrides are resolved
    here, once, so every execution strategy sees identical jobs.

    >>> import networkx as nx
    >>> graph = nx.path_graph(2)
    >>> jobs = normalize_jobs([graph, Trial(graph, max_rounds=5)])
    >>> [job[4] for job in jobs]  # per-trial cap overrides the default
    [10000, 5]
    """
    jobs = []
    for spec in trials:
        if isinstance(spec, Trial):
            jobs.append(
                (
                    spec.graph,
                    spec.inputs,
                    spec.model if spec.model is not None else model,
                    spec.bandwidth_factor
                    if spec.bandwidth_factor is not None
                    else bandwidth_factor,
                    spec.max_rounds
                    if spec.max_rounds is not None
                    else max_rounds,
                    spec.faults if spec.faults is not None else faults,
                    spec.rng if spec.rng is not None else rng,
                )
            )
        elif isinstance(spec, tuple):
            graph, inputs = spec
            jobs.append(
                (graph, inputs, model, bandwidth_factor, max_rounds, faults,
                 rng)
            )
        else:
            jobs.append(
                (spec, None, model, bandwidth_factor, max_rounds, faults, rng)
            )
    return jobs


def run_many(
    algorithm,
    trials: Iterable[nx.Graph | Trial | tuple],
    processes: int | None = None,
    *,
    model: str = "congest",
    bandwidth_factor: int = 32,
    max_rounds: int = 10_000,
    plane: str | None = "auto",
    faults=None,
    rng=None,
) -> list[tuple[Mapping, NetworkMetrics]]:
    """Run ``algorithm`` over many trials, optionally in parallel.

    Parameters
    ----------
    algorithm:
        The prototype algorithm; each trial spawns fresh per-vertex
        instances from it.  Must be picklable when ``processes > 1``
        (every algorithm in this repository is).
    trials:
        Iterable of jobs.  Each may be a bare ``networkx.Graph``, a
        ``(graph, inputs)`` pair, or a :class:`Trial` with per-trial
        overrides (the common benchmark shape: same graph, many seeds).
    processes:
        Worker-process count.  ``None`` uses ``os.cpu_count()`` capped at
        the trial count; ``1`` (or a single trial) runs serially in this
        process with zero multiprocessing overhead.
    plane:
        ``"auto"`` (default) — grid-batch grid-safe columnar sweeps when
        running serially, otherwise resolve per trial through the
        plane table; an explicit plane name forces that plane
        per trial; ``"grid"`` forces trial-major grid execution.  Grid
        execution is inherently single-process (the whole sweep *is*
        one program), so ``plane="grid"`` runs in this process and
        ``processes`` does not apply.
    faults:
        Sweep-wide :class:`~repro.congest.runtime.faults.FaultPlan`
        default; a :class:`Trial`'s ``faults`` field overrides it per
        trial (the fault-intensity-sweep shape).  ``None`` injects
        nothing.
    rng:
        Sweep-wide :class:`~repro.congest.runtime.rng.RngPlan` (or mode
        string) default; a :class:`Trial`'s ``rng`` field overrides it
        per trial.  ``None`` keeps the byte-identity exact streams.

    Returns
    -------
    ``[(outputs, metrics), ...]`` in trial order — exactly what running
    each trial through :meth:`Network.run` serially would produce (the
    grid path is byte-identical to the per-trial columnar plane).
    ``outputs`` is a dict for object-family algorithms and a read-only
    :class:`~repro.congest.columnar.VertexView` for columnar ones, on
    every path (grid, serial, process pool): equal to the dict, in the
    same key order, decoded only when read.

    >>> import networkx as nx
    >>> from repro.congest.algorithms import ColumnarFloodValue
    >>> graph = nx.path_graph(3)
    >>> results = run_many(  # grid-batched: grid-safe, serial, 2 trials
    ...     ColumnarFloodValue(0, 9, 4), [graph, graph], processes=1)
    >>> [outputs[2] for outputs, _metrics in results]
    [9, 9]
    """
    jobs = normalize_jobs(
        trials, model=model, bandwidth_factor=bandwidth_factor,
        max_rounds=max_rounds, faults=faults, rng=rng,
    )
    if processes is None:
        processes = os.cpu_count() or 1
    processes = max(1, min(processes, len(jobs))) if jobs else 1

    grid_safe = "grid" in _planes.supported_planes(algorithm)
    if plane == "grid":
        if not grid_safe:
            raise ValueError(
                f"plane 'grid' does not support "
                f"{type(algorithm).__name__}; supported planes: "
                f"{', '.join(_planes.supported_planes(algorithm)) or 'none'}"
            )
        return _run_grid_chunked(algorithm, jobs)
    if (
        plane in (None, "auto")
        and processes == 1
        and len(jobs) > 1
        and grid_safe
    ):
        return _run_grid_chunked(algorithm, jobs)

    trial_plane = None if plane in (None, "auto") else plane
    payloads = [(algorithm, *job, trial_plane) for job in jobs]
    if processes == 1 or len(payloads) <= 1:
        return [_run_trial(payload) for payload in payloads]
    # Common sweep shape: every trial runs on the same graph.  Ship that
    # graph once per worker (pool initializer) rather than per trial.
    graphs = {id(payload[1]): payload[1] for payload in payloads}
    shared_graph = next(iter(graphs.values())) if len(graphs) == 1 else None
    if shared_graph is not None:
        payloads = [
            (payload[0], None, *payload[2:]) for payload in payloads
        ]
    import multiprocessing

    start_methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context(
        "fork" if "fork" in start_methods else "spawn"
    )
    with ctx.Pool(
        processes, initializer=_pool_init, initargs=(shared_graph,)
    ) as pool:
        return pool.map(_run_trial, payloads)
