"""Span tracing for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  :func:`instrument`
swaps the public entry points of each layer, for the duration of a
``with`` block, for wrappers that record one span per call: name,
start, end and parent (the span open when the call began).  Functions
are swapped in every module that looks them up by name (a function
imported with ``from x import f`` is swapped in the importer too);
methods are swapped on their classes.  Spans live in flat arrays in
memory and are written out by :meth:`Tracer.save` when the run ends.

A span's *self time* is its duration minus the durations of its direct
children; every layer metric in :func:`layer_metrics` is a sum of self
times (or a count), so the layer times partition the traced wall clock
and ``trace.coverage_frac`` is the share of it that some layer claims.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Phase spans opened around one execution (``Network.run`` or one grid
# chunk): set-up until the round spine starts, outputs after it ends.
SETUP_PHASE = "algo.setup"
OUTPUTS_PHASE = "algo.outputs"
EXECUTIONS = ("net.run", "grid.run")
ROOTS = ("setup", "body")


class Tracer:
    """In-memory span store: one row per span in parallel flat arrays."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(math.nan)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """Close span ``index`` and every span still open inside it."""
        now = time.perf_counter()
        stack = self.stack
        while len(stack) > 1:
            top = stack.pop()
            self.end[top] = now
            if top == index:
                return

    def top_name(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording one ``name`` span per call.  ``before(args,
        kwargs)`` and ``after(result)`` run inside the span, for counts."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                close(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (name, start, end, parent, run id) as ``.npz``."""
        np.savez_compressed(
            path, names=np.array(self.names), run_id=np.int64(self.run_id),
            **self.arrays(),
        )


class Patches:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def setattr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def function(self, module, attr: str, wrapper_of) -> None:
        """Swap ``module.attr`` wherever a loaded module binds it by name."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for loaded in list(sys.modules.values()):
            if not (getattr(loaded, "__name__", None) or "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self.setattr(loaded, key, wrapper)

    def method(self, cls, attr: str, wrapper_of) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            self.setattr(cls, attr, classmethod(wrapper_of(raw.__func__)))
        elif isinstance(raw, staticmethod):
            self.setattr(cls, attr, staticmethod(wrapper_of(raw.__func__)))
        elif isinstance(raw, property):
            self.setattr(cls, attr, property(
                wrapper_of(raw.fget), raw.fset, raw.fdel, raw.__doc__
            ))
        else:
            self.setattr(cls, attr, wrapper_of(raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


_MISSING = object()


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap every traced entry point in; restore them on exit."""
    # Modules by full name: package namespaces re-export functions that
    # shadow their submodules (``repro.graphs.conductance``).  Importing
    # every algorithm module first lets the subclass scans see them all.
    (
        _algorithms, _classic, _cluster_sim, property_testing, columnar,
        engine, network, batch, rcompile, faults, recovery, rng, scheduler,
        edt, existential, heavy_stars, kwise, random_walks, conductance,
        stats, streaming, generators,
    ) = map(importlib.import_module, (
        "repro.congest.algorithms", "repro.congest.classic",
        "repro.congest.cluster_sim", "repro.applications.property_testing",
        "repro.congest.columnar", "repro.congest.engine",
        "repro.congest.network", "repro.congest.runtime.batch",
        "repro.congest.runtime.compile", "repro.congest.runtime.faults",
        "repro.congest.runtime.recovery", "repro.congest.runtime.rng",
        "repro.congest.runtime.scheduler", "repro.decomposition.edt",
        "repro.decomposition.existential", "repro.decomposition.heavy_stars",
        "repro.gathering.kwise", "repro.gathering.random_walks",
        "repro.graphs.conductance", "repro.graphs.stats",
        "repro.graphs.streaming", "repro.graphs.generators",
    ))

    t = tracer
    p = Patches()
    wrap = t.wrap

    def named(name, **hooks):
        return lambda fn: wrap(name, fn, **hooks)

    def count(key, of):
        def hook(value):
            t.counts[key] += of(value)
        return hook

    # -- graph generation: a stream call computes its weights, and each
    # next() pulls a block ...
    def traced_stream(fn):
        nid = t.name_id("gen")

        def call(*args, **kwargs):
            index = t.open(nid)
            try:
                blocks = fn(*args, **kwargs)
            finally:
                t.close(index)
            return _traced_blocks(t, nid, blocks)

        return call

    for attr in ("stream_powerlaw_edges", "stream_rmat_edges",
                 "stream_random_regular_edges"):
        p.function(streaming, attr, traced_stream)
    # ... and the networkx graph generators.
    for attr, fn in list(vars(generators).items()):
        if (inspect.isfunction(fn) and not attr.startswith("_")
                and fn.__module__ == generators.__name__):
            p.function(generators, attr, named("gen"))

    # -- runtime.compile -------------------------------------------------
    def compiled_stream(topology):
        t.counts["compile.candidate_edges"] += topology.stats.candidate_edges
        t.counts["compile.peak_bytes"] = max(
            t.counts["compile.peak_bytes"], topology.stats.peak_bytes
        )

    p.function(rcompile, "compile_edge_stream",
               named("compile", after=compiled_stream))
    p.function(rcompile, "compile_topology", named("compile"))
    p.function(rcompile, "delivery_plane", named("compile.plane"))
    for cls in (engine.CompiledTopology, rcompile.StreamTopology,
                rcompile.GridTopology):
        p.method(cls, "columnar_plane", named("compile.plane"))
    p.method(rcompile.StreamTopology, "repr_rank", named("compile.plane"))

    # -- runtime.scheduler round spine, at each call site ----------------
    for module, kind in ((columnar, ""), (batch, ""), (scheduler, ".object")):
        p.setattr(module, "run_rounds",
                  _traced_spine(t, scheduler.run_rounds, kind))
    p.method(network.Network, "run", _traced_execution(t, "net.run"))
    p.setattr(batch, "execute_grid",
              _traced_execution(t, "grid.run")(batch.execute_grid))

    # -- runtime.batch ---------------------------------------------------
    p.function(batch, "run_many", named("batch"))
    p.setattr(batch, "GridTopology", wrap(
        "grid.build", rcompile.GridTopology,
        after=count("grid.rows", lambda grid: grid.n),
    ))
    p.setattr(batch, "grid_rng_state", named("grid.build")(batch.grid_rng_state))
    # Only the grid builds a FaultState in these workloads (single runs
    # would build theirs through FaultState.for_single).
    p.method(faults.FaultState, "__init__", named("grid.build"))

    # -- runtime.faults / runtime.rng ------------------------------------
    for attr in ("crash_step", "columnar_step"):
        p.method(faults.FaultState, attr, named("faults"))
    rows_hook = count_rows(t)
    for cls in (rng.ExactRng, rng.VectorizedRng, rng.GridRng):
        for attr in ("randrange_rows", "uniform_rows"):
            if attr in vars(cls):
                p.method(cls, attr, named("rng.draw", before=rows_hook))

    # -- congest.columnar context ----------------------------------------
    for attr in ("reduce_neighbors", "gather_var"):
        p.method(columnar.ColumnarContext, attr, named("ctx.reduce"))
    for attr in ("reduce", "gather_var"):
        p.method(columnar.ColumnarInbox, attr, named("ctx.reduce"))
    for attr in ("emit_columns", "emit_var"):
        p.method(columnar.ColumnarContext, attr, named("ctx.emit"))

    # -- algorithm code and the recovery wrappers, at class level ---------
    wrappers = (recovery.ColumnarReliable, recovery.ReliableNodeAlgorithm)
    for base, name in ((columnar.ColumnarAlgorithm, "algo.on_round"),
                       (network.NodeAlgorithm, "object.on_round")):
        for cls in _subclasses(base):
            if "on_round" in vars(cls):
                span = "recovery" if cls in wrappers else name
                p.method(cls, "on_round", named(span))

    # -- decomposition ---------------------------------------------------
    p.function(edt, "edt_decomposition", named("decomp.edt"))
    p.function(edt, "refine_merge", named("decomp.merge"))
    for attr in ("refine_local", "local_edt_lemma52"):
        p.function(edt, attr, named("decomp.local"))
    p.function(existential, "expander_decomposition_fact31",
               named("decomp.existential"))
    p.function(heavy_stars, "heavy_stars", named("decomp.heavy_stars"))

    # -- graphs analysis -------------------------------------------------
    for attr in ("conductance_of_set", "conductance", "cheeger_sweep_cut",
                 "spectral_conductance_bounds", "exact_conductance"):
        p.function(conductance, attr, named(
            "graphs.conductance", before=tally(t, "graphs.conductance_calls"),
        ))
    p.method(stats.GraphStats, "for_graph", named("graphs.stats"))

    # -- gathering -------------------------------------------------------
    p.function(edt, "run_gather_on_groups", named("gather"))
    p.function(random_walks, "gather_with_random_walks", named("gather"))
    for attr in ("find_walk_schedule", "_find_walk_schedule_full",
                 "find_shared_walk_schedule", "simulate_walks"):
        p.function(random_walks, attr, named("gather.schedule"))
    p.function(random_walks, "execute_walk_schedule", named("gather.exec"))
    for attr in ("__call__", "hash_triple", "hash_triples_vectorized",
                 "_expand_coefficients", "describe", "from_description"):
        p.method(kwise.KWiseHash, attr, named("gather.hash"))

    # -- applications ----------------------------------------------------
    p.function(property_testing, "test_minor_closed_property", named("ptest"))

    try:
        yield t
    finally:
        p.restore()


def count_rows(tracer: Tracer):
    def hook(args, kwargs):
        rows = kwargs.get("rows", args[2] if len(args) > 2 else ())
        tracer.counts["rng.rows"] += int(np.size(rows))
    return hook


def tally(tracer: Tracer, key: str):
    def hook(args, kwargs):
        tracer.counts[key] += 1
    return hook


def _traced_blocks(tracer: Tracer, nid: int, blocks):
    iterator = iter(blocks)
    while True:
        index = tracer.open(nid)
        try:
            block = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.close(index)
        yield block


def _traced_spine(tracer: Tracer, run_rounds, kind: str):
    """``run_rounds`` for one call site: closes the execution's set-up
    phase, records the spine and one span per ``advance`` call, then
    opens the outputs phase, which the execution's wrapper closes."""
    spine = tracer.name_id("spine" + kind)
    round_name = "round" + kind
    setup_id = tracer.name_id(SETUP_PHASE)
    outputs_id = tracer.name_id(OUTPUTS_PHASE)

    def traced(*, advance, **kwargs):
        stack = tracer.stack
        if stack[-1] >= 0 and tracer.name[stack[-1]] == setup_id:
            tracer.close(stack[-1])
        index = tracer.open(spine)
        try:
            run_rounds(advance=tracer.wrap(round_name, advance), **kwargs)
        finally:
            tracer.close(index)
        if tracer.top_name() in EXECUTIONS:
            tracer.open(outputs_id)

    return traced


def _traced_execution(tracer: Tracer, name: str):
    nid = tracer.name_id(name)
    setup_id = tracer.name_id(SETUP_PHASE)

    def wrapper_of(fn):
        def traced(*args, **kwargs):
            index = tracer.open(nid)
            tracer.open(setup_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        return traced

    return wrapper_of


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------
# Per-layer time metric → the span names whose self times it sums.
LAYER_TIMES = {
    "gen.self_s": ("gen",),
    "compile.self_s": ("compile",),
    "compile.plane_s": ("compile.plane",),
    "deliver.self_s": ("round", "spine"),
    "ctx.reduce_s": ("ctx.reduce",),
    "ctx.emit_s": ("ctx.emit",),
    "algo.setup_s": ("algo.setup", "net.run", "grid.run"),
    "algo.on_round_s": ("algo.on_round",),
    "algo.outputs_s": ("algo.outputs",),
    "rng.draw_s": ("rng.draw",),
    "faults.self_s": ("faults",),
    "recovery.self_s": ("recovery",),
    "grid.build_s": ("grid.build",),
    "batch.self_s": ("batch",),
    "object.on_round_s": ("object.on_round",),
    "object.engine_s": ("round.object", "spine.object"),
    "decomp.edt_s": ("decomp.edt",),
    "decomp.merge_s": ("decomp.merge",),
    "decomp.local_s": ("decomp.local",),
    "decomp.existential_s": ("decomp.existential",),
    "decomp.heavy_stars_s": ("decomp.heavy_stars",),
    "graphs.conductance_s": ("graphs.conductance",),
    "graphs.stats_s": ("graphs.stats",),
    "gather.self_s": ("gather", "gather.exec"),
    "gather.schedule_s": ("gather.schedule",),
    "gather.hash_s": ("gather.hash",),
    "ptest.self_s": ("ptest",),
}

# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "gen.self_s": "s",
    "compile.self_s": "s",
    "compile.edges_per_s": "edges/s",
    "compile.peak_bytes": "bytes",
    "compile.plane_s": "s",
    "round.count": "rounds",
    "round_ms.p50": "ms",
    "round_ms.tail": "ms",
    "round_ms.tail_pct": "%",
    "deliver.self_s": "s",
    "deliver.msgs_per_s": "msg/s",
    "ctx.reduce_s": "s",
    "ctx.emit_s": "s",
    "algo.setup_s": "s",
    "algo.on_round_s": "s",
    "algo.outputs_s": "s",
    "rng.draw_s": "s",
    "rng.rows": "rows",
    "faults.self_s": "s",
    "faults.duplicated": "msgs",
    "faults.delayed": "msgs",
    "recovery.self_s": "s",
    "recovery.rounds_per_logical": "ratio",
    "grid.build_s": "s",
    "grid.rows": "rows",
    "batch.self_s": "s",
    "object.on_round_s": "s",
    "object.engine_s": "s",
    "decomp.edt_s": "s",
    "decomp.merge_s": "s",
    "decomp.local_s": "s",
    "decomp.existential_s": "s",
    "decomp.heavy_stars_s": "s",
    "graphs.conductance_s": "s",
    "graphs.conductance_calls": "calls",
    "graphs.stats_s": "s",
    "gather.self_s": "s",
    "gather.schedule_s": "s",
    "gather.hash_s": "s",
    "gather.exec_s": "s",
    "ptest.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.spans": "spans",
}


def self_times(arrays: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-span (duration, self time)."""
    duration = arrays["end"] - arrays["start"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent],
        minlength=len(duration),
    )
    return duration, duration - children


def tail_percentile(samples: np.ndarray) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile).  With ten or fewer samples, the maximum."""
    ordered = np.sort(samples)
    k = len(ordered)
    if k <= 10:
        return float(ordered[-1]), 100.0
    return float(ordered[k - 11]), 100.0 * (k - 10) / k


def layer_metrics(tracer: Tracer, *, columnar_messages: int,
                  faults_duplicated: int, faults_delayed: int,
                  untraced_body_s: float) -> dict:
    """Every per-layer metric, derived from the tracer's spans/counts."""
    arrays = tracer.arrays()
    duration, own = self_times(arrays)
    names = arrays["name"]
    by_name = np.bincount(names, weights=own, minlength=len(tracer.names))
    ids = {name: i for i, name in enumerate(tracer.names)}

    def total(*span_names):
        return float(sum(by_name[ids[s]] for s in span_names if s in ids))

    def spans_of(*span_names):
        wanted = [ids[s] for s in span_names if s in ids]
        return np.isin(names, wanted) if wanted else np.zeros(len(names), bool)

    out = {metric: total(*spans) for metric, spans in LAYER_TIMES.items()}
    counts = tracer.counts
    out["compile.edges_per_s"] = (
        counts["compile.candidate_edges"] / out["compile.self_s"]
        if counts["compile.candidate_edges"] and out["compile.self_s"] > 0
        else 0.0
    )
    out["compile.peak_bytes"] = float(counts["compile.peak_bytes"])
    rounds = duration[spans_of("round", "round.object")] * 1e3
    out["round.count"] = float(len(rounds))
    if len(rounds):
        out["round_ms.p50"] = float(np.median(rounds))
        out["round_ms.tail"], out["round_ms.tail_pct"] = tail_percentile(rounds)
    else:
        out["round_ms.p50"] = out["round_ms.tail"] = out["round_ms.tail_pct"] = 0.0
    out["deliver.msgs_per_s"] = (
        columnar_messages / out["deliver.self_s"]
        if columnar_messages and out["deliver.self_s"] > 0 else 0.0
    )
    out["rng.rows"] = float(counts["rng.rows"])
    out["faults.duplicated"] = float(faults_duplicated)
    out["faults.delayed"] = float(faults_delayed)
    inner_steps = int(spans_of("algo.on_round").sum())
    out["recovery.rounds_per_logical"] = (
        int(spans_of("round").sum()) / inner_steps
        if spans_of("recovery").any() and inner_steps else 0.0
    )
    out["grid.rows"] = float(counts["grid.rows"])
    out["graphs.conductance_calls"] = float(counts["graphs.conductance_calls"])
    out["gather.exec_s"] = float(duration[spans_of("gather.exec")].sum())
    traced_wall = float(duration[spans_of(*ROOTS)].sum())
    body_wall = float(duration[spans_of("body")].sum())
    claimed = sum(out[metric] for metric in LAYER_TIMES)
    out["trace.overhead_frac"] = body_wall / untraced_body_s - 1.0
    out["trace.coverage_frac"] = claimed / traced_wall if traced_wall else 0.0
    out["trace.spans"] = float(len(names))
    return {name: out[name] for name in PER_LAYER_UNITS}
