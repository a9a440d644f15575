"""Million-node streaming-scale benchmark: int32 CSR compile + columnar runs.

The scale layer's headline claim is that one host can stream-compile a
10^6-node power-law graph into an int32-narrowed CSR and run the classic
CONGEST primitives over it **without ever holding the edge list as
Python objects and without exceeding 4 GB of peak RSS**.  This bench
measures exactly that pipeline:

* ``compile_int32`` / ``compile_int64`` — :func:`compile_edge_stream`
  over :func:`~repro.graphs.streaming.stream_powerlaw_edges` blocks,
  once auto-narrowed (int32) and once with the ``index_dtype="int64"``
  opt-out.  The two CSRs are asserted **value-identical** (the narrowed
  arrays cast back to the opt-out byte for byte) before any number is
  reported, and each record carries its ``CompileStats`` (dedup counts,
  blocks, modeled ``peak_bytes``).
* ``flooding`` / ``bfs`` / ``mis`` — the columnar plane over the
  narrowed topology: :class:`ColumnarFloodValue` and
  :class:`ColumnarBFSTree` at a fixed hop horizon, and
  :class:`ColumnarLubyMIS` under ``rng="vectorized"`` (exact-mode
  per-vertex Python streams would allocate 10^6 ``random.Random``
  objects — the thing this tier exists to avoid).  Each record reports
  wall-clock, simulated rounds/messages/bits, ``messages_per_sec``, and
  the process-lifetime ``peak_rss_bytes`` high-water mark after the
  workload (``ru_maxrss`` is monotone, so the numbers are cumulative —
  the last one is the pipeline's peak and is what the 4 GB budget is
  asserted against in full mode).

Before anything is timed, a small-scale **differential check** runs the
same workloads on int32 and int64 streamed topologies *and* the
per-message object-plane reference executor over the equivalent
``networkx`` graph: outputs, output order, and all four metric counters
must be identical across the three paths, so the numbers below are
measurements of a path already proven byte-exact.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick] [--json PATH]

``--quick`` shrinks the graph to 2*10^4 nodes so the whole run finishes
in seconds (CI's untimed smoke step); the full run is the 10^6-node
acceptance configuration behind ``BENCH_scale.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import networkx as nx
import numpy as np

from _common import bench_payload, fmt, print_table, workload_record, write_bench_json

from repro.congest.algorithms import ColumnarBFSTree, ColumnarFloodValue
from repro.congest.classic import ColumnarLubyMIS
from repro.congest.network import Network
from repro.congest.runtime.compile import compile_edge_stream
from repro.graphs.streaming import materialize_edges, stream_powerlaw_edges

RSS_LIMIT_BYTES = 4 * 1024**3
HOP_HORIZON = 32
FLOOD_VALUE = 9001


def peak_rss_bytes() -> int:
    # Linux reports ru_maxrss in KiB; monotone over the process lifetime.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def counters(metrics):
    return (metrics.rounds, metrics.messages, metrics.total_bits,
            metrics.max_edge_bits_in_round)


def mis_horizon(n: int) -> int:
    return 20 * max(4, n.bit_length() ** 2)


def differential_check(n=400, m=1600, seed=11):
    """Small-scale proof that the measured path is byte-exact: int32 and
    int64 streamed topologies and the per-message reference executor must
    agree on outputs, output order, and every metric counter."""
    blocks = list(stream_powerlaw_edges(n, m, seed=seed))
    narrow = compile_edge_stream(iter(blocks), n)
    wide = compile_edge_stream(iter(blocks), n, index_dtype="int64")
    if narrow.index_dtype != np.int32 or wide.index_dtype != np.int64:
        raise AssertionError("differential check: unexpected index dtypes")
    if narrow.indices.astype(np.int64).tobytes() != wide.indices.tobytes():
        raise AssertionError("differential check: narrowed CSR diverged")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(
        (int(u), int(v)) for u, v in materialize_edges(iter(blocks))
        if u != v
    )
    # Exact-mode rng streams are seeded by per-vertex inputs, so the
    # randomized workload needs explicit input seeds to be replayable.
    input_rng = random.Random(seed)
    inputs = {v: input_rng.randrange(1 << 30) for v in range(n)}
    workloads = [
        ("flooding", lambda: ColumnarFloodValue(0, FLOOD_VALUE, 60)),
        ("bfs", lambda: ColumnarBFSTree(0, 60)),
        ("mis", lambda: ColumnarLubyMIS(mis_horizon(n))),
    ]
    for name, make_algorithm in workloads:
        reference_net = Network(graph)
        expected = reference_net._run_reference(
            make_algorithm(), max_rounds=10_000, inputs=inputs
        )
        for topology in (narrow, wide):
            net = Network(topology)
            outputs = net.run(
                make_algorithm(), max_rounds=10_000, plane="columnar",
                inputs=inputs,
            )
            if outputs != expected or list(outputs) != list(expected):
                raise AssertionError(
                    f"differential check: {name} outputs diverged on "
                    f"{topology.index_dtype}"
                )
            if counters(net.metrics) != counters(reference_net.metrics):
                raise AssertionError(
                    f"differential check: {name} metrics diverged on "
                    f"{topology.index_dtype}"
                )
    return len(workloads)


def bench_compile(n, m, seed, index_dtype):
    start = time.perf_counter()
    topology = compile_edge_stream(
        stream_powerlaw_edges(n, m, seed=seed), n, index_dtype=index_dtype
    )
    elapsed = time.perf_counter() - start
    stats = topology.stats
    record = workload_record(
        f"compile_{stats.index_dtype}",
        n=n,
        m=stats.m,
        wall_clock_s=elapsed,
        rounds=0,
        messages=None,
        bits=None,
        index_dtype=stats.index_dtype,
        candidate_edges=stats.candidate_edges,
        self_loops=stats.self_loops,
        duplicates=stats.duplicates,
        blocks=stats.blocks,
        compile_peak_bytes=stats.peak_bytes,
        peak_rss_bytes=peak_rss_bytes(),
        edges_per_sec=stats.candidate_edges / elapsed if elapsed else 0.0,
    )
    return topology, record


def bench_workload(name, topology, make_algorithm, horizon, **run_kwargs):
    net = Network(topology)
    start = time.perf_counter()
    outputs = net.run(
        make_algorithm(), max_rounds=horizon + 2, plane="columnar",
        **run_kwargs,
    )
    elapsed = time.perf_counter() - start
    metrics = net.metrics
    record = workload_record(
        name,
        n=topology.n,
        m=topology.m,
        wall_clock_s=elapsed,
        rounds=metrics.rounds,
        messages=metrics.messages,
        bits=metrics.total_bits,
        rng=run_kwargs.get("rng", "exact"),
        index_dtype=str(topology.index_dtype),
        messages_per_sec=metrics.messages / elapsed if elapsed else 0.0,
        peak_rss_bytes=peak_rss_bytes(),
    )
    return outputs, record


def validate_scale_outputs(flood_outputs, mis_outputs, topology):
    """Vectorized validity checks over the streamed CSR (no Python loops):
    flooding reaches the giant component; MIS is independent and maximal."""
    n = topology.n
    reached = sum(1 for v in flood_outputs.values() if v == FLOOD_VALUE)
    if reached <= n // 2:
        raise AssertionError(
            f"flooding reached only {reached}/{n} vertices in "
            f"{HOP_HORIZON} hops"
        )
    flags = np.fromiter(mis_outputs.values(), dtype=bool, count=n)
    indptr = topology.indptr.astype(np.int64)
    indices = topology.indices.astype(np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if np.any(flags[rows] & flags[indices]):
        raise AssertionError("MIS is not independent")
    neighbor_in = np.bincount(rows, weights=flags[indices], minlength=n) > 0
    if not bool(np.all(flags | neighbor_in)):
        raise AssertionError("MIS is not maximal")
    return reached


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="2*10^4-node graph; finishes in seconds",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="where to write the results JSON "
             "(default: BENCH_scale.json at the repo root)",
    )
    args = parser.parse_args(argv)

    n, m, seed = (20_000, 80_000, 7) if args.quick else (1_000_000, 4_000_000, 1)

    checked = differential_check()
    print(f"differential check: {checked} workloads byte-identical across "
          f"int32 / int64 / per-message reference")

    topology, narrow_record = bench_compile(n, m, seed, "auto")
    if not args.quick and narrow_record["index_dtype"] != "int32":
        raise AssertionError("full-scale compile failed to narrow to int32")
    wide, wide_record = bench_compile(n, m, seed, "int64")
    if topology.indices.astype(np.int64).tobytes() != wide.indices.tobytes():
        raise AssertionError("narrowed CSR diverged from the int64 opt-out")
    del wide

    flood_outputs, flood_record = bench_workload(
        "flooding", topology,
        lambda: ColumnarFloodValue(0, FLOOD_VALUE, HOP_HORIZON), HOP_HORIZON,
    )
    _bfs_outputs, bfs_record = bench_workload(
        "bfs", topology, lambda: ColumnarBFSTree(0, HOP_HORIZON), HOP_HORIZON,
    )
    horizon = mis_horizon(n)
    mis_outputs, mis_record = bench_workload(
        "mis", topology, lambda: ColumnarLubyMIS(horizon), horizon,
        rng="vectorized",
    )
    reached = validate_scale_outputs(flood_outputs, mis_outputs, topology)

    results = [narrow_record, wide_record, flood_record, bfs_record,
               mis_record]
    peak = peak_rss_bytes()
    if not args.quick and peak >= RSS_LIMIT_BYTES:
        raise AssertionError(
            f"peak RSS {peak} bytes exceeds the {RSS_LIMIT_BYTES} budget"
        )

    print_table(
        f"Streaming scale pipeline at n={n} (int32-narrowed CSR; "
        f"differential check passed; MIS validated vectorized)",
        ["workload", "n", "m", "rounds", "msgs", "wall s", "msgs/s",
         "peak RSS MB"],
        [
            [r["workload"], r["n"], r["m"], r["rounds"],
             r["messages"] if r["messages"] is not None else "-",
             fmt(r["wall_clock_s"], 3),
             int(r.get("messages_per_sec", 0.0)),
             r["peak_rss_bytes"] >> 20]
            for r in results
        ],
    )
    payload = bench_payload(
        "scale",
        results,
        quick=args.quick,
        scale={"n": n, "m_candidate": m, "seed": seed},
        index_dtype=narrow_record["index_dtype"],
        compile_stats=dataclasses.asdict(topology.stats),
        flood_reached=reached,
        mis_size=sum(1 for flag in mis_outputs.values() if flag),
        peak_rss_bytes=peak,
        rss_limit_bytes=RSS_LIMIT_BYTES,
        differential_check="passed",
    )
    path = write_bench_json("scale", payload, args.json)
    print(f"peak RSS: {peak >> 20} MB (budget {RSS_LIMIT_BYTES >> 20} MB)")
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    main()
