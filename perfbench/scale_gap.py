"""Replay ``benchmarks/bench_scale.py``'s in-process order against a
fresh-process MIS, to explain the committed 10^6-node MIS time.

``bench_scale.py`` runs, in one process: a small differential check,
the int32 compile, the int64 compile, ``del`` of the int64 CSR, then
flooding, BFS and vectorized Luby MIS, keeping the flooding and BFS
output dicts alive to the end.  This script replays exactly that order
(same sizes, same seed) and times the MIS with the time the cyclic
garbage collector spends inside it, then runs the MIS once more under
the tracer for its layer breakdown.  A second process
compiles the int32 CSR and runs only the MIS, timed and then traced.
Both print one JSON line; the parent prints them side by side.

Usage (from the root of a checkout)::

    python3 perfbench/scale_gap.py
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "benchmarks"))
sys.path.insert(0, str(HERE))

# bench_scale.main's full-scale configuration.
N, M, SEED = 1_000_000, 4_000_000, 1
MIS_LAYERS = ("deliver.self_s", "algo.on_round_s", "ctx.reduce_s",
              "ctx.emit_s", "rng.draw_s", "algo.setup_s", "algo.outputs_s",
              "round.count", "round_ms.p50", "round_ms.tail",
              "trace.coverage_frac")


class GcClock:
    """Time spent in the cyclic garbage collector, per generation."""

    def __init__(self) -> None:
        self.seconds = [0.0, 0.0, 0.0]
        self.collections = [0, 0, 0]
        self._start = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            generation = info["generation"]
            self.seconds[generation] += time.perf_counter() - self._start
            self.collections[generation] += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def run_mis(topology):
    """(MIS seconds, rounds, gc seconds per generation, gc collections)."""
    from repro.congest.classic import ColumnarLubyMIS
    from repro.congest.network import Network

    horizon = 20 * max(4, topology.n.bit_length() ** 2)
    net = Network(topology)
    with GcClock() as clock:
        start = time.perf_counter()
        net.run(ColumnarLubyMIS(horizon), max_rounds=horizon + 2,
                plane="columnar", rng="vectorized")
        elapsed = time.perf_counter() - start
    return elapsed, net.metrics.rounds, clock.seconds, clock.collections


def traced_mis(topology) -> dict:
    import tracing

    tracer = tracing.Tracer(run_id=0)
    with tracing.instrument(tracer), tracer.span("body"):
        start = time.perf_counter()
        run_mis(topology)
        elapsed = time.perf_counter() - start
    layers = tracing.layer_metrics(
        tracer, columnar_messages=0, faults_duplicated=0, faults_delayed=0,
        untraced_body_s=elapsed,
    )
    return {name: layers[name] for name in MIS_LAYERS}


def mode(which: str) -> dict:
    import bench_scale
    from repro.congest.runtime.compile import compile_edge_stream
    from repro.graphs.streaming import stream_powerlaw_edges

    stages = {}
    if which == "replay":
        start = time.perf_counter()
        bench_scale.differential_check()
        stages["differential_s"] = time.perf_counter() - start
    start = time.perf_counter()
    topology = compile_edge_stream(stream_powerlaw_edges(N, M, seed=SEED), N)
    stages["compile_int32_s"] = time.perf_counter() - start
    if which == "replay":
        start = time.perf_counter()
        wide = compile_edge_stream(
            stream_powerlaw_edges(N, M, seed=SEED), N, index_dtype="int64"
        )
        stages["compile_int64_s"] = time.perf_counter() - start
        del wide
        # bench_scale.main keeps both output dicts alive through the MIS.
        held = []
        for name, make in (
            ("flood_s", lambda: bench_scale.ColumnarFloodValue(
                0, bench_scale.FLOOD_VALUE, bench_scale.HOP_HORIZON)),
            ("bfs_s", lambda: bench_scale.ColumnarBFSTree(
                0, bench_scale.HOP_HORIZON)),
        ):
            start = time.perf_counter()
            outputs, _ = bench_scale.bench_workload(
                name, topology, make, bench_scale.HOP_HORIZON
            )
            stages[name] = time.perf_counter() - start
            held.append(outputs)
    (stages["mis_s"], stages["mis_rounds"], stages["mis_gc_s"],
     stages["mis_gc_collections"]) = run_mis(topology)
    stages["rss_before_trace_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return {"mode": which, "stages": stages,
            "mis_traced": traced_mis(topology)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("replay", "fresh"),
                        help="run one side in this process")
    args = parser.parse_args(argv)
    if args.mode:
        print(json.dumps(mode(args.mode)), flush=True)
        return 0
    results = []
    for which in ("replay", "fresh"):
        done = subprocess.run(
            [sys.executable, __file__, "--mode", which],
            capture_output=True, text=True, check=True,
        )
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for result in results:
        print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
