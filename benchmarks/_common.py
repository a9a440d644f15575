"""Shared helpers for the benchmark harness: table printing, the uniform
``BENCH_*.json`` schema, and ``run_many`` sweep plumbing.

Each benchmark regenerates one row-set of the paper's evaluation (Table 1
or a theorem's headline claim) and prints it in a fixed-width table so the
captured ``bench_output.txt`` is the reproduction artifact.  The
pytest-benchmark timer wraps the core computation so wall-clock numbers
ride along, but the *reported* quantities are simulated CONGEST rounds and
solution quality — the units the paper's claims are stated in.

Uniform JSON schema (version 2)
-------------------------------
Every ``BENCH_*.json`` written by this harness shares one top-level shape
(:func:`bench_payload` → :func:`write_bench_json`)::

    {
      "bench": "<name>",
      "schema_version": 2,
      "available_cpus": <int>,          # what the host exposed
      "wall_clock_s": <float>,          # sum over workloads
      "workloads": [ {<workload record>}, ... ],
      ... bench-specific extras ...
    }

and every workload record carries the uniform keys ``workload``, ``n``,
``m``, ``trials``, ``wall_clock_s``, ``rounds``, ``messages``, ``bits``,
``rng`` (:func:`workload_record`; ``messages``/``bits`` are ``None`` for
workloads that never enter the message-passing simulator, e.g. the
decomposition ledgers of Table 1; ``rng`` names the randomness
discipline of :mod:`repro.congest.runtime.rng` the workload ran under —
``"exact"`` unless a sweep opted into ``"vectorized"``).  The top level
records ``numpy_version`` alongside ``available_cpus``: vectorized rng
sweeps draw from ``numpy.random.Philox``, so the bit-generator's
provenance is part of a result's reproducibility story.  Simulator sweeps should go through
:func:`sweep_run_many`, which drives :func:`repro.congest.run_many` and
aggregates the per-trial :class:`~repro.congest.metrics.NetworkMetrics`
into one record.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SCHEMA_VERSION = 2


def available_cpus() -> int:
    """The CPUs this process may actually *use* — the scheduler affinity
    mask where the platform exposes it (containers and cgroup quotas
    shrink it below the host's core count), falling back to
    ``os.cpu_count()``.  Every ``BENCH_*.json`` records this so scaling
    claims (process pools) can be read against the parallelism that
    was really available."""
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:  # pragma: no cover - exotic platform
            pass
    return os.cpu_count() or 1


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    print()


def fmt(value, digits: int = 3):
    if isinstance(value, float):
        return round(value, digits)
    return value


# ---------------------------------------------------------------------------
# Uniform BENCH_*.json schema
# ---------------------------------------------------------------------------
def workload_record(
    workload: str,
    *,
    n: int,
    m: int,
    wall_clock_s: float,
    rounds: int,
    messages: int | None,
    bits: int | None,
    trials: int = 1,
    rng: str = "exact",
    **extra,
) -> dict:
    """One uniformly-keyed workload entry for a ``BENCH_*.json``."""
    record = {
        "workload": workload,
        "n": n,
        "m": m,
        "trials": trials,
        "wall_clock_s": wall_clock_s,
        "rounds": rounds,
        "messages": messages,
        "bits": bits,
        "rng": rng,
    }
    record.update(extra)
    return record


def bench_payload(bench: str, workloads: list[dict], **extra) -> dict:
    """Assemble the uniform top-level payload for ``BENCH_<bench>.json``.

    ``available_cpus`` is the measured scheduler affinity (see
    :func:`available_cpus`), not a hardcoded placeholder; ``extra``
    adds bench-specific top-level fields."""
    import numpy

    payload = {
        "bench": bench,
        "schema_version": BENCH_SCHEMA_VERSION,
        "available_cpus": available_cpus(),
        "numpy_version": numpy.__version__,
        "wall_clock_s": sum(
            w.get("wall_clock_s") or 0.0 for w in workloads
        ),
        "workloads": workloads,
    }
    payload.update(extra)
    return payload


def write_bench_json(bench: str, payload: dict, path: Path | None = None) -> Path:
    """Write ``payload`` to ``BENCH_<bench>.json`` at the repository root
    (or ``path``) and return the path written."""
    if path is None:
        path = REPO_ROOT / f"BENCH_{bench}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def sweep_run_many(
    workload: str,
    algorithm,
    trials,
    processes: int = 1,
    **run_many_kwargs,
) -> tuple[dict, list]:
    """Drive a :func:`repro.congest.run_many` sweep and aggregate it into
    one uniform workload record.

    ``trials`` is a non-empty ``run_many`` trial list (``Trial`` objects,
    graphs, or ``(graph, inputs)`` pairs); the record's ``n``/``m`` come
    from the first trial's graph (the benchmark sweep shape: one graph,
    many seeds).  Returns ``(record, results)`` where ``results`` is
    ``run_many``'s per-trial ``[(outputs, metrics), ...]`` so callers can
    verify solution quality before reporting.
    """
    from repro.congest import Trial, run_many

    trials = list(trials)
    if not trials:
        raise ValueError("sweep_run_many needs at least one trial")
    start = time.perf_counter()
    results = run_many(
        algorithm, trials, processes=processes, **run_many_kwargs
    )
    elapsed = time.perf_counter() - start
    first = trials[0]
    graph = first.graph if isinstance(first, Trial) else (
        first[0] if isinstance(first, tuple) else first
    )
    rng = run_many_kwargs.get("rng")
    record = workload_record(
        workload,
        n=graph.number_of_nodes(),
        m=graph.number_of_edges(),
        trials=len(trials),
        wall_clock_s=elapsed,
        rounds=sum(metrics.rounds for _, metrics in results),
        messages=sum(metrics.messages for _, metrics in results),
        bits=sum(metrics.total_bits for _, metrics in results),
        rng=getattr(rng, "mode", rng) or "exact",
        processes=processes,
    )
    return record, results
