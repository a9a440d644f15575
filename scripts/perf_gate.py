#!/usr/bin/env python
"""Same-host A/B performance gate: this checkout against its parent.

Usage: ``python scripts/perf_gate.py PARENT_CHECKOUT``

For every ``BENCHMARK.json`` workload, each checkout's own
``perfbench/run.py --trace 0`` runs ``PAIRS`` times on this host, the
two sides back to back with the first side alternating, so host drift
lands on both alike; no baseline from another host or time is read.
Each run's record (``.perfbench-runs/<workload>-seed<SEED>-trace0.json``)
is read after it, and all of them are saved to this checkout's
``.perfbench-runs/perf-gate.json``.  The gate fails (exit 1) when a run
fails or leaves no valid record, when a change-side run has failed units
(``ok_frac`` below 1), when the change's ``sim_rounds``,
``sim_messages``, ``ok_frac`` or ``peak_rss_mb`` median is worse than
the parent's by more than its ``BENCHMARK.json`` bound, or when an exact
rank-sum test finds its ``run_s`` or ``setup_s`` larger at level
``ALPHA`` (Bonferroni over the tests made; ``sim_msgs_per_s`` is
messages over ``run_s``).

A run gives one value per timing metric, its median sample over its
median probe reading (perfbench's metric without the constant
reference), because samples of one run share the host's phase.  On
unchanged code the runs of both sides are exchangeable, so the rank-sum
p-value is valid whatever the timings' distribution: the conformal
p-value of Dandapanthula & Ramdas and Hore & Ramdas (PAPERS.md).
CHANGES.md records the measurements behind the fixed constants.

A failure on a workload that does not run the changed code must be
rerun before it is believed.  Each 3-s run holds one to three bodies,
so a host phase lasting several pairs can push one side's ranks far
enough to pass the level by chance; the gate's level is its false-alarm
rate over all of its tests, and across many gates some do fire on code
they never run.  A rerun that passes, or longer alternating runs of that
workload alone, tells such a phase from a regression.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 7  # smallest p-value 1/3432; ~10 min per gate on 2 vCPUs
SECONDS = 3.0  # one to three bodies per run
SEED = 1  # both sides build the same inputs: counts must match exactly
ALPHA = 0.05  # false-alarm rate of the whole gate on unchanged code

# Timing metric -> perfbench probe phase its samples were taken among.
TIMED = {"run_s": "body", "setup_s": "setup"}
BOUNDED = ("sim_rounds", "sim_messages", "ok_frac", "peak_rss_mb")
SIDES = ("parent", "change")


class GateError(Exception):
    """A run that cannot be compared: the gate fails closed."""


def rank_sum_p(parent: list[float], change: list[float]) -> float:
    """Exact one-sided p-value that ``change`` is larger than ``parent``:
    the share of all picks of ``len(change)`` pooled values whose rank
    sum is at least the change's.  Tied values share their mean rank.

    >>> rank_sum_p([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    0.05
    >>> rank_sum_p([4.0, 5.0, 6.0], [1.0, 2.0, 3.0])
    1.0
    >>> rank_sum_p([1.0, 1.0], [1.0, 1.0])
    1.0
    """
    pooled = parent + change
    # Twice each value's mean rank, so ties stay integral.
    ranks = [2 * sum(u < v for u in pooled) + sum(u == v for u in pooled) + 1
             for v in pooled]
    observed = sum(ranks[len(parent):])
    sums = [sum(pick) for pick in combinations(ranks, len(change))]
    return sum(s >= observed for s in sums) / len(sums)


def run_statistic(record: dict, metric: str) -> float:
    """One run's median raw ``metric`` sample over its median probe."""
    readings = record["probe_s"][TIMED[metric]]
    return statistics.median(record[metric]) / statistics.median(readings)


def check_record(record, workload: str) -> None:
    """Raise :class:`GateError` unless ``record`` is a complete untraced
    full-size perfbench record of ``workload`` at ``SEED``."""
    if not isinstance(record, dict):
        raise GateError(f"{workload}: no record")
    try:
        if (record["workload"], record["seed"], record["trace"],
                record["smoke"]) != (workload, SEED, 0, False):
            raise GateError(f"{workload}: record is of another run")
        if not 0 <= record["failed"] <= record["attempted"] > 0:
            raise GateError(f"{workload}: record has invalid unit counts")
        if min(run_statistic(record, metric) for metric in TIMED) <= 0:
            raise GateError(f"{workload}: record has non-positive times")
        for metric in (*TIMED, *BOUNDED):
            float(record["metrics"][metric])
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            statistics.StatisticsError) as error:
        raise GateError(f"{workload}: malformed record ({error!r})") from None


def decide(records: dict, spec: dict) -> tuple[list[str], list[str]]:
    """``(failures, report lines)`` for ``records[side][workload]``, the
    lists of each side's perfbench records (``None`` for a run that
    left none), under ``spec`` (``BENCHMARK.json``).  The gate passes
    when ``failures`` is empty."""
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    level = ALPHA / (len(workloads) * len(TIMED))
    failures, lines = [], []
    for workload in workloads:
        runs = {side: records.get(side, {}).get(workload) for side in SIDES}
        try:
            for side in SIDES:
                if not runs[side]:
                    raise GateError(f"{workload}: no {side} runs")
                for record in runs[side]:
                    check_record(record, workload)
        except GateError as error:
            failures.append(f"{error}")
            continue
        for record in runs["change"]:
            if record["failed"]:
                failures.append(
                    f"{workload}: {record['failed']} of "
                    f"{record['attempted']} units failed on the change "
                    f"side: {'; '.join(record['reasons'])}")
        for metric in (*TIMED, *BOUNDED):
            values = [[run_statistic(r, metric) if metric in TIMED
                       else float(r["metrics"][metric]) for r in runs[side]]
                      for side in SIDES]
            parent, change = map(statistics.median, values)
            if metric in TIMED:
                p = rank_sum_p(*values)
                verdict = f"rank-sum p={p:.4f}, level {level:.5f}"
                worse = p <= level
            else:
                bound = bounds[metric]["bound"]
                verdict = f"bound {bound}"
                worse = (change > parent * (1 + bound)
                         if bounds[metric]["better"] == "lower"
                         else change < parent * (1 - bound))
            name = f"{metric}/probe" if metric in TIMED else metric
            line = (f"{workload}: {name} median {change:.6g} against the "
                    f"parent's {parent:.6g} ({verdict})")
            lines.append(line)
            if worse:
                failures.append(f"worse {line}")
    return failures, lines


def run_once(checkout: Path, workload: str) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``; its
    record, or :class:`GateError`."""
    path = checkout / ".perfbench-runs" / f"{workload}-seed{SEED}-trace0.json"
    path.unlink(missing_ok=True)  # never read an earlier run's record
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS),
               "--trace", "0"]
    try:
        done = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=600)
    except subprocess.TimeoutExpired:
        raise GateError(f"{workload} in {checkout}: timed out") from None
    if done.returncode != 0:
        raise GateError(f"{workload} in {checkout}: exit {done.returncode}"
                        f"\n{done.stdout}{done.stderr}")
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise GateError(f"{workload} in {checkout}: unreadable record "
                        f"({error})") from None
    check_record(record, workload)
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python scripts/perf_gate.py PARENT_CHECKOUT",
              file=sys.stderr)
        return 2
    checkouts = {"parent": Path(argv[0]).resolve(), "change": ROOT}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"perf-gate: FAIL — no perfbench/run.py in the {side} "
                  f"checkout {checkout}")
            return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = {side: {w["name"]: [] for w in spec["workloads"]}
               for side in SIDES}
    started = time.perf_counter()
    failures = []
    try:
        for pair in range(PAIRS):
            for workload in records["parent"]:
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    record = run_once(checkouts[side], workload)
                    records[side][workload].append(record)
                    print(f"perf-gate: pair {pair + 1} {workload} {side} "
                          f"run_s {record['metrics']['run_s']:.3f}",
                          flush=True)
    except GateError as error:
        failures = [f"{error}"]
    out = ROOT / ".perfbench-runs" / "perf-gate.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"parent": str(checkouts["parent"]),
                               "records": records}))
    if not failures:
        failures, lines = decide(records, spec)
        print("\n".join(lines))
        print(f"perf-gate: {PAIRS} pairs in "
              f"{time.perf_counter() - started:.0f} s")
    for message in failures:
        print(f"perf-gate: FAIL — {message}")
    print("perf-gate: OK" if not failures else "perf-gate: FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
