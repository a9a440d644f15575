"""The performance gate's decision (``scripts/perf_gate.py``), fed
synthetic per-run records: no perfbench run and no subprocess."""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import perf_gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def record(workload, rng):
    """One run's record in perfbench's format: its median body and
    set-up times vary by a few percent from run to run."""
    body = 2.0 * rng.lognormvariate(0, 0.05)
    setup = 0.01 * rng.lognormvariate(0, 0.05)
    return {
        "workload": workload, "seed": perf_gate.SEED, "trace": 0,
        "smoke": False, "attempted": 8, "failed": 0, "reasons": [],
        "run_s": [body * rng.uniform(0.97, 1.03) for _ in range(3)],
        "setup_s": [setup * rng.uniform(0.9, 1.1) for _ in range(20)],
        "probe_s": {phase: [0.06 * rng.uniform(0.95, 1.05) for _ in range(9)]
                    for phase in ("body", "setup")},
        "metrics": {"run_s": body, "setup_s": setup, "sim_rounds": 2616,
                    "sim_messages": 3287735, "ok_frac": 1.0,
                    "peak_rss_mb": 80.0},
    }


def exchangeable_runs():
    """The change's runs are the parent's in another order: a draw of
    the gate's null hypothesis that passes whatever the seed."""
    rng = random.Random(7)
    parent = {w: [record(w, rng) for _ in range(perf_gate.PAIRS)]
              for w in WORKLOADS}
    return {"parent": parent, "change": copy.deepcopy(
        {w: runs[::-1] for w, runs in parent.items()})}


def test_rank_sum_p_is_valid_under_exchangeability():
    """Over all splits of eight values into two sides of four, a p-value
    at most t occurs in at most a share t of them, ties or not."""
    for values in ([1, 2, 3, 4, 5, 6, 7, 8], [1, 1, 2, 3, 3, 3, 5, 8]):
        ps = [perf_gate.rank_sum_p([values[i] for i in range(8)
                                    if i not in pick],
                                   [values[i] for i in pick])
              for pick in combinations(range(8), 4)]
        for t in set(ps):
            assert sum(p <= t for p in ps) <= t * len(ps) + 1e-9


def test_exchangeable_runs_pass():
    failures, lines = perf_gate.decide(exchangeable_runs(), SPEC)
    assert failures == []
    assert len(lines) == len(WORKLOADS) * 6


def test_change_slower_by_a_fifth_fails_on_every_workload():
    runs = exchangeable_runs()
    for workload in WORKLOADS:
        for run in runs["change"][workload]:
            run["run_s"] = [t * 1.2 for t in run["run_s"]]
    failures, _ = perf_gate.decide(runs, SPEC)
    assert [f.split(" median")[0] for f in failures] == [
        f"worse {w}: run_s/probe" for w in WORKLOADS]


def test_missing_or_malformed_records_fail_closed():
    runs = exchangeable_runs()
    runs["change"][WORKLOADS[0]][3] = None
    runs["parent"][WORKLOADS[1]] = []
    del runs["change"][WORKLOADS[2]]
    runs["parent"][WORKLOADS[3]][0]["seed"] = perf_gate.SEED + 1
    assert perf_gate.decide(runs, SPEC)[0] == [
        f"{WORKLOADS[0]}: no record", f"{WORKLOADS[1]}: no parent runs",
        f"{WORKLOADS[2]}: no change runs",
        f"{WORKLOADS[3]}: record is of another run"]
    runs = exchangeable_runs()
    del runs["parent"][WORKLOADS[0]][0]["probe_s"]["setup"]
    runs["change"][WORKLOADS[1]][0]["run_s"] = []
    failures, _ = perf_gate.decide(runs, SPEC)
    assert [f.split(":")[0] for f in failures] == WORKLOADS[:2]
    assert all("malformed record" in f for f in failures)


def test_failed_units_fail_on_the_change_side_only():
    runs = exchangeable_runs()
    runs["parent"][WORKLOADS[1]][0]["failed"] = 1
    run = runs["change"][WORKLOADS[0]][5]
    run["failed"], run["reasons"] = 8, ["outputs differ between repeats"]
    # One failed run leaves the median ok_frac at 1: the unit check trips.
    assert perf_gate.decide(runs, SPEC)[0] == [
        f"{WORKLOADS[0]}: 8 of 8 units failed on the change side: "
        f"outputs differ between repeats"]


@pytest.mark.parametrize("factor", [1.01, 1.03])
def test_sim_messages_bound(factor):
    runs = exchangeable_runs()
    for run in runs["change"][WORKLOADS[0]]:
        run["metrics"]["sim_messages"] *= factor
    assert perf_gate.decide(runs, SPEC)[0] == ([] if factor < 1.02 else [
        f"worse {WORKLOADS[0]}: sim_messages median {3287735 * factor:.6g} "
        f"against the parent's 3.28774e+06 (bound 0.02)"])


def test_run_once_fails_closed(tmp_path, monkeypatch):
    workload, exit_code = WORKLOADS[0], [3]
    monkeypatch.setattr(
        perf_gate.subprocess, "run",
        lambda command, **kwargs: subprocess.CompletedProcess(
            command, exit_code[0], "", "boom"))
    stale = tmp_path / ".perfbench-runs" / f"{workload}-seed1-trace0.json"
    stale.parent.mkdir()
    stale.write_text(json.dumps(record(workload, random.Random(0))))
    with pytest.raises(perf_gate.GateError, match="exit 3"):
        perf_gate.run_once(tmp_path, workload)
    exit_code[0] = 0  # a clean exit whose run left no record of its own
    with pytest.raises(perf_gate.GateError, match="unreadable record"):
        perf_gate.run_once(tmp_path, workload)


def test_only_argument_is_the_parent_checkout(tmp_path, capsys):
    assert perf_gate.main([]) == perf_gate.main([str(tmp_path), "-x"]) == 2
    assert perf_gate.main([str(tmp_path)]) == 1
    assert "no perfbench/run.py in the parent" in capsys.readouterr().out
