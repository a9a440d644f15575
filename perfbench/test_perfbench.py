"""Tests of the benchmark itself: the toy-size smoke run of every
workload, the tracer's self-time arithmetic, the host-speed scaling of
samples, and the refusal to run without the program's sources."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402


def test_smoke_every_workload_emits_every_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke-all"],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_self_times_partition_the_root_and_swaps_are_undone():
    stats = importlib.import_module("repro.graphs.stats")
    original = stats.GraphStats.__dict__["for_graph"]
    tracer = tracing.Tracer(run_id=7)
    with tracing.instrument(tracer):
        assert stats.GraphStats.__dict__["for_graph"] is not original
        with tracer.span("body"):
            with tracer.span("outer"):
                time.sleep(0.01)
                with tracer.span("inner"):
                    time.sleep(0.01)
    assert stats.GraphStats.__dict__["for_graph"] is original
    arrays = tracer.arrays()
    duration, own = tracing.self_times(arrays)
    assert [tracer.names[i] for i in arrays["name"]] == ["body", "outer", "inner"]
    assert list(arrays["parent"]) == [-1, 0, 1]
    assert np.isclose(own.sum(), duration[0])
    assert own[1] >= 0.01 and own[2] >= 0.01


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = np.arange(100, dtype=float)
    assert tracing.tail_percentile(samples) == (89.0, 90.0)
    assert tracing.tail_percentile(samples[:5]) == (4.0, 100.0)


def test_probe_scale_is_reference_over_the_phase_median():
    probe = calibrate.Probe()
    probe.read("body")
    assert len(probe.readings["body"]) == 3
    assert all(r > 0 for r in probe.readings["body"])
    probe.readings = {"body": [0.12, 0.36, 0.24, 0.06, 0.24], "setup": [0.5]}
    assert np.isclose(probe.scale("body"), calibrate.REFERENCE_S / 0.24)
    assert np.isclose(probe.scale("setup"), calibrate.REFERENCE_S / 0.5)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [*spec["command"], "--workload", "sweep-faults", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
