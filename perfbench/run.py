"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream-scale --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing swapped in;
``--trace 1`` runs the workload once untraced and once traced, and
reports the per-layer metrics (see ``perfbench/README.md``).
``--smoke`` shrinks every workload to toy size; ``--smoke-all`` runs all
four workloads at toy size, traced and untraced, each in its own
process, and checks that every metric named in ``BENCHMARK.json`` is
emitted with its unit.

The last line of standard output is the result object; a record with
the seed, every sample and the output digests is also written under
``.perfbench-runs/`` in the checkout, next to the traced run's spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-runs"
# Repeat set-up at least this often, and for at least this many seconds,
# so setup_s is the median of many samples when one set-up takes
# milliseconds.
SETUP_REPEATS, SETUP_MIN_S = 3, 3.0
# Probe the host's speed between set-ups once this much time has passed
# since the last probe.
PROBE_EVERY_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy-size inputs")
    parser.add_argument("--smoke-all", action="store_true",
                        help="every workload at toy size, traced and not")
    args = parser.parse_args(argv)
    if not args.smoke_all and args.workload is None:
        parser.error("--workload is required")
    return args


def load_program():
    """Put the checkout's ``src`` on the path; fail if it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program sources at {src / 'repro'}; run from a "
            "full checkout"
        )
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def run_name(args) -> str:
    """Stem of the run's files under ``.perfbench-runs/``."""
    smoke = "-smoke" if args.smoke else ""
    return f"{args.workload}-seed{args.seed}{smoke}"


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, seed):
    """One timed set-up, then the untimed per-trial inputs; (seconds,
    state, fingerprint of all the inputs)."""
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    elapsed = time.perf_counter() - start
    state = workload.inputs(seed, state)
    return elapsed, state, workload.fingerprint(state)


def timed_body(workload, state, tracer=None):
    """One timed body run; (seconds, result, or None if it raised).
    Collecting first makes every run start from the same heap, with no
    earlier run's garbage left for the collector to walk mid-body."""
    span = tracer.span("body") if tracer else contextlib.nullcontext()
    gc.collect()
    start = time.perf_counter()
    try:
        with span:
            result = workload.body(state)
    except Exception:  # the run's units count as failed; the run goes on
        traceback.print_exc()
        result = None
    return time.perf_counter() - start, result


def checked(workload, state, result):
    """The workload's check of one body result (a raise fails every unit)."""
    if result is None:
        from workloads import Outcome

        return Outcome(units=workload.units,
                       failures=["body raised"] * workload.units)
    return workload.check(state, result)


class Tally:
    """Units attempted/failed, plus the exact-count identity gates."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.reference = None

    def add(self, outcome) -> None:
        self.attempted += outcome.units
        failed = min(outcome.units, len(outcome.failures))
        reasons = list(outcome.failures)
        if self.reference is None:
            self.reference = outcome
        elif (outcome.counts, outcome.digest) != (
                self.reference.counts, self.reference.digest):
            # Same inputs must give the same outputs and simulated counts.
            failed = outcome.units
            reasons.append("outputs or simulated counts differ between repeats")
        self.failed += failed
        self.reasons += reasons


def measure(workload, args) -> tuple[dict, dict]:
    """Untraced run: one set-up, body runs for ``--seconds``, then the
    remaining set-up samples, with host-speed probes between samples
    (see ``calibrate.py``).  The extra set-ups come last because
    building and dropping hundreds of small graphs fragments the heap
    and would slow the body that followed them by up to a fifth.

    ``run_s`` and ``setup_s`` are the medians of the run's body and
    set-up samples, each scaled by the median probe taken among those
    samples: the host's speed drifts by up to a factor of two in phases
    of seconds to tens of minutes, and the probes cancel most of that
    drift where no estimator over raw samples can."""
    import calibrate

    tally = Tally()
    probe = calibrate.Probe()
    probe.read("setup")
    elapsed, state, inputs = timed_setup(workload, args.seed)
    setup_samples = [elapsed]
    body_samples = []
    while not body_samples or sum(body_samples) < args.seconds:
        probe.read("body")
        elapsed, result = timed_body(workload, state)
        body_samples.append(elapsed)
        tally.add(checked(workload, state, result))
        result = None
    probe.read("body")
    state = None
    min_seconds = 0.0 if args.smoke else SETUP_MIN_S
    probe.read("setup")
    start = last_read = time.perf_counter()
    while (len(setup_samples) < SETUP_REPEATS
           or time.perf_counter() - start < min_seconds):
        elapsed, state, fingerprint = timed_setup(workload, args.seed)
        state = None  # one set of inputs alive at a time
        setup_samples.append(elapsed)
        if fingerprint != inputs:
            tally.failed = tally.attempted
            tally.reasons.append("set-up is not deterministic")
            break
        # Set-ups of a few milliseconds share a probe.
        if time.perf_counter() - last_read >= PROBE_EVERY_S:
            probe.read("setup")
            last_read = time.perf_counter()
    probe.read("setup")
    ref = tally.reference
    run_s = statistics.median(body_samples) * probe.scale("body")
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setup_samples) * probe.scale("setup"),
                    "s"),
        "sim_msgs_per_s": (ref.messages / run_s, "msg/s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "sim_rounds": (ref.rounds, "rounds"),
        "sim_messages": (ref.messages, "msgs"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted,
                    "ratio"),
    }
    record = {"setup_s": setup_samples, "run_s": body_samples,
              "probe_s": probe.readings,
              "digest": ref.digest, "counts": ref.counts}
    return metrics, {"tally": tally, "record": record}


def measure_traced(workload, args) -> tuple[dict, dict]:
    """Untraced set-up + body, then the same traced; per-layer metrics."""
    import tracing

    tally = Tally()
    _, state, untraced_inputs = timed_setup(workload, args.seed)
    untraced_s, result = timed_body(workload, state)
    tally.add(checked(workload, state, result))
    state = result = None
    gc.collect()
    tracer = tracing.Tracer(run_id=args.seed)
    with tracing.instrument(tracer):
        with tracer.span("setup"):
            state = workload.setup(args.seed)
        state = workload.inputs(args.seed, state)
        traced_s, result = timed_body(workload, state, tracer)
    traced = checked(workload, state, result)
    tally.add(traced)  # the identity gate: traced must equal untraced
    if workload.fingerprint(state) != untraced_inputs:
        tally.failed = tally.attempted
        tally.reasons.append("traced set-up built different inputs")
    layers = tracing.layer_metrics(
        tracer,
        columnar_messages=traced.messages if workload.columnar else 0,
        faults_duplicated=traced.duplicated, faults_delayed=traced.delayed,
        untraced_body_s=untraced_s,
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{run_name(args)}.npz")
    metrics = {name: (value, tracing.PER_LAYER_UNITS[name])
               for name, value in layers.items()}
    record = {"untraced_s": untraced_s, "traced_s": traced_s,
              "digest": traced.digest, "counts": traced.counts}
    return metrics, {"tally": tally, "record": record}


def warm_up(workloads, name: str, seed: int) -> None:
    """Run the workload once at toy size, untimed, so lazy imports and
    first-call caches are filled before anything is measured."""
    toy = workloads[name](smoke=True)
    toy.body(toy.inputs(seed, toy.setup(seed)))


def run_one(args) -> int:
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; expected one "
            f"of {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} smoke={args.smoke}", flush=True)
    if not args.smoke:
        warm_up(WORKLOADS, args.workload, args.seed)
    measure_fn = measure_traced if args.trace else measure
    metrics, detail = measure_fn(workload, args)
    tally = detail["tally"]
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(detail["record"], workload=args.workload, seed=args.seed,
                  trace=args.trace, smoke=args.smoke,
                  attempted=tally.attempted, failed=tally.failed,
                  reasons=tally.reasons,
                  metrics={k: v for k, (v, _) in metrics.items()})
    name = f"{run_name(args)}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }), flush=True)
    return 0


def smoke_all() -> int:
    """Every workload at toy size, traced and untraced, one process each;
    checks every metric of ``BENCHMARK.json`` is emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", "1", "--seconds", "0.1", "--trace",
                   str(trace), "--smoke"]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=300, cwd=ROOT)
            label = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != expected[trace]:
                problems.append(f"{label}: metrics {sorted(emitted)} != "
                                f"{sorted(expected[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: failed units\n{done.stdout}")
            print(f"smoke {label}: ok={not problems}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke_all:
        load_program()
        return smoke_all()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
