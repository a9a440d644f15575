#!/usr/bin/env bash
# Perf smoke: the tier-1 test suite, every quick engine benchmark, and a
# wall-clock regression sweep.
#
# The benchmarks' --quick modes each finish in well under 30 s.  Fresh
# results are written to a temp dir and swept against *every* committed
# quick-mode baseline (BENCH_*.quick.json) in one pass by
# scripts/check_bench_regression.py --all, which prints a single summary
# table and fails on a >10% wall-clock regression (plus a small absolute
# noise floor; see that script's docstring).  Set BENCH_REGRESSION_SKIP=1
# to run the benchmarks without the gate.  Run from anywhere:
#
#   scripts/perf_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

python -m pytest -x -q
python -m pytest --doctest-modules -q src/repro/congest/runtime src/repro/congest/columnar.py src/repro/congest/message.py src/repro/gathering/kwise.py src/repro/graphs/conductance.py
python scripts/check_docs.py
python scripts/check_fault_identity.py
python scripts/check_fabric_identity.py
python scripts/check_rng_identity.py
python benchmarks/bench_engine.py --quick --json "$SMOKE_DIR/BENCH_engine.quick.json"
python benchmarks/bench_delivery.py --quick --json "$SMOKE_DIR/BENCH_delivery.quick.json"
python benchmarks/bench_columnar.py --quick --json "$SMOKE_DIR/BENCH_columnar.quick.json"
python benchmarks/bench_grid.py --quick --json "$SMOKE_DIR/BENCH_grid.quick.json"
python benchmarks/bench_gathering.py --quick --json "$SMOKE_DIR/BENCH_gathering.quick.json"
python benchmarks/bench_resilience.py --quick --recovery --json "$SMOKE_DIR/BENCH_resilience.quick.json"
python benchmarks/bench_fabric.py --quick --json "$SMOKE_DIR/BENCH_fabric.quick.json"
python benchmarks/bench_scale.py --quick --json "$SMOKE_DIR/BENCH_scale.quick.json"
python scripts/check_bench_regression.py --all "$SMOKE_DIR"
