#!/usr/bin/env bash
# Builds the benchmark binaries and refreshes the machine-readable
# BENCH_*.json artifacts in the repository root (the numbers EXPERIMENTS.md
# quotes). By default runs the artifact-emitting performance benches; pass
# binary names (e.g. bench_table2_unlimited) to run those instead, or
# --all for every bench binary.
#
# Usage: scripts/bench.sh [--all | --huge | bench_name...]
#
# --huge runs the huge-DAG scaling study (bench_huge_dag), which refreshes
# BENCH_huge_dag.json — the closure sweep (time and matrix bytes per n),
# weighting throughput, the governed n=8192 compile, and the
# 1/2/4/8-worker scaling curve.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake --preset default
fi

BENCHES=("$@")
if [ ${#BENCHES[@]} -eq 0 ]; then
  BENCHES=(bench_perf_scaling bench_engine_scaling)
elif [ "${BENCHES[0]}" = "--all" ]; then
  BENCHES=()
  for SRC in bench/bench_*.cpp; do
    BENCHES+=("$(basename "$SRC" .cpp)")
  done
elif [ "${BENCHES[0]}" = "--huge" ]; then
  BENCHES=(bench_huge_dag)
fi

cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${BENCHES[@]}"

# Run from the repo root so artifacts land next to EXPERIMENTS.md.
for BENCH in "${BENCHES[@]}"; do
  echo "== $BENCH =="
  "$BUILD_DIR/bench/$BENCH"
done

ls -1 BENCH_*.json 2>/dev/null || true
