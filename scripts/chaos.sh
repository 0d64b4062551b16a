#!/usr/bin/env bash
# The chaos gate (DESIGN.md §3i): builds under ASan and drives the
# governance + fault-injection suites two ways —
#
#   1. ctest -L "chaos|governor": the structured-outcome, degradation-
#      ladder, and serial==parallel determinism suites, plus the
#      10k-iteration chaos fuzz bulk, all under the sanitizer.
#   2. A BSCHED_FAILPOINTS environment replay: the fuzz harness's fixed
#      seed trio runs with pipeline sites armed from the environment, the
#      way an operator would chaos-test a deployment, and repro_digest
#      runs every experiment under the same faults and must exit 0 (a
#      failed cell prints n/a; it never aborts the digest).
#
# Usage: scripts/chaos.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== chaos: configure + build (preset asan) =="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"

echo "== chaos: governor + chaos suites (asan) =="
ctest --test-dir build-asan -L "chaos|governor" --output-on-failure \
  -j "$(nproc)"

echo "== chaos: BSCHED_FAILPOINTS environment replay (asan) =="
FAULTS="dag-build:0.02:7,regalloc:0.02:11,certify:0.02:13"
BSCHED_FAILPOINTS="$FAULTS" \
  ./build-asan/tests/fuzz_harness --seed 0xC4A05 --iters 2000 --mode chaos
BSCHED_FAILPOINTS="$FAULTS" ./build-asan/bench/repro_digest

echo "chaos: all clean"
