#!/usr/bin/env bash
# Builds and tests under sanitizers (the robustness gate): the whole tier-1
# suite plus the 10k-iteration fuzz smoke must run clean under ASan and
# UBSan, and the concurrency tests (experiment engine, thread pool, server)
# under TSan.
#
# Usage: scripts/sanitize.sh [address] [undefined] [thread] [noobs]
#        (default: address undefined noobs; 'thread' runs only on request,
#        its test preset filters down to the concurrency suites; 'noobs'
#        is a plain BSCHED_NO_OBS=ON build + full suite proving the
#        telemetry layer — metrics, logger, flight recorder — compiles
#        out cleanly and golden CLI output is unchanged without it)
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=("$@")
if [ ${#SANITIZERS[@]} -eq 0 ]; then
  SANITIZERS=(address undefined noobs)
fi

run_noobs() {
  echo "== noobs: configure + build (BSCHED_NO_OBS=ON) =="
  cmake -B build-noobs -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBSCHED_NO_OBS=ON
  cmake --build build-noobs -j "$(nproc)"
  echo "== noobs: tests =="
  ctest --test-dir build-noobs --output-on-failure -j "$(nproc)"
}

for SAN in "${SANITIZERS[@]}"; do
  case "$SAN" in
  address) PRESET=asan ;;
  undefined) PRESET=ubsan ;;
  thread) PRESET=tsan ;;
  noobs)
    run_noobs
    continue
    ;;
  *)
    echo "unknown sanitizer '$SAN' (expected: address, undefined, thread, noobs)" >&2
    exit 2
    ;;
  esac
  echo "== $SAN: configure + build (preset $PRESET) =="
  cmake --preset "$PRESET"
  cmake --build --preset "$PRESET" -j "$(nproc)"
  echo "== $SAN: tests (preset $PRESET) =="
  ctest --preset "$PRESET" -j "$(nproc)"
done

echo "sanitize: all clean"
