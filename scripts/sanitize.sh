#!/usr/bin/env bash
# Builds and tests under sanitizers (the robustness gate): the whole tier-1
# suite plus the 10k-iteration fuzz smoke must run clean under ASan and
# UBSan, and the concurrency tests (experiment engine, thread pool, server)
# under TSan. The presets build with assertions on (no -DNDEBUG), so every
# plain assert runs too.
#
# Usage: scripts/sanitize.sh [address] [undefined] [thread]
#        (default: address undefined; 'thread' runs only on request, its
#        test preset filters down to the concurrency suites)
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=("$@")
if [ ${#SANITIZERS[@]} -eq 0 ]; then
  SANITIZERS=(address undefined)
fi

for SAN in "${SANITIZERS[@]}"; do
  case "$SAN" in
  address) PRESET=asan ;;
  undefined) PRESET=ubsan ;;
  thread) PRESET=tsan ;;
  *)
    echo "unknown sanitizer '$SAN' (expected: address, undefined, thread)" >&2
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
