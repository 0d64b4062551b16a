#!/usr/bin/env bash
# Compile-service throughput bench (DESIGN.md §3j): launches bsched_server
# on a private AF_UNIX socket, drives it with bsched_loadgen across a
# concurrency sweep, and writes BENCH_server.json (the numbers
# EXPERIMENTS.md quotes) with throughput and p50/p99 latency per point.
#
# Usage:
#   scripts/serve_bench.sh                 # build + full sweep -> BENCH_server.json
#   scripts/serve_bench.sh --smoke SERVER LOADGEN
#     ctest mode (label chaos): no build, run the given binaries once with
#     64 concurrent chaos connections and assert every request was
#     answered, none dropped, the warm cache actually hit, and one SIGTERM
#     drained the daemon to exit 0. Prints "SMOKE PASS" on success.
set -euo pipefail

# Launch a server on a fresh socket; echoes nothing, sets SERVER_PID/SOCK.
start_server() {
  local BIN=$1; shift
  SOCK_DIR=$(mktemp -d)
  SOCK="$SOCK_DIR/bsched.sock"
  "$BIN" --listen "$SOCK" "$@" &
  SERVER_PID=$!
  # connectUnix retries for 5s, but don't race a server that died at startup.
  for _ in $(seq 50); do
    [ -S "$SOCK" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died at startup"; exit 1; }
    sleep 0.1
  done
}

# Send the server one SIGTERM. It must drain and exit 0 within 5 s;
# otherwise it is killed and stop_server fails.
stop_server() {
  [ -n "${SERVER_PID:-}" ] || return 0
  local PID=$SERVER_PID CODE=0
  SERVER_PID=
  kill -TERM "$PID" 2>/dev/null || true
  for _ in $(seq 50); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$PID" 2>/dev/null; then
    kill -KILL "$PID" 2>/dev/null || true
  fi
  wait "$PID" 2>/dev/null || CODE=$?
  rm -rf "$SOCK_DIR"
  if [ "$CODE" -ne 0 ]; then
    echo "server did not exit 0 within 5 s of one SIGTERM (status $CODE)"
    return 1
  fi
}

if [ "${1:-}" = "--smoke" ]; then
  SERVER_BIN=$2
  LOADGEN_BIN=$3
  OUT=$(mktemp)
  trap 'stop_server; rm -f "$OUT"' EXIT
  start_server "$SERVER_BIN" --workers 2 --cache-mb 16
  # 64 persistent connections, mutated kernels in the mix (--chaos): the
  # acceptance bar is zero transport failures and a warm cache.
  "$LOADGEN_BIN" --connect "$SOCK" --requests 512 --concurrency 64 \
    --kernels 8 --chaos --json-out "$OUT"
  if ! grep -q '"transport_failures":0,' "$OUT"; then
    echo "SMOKE FAIL: dropped connections or unanswered requests"
    exit 1
  fi
  if grep -q '"cache_hits":0,' "$OUT"; then
    echo "SMOKE FAIL: no cache hits on a repeating corpus"
    exit 1
  fi
  if ! stop_server; then
    echo "SMOKE FAIL: the daemon did not drain on SIGTERM"
    exit 1
  fi
  echo "SMOKE PASS"
  exit 0
fi

cd "$(dirname "$0")/.."

BUILD_DIR=build
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake --preset default
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bsched_server bsched_loadgen

SERVER_BIN="$BUILD_DIR/examples/bsched_server"
LOADGEN_BIN="$BUILD_DIR/examples/bsched_loadgen"
REQUESTS=${REQUESTS:-2048}
KERNELS=${KERNELS:-16}

TMP=$(mktemp -d)
trap 'stop_server 2>/dev/null || true; rm -rf "$TMP"' EXIT

RUNS=()
for CONC in 1 8 64; do
  echo "== serve_bench: concurrency $CONC =="
  # Fresh daemon per point so every run starts from a cold cache and the
  # sweep points are independent.
  start_server "$SERVER_BIN" --cache-mb 64
  "$LOADGEN_BIN" --connect "$SOCK" --requests "$REQUESTS" \
    --concurrency "$CONC" --kernels "$KERNELS" \
    --json-out "$TMP/run_$CONC.json" >/dev/null
  stop_server
  RUNS+=("$TMP/run_$CONC.json")
done

# Stitch the sweep points into one artifact next to EXPERIMENTS.md. Each
# point carries the loadgen's client-side numbers plus the server's own
# accounting ("server": the stats op, "server_metrics": the metrics op's
# full snapshot with the per-op latency histograms).
{
  printf '{"bench":"server_throughput","requests":%s,"kernels":%s,"sweep":[' \
    "$REQUESTS" "$KERNELS"
  FIRST=1
  for RUN in "${RUNS[@]}"; do
    [ "$FIRST" = 1 ] || printf ','
    FIRST=0
    tr -d '\n' < "$RUN"
  done
  printf ']}\n'
} > BENCH_server.json

echo "wrote BENCH_server.json"

# Quantile cross-check at c=8 (the acceptance bar): the server's
# bucket-estimated p50/p90/p99 (log-spaced power-of-two edges) must land
# within one bucket — a factor of two, plus a rounding slack — of the
# exact percentiles of the same samples. The reference is the per-response
# wall_ms the loadgen collected (the exact values the histogram recorded);
# client round-trip time would additionally carry queueing + transport,
# which the server's handling-time histogram deliberately excludes.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TMP/run_8.json" <<'PYEOF'
import json, sys
run = json.load(open(sys.argv[1]))
exact = run["server_wall_ms"]
server = run.get("server", {}).get("stats", {}).get("latency_us", {}).get("compile")
if not server or not server.get("count"):
    print("quantile cross-check: no server-side histogram - skipped")
    sys.exit(0)
slack_us, worst = 50.0, 0.0
for q in ("p50", "p90", "p99"):
    e_us = exact[q] * 1000.0
    s_us = server[q]
    ok = s_us <= 2.0 * e_us + slack_us and e_us <= 2.0 * s_us + slack_us
    worst = max(worst, s_us / e_us if e_us else 0.0, e_us / s_us if s_us else 0.0)
    print(f"quantile cross-check c=8 {q}: exact {e_us:.0f}us server-est {s_us:.0f}us"
          f" {'OK' if ok else 'DISAGREE'}")
    if not ok:
        sys.exit(1)
print(f"quantile cross-check: agree within one bucket (worst ratio {worst:.2f}x)")
PYEOF
else
  echo "quantile cross-check: python3 not found - skipped"
fi
