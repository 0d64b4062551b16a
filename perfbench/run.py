#!/usr/bin/env python3
"""The repository benchmark (BENCHMARK.json).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Builds the benchmark driver and bsched_server from this checkout's sources
into .bench_build/, runs one workload in its own process, checks every
output, and prints the metrics. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end ones; with --trace 1 its per_layer ones,
from a traced run that replays every layer call with ns spans. The lines
before it give the run's provenance and the workload's own figures
(cells/s, requests/s, instrs/s, p99, simulated cycles, spill share), and
the whole record is appended to .bench_build/results.jsonl.

--workload all runs the four workloads one after another, each in its own
process, and prints every figure by name and unit.

--source DIR measures the bsched sources in DIR with this benchmark code
(compare.py uses it to run identical benchmark code on two commits).
"""

import argparse
import array
import datetime
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
WORKLOADS = ["paper-tables", "serve-cold", "serve-warm", "huge-compile"]
# The calls every workload's traced run makes (the compile layers), which
# also report self time per op and ns per instruction; the rest report calls
# per op and shares only, because they run on some workloads and not others.
COMPILE_CALLS = ["ir.verify", "dag.build", "sched.weight", "sched.list",
                 "analysis.schedule_cert", "analysis.memdep_cert",
                 "regalloc.allocate", "analysis.alloc_cert"]
DRIVER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    with open(CHECKOUT / "BENCHMARK.json") as f:
        return json.load(f)


def build(source, build_dir):
    """Configures (once) and builds the driver and daemon; build output goes
    to stderr so stdout stays the result."""
    if not (source / "src" / "CMakeLists.txt").is_file():
        fail("no bsched sources at %s (src/CMakeLists.txt missing)" % source)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                            *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                            "-DBSCHED_ROOT=" + str(source)],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "-j",
                        str(os.cpu_count() or 1), "--target",
                        "perfbench_driver", "bsched_server"],
                       stdout=sys.stderr, check=True)


def run_driver(build_dir, run_dir, args):
    """Runs the driver in its own process group; kills the group on timeout
    or interruption and always waits for it."""
    proc = subprocess.Popen([str(build_dir / "perfbench_driver"), *args,
                             "--out", ".", "--server",
                             str(build_dir / "bsched_server")],
                            cwd=run_dir, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        fail("driver exited with code %d" % code)


def read_doubles(path, sort=True):
    values = array.array("d")
    values.frombytes(path.read_bytes())
    return sorted(values) if sort else list(values)


def end_to_end(raw, run_dir):
    """Throughput and median latency are taken per one-second window of
    the run (per repetition or op where those are longer), and each is
    reported as the quartile of its windows on the better side
    (benchstats.calm), under a name that says so; the whole-run medians go
    to the notes. The latency tail is a note too: its run-to-run spread on
    serve-warm (25% of its median) is wider than any bound a regression
    check could use."""
    latency = read_doubles(run_dir / "latency_ms.f64", sort=False)
    groups = benchstats.windows(
        latency, read_doubles(run_dir / "done_s.f64", sort=False))
    metrics = {
        "setup_s": benchstats.median(raw["setup_s"]),
        "ops_per_s_q3_of_windows": benchstats.calm(raw["rate_per_s"],
                                                   "higher"),
        "latency_p50_ms_q1_of_windows": benchstats.calm(
            [benchstats.median(g) for g in groups], "lower"),
        "code_growth": raw["code_growth"],
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    latency.sort()
    # A window needs 20 samples before its tail differs from its median.
    tails = [benchstats.tail(g)[1] for g in groups if len(g) >= 20]
    notes = {"latency_samples": (len(latency), "samples"),
             "latency_windows": (len(groups), "windows"),
             "latency_tail_ms": (benchstats.calm(tails, "lower") if tails
                                 else benchstats.tail(latency)[1], "ms"),
             "whole_run_latency_p50_ms": (benchstats.median(latency), "ms")}
    p99 = benchstats.percentile(latency, 99)
    if p99 is not None:
        notes["whole_run_latency_p99_ms"] = (p99, "ms")
    return metrics, notes


def per_layer(raw, run_dir):
    """Calls and self time per traced op, so that they do not grow with
    the number of ops a faster commit fits into the traced run. The
    tracing overhead compares the median traced op with the median
    untraced one, which a few seconds of host slowdown in either phase
    move less than their means."""
    names = raw["span_names"]
    spans = benchstats.read_spans((run_dir / "spans.bin").read_bytes())
    per_name, roots = benchstats.self_times(spans)
    root_ns = sum(roots)
    ops = len(roots)
    metrics = {"trace.ops": ops}
    for index, name in enumerate(names):
        calls, self_ns, instrs = per_name.get(index, [0, 0, 0])
        if name == "op":
            metrics["trace.unattributed_pct"] = 100.0 * self_ns / root_ns
            continue
        metrics[name + ".calls_per_op"] = calls / ops
        metrics[name + ".share_pct"] = 100.0 * self_ns / root_ns
        if name in COMPILE_CALLS:
            metrics[name + ".self_ms_per_op"] = self_ns / 1e6 / ops
            metrics[name + ".ns_per_instr"] = self_ns / instrs if instrs else 0
    for figure in raw["layer"]:
        metrics[figure["name"]] = figure["value"]
    untraced = read_doubles(run_dir / "untraced_op_ms.f64")
    metrics["trace.overhead_pct"] = 100.0 * (
        benchstats.median(roots) / 1e6 / benchstats.median(untraced) - 1.0)
    notes = {}
    handle = read_doubles(run_dir / "handle_ms.f64")
    wait = read_doubles(run_dir / "wait_ms.f64")
    if handle:
        notes["server.handle_ms_p50"] = (benchstats.median(handle), "ms")
        notes["server.wait_ms_p50"] = (benchstats.median(wait), "ms")
        notes["server.wait_ms_p99"] = (benchstats.percentile(wait, 99), "ms")
    return metrics, notes


def workload_notes(workload, raw, trace):
    """The workload's figures under their own names: cells/s, requests/s or
    input instructions/s (the median of the run's windows), simulated
    cycles, spill share, cache hits."""
    info = {f["name"]: (f["value"], f["unit"]) for f in raw["info"]}
    notes = {}
    if not trace:
        rate = benchstats.median(raw["rate_per_s"])
        if workload == "paper-tables":
            notes["cells_per_s"] = (rate, "cells/s")
        elif workload == "huge-compile":
            notes["instrs_per_s"] = (rate * info["input_instrs"][0], "instrs/s")
        else:
            notes["requests_per_s"] = (rate, "req/s")
    for name in ("sim_cycles", "spill_pct", "cache_hits"):
        if name in info:
            notes[name] = info[name]
    return notes


def source_digest(source):
    """sha256 over the measured sources, which identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    files = sorted((source / "src").rglob("*")) + [
        source / "examples" / "bsched_server.cpp",
        source / "bench" / "BenchCommon.h"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(source)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(source, build_info, raw, args):
    def git(*cmd):
        try:
            out = subprocess.run(["git", "-C", str(source), *cmd],
                                 capture_output=True, text=True, timeout=20)
            return out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    return {
        "git_describe": git("describe", "--always", "--dirty") or
        "unavailable (not a git checkout)",
        "source": str(source),
        "source_sha256": source_digest(source),
        "input_digest": raw["input_digest"],
        "nproc": len(os.sched_getaffinity(0)),
        **build_info,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def run_one(args):
    spec = benchmark_spec()
    source = Path(args.source).resolve() if args.source else CHECKOUT
    build_root = CHECKOUT / ".bench_build"
    build_dir = build_root / ("perfbench" if source == CHECKOUT else
                              "perfbench-" + hashlib.sha1(
                                  str(source).encode()).hexdigest()[:12])
    build(source, build_dir)
    runs = build_dir.parent / "runs"
    run_dir = runs / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        run_driver(build_dir, run_dir,
                   ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace)])
        with open(run_dir / "raw.json") as f:
            raw = json.load(f)
        with open(run_dir / "build.json") as f:
            build_info = json.load(f)
        if args.trace:
            metrics, notes = per_layer(raw, run_dir)
            wanted = spec["per_layer"]
        else:
            metrics, notes = end_to_end(raw, run_dir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    notes.update(workload_notes(args.workload, raw, args.trace))

    result_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            # A per-layer figure the workload has no layer for (a server
            # count outside the serve workloads, the engine's busy ratio
            # outside paper-tables) is a count of zero.
            if args.trace and m["unit"] in ("count", "ratio"):
                metrics[m["name"]] = 0
            else:
                fail("metric %s was not measured" % m["name"])
        result_metrics[m["name"]] = {"value": metrics[m["name"]],
                                     "unit": m["unit"]}
    attempted, failed = raw["attempted"], raw["failed"]
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    record = {"provenance": provenance(source, build_info, raw, args),
              "failure_share": benchstats.failure_share(attempted, failed),
              "problems": raw["problems"],
              "notes": {k: {"value": v, "unit": u}
                        for k, (v, u) in notes.items()},
              "result": result}
    with open(build_root / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"provenance": record["provenance"]}))
    print("  %-34s %d of %d" % ("failed ops", failed, attempted))
    for name, m in result_metrics.items():
        print("  %-34s %s %s" % (name, m["value"], m["unit"]))
    for name, (value, unit) in sorted(notes.items()):
        print("  %-34s %s %s" % ("(" + name + ")", value, unit))
    for problem in raw["problems"]:
        print("  failed op: " + problem)
    print(json.dumps(result))
    return result


def run_all(args):
    """Every workload in its own process, one after another; their output
    (each figure by name and unit) goes straight to stdout."""
    correct = True
    for workload in WORKLOADS:
        print("== " + workload, flush=True)
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"] +
            (["--source", args.source] if args.source else []),
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(out.stdout)
        lines = out.stdout.strip().splitlines()
        correct = correct and out.returncode == 0 and bool(lines) and \
            json.loads(lines[-1])["correct"]
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--source")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        sys.exit(0 if run_all(args) else 1)
    run_one(args)


if __name__ == "__main__":
    main()
