#!/usr/bin/env python3
"""Compares the benchmark on two commits.

  python3 perfbench/compare.py OLD_CHECKOUT NEW_CHECKOUT [--runs 10]
          [--seed-base 1000] [--out DIR]
  python3 perfbench/compare.py --results OLD.jsonl NEW.jsonl

The first form measures the bsched sources of both checkouts with this
checkout's benchmark code (run.py --source), so both sides run identical
benchmark code, on BENCHMARK.json's workloads for its run_seconds. Run i
uses seed seed-base + i on both sides and alternates which side goes
first. Each side's records (provenance and result, one JSON object per
line) are saved under --out. The second form compares saved result sets,
pairing runs by workload and seed. Two runs are paired only when their
generated inputs are the same (provenance input_digest): a checkout whose
input generators changed is refused rather than compared.

For every workload x end-to-end metric it prints each side's median and
quartiles, the change, the share of pairs the new side wins, and a verdict
against the metric's bound in BENCHMARK.json (benchstats.judge): better,
worse, unresolved or within-bound.
"""

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent


def benchmark_spec():
    with open(CHECKOUT / "BENCHMARK.json") as f:
        return json.load(f)


def run_side(source, workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--source", str(source)],
        stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit("compare: %s on %s failed" % (workload, source))
    record = json.loads(lines[0])
    record["result"] = json.loads(lines[-1])
    return record


def collect(args, workloads):
    out_dir = Path(args.out) if args.out else CHECKOUT / ".bench_build" / (
        "compare-" + datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y%m%dT%H%M%SZ"))
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = {"old": Path(args.old).resolve(), "new": Path(args.new).resolve()}
    files = {name: open(out_dir / (name + ".jsonl"), "w") for name in sides}
    try:
        for i in range(args.runs):
            order = ["old", "new"] if i % 2 == 0 else ["new", "old"]
            for workload in workloads:
                for name in order:
                    record = run_side(sides[name], workload,
                                      args.seed_base + i)
                    files[name].write(json.dumps(record) + "\n")
                    files[name].flush()
                    print("run %d %s %s done" % (i, workload, name),
                          file=sys.stderr)
    finally:
        for f in files.values():
            f.close()
    return out_dir / "old.jsonl", out_dir / "new.jsonl"


def load(path):
    """(workload, seed) -> (input digest, result) of each saved run."""
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            p = record["provenance"]
            runs[(p["workload"], p["seed"])] = (p["input_digest"],
                                                record["result"])
    return runs


def pair(old, new):
    """The (workload, seed) keys both sides ran; exits if a pair was
    measured on different inputs."""
    keys = sorted(k for k in old if k in new)
    for key in keys:
        if old[key][0] != new[key][0]:
            sys.exit("compare: %s seed %d ran on different inputs (input "
                     "digest %s vs %s); the input generators changed" %
                     (key[0], key[1], old[key][0], new[key][0]))
    return keys


def report(old_path, new_path, workloads):
    spec = benchmark_spec()
    old, new = load(old_path), load(new_path)
    keys = pair(old, new)
    old = {k: old[k][1] for k in keys}
    new = {k: new[k][1] for k in keys}
    print("%-13s %-28s %27s %27s %8s %5s  %s" % (
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]",
        "change", "wins", "verdict"))
    for workload in workloads:
        seeds = [s for (w, s) in keys if w == workload]
        if not seeds:
            continue
        for side, runs in (("old", old), ("new", new)):
            failed = sum(runs[(workload, s)]["failed"] for s in seeds)
            attempted = sum(runs[(workload, s)]["attempted"] for s in seeds)
            print("%-13s %s: %d runs, %d of %d ops failed" % (
                workload, side, len(seeds), failed, attempted))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            o = [old[(workload, s)]["metrics"][name]["value"] for s in seeds]
            n = [new[(workload, s)]["metrics"][name]["value"] for s in seeds]
            j = benchstats.judge(o, n, metric["better"], metric["bound"])
            print("%-13s %-28s %27s %27s %+7.2f%% %4.0f%%  %s" % (
                workload, name,
                "%.4g [%.4g, %.4g]" % (j["old"][1], j["old"][0], j["old"][2]),
                "%.4g [%.4g, %.4g]" % (j["new"][1], j["new"][0], j["new"][2]),
                100.0 * j["change"], 100.0 * j["win_share"], j["verdict"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", help="old checkout")
    parser.add_argument("new", nargs="?", help="new checkout")
    parser.add_argument("--results", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    if args.results:
        report(args.results[0], args.results[1], workloads)
    elif args.old and args.new:
        report(*collect(args, workloads), workloads)
    else:
        parser.error("give OLD and NEW checkouts, or --results OLD NEW")


if __name__ == "__main__":
    main()
