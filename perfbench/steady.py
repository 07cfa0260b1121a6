#!/usr/bin/env python3
"""Steadiness check: is each end-to-end metric repeatable within its bound?

    python3 perfbench/steady.py [--runs 10] [--seed 1001] [--workloads a,b]
                                [--save runs.json] [--against runs.json]

Runs every workload --runs times through run.py, each run with its own
seed (--seed, --seed+1, ...), alternating the workload order between
rounds. For each metric it prints the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread (q3 - q1) / median, and flags a
metric whose spread exceeds its bound in BENCHMARK.json, setup_s included.
With --against it also compares every median with a saved earlier set and
flags one that got worse by more than the bound. Run it from the
repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse(new, old, better):
    """Relative worsening of median `new` against `old` (positive = worse)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1001)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--save", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result = run_once(w, args.seed + i, bench["run_seconds"])
            runs[w].append(result)
            print("run %2d %-8s seed %d: %d ops, %d failed" % (
                i, w, args.seed + i, result["attempted"], result["failed"]),
                file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    flagged = 0
    print("%-9s %-15s %12s %12s %12s %7s %6s  %s" % (
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "flags"))
    for w in workloads:
        failed = sum(r["failed"] for r in runs[w])
        attempted = sum(r["attempted"] for r in runs[w])
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            median, q1, q3, spread = summary(values)
            flags = []
            if spread > spec["bound"]:
                flags.append("SPREAD>BOUND")
            elif spread > spec["bound"] / 3:
                flags.append("spread>bound/3")
            if w in earlier:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[w])
                change = worse(median, old, spec["better"])
                flags.append("vs-earlier %+.1f%%" % (100 * change))
                if change > spec["bound"]:
                    flags.append("WORSE>BOUND")
            flagged += any(f in ("SPREAD>BOUND", "WORSE>BOUND") for f in flags)
            print("%-9s %-15s %12.6g %12.6g %12.6g %6.1f%% %5.0f%%  %s" % (
                w, name, median, q1, q3, 100 * spread, 100 * spec["bound"],
                " ".join(flags)))
        print("%-9s %-15s %d/%d" % (w, "error_ratio", failed, attempted))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
