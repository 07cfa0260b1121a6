#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload diagnose|serve|wire \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/ (and the library sources it compiles) into .bench_build/; later
runs only re-check the build. With --trace 1 the Chrome trace of the run
is written to .bench_out/trace-<workload>.json (the last traced run of
each workload).

BENCHMARK.json is the one list of metric names and units. The binary
prints the metrics it measured; this script checks each against the list
(name and unit) and, in a traced run, reports NOT_RUN for every per-layer
metric of a layer the workload does not exercise. The last stdout line is
the JSON result; the exit status is the benchmark's, or 1 when its metrics
disagree with the list.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
# The value of a per-layer metric the workload does not exercise. Every
# measured metric is a time, a count, a ratio or a share >= 0 (or, for
# trace.overhead_pct, a few percent either side of 0), so it cannot be
# mistaken for a measurement.
NOT_RUN = -1


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def option(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def complete(result, traced):
    """Checks the measured metrics against BENCHMARK.json and fills in the
    per-layer metrics the workload does not exercise. Returns an error
    message or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if traced else "end_to_end"]}
    measured = result["metrics"]
    for name, m in measured.items():
        if name not in units:
            return "metric %s is not listed in BENCHMARK.json" % name
        if m["unit"] != units[name]:
            return "metric %s has unit %s, BENCHMARK.json says %s" % (
                name, m["unit"], units[name])
    missing = [name for name in units if name not in measured]
    if missing and not traced:
        return "end-to-end metrics not measured: %s" % ", ".join(missing)
    if missing:
        print("not exercised by this workload (reported as %d): %s" % (
            NOT_RUN, ", ".join(missing)), file=sys.stderr)
    result["metrics"] = {
        name: measured.get(name, {"value": NOT_RUN, "unit": unit})
        for name, unit in units.items()}
    return None


def main():
    args = sys.argv[1:]
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + args
    traced = option(args, "--trace") not in (None, "0")
    if traced:
        os.makedirs(OUT, exist_ok=True)
        name = "trace-%s.json" % option(args, "--workload")
        cmd += ["--trace-out", os.path.join(OUT, name)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    error = complete(result, traced)
    if error:
        print("run.py: %s" % error, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
