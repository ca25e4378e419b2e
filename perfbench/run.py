#!/usr/bin/env python3
"""Build the benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload <churn|vips|load|chaos> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout. The binary and the library it links are
built with CMake into .bench_build/perfbench (the first run builds, later
runs only check that the build is current). The binary's own output is passed
through; its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the per-layer
metrics for --trace 1. A traced run also writes its spans to
.bench_build/perfbench/spans-<workload>-<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/: run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json lists for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        fail("perfbench exited with %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")

    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = dict(expected)
        if got != want:
            fail("perfbench metrics differ from BENCHMARK.json: missing %s, "
                 "extra or mis-united %s" % (
                     sorted(set(want) - set(got)),
                     sorted(k for k in got if want.get(k) != got[k])))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
