#!/usr/bin/env python3
"""Steadiness and determinism checks for the benchmark, built on run.py.

    python3 perfbench/check.py spread --workload load [--runs 10]
        [--seconds 32] [--first-seed 1] [--trace 0]
    python3 perfbench/check.py determinism --workload vips [--seed 1]
        [--seconds 2]

spread runs the workload once per seed (first-seed, first-seed + 1, ...) and
prints, for every metric, the quartiles of its values as
statistics.quantiles(values, n=4) gives them and the spread (Q3 - Q1) / Q2.

determinism checks that the deterministic outputs repeat exactly for one
seed, and that another seed changes the counts:
  * two untraced runs of one seed: equal recovery_s, availability and
    failed share;
  * two traced runs of one seed: equal per-layer counts;
  * each traced run reports correct, which perfbench sets only when the
    traced passes reproduced the untraced passes' counts (the tap and spans
    only observe);
  * a traced run of seed + 1: some per-layer count differs.
Exits non-zero when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are wall times, not counts.
TIMED_UNITS = ("ms", "us", "s", "%")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def spread(args):
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run(args.workload, seed, args.seconds, args.trace)
        results.append(r)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, r["correct"], r["attempted"], r["failed"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in r["metrics"].items())), flush=True)
    print("\n%-28s %12s %12s %12s %8s" % ("metric", "Q1", "median", "Q3",
                                        "spread"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / q2 if q2 else float("nan")
        print("%-28s %12.6g %12.6g %12.6g %8.4f" % (name, q1, q2, q3, share))
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print("failed share %d/%d; all correct: %s" % (
        failed, attempted, all(r["correct"] for r in results)))


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] not in TIMED_UNITS and not k.startswith("trace.")}


def determinism(args):
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    w, s, sec = args.workload, args.seed, args.seconds
    a, b = run(w, s, sec, 0), run(w, s, sec, 0)
    for name in ("recovery_s", "availability"):
        expect(a["metrics"][name]["value"] == b["metrics"][name]["value"],
               "%s: %s repeats for seed %d (%r)" % (
                   w, name, s, a["metrics"][name]["value"]))
    expect(a["failed"] / a["attempted"] == b["failed"] / b["attempted"],
           "%s: failed share repeats for seed %d (%d/%d)" % (
               w, s, a["failed"], a["attempted"]))
    ta, tb, other = run(w, s, sec, 1), run(w, s, sec, 1), run(w, s + 1, sec, 1)
    expect(all(r["correct"] for r in (a, b, ta, tb, other)),
           "%s: every run correct (traced counts equal untraced)" % w)
    expect(counts(ta) == counts(tb),
           "%s: %d per-layer counts repeat for seed %d" % (
               w, len(counts(ta)), s))
    changed = sorted(k for k in counts(ta) if counts(ta)[k] != counts(other)[k])
    expect(bool(changed), "%s: seed %d changes %d counts (e.g. %s)" % (
        w, s + 1, len(changed), ", ".join(changed[:3])))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=32)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("determinism")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    if args.command == "spread":
        spread(args)
    elif not determinism(args):
        sys.exit(1)


if __name__ == "__main__":
    main()
