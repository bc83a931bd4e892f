#!/usr/bin/env python3
"""Run each workload k times, each with another seed, and summarize.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]
        [--workloads zoo,deep,serve]

Run from the root of the repository. Every run lasts BENCHMARK.json's
run_seconds, with tracing off. For every metric of every workload
it prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json. The bounds are
derived from these spreads; a spread above a third of its bound is
flagged. It also prints each run's metrics, failed share and wall time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = {}
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - t0
            if p.returncode != 0:
                sys.stdout.write(p.stdout)
                sys.exit("repeat: %s seed %d failed (exit %d)" % (w, seed, p.returncode))
            r = json.loads(p.stdout.splitlines()[-1])
            r["seed"], r["wall_s"] = seed, wall
            runs.append(r)
            print("%-6s seed %-4d %5.1f s  correct=%s attempted=%d failed=%d  %s" %
                  (w, seed, wall, r["correct"], r["attempted"], r["failed"],
                   " ".join("%s=%.6g" % (k, m["value"]) for k, m in r["metrics"].items())),
                  flush=True)
        results[w] = runs

    print()
    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: %d runs, failed share %s" % (w, len(runs),
              ", ".join("%.6f" % s for s in shares)))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print("  %-26s median %14.6g %-8s q1 %14.6g q3 %14.6g  spread %6.3f%s%s" %
                  (name, med, unit, q1, q3, spread,
                   "  bound %.3f" % bound if bound is not None else "", flag))


if __name__ == "__main__":
    main()
