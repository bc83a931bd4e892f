#!/usr/bin/env python3
"""Build the optimizer and the benchmark from source, run one workload.

    python3 perfbench/run.py --workload zoo|deep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of the repository. The build goes to .bench_build/.
The benchmark's own report goes to standard output; its last line is the
result as one JSON object, holding the metrics BENCHMARK.json lists:
the end-to-end ones untraced, the per-layer ones traced.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # Keep every file the build and the run write inside the checkout: no
    # shared dune cache, temporary files under the build directory.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/main.exe", "./bin/pypmc.exe"],
        stdout=sys.stderr, env=env, timeout=880)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    os.makedirs(WORK_DIR, exist_ok=True)

    # serve runs its client, the server's domains and their stop-the-world
    # GC sections on one CPU: every hand-over between them is then a switch
    # on a running CPU, not the wake-up of an idle one, whose latency
    # follows the load of the host. zoo and deep run in one thread.
    pin = None
    if args.workload == "serve":
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})

    proc = subprocess.run(
        [os.path.join(BUILD_DIR, "default", "perfbench", "main.exe"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--pypmc", os.path.join(BUILD_DIR, "default", "bin", "pypmc.exe"),
         "--work-dir", WORK_DIR],
        stdout=subprocess.PIPE, text=True, env=env, timeout=175,
        preexec_fn=pin)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: the %s workload failed (exit %d)"
                 % (args.workload, proc.returncode))
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        sys.exit("perfbench: %s reported no %s" % (args.workload, ", ".join(missing)))
    result["metrics"] = {m: result["metrics"][m] for m in wanted}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
