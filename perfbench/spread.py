#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs perfbench/run.py once per seed on each workload (all workloads by
default) and prints, for every end-to-end metric, the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json.  A spread above a third of the bound
(setup_s excepted) is flagged: the benchmark is not steady enough there.
Exits non-zero when a run fails or reports correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                ok = False
                continue
            lines = out.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("%s seed %d: correct = false" % (w, seed))
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (n, result["metrics"][n]["value"]) for n in bounds)), flush=True)
            print("    " + " ".join(l for l in lines if l.startswith("perfbench raw:")), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print("%-18s %-15s median %-14.6g spread %.4f (bound %.2f)%s"
                  % (w, name, med, spread, bounds[name], flag), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
