#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json keeps to the benchmark contract (keys, name and unit
   alphabets, bounds, counts, sizes).
2. Every workload runs at a tiny size (--tiny), untraced and traced, and
   prints a well-formed result line: correct, nothing failed, and exactly
   the metrics BENCHMARK.json lists for that mode, each with its unit.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check(ok, what):
    if not ok:
        print("selfcheck: FAILED: " + what)
        sys.exit(1)


def check_contract(path):
    raw = open(path, "rb").read()
    check(len(raw) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    b = json.loads(raw)
    check(set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check(1 <= len(b["paths"]) <= 16, "1 to 16 paths")
    for p in b["paths"]:
        check(PATH.match(p) and not p.startswith("/") and ".." not in p.split("/"),
              "path %r is a plain relative path" % p)
        check(os.path.isdir(os.path.join(ROOT, p)), "path %r exists" % p)
    check(1 <= len(b["command"]) <= 32 and all(len(c) <= 200 for c in b["command"]),
          "command has at most 32 strings of at most 200 characters")
    check(type(b["run_seconds"]) is int and 1 <= b["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(b["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(b["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    check(1 <= len(b["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for w in b["workloads"]:
        check(set(w) == {"name", "why"}, "workload %r has name and why" % w.get("name"))
        check(len(w["why"]) <= 200 and "\n" not in w["why"], "why of %s is one short line" % w["name"])
        names.append(w["name"])
    for m in b["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, "e2e metric %r keys" % m.get("name"))
        check(0 < m["bound"] <= 0.25, "bound of %s in (0, 0.25]" % m["name"])
    for m in b["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per-layer metric %r keys" % m.get("name"))
    for m in b["end_to_end"] + b["per_layer"]:
        check(UNIT.match(m["unit"]) is not None, "unit of %s" % m["name"])
        check(m["better"] in ("lower", "higher"), "better of %s" % m["name"])
        names.append(m["name"])
    for n in names:
        check(NAME.match(n) is not None, "name %r uses only letters, digits, _ . -" % n)
    check(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s is an end-to-end metric in s, lower is better")
    check(setup[0]["bound"] == max(m["bound"] for m in b["end_to_end"]),
          "setup_s has the largest bound")
    return b


def run(args, cwd):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)


def check_runs(b):
    units = {m["name"]: m["unit"] for m in b["end_to_end"] + b["per_layer"]}
    for w in b["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = run(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                       "--trace", str(trace), "--tiny"], ROOT)
            what = "%s --trace %d" % (w["name"], trace)
            check(out.returncode == 0, what + " exits 0:\n" + out.stderr[-2000:])
            r = json.loads(out.stdout.rstrip("\n").split("\n")[-1])
            check(set(r) == {"correct", "attempted", "failed", "metrics"}, what + " result keys")
            check(r["correct"] is True and r["failed"] == 0, what + " is correct with nothing failed")
            check(type(r["attempted"]) is int and r["attempted"] >= 1, what + " attempted >= 1")
            want = {m["name"] for m in b[section]}
            check(set(r["metrics"]) == want,
                  what + " prints exactly the %s metrics (extra %s, missing %s)"
                  % (section, sorted(set(r["metrics"]) - want), sorted(want - set(r["metrics"]))))
            for name, m in r["metrics"].items():
                check(NAME.match(name) is not None, what + ": metric name %r" % name)
                check(set(m) == {"value", "unit"}, what + ": %s has a value and a unit" % name)
                check(m["unit"] == units[name], what + ": %s unit %r as in BENCHMARK.json"
                      % (name, m["unit"]))
                v = m["value"]
                check(isinstance(v, (int, float)) and math.isfinite(v), what + ": %s is a number" % name)
            print("selfcheck: %s ok (%d metrics)" % (what, len(r["metrics"])), flush=True)


def check_bare():
    bare = os.path.join(ROOT, "perfbench", "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_out"))
        out = run(["--workload", "serve-onl-dynamic", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], bare)
        check(out.returncode != 0, "run.py fails without the repository around it")
        check('"correct"' not in out.stdout, "run.py prints no result without the repository")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck: bare directory fails cleanly", flush=True)


def main():
    b = check_contract(os.path.join(ROOT, "BENCHMARK.json"))
    print("selfcheck: BENCHMARK.json keeps to the contract", flush=True)
    check_runs(b)
    check_bare()
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
