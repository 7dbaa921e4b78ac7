#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  Builds perfbench/perfbench.exe with dune
(the first run in a fresh checkout compiles the whole library), runs it,
and passes its output through: a stamp line, then one JSON result object
as the last line.  Exits non-zero, without printing a result, when the
build or the run fails.  Everything it writes stays inside the checkout:
dune's _build/ (with the shared dune cache disabled) and perfbench/_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.path.exists(os.path.join(prefix, "bin", "dune")):
        return [os.path.join(prefix, "bin", "dune")]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def source_digest():
    """SHA-256 over lib/ (paths and contents): identifies the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    lib = os.path.join(ROOT, "lib")
    for dirpath, dirnames, filenames in os.walk(lib):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="self-check sizes")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "lib")):
        fail("no lib/ next to perfbench/: run from a full checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            dune_command() + ["build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        fail("build failed")

    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0))), "--commit", commit(),
           "--source-digest", source_digest()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("run exited with code %d" % run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
