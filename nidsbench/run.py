#!/usr/bin/env python3
"""Build and run the layered NIDS benchmark.

    python3 nidsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 nidsbench/run.py --workload all --seed N --seconds S
    python3 nidsbench/run.py --self-test

Run from the repository root.  The benchmark executable is built from
source with dune into .bench_build/.  A first process generates the
workload's captures from the seed into .bench_build/inputs/, so that the
second, measuring process's peak RSS is the engine's own.  The inputs are
removed when the run ends.  The measuring process's standard output is
passed through; its last line is the run's JSON result.  Before the
result is printed, its metric names and units are checked against
BENCHMARK.json: the end-to-end set with --trace 0, the per-layer set with
--trace 1.  With --trace 1 the traced pass's spans go to
.bench_build/spans/<workload>.jsonl, replacing the previous run's (a
worm_outbreak span file is about 35 MB).  `--workload all` runs every
workload with --trace 0 and then --trace 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "nidsbench", "nidsbench.exe")
ALL = ["benign_floor", "worm_outbreak", "polymorphic_attack"]


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def dune():
    path = shutil.which("dune")
    if path:
        return [path]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("neither dune nor opam is on PATH")


def build():
    cmd = dune() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "./nidsbench/nidsbench.exe",
    ]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(res.stdout)
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def measure(workload, seed, seconds, trace):
    """Generate the inputs, then run the measuring process once.

    Returns its exit code and output lines; on success the last line is
    the result, already checked against BENCHMARK.json."""
    inputs = os.path.join(BUILD_DIR, "inputs", "%s-seed%d" % (workload, seed))
    os.makedirs(inputs, exist_ok=True)
    try:
        gen = [EXE, "--generate", inputs, "--workload", workload,
               "--seed", str(seed)]
        try:
            res = subprocess.run(gen, cwd=ROOT, timeout=120)
        except subprocess.TimeoutExpired:
            fail("input generation timed out")
        if res.returncode != 0:
            fail("input generation failed")
        cmd = [EXE, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--inputs", inputs]
        if trace:
            spans = os.path.join(BUILD_DIR, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans", os.path.join(spans, workload + ".jsonl")]
        try:
            res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=170)
        except subprocess.TimeoutExpired:
            fail("benchmark run timed out")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0:
        return res.returncode, lines

    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("\n".join(lines[:-1]))
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, "
             "unit mismatches %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in want if k in got and got[k] != want[k])), 1)
    return 0, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    help="benign_floor, worm_outbreak, polymorphic_attack or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny-size check of every workload, then exit")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    if args.self_test:
        res = subprocess.run([EXE, "--self-test"], cwd=ROOT, timeout=170)
        sys.exit(res.returncode)
    if args.workload != "all":
        code, lines = measure(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        sys.exit(code)
    worst = 0
    for workload in ALL:
        for trace in (0, 1):
            print("== %s --trace %d" % (workload, trace), flush=True)
            code, lines = measure(workload, args.seed, args.seconds, trace)
            print("\n".join(lines), flush=True)
            worst = worst or code
    sys.exit(worst)


if __name__ == "__main__":
    main()
