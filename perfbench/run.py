#!/usr/bin/env python3
"""Builds and runs the starmagic end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound_views --seed 1 --trace 0
    python3 perfbench/run.py --selftest

The engine is compiled from the checkout's own sources (src/) together with
the benchmark (perfbench/src/) into .bench_build/, in Release mode. Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is the JSON result. A traced run (--trace 1) also writes a Chrome
trace to .bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DEFAULT_SEED = 1
WORKLOADS = ["bound_views", "wide_views", "recursive_closure",
             "prepared_writes"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"engine sources not found under {ROOT}/src; run from a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def run(cmd):
    done = subprocess.run(cmd, cwd=ROOT)
    return done.returncode


def selftest():
    code = run([build("perfbench_selftest")])
    if code != 0:
        return code
    # The metrics a run prints must be exactly those BENCHMARK.json lists.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build("perfbench")
    trace_path = os.path.join(BUILD, "traces", "selftest.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [binary, "--workload", "recursive_closure", "--seed", "2",
               "--seconds", "0.5", "--trace", str(trace)]
        if trace:
            cmd += ["--trace-out", trace_path]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if want != got:
            print(f"selftest: --trace {trace} metrics differ from "
                  f"BENCHMARK.json {key}: {sorted(set(want) ^ set(got))}",
                  file=sys.stderr)
            return 1
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    missing = {"setup", "query", "engine.query", "sql.parse", "qgm.build",
               "optimizer.optimize", "exec.run", "plan.stats",
               "write"} - names
    if missing:
        print(f"selftest: Chrome trace lacks spans {sorted(missing)}",
              file=sys.stderr)
        return 1
    print("perfbench: BENCHMARK.json metric lists and Chrome trace ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    cmd = [build("perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", os.path.join(trace_dir, name)]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
