#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark binary is built with dune
into the directory named by CARGO_TARGET_DIR (default .bench_build). With
--trace 0 the binary reports the end-to-end metrics and this script adds
setup_s: the median wall time of whole set-up-only processes (process and
runtime start, inputs, one Tm.create per mode and topology, capacity
probes). With --trace 1 the binary reports the per-layer metrics.

The last line of standard output is the result object. Every metric name
and unit is checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 7
# Longest a single run may take after the build, set-up processes included.
RUN_LIMIT_S = 170


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(1)


def build(build_dir):
    cmd = [
        "dune", "build", "--root", ROOT, "--profile", "release",
        "--build-dir", build_dir, "./perfbench/src/main.exe",
    ]
    # No shared dune cache: the build reads and writes inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, universal_newlines=True)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed")
    return os.path.join(build_dir, "default", "perfbench", "src", "main.exe")


def run_binary(cmd, env, timeout):
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           universal_newlines=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %.0f s" % (" ".join(cmd), timeout))
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("%s exited with %d" % (" ".join(cmd), p.returncode))
    return p.stdout


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    # Runtime_events (traced run) keeps its ring file in the build directory.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=build_dir)
    base = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--refs", os.path.join(ROOT, "perfbench", "refs")]
    deadline = time.monotonic() + RUN_LIMIT_S

    setup, setup_raw = [], []
    if args.trace == 0:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            out = run_binary(base + ["--setup-only"], env, deadline - time.monotonic())
            wall = time.perf_counter() - t0
            try:
                tag, kernel, calibration_s, reference = out.split()[-4:]
                assert tag == "calibration"
                kernel, calibration_s, reference = (
                    float(kernel), float(calibration_s), float(reference))
            except (AssertionError, ValueError):
                fail("no calibration line from the set-up process")
            setup_raw.append(wall - calibration_s)
            setup.append((wall - calibration_s) * reference / kernel)

    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-%d.csv" % (args.workload, args.seed))]
    out = run_binary(cmd, env, deadline - time.monotonic())
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line from the benchmark binary")
    for line in lines[:-1]:
        print(line)
    if setup:
        print("setup_s %.6g s rescaled (%.6g s as measured), median of %d processes"
              % (statistics.median(setup), statistics.median(setup_raw), len(setup)))
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup), "unit": "s"}

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s"
             % (missing, extra, units))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
