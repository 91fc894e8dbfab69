#!/usr/bin/env python3
"""Builds and runs the socket-level end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the root of a checkout. The node library and the benchmark binaries
are built from source into $CARGO_TARGET_DIR (default .bench_build) under
e2ebench/. The last line of stdout is the benchmark's JSON result; build
output and diagnostics go to stderr.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wan-mm5", "wan-mm4", "lan-durable", "lan-kv")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    return os.path.join(base, "e2ebench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "node_runtime.h")):
        fail(f"the node sources are missing under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_binary(command):
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited with code {done.returncode}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the WAN relay self-test instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    out = build_dir()
    build(out)
    if args.selftest:
        for line in run_binary([os.path.join(out, "relay_selftest")]):
            print(line)
        return

    workdir = os.path.join(out, "runs")
    os.makedirs(workdir, exist_ok=True)
    lines = run_binary([os.path.join(out, "e2e_bench"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--workdir", workdir])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if "failure" in result:
        print(f"e2ebench: output check failed: {result.pop('failure')}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
