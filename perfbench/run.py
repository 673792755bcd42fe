#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload etc_open --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench under the repository root. The benchmark binary
prints progress on stderr and, as the last line of stdout, one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones (see BENCHMARK.json). The exit
code is 0 only when every output and teardown check passed.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("etc_open", "set_large", "sharded_multiget")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# The benchmark bounds its own measured phase by --seconds; this only catches a hang.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    trace_out = os.path.join(ROOT, ".bench_build", "traces",
                             "%s-seed%d.json" % (args.workload, args.seed))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        cmd += ["--trace-out", trace_out]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
