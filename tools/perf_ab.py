#!/usr/bin/env python3
"""Alternating A/B runs of the repository benchmark between two checkouts.

Usage (from anywhere):

    tools/perf_ab.py PARENT_ROOT CHANGE_ROOT --workload set_large --seed 1 \\
        --seconds 30 --pairs 10 [--trace 0]

PARENT_ROOT and CHANGE_ROOT are two checkouts of this repository (for example a clone of
the parent commit next to the working tree). Each pair runs PARENT_ROOT/perfbench/run.py
and CHANGE_ROOT/perfbench/run.py once each, back to back, and the order flips every pair so
neither side always runs first. One untimed 1-second run per side builds both first.

Both sides run through symlinks of equal length in one temporary directory
($TMPDIR/perf_ab/<hash of the checkout's real path>), never through the checkout paths
themselves: the length of the benchmark binary's path (its argv[0]) moves the initial stack
alignment, and on its own that biased host time by several percent between two identical
checkouts whose names differed in length. A checkout keeps its link name from run to run,
so its bench build stays configured; a bench build configured through another path (say,
by running perfbench/run.py in the checkout itself) is deleted and rebuilt. The reverse is
not handled: after perf_ab, a direct perfbench/run.py in the checkout finds its build
configured through the link and cmake refuses it; delete .bench_build/perfbench first.

The report gives, for every metric, the median and quartiles on each side, the relative
gap of the medians, and how many pairs the change won. Where the parent's median is no
larger in magnitude than its interquartile range, a relative gap means nothing (it divides
by a value near zero): the gap column then reads "n/a" followed by the absolute gap. For
the claimed metric, host_ns_per_op, it applies the rule every host-time claim follows: the
change wins at least 9 of 10 pairs and the medians differ by more than the parent's
interquartile range. The modeled columns come from the fixed virtual clock; any that differ
between any two runs are listed. With --trace 0 they are the latencies, achieved rate and
success rate. With --trace 1 they are the deterministic per-layer counts (sim.*, net.* per
op except host ns, event handler, push and lock counts, heap allocs, pool hit rate, dist
messages and RPC faults); the host-ns columns there are not compared.

Every end_to_end metric of the parent's BENCHMARK.json then gets a no-regression verdict
against that metric's relative bound:
  REGRESSED   the change's median is worse than the parent's by more than the bound;
  unresolved  the parent's IQR/median is wider than the bound and not every change run
              beats every parent run, so the runs spread too widely to tell;
  holds       otherwise.
A change to KvStore, the item blocks or RCU shows `holds` on every metric over set_large
pairs: that is the item plane's host-time gate.

Metric directions and bounds are read from the parent's BENCHMARK.json; nothing under
perfbench/ is written except each root's own build.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

CLAIMED = "host_ns_per_op"
MODELED = ("p50_us", "p99_us", "achieved_ops_per_s", "success_rate")
# --trace 1: per-layer columns that count simulated events, never host time.
MODELED_LAYER = ("event.handlers_per_op", "event.xcore_pushes_per_op", "event.control_locks",
                 "mem.heap_allocs_per_op", "mem.pool_hit_rate", "dist.messages_per_op")


def modeled(name, trace):
    if not trace:
        return name in MODELED
    if name.startswith("sim.") or name.startswith("dist.rpc_"):
        return True
    if name.startswith("net.") and name.endswith("_per_op"):
        return "_ns_" not in name
    return name in MODELED_LAYER


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    return better, bounds


def link(root):
    """The checkout's equal-length symlink in the shared link directory (module docstring)."""
    real = os.path.realpath(root)
    links = os.path.join(tempfile.gettempdir(), "perf_ab")
    os.makedirs(links, exist_ok=True)
    path = os.path.join(links, hashlib.sha256(real.encode()).hexdigest()[:16])
    if not os.path.islink(path):
        os.symlink(real, path)
    build = os.path.join(real, ".bench_build", "perfbench")
    cache = os.path.join(build, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            configured_here = "CMAKE_CACHEFILE_DIR:INTERNAL=%s\n" % os.path.join(
                path, ".bench_build", "perfbench") in f.read()
        if not configured_here:
            shutil.rmtree(build)
    return path


def run(root, args, seconds):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("perf_ab: run failed in %s (exit %d)" % (root, proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def cell(q):
    return "%.6g [%.6g-%.6g]" % (q[1], q[0], q[2])


def gap_cell(pq, cq):
    """The gap of the medians: relative, unless the parent's median is within its IQR."""
    if abs(pq[1]) > pq[2] - pq[0]:
        return "%+.2f%%" % ((cq[1] - pq[1]) / abs(pq[1]) * 100)
    return "n/a %+.4g" % (cq[1] - pq[1])


def regression_verdict(pv, cv, lower, bound):
    """The no-regression rule for one end_to_end metric (see the module docstring)."""
    pq, cq = quartiles(pv), quartiles(cv)
    worse = (cq[1] - pq[1]) if lower else (pq[1] - cq[1])
    rel_worse = worse / abs(pq[1]) if pq[1] else (0.0 if worse <= 0 else math.inf)
    rel_spread = (pq[2] - pq[0]) / abs(pq[1]) if pq[1] else 0.0
    dominates = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
    if rel_worse > bound:
        verdict = "REGRESSED"
    elif rel_spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "holds"
    return "%s (worse by %+.2f%%, parent IQR/median %.2f%%, bound %.0f%%)" % (
        verdict, rel_worse * 100, rel_spread * 100, bound * 100)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    roots = {"parent": link(args.parent_root), "change": link(args.change_root)}
    better, bounds = load_benchmark(roots["parent"])

    for side in ("parent", "change"):
        run(roots[side], args, 1)
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(roots[side], args, args.seconds))
        p, c = runs["parent"][-1].get(CLAIMED), runs["change"][-1].get(CLAIMED)
        print("pair %2d (%s first): %s parent %s change %s" %
              (i + 1, order[0], CLAIMED, p, c), file=sys.stderr)

    print("%s seed %d, %d alternating pairs of %d s, trace %d" %
          (args.workload, args.seed, args.pairs, args.seconds, args.trace))
    print("%-32s %-32s %-32s %14s %6s" %
          ("metric", "parent median [q1-q3]", "change median [q1-q3]", "gap", "wins"))
    verdict = None
    for name in sorted(runs["parent"][0]):
        pv = [r[name] for r in runs["parent"]]
        cv = [r[name] for r in runs["change"]]
        pq, cq = quartiles(pv), quartiles(cv)
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        print("%-32s %-32s %-32s %14s %3d/%d" %
              (name, cell(pq), cell(cq), gap_cell(pq, cq), wins, args.pairs))
        if name == CLAIMED:
            iqr = pq[2] - pq[0]
            improved = (cq[1] < pq[1]) if lower else (cq[1] > pq[1])
            holds = (improved and wins >= math.ceil(0.9 * args.pairs)
                     and abs(cq[1] - pq[1]) > iqr)
            verdict = "%s: change won %d/%d, median gap %.5g vs parent IQR %.5g -> %s" % (
                name, wins, args.pairs, abs(cq[1] - pq[1]), iqr,
                "claim holds" if holds else "claim does NOT hold")
    compared = [name for name in sorted(runs["parent"][0]) if modeled(name, args.trace)]
    moved = []
    for name in compared:
        values = sorted({r[name] for side in runs.values() for r in side if name in r})
        if len(values) > 1:
            moved.append("%s takes %d values: %s" % (name, len(values), values))
    if not compared:
        summary = "none compared"
    elif moved:
        summary = "; ".join(moved)
    else:
        summary = "identical in every run (%d compared)" % len(compared)
    print("modeled columns: " + summary)
    if verdict:
        print(verdict)
    for name in sorted(bounds):
        if name not in runs["parent"][0]:
            continue
        pv = [r[name] for r in runs["parent"]]
        cv = [r[name] for r in runs["change"]]
        lower = better.get(name, "lower") == "lower"
        print("%-32s %s" % (name, regression_verdict(pv, cv, lower, bounds[name])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
