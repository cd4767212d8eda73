#!/usr/bin/env python3
"""Interleaved A/B comparison of two source trees on benchmark workloads.

    python3 scripts/ab.py TREE_A TREE_B --workload W[,W2...]|all --pairs N [--smoke]

Runs perfbench/run.py in each tree once per pair, on seeds 1, 2, ..., for
BENCHMARK.json's run_seconds, alternating which tree goes first so host
drift hits both sides alike. --workload takes one workload, a
comma-separated list, or "all" (every workload of BENCHMARK.json); the
pairs interleave per seed across the listed workloads (seed 1 of each,
then seed 2 of each, ...), and one verdict table is printed per workload.
Each side builds into its own CARGO_TARGET_DIR (.bench_build/ab-a or
.bench_build/ab-b inside its tree), so the two builds never share objects,
even when TREE_A and TREE_B are the same tree.

For every end_to_end metric of BENCHMARK.json it prints each side's median
with its q1-q3 range, the median per-pair B/A ratio, and how many pairs B
won (strictly better in the metric's direction; ties count for neither).
The verdict is "gain" when at least 10 pairs ran, B won at least 9 of
every 10 of them and B's median is better than A's by more than A's
q3 - q1 (a spread above the bound is noted after it). Otherwise it is
"unresolved" when either side's spread (q3 - q1 over the median) exceeds
the metric's bound, "worse" when B's median is worse than A's by more
than the bound, and "ok".

Exit status: 0 when every run printed a result line, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = (os.path.join(".bench_build", "ab-a"), os.path.join(".bench_build", "ab-b"))


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(a, b, bound, higher):
    """(A quartiles, B quartiles, median B/A, B's pair wins, verdict) of one
    metric's paired runs `a` and `b`; see the module doc for the verdicts."""
    n = len(a)
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    ratio = statistics.median([y / x for x, y in zip(a, b) if x] or [float("nan")])
    wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
    worse = qb[1] < qa[1] * (1 - bound) if higher else qb[1] > qa[1] * (1 + bound)
    gain_in_median = (qb[1] - qa[1]) if higher else (qa[1] - qb[1])
    gain = n >= 10 and 10 * wins >= 9 * n and gain_in_median > qa[2] - qa[0]
    wide = "spread %.3f > %.2f" % (spread, bound) if spread > bound else ""
    if gain:
        verdict = "gain (%s)" % wide if wide else "gain"
    elif wide:
        verdict = "unresolved (%s)" % wide
    else:
        verdict = "worse" if worse else "ok"
    return qa, qb, ratio, wins, verdict


def run_once(tree, target, args, workload, seconds, seed):
    """(metric values, failed checks) of one run, or None without a result."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=tree, env=dict(os.environ, CARGO_TARGET_DIR=target),
                          stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        print("ab: %s %s seed %d exited %d without a result line" % (
            tree, workload, seed, proc.returncode))
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}, result["failed"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", required=True,
                        help='a workload, a comma-separated list, or "all"')
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny scale (the CI check)")
    args = parser.parse_args()
    trees = (os.path.abspath(args.tree_a), os.path.abspath(args.tree_b))
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    for w in workloads:
        if w not in known:
            parser.error("unknown workload %r (BENCHMARK.json has %s)" % (w, ", ".join(known)))

    runs = {w: ([], []) for w in workloads}
    failed = {w: [0, 0] for w in workloads}
    complete = True
    for pair in range(args.pairs):
        seed = 1 + pair
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for w in workloads:
            got = [None, None]
            for side in order:
                got[side] = run_once(trees[side], TARGETS[side], args, w,
                                     spec["run_seconds"], seed)
            if None in got:
                complete = False
                continue
            for side in (0, 1):
                runs[w][side].append(got[side][0])
                failed[w][side] += got[side][1]
            print("ab: %s seed %d (%s first): records_per_s A %.4g  B %.4g" % (
                w, seed, "AB"[order[0]], got[0][0]["records_per_s"],
                got[1][0]["records_per_s"]), flush=True)

    for w in workloads:
        n = len(runs[w][0])
        if n == 0:
            print("\nab: %s: no complete pair" % w)
            complete = False
            continue
        print("\nab: %s, %d pairs, A = %s, B = %s, failed checks A %d B %d" % (
            w, n, trees[0], trees[1], failed[w][0], failed[w][1]))
        print("%-14s %-30s %-30s %7s %7s  %s" % ("metric", "A median [q1, q3]",
                                                 "B median [q1, q3]", "B/A", "B wins",
                                                 "verdict"))
        for m in spec["end_to_end"]:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            a = [r[name] for r in runs[w][0]]
            b = [r[name] for r in runs[w][1]]
            qa, qb, ratio, wins, verdict = compare(a, b, bound, higher)
            print("%-14s %-30s %-30s %7.3f %4d/%-2d  %s" % (
                name, "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
                "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]), ratio, wins, n, verdict))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
