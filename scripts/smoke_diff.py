#!/usr/bin/env python3
"""Output-identity check of two source trees over the smoke bench set.

    python3 scripts/smoke_diff.py TREE_A TREE_B

Builds each tree (Release, into .smoke_build/a or .smoke_build/b inside
it, so the two builds never share objects even when A and B are the same
tree), runs the smoke set in a fresh directory per tree and compares every
file the runs leave, path by path. The smoke set:

  * fig12_latency_breakdown --smoke, figR_recovery --smoke,
    figS_shuffle --smoke and exp3_large_windows: stdout plus results/*.csv;
  * calibrate for flink, storm and spark x agg, join x --batch=1, 32 (2
    workers, 2e5 tuples/s, 30 s): stdout plus its trace, metrics and
    lineage dumps.

Each file falls into the first class that explains its difference:

  identical        byte for byte;
  wall-clock-only  equal once host wall-clock fields are masked (the
                   wall_s CSV column, "wall <x> s", "wall-clock x<r>"
                   and "[wall: <x>s]" text);
  row-order-only   the same lines in another order;
  last-digit-only  the same lines, numbers differing by at most one unit
                   of their last printed digit;
  value-change     anything else, a file missing on one side included.

Exit status: 1 when a file is beyond wall-clock-only and TREE_B does not
newly expect it, or when a build or run fails; else 0. A file is newly
expected when TREE_B's scripts/smoke_diff_expected.txt (one path per line,
'#' comments) lists it and TREE_A's does not, so an entry excuses only the
change that adds it and gates every later change again.
"""
import argparse
import os
import re
import subprocess
import sys
import tempfile

TARGETS = ["fig12_latency_breakdown", "figR_recovery", "figS_shuffle",
           "exp3_large_windows", "calibrate"]
FIGURE_RUNS = [["fig12_latency_breakdown", "--smoke"], ["figR_recovery", "--smoke"],
               ["figS_shuffle", "--smoke"], ["exp3_large_windows"]]
CLASSES = ["identical", "wall-clock-only", "row-order-only", "last-digit-only",
           "value-change"]
WALL_COLUMNS = {"wall_s"}
WALL_TEXT = [re.compile(p) for p in (r"wall \d+(\.\d+)? s", r"wall-clock x\d+(\.\d+)?",
                                     r"\[wall: \d+(\.\d+)?s\]")]
NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")


def build(tree, build_dir):
    """Builds the smoke targets of `tree`; prints the log and exits on failure."""
    for cmd in (["cmake", "-B", build_dir, "-S", tree, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1), "--target"] + TARGETS):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            sys.exit("smoke_diff: %s failed" % " ".join(cmd))


def run_set(bench_dir, out_dir):
    """Runs the smoke set with cwd under out_dir; returns False on a failure."""
    ok = True

    def run(name, cmd, cwd):
        nonlocal ok
        os.makedirs(cwd, exist_ok=True)
        with open(os.path.join(cwd, name + ".stdout"), "w") as out:
            rc = subprocess.run([os.path.join(bench_dir, cmd[0])] + cmd[1:], cwd=cwd,
                                stdout=out, stderr=subprocess.DEVNULL).returncode
        if rc != 0:
            print("smoke_diff: %s exited %d in %s" % (" ".join(cmd), rc, cwd))
            ok = False

    for cmd in FIGURE_RUNS:
        run(cmd[0], cmd, os.path.join(out_dir, cmd[0]))
    for engine in ("flink", "storm", "spark"):
        for query in ("agg", "join"):
            for batch in (1, 32):
                name = "calibrate_%s_%s_b%d" % (engine, query, batch)
                run(name, ["calibrate", "--engine", engine, "--query", query,
                           "--workers", "2", "--rate", "2e5", "--duration", "30",
                           "--batch=%d" % batch, "--trace=%s.trace.json" % name,
                           "--metrics-csv=%s.metrics.csv" % name,
                           "--lineage-csv=%s.lineage.csv" % name],
                    os.path.join(out_dir, "calibrate"))
    return ok


def files_under(root):
    found = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            found.add(os.path.relpath(os.path.join(dirpath, name), root))
    return found


def mask_wall(path, lines):
    """The lines with every wall-clock field blanked."""
    if path.endswith(".csv") and lines:
        header = lines[0].split(",")
        cut = [i for i, col in enumerate(header) if col in WALL_COLUMNS]
        if cut:
            return [",".join("-" if i in cut else f for i, f in enumerate(line.split(",")))
                    for line in lines]
    masked = []
    for line in lines:
        for pattern in WALL_TEXT:
            line = pattern.sub("<wall>", line)
        masked.append(line)
    return masked


def last_digit_only(a, b):
    """True when the lines differ only in numbers one last-digit unit apart."""
    if len(a) != len(b):
        return False
    for la, lb in zip(a, b):
        if la == lb:
            continue
        if NUMBER.sub("#", la) != NUMBER.sub("#", lb):
            return False
        for ta, tb in zip(NUMBER.finditer(la), NUMBER.finditer(lb)):
            sa, sb = ta.group(0), tb.group(0)
            if sa == sb:
                continue
            mantissa = re.split("[eE]", sa)[0]
            exponent = int(re.split("[eE]", sa)[1]) if re.search("[eE]", sa) else 0
            decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
            unit = 10.0 ** (exponent - decimals)
            if abs(float(sa) - float(sb)) > unit * 1.000001:
                return False
    return True


def classify(path, a_bytes, b_bytes):
    if a_bytes == b_bytes:
        return "identical"
    a = mask_wall(path, a_bytes.decode(errors="replace").split("\n"))
    b = mask_wall(path, b_bytes.decode(errors="replace").split("\n"))
    if a == b:
        return "wall-clock-only"
    if sorted(a) == sorted(b):
        return "row-order-only"
    if last_digit_only(a, b):
        return "last-digit-only"
    return "value-change"


def read_expected(tree):
    path = os.path.join(tree, "scripts", "smoke_diff_expected.txt")
    if not os.path.exists(path):
        return set()
    with open(path) as f:
        return {line.split("#")[0].strip() for line in f} - {""}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    args = parser.parse_args()
    trees = [os.path.abspath(args.tree_a), os.path.abspath(args.tree_b)]
    expected = read_expected(trees[1]) - read_expected(trees[0])

    ok = True
    with tempfile.TemporaryDirectory(prefix="smoke_diff.") as scratch:
        outs = []
        for tree, side in zip(trees, ("a", "b")):
            build_dir = os.path.join(tree, ".smoke_build", side)
            print("smoke_diff: building %s" % tree, flush=True)
            build(tree, build_dir)
            out = os.path.join(scratch, side)
            print("smoke_diff: running the smoke set of %s" % tree, flush=True)
            ok = run_set(os.path.join(build_dir, "bench"), out) and ok
            outs.append(out)

        counts = {c: 0 for c in CLASSES}
        unexpected = []
        for path in sorted(files_under(outs[0]) | files_under(outs[1])):
            sides = [os.path.join(o, path) for o in outs]
            if all(os.path.exists(p) for p in sides):
                with open(sides[0], "rb") as fa, open(sides[1], "rb") as fb:
                    cls = classify(path, fa.read(), fb.read())
            else:
                cls = "value-change"
            counts[cls] += 1
            if cls not in ("identical", "wall-clock-only"):
                listed = path in expected
                print("  %-16s %s%s" % (cls, path, " (expected)" if listed else ""))
                if not listed:
                    unexpected.append(path)
        print("smoke_diff: %s" % ", ".join("%d %s" % (counts[c], c) for c in CLASSES))
    if unexpected:
        print("smoke_diff: %d file(s) changed beyond wall-clock and are not newly "
              "listed in the expected-diffs file" % len(unexpected))
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
