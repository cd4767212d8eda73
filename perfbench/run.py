#!/usr/bin/env python3
"""Builds and runs the SDPS-Bench performance benchmark (see README.md).

    python3 perfbench/run.py --workload paper_search|shuffle_2m|rt_agg \
        --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ -- which compiles the library sources in src/ -- into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and prints as the last stdout line one JSON object with the keys
correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.

Exit status: 0 when every check passed, 1 when a check failed (the result
line says which counts), 2 when the benchmark could not be built or run
(no result line).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within this many seconds, build excluded.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(directory):
    """Configures once, then lets the build tool bring the binary up to date."""
    steps = []
    if not os.path.exists(os.path.join(directory, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "-j", str(os.cpu_count() or 2)])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(directory, "sdps_perfbench")


def source_revision():
    """Digest of the sources the binary is built from (the checkout need not be a git tree)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny scale, for smoke.py")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build(build_dir())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", source_revision()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with status %d" % proc.returncode)
    try:
        measured = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("no result line")

    metrics = {}
    for m in wanted:
        got = measured["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s missing or not in %s: %r" % (m["name"], m["unit"], got))
        metrics[m["name"]] = got
    print("\n".join(lines[:-1]))
    print("  run took %.1f s" % (time.monotonic() - start))
    print(json.dumps({"correct": measured["correct"], "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": metrics}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
