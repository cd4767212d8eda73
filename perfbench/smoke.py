#!/usr/bin/env python3
"""Tiny-scale smoke of the benchmark command.

    python3 perfbench/smoke.py

Runs perfbench/run.py --smoke on every workload of BENCHMARK.json, untraced
and traced, and checks that each run exits 0, that its last line names
every end_to_end (untraced) or per_layer (traced) metric with its unit, and
that no check failed (failed_share 0). Exits 1 on the first problem.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload["name"], "--seed", "7", "--seconds", "1", "--trace",
                   str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = "%s trace=%d" % (workload["name"], trace)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)
                sys.exit("smoke: %s exited with %d" % (label, proc.returncode))
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            names = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != names:
                sys.exit("smoke: %s metrics differ: missing %s, extra %s" % (
                    label, sorted(set(names) - set(got)), sorted(set(got) - set(names))))
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                sys.exit("smoke: %s failed_share %d/%d" % (
                    label, result["failed"], result["attempted"]))
            print("smoke: %-14s ok (%d checks, %d metrics)" % (
                label, result["attempted"], len(got)))


if __name__ == "__main__":
    main()
