#!/usr/bin/env python3
"""CI perf regression gate for bench/perf_kernel.

Usage: check_perf.py <measured.json> <baseline.json> [--tolerance 0.20]

Compares every throughput metric in the measured BENCH_kernel.json (written
by the perf_kernel binary) against its floor in the committed baseline.
A metric more than `tolerance` below the baseline fails the gate. Metrics
above baseline never fail; new metrics missing from the baseline warn only,
so adding a workload does not require a lockstep baseline bump.

The baseline may also carry a "ratios" section gating relative speedups
(e.g. the batched-data-plane pipeline speedup): each entry is a "min"
floor for the same-named entry of the measured file's "ratios" section,
whose "value" perf_kernel computes (rt_profiler_overhead, for one, is the
median of interleaved per-pair ratios, not a quotient of two metrics).
A ratio missing from the measured output fails. Ratio floors are exact
(no tolerance): they encode an algorithmic guarantee, not a noise-prone
absolute throughput.

A "ceilings" section gates metrics where LOWER is better (e.g.
rt_recovery_time_ms_*): the measured value must not rise more than
`tolerance` above the committed ceiling. Values below the ceiling never
fail, and a ceiling whose metric is missing from the measured output
fails (the measurement silently disappearing is itself a regression).

Metrics prefixed "rt_" are wall-clock measurements on real threads (the
sdps::rt backend), not DES kernel numbers: they depend on the runner's
core count, pinning permissions, and co-tenancy, so they get the wider
--rt-tolerance margin (default 0.50) instead of --tolerance.
"""

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured", help="BENCH_kernel.json from a fresh run")
    parser.add_argument("baseline", help="committed baseline BENCH_kernel.json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop below baseline")
    parser.add_argument("--rt-tolerance", type=float, default=0.50,
                        help="allowed fractional drop for rt_* metrics "
                             "(realtime runs are noisier than DES kernels)")
    args = parser.parse_args()

    with open(args.measured) as f:
        measured_doc = json.load(f)
    measured = measured_doc["metrics"]
    measured_ratios = measured_doc.get("ratios", {})
    with open(args.baseline) as f:
        baseline_doc = json.load(f)
    baseline = baseline_doc["metrics"]
    ratio_floors = baseline_doc.get("ratios", {})
    ceilings = baseline_doc.get("ceilings", {})

    failures = []
    passed = 0
    for name, floor in sorted(baseline.items()):
        if name not in measured:
            failures.append(f"{name}: expected >= {floor:,.0f}, "
                            f"missing from measured output")
            print(f"  FAIL {name}: missing from measured output")
            continue
        got = measured[name]
        tolerance = args.rt_tolerance if name.startswith("rt_") else args.tolerance
        minimum = floor * (1.0 - tolerance)
        ratio = got / floor if floor else float("inf")
        status = "OK " if got >= minimum else "FAIL"
        print(f"  {status} {name}: {got:,.0f} vs floor {floor:,.0f} "
              f"(x{ratio:.2f}, min {minimum:,.0f})")
        if status == "FAIL":
            failures.append(
                f"{name}: expected >= {minimum:,.0f} "
                f"(floor {floor:,.0f} - {tolerance:.0%}), "
                f"got {got:,.0f} (x{ratio:.2f} of floor)")
        else:
            passed += 1
    new_metrics = sorted(set(measured) - set(baseline) - set(ceilings))
    for name in new_metrics:
        print(f"  WARN {name}: not in baseline (new metric?)")

    for name, ceiling in sorted(ceilings.items()):
        if name not in measured:
            failures.append(f"{name}: expected <= {ceiling:,.0f}, "
                            f"missing from measured output")
            print(f"  FAIL {name}: missing from measured output")
            continue
        got = measured[name]
        tolerance = args.rt_tolerance if name.startswith("rt_") else args.tolerance
        maximum = ceiling * (1.0 + tolerance)
        ratio = got / ceiling if ceiling else float("inf")
        status = "OK " if got <= maximum else "FAIL"
        print(f"  {status} {name}: {got:,.0f} vs ceiling {ceiling:,.0f} "
              f"(x{ratio:.2f}, max {maximum:,.0f})")
        if status == "FAIL":
            failures.append(
                f"{name}: expected <= {maximum:,.0f} "
                f"(ceiling {ceiling:,.0f} + {tolerance:.0%}), "
                f"got {got:,.0f} (x{ratio:.2f} of ceiling)")
        else:
            passed += 1

    ratio_results = []
    for name, spec in sorted(ratio_floors.items()):
        if "value" not in measured_ratios.get(name, {}):
            failures.append(f"{name}: expected ratio >= x{spec['min']:.2f}, "
                            f"missing from measured output")
            print(f"  FAIL {name}: missing from measured output")
            ratio_results.append(f"{name} missing")
            continue
        ratio = measured_ratios[name]["value"]
        status = "OK " if ratio >= spec["min"] else "FAIL"
        print(f"  {status} {name}: x{ratio:.2f} (floor x{spec['min']:.2f})")
        ratio_results.append(f"{name} x{ratio:.2f}>=x{spec['min']:.2f}")
        if status == "FAIL":
            failures.append(
                f"{name}: expected >= x{spec['min']:.2f}, got x{ratio:.2f}")
        else:
            passed += 1

    # One summary line either way, then every failure with its
    # expected-vs-actual — a red CI log should not require scrolling back
    # through the per-metric table to see what regressed.
    total = len(baseline) + len(ratio_floors) + len(ceilings)
    summary = (f"perf gate: {passed}/{total} floors OK, "
               f"{len(failures)} failed, {len(new_metrics)} unbaselined")
    if ratio_results:
        # The exact ratio gates ARE the algorithmic guarantees this script
        # exists for — surface them in the one line people actually read.
        summary += " | ratios: " + ", ".join(ratio_results)
    if failures:
        print(f"\n{summary}", file=sys.stderr)
        for msg in failures:
            print(f"  FAIL {msg}", file=sys.stderr)
        return 1
    print(f"\n{summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
