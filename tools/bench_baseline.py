#!/usr/bin/env python3
"""Perf-baseline driver: measure the tracked hot paths and write/check BENCH_*.json.

Runs the google-benchmark microbenchmark binary plus the tracked figure
campaigns (TRACKED_CAMPAIGNS, each run as `wild5g_run <id>`) from a Release
build tree and either

  * writes a baseline document (default), e.g. the committed
    BENCH_2026-08-07.json, or
  * checks the current build against one or more committed baselines
    (--check, repeatable) and exits 1 if any tracked number regressed by
    more than --threshold (default 20%) against any of them.

The committed document also freezes the pre-change numbers measured on the
same machine immediately before the speed pass landed (PRE_CHANGE below), so
the speedup each rewrite bought stays auditable without digging through git
history. Wall-clock numbers are machine-dependent; the committed file records
the container this repo is developed in, and the --check gate compares a
fresh run against a baseline from the *same* runner, not across machines.

Usage:
  python3 tools/bench_baseline.py --build-dir build-rel --out BENCH_2026-08-07.json
  python3 tools/bench_baseline.py --build-dir build-rel \
      --check BENCH_2026-08-07.json --check BENCH_2026-10-17.json
"""

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
import time

# Microbenchmark kernels tracked by the gate. Names are google-benchmark
# names; values land in micro_ns as real_time nanoseconds.
TRACKED_MICRO = [
    "BM_SimulatorEventChurn/1000",
    "BM_SimulatorEventChurn/10000",
    "BM_WaveformSynthesis/1000",
    "BM_WaveformSynthesis/5000",
    "BM_PercentileStoreAll/100000",
    "BM_PercentileStoreAll/1000000",
    "BM_PercentileSketch/100000",
    "BM_PercentileSketch/1000000",
    "BM_MpcDecision/5",
    "BM_MpcDecision/12",
]

# Representative figure campaigns (registry ids, which are also the keys).
# Values land in campaign_s as end-to-end wall-clock seconds for one
# `wild5g_run <id> --json` emission run.
TRACKED_CAMPAIGNS = [
    "fig24_server_survey",
    "fig15_16_power_models",
    "fig19_20_web_qoe",
    "extension_metro_load",
    "extension_metro_qoe",
    "fig18a_predictors",
    "fig18b_chunk_length",
]

# Pre-change numbers: Release (-O3 -DNDEBUG) on the development container,
# built from the tree state immediately before the speed pass and measured
# *interleaved* with the post-change build (two alternating passes, min of
# the per-pass medians) so host-level contention hits both sides equally.
# The store-all percentile pattern had no pre-change kernel -- it is kept in
# bench_micro as BM_PercentileStoreAll, so its current numbers double as the
# baseline BM_PercentileSketch is compared to, back-to-back in one process.
# The BM_MpcDecision and fig18a/fig18b entries were measured the same way
# against the tree immediately before the MPC planner became an exact
# branch-and-bound (BM_MpcDecision already taking the horizon argument).
PRE_CHANGE = {
    "micro_ns": {
        "BM_SimulatorEventChurn/1000": 172144,
        "BM_SimulatorEventChurn/10000": 2671604,
        "BM_WaveformSynthesis/1000": 5766914,
        "BM_WaveformSynthesis/5000": 30086545,
        "BM_MpcDecision/5": 4197,
        "BM_MpcDecision/12": 3997191,
    },
    "campaign_s": {
        "fig24_server_survey": 0.679,
        "fig15_16_power_models": 0.377,
        "fig19_20_web_qoe": 0.361,
        "fig18a_predictors": 0.991,
        "fig18b_chunk_length": 161.932,
    },
}

SCHEMA = "wild5g-bench-baseline-v1"


def run_micro(build_dir):
    """Run bench_micro and return {benchmark name: real_time ns}."""
    binary = os.path.join(build_dir, "bench", "bench_micro")
    if not os.path.exists(binary):
        sys.exit(f"bench_baseline: missing {binary}; build the bench targets first")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    try:
        filt = "|".join(
            sorted({name.split("/")[0] for name in TRACKED_MICRO})
        )
        subprocess.run(
            [
                binary,
                f"--benchmark_filter=^({filt})/",
                f"--benchmark_out={out_path}",
                "--benchmark_out_format=json",
                "--benchmark_min_time=0.2",
                # Scheduler noise on shared machines easily exceeds 20% on a
                # single run; the median of three repetitions is what the
                # gate compares, for both --out and --check.
                "--benchmark_repetitions=3",
                "--benchmark_report_aggregates_only=true",
            ],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        with open(out_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    finally:
        os.unlink(out_path)
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        name = bench["name"].removesuffix("_median")
        times[name] = round(float(bench["real_time"]))
    missing = [name for name in TRACKED_MICRO if name not in times]
    if missing:
        sys.exit(f"bench_baseline: bench_micro did not report {missing}")
    return {name: times[name] for name in TRACKED_MICRO}


def run_campaigns(build_dir):
    """Run each tracked campaign (--json emission) and time it end to end."""
    binary = os.path.join(build_dir, "bench", "wild5g_run")
    if not os.path.exists(binary):
        sys.exit(f"bench_baseline: missing {binary}; build the bench targets first")
    results = {}
    for key in TRACKED_CAMPAIGNS:
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
            out_path = handle.name
        try:
            # Best-of-3: end-to-end wall-clock includes process startup and
            # filesystem effects, and the minimum is the least noisy
            # estimator of the compute actually required.
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                subprocess.run(
                    [binary, key, "--json", out_path],
                    check=True,
                    stdout=subprocess.DEVNULL,
                )
                runs.append(time.perf_counter() - start)
            results[key] = round(min(runs), 3)
        finally:
            os.unlink(out_path)
    return results


def measure(build_dir):
    micro = run_micro(build_dir)
    campaigns = run_campaigns(build_dir)
    speedup = {}
    for name, before in PRE_CHANGE["micro_ns"].items():
        if name in micro and micro[name] > 0:
            speedup[name] = round(before / micro[name], 2)
    for key, before in PRE_CHANGE["campaign_s"].items():
        if campaigns.get(key, 0) > 0:
            speedup[key] = round(before / campaigns[key], 2)
    # The sketch kernel's baseline is the store-all kernel at the same n.
    for n in ("100000", "1000000"):
        store = micro.get(f"BM_PercentileStoreAll/{n}", 0)
        sketch = micro.get(f"BM_PercentileSketch/{n}", 0)
        if store and sketch:
            speedup[f"BM_PercentileSketch/{n} vs store-all"] = round(
                store / sketch, 2
            )
    return {
        "schema": SCHEMA,
        "date": datetime.date.today().isoformat(),
        "build": {"type": "Release", "flags": "-O3 -DNDEBUG"},
        "pre_change": PRE_CHANGE,
        "micro_ns": micro,
        "campaign_s": campaigns,
        "speedup_vs_pre_change": speedup,
    }


def check(baseline_path, current, threshold):
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != SCHEMA:
        sys.exit(f"bench_baseline: {baseline_path} has unexpected schema")
    failures = []
    for section in ("micro_ns", "campaign_s"):
        for name, committed in baseline.get(section, {}).items():
            now = current[section].get(name)
            if now is None:
                failures.append(f"{name}: tracked bench disappeared")
                continue
            limit = committed * (1.0 + threshold)
            status = "FAIL" if now > limit else "ok"
            print(
                f"  [{status}] {name}: {now} vs committed {committed} "
                f"(limit {limit:g})"
            )
            if now > limit:
                failures.append(
                    f"{name}: {now} exceeds committed {committed} "
                    f"by more than {threshold:.0%}"
                )
    if failures:
        print("bench_baseline: REGRESSION", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench_baseline: all tracked benches within threshold")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build-rel")
    parser.add_argument("--out", help="write a fresh baseline document here")
    parser.add_argument(
        "--check",
        action="append",
        default=[],
        help="compare against this committed baseline (repeatable); exit 1 "
        "on a regression against any of them",
    )
    parser.add_argument("--threshold", type=float, default=0.20)
    args = parser.parse_args()
    if not args.out and not args.check:
        parser.error("pass --out to write a baseline or --check to gate against one")

    current = measure(args.build_dir)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(current, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"bench_baseline: wrote {args.out}")
    # One fresh measurement, gated against every baseline given.
    status = 0
    for baseline_path in args.check:
        print(f"bench_baseline: checking against {baseline_path}")
        status |= check(baseline_path, current, args.threshold)
    sys.exit(status)


if __name__ == "__main__":
    main()
