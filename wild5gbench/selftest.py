#!/usr/bin/env python3
"""wild5g-bench self-test, at the smallest input sizes (about two minutes).

    python3 wild5gbench/selftest.py

Checks that:
  - every workload prints, with --trace 0, exactly the end-to-end metrics
    of BENCHMARK.json and, with --trace 1, exactly its per-layer metrics,
    each with its declared unit, and that the outputs are correct;
  - one corrupted job output is counted as a failed job on every workload;
  - the ABR timing decorators are transparent: aggregates computed through
    them are byte-identical to those computed without them.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build and workload list)


def result_of(args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                         capture_output=True, text=True, cwd=run.ROOT)
    if out.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (args, out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    build_dir = run.build()

    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seconds", "0", "--trace",
                    trace, "--tiny"]
            result = result_of(args)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                sys.exit("FAIL %s --trace %s: metrics differ from "
                         "BENCHMARK.json\n  missing %s\n  unexpected %s" % (
                             workload, trace,
                             sorted(set(declared[trace].items()) -
                                    set(units.items())),
                             sorted(set(units.items()) -
                                    set(declared[trace].items()))))
            if not result["correct"] or result["failed"] != 0:
                sys.exit("FAIL %s --trace %s: %s" % (workload, trace, result))
            print("ok   %s --trace %s: %d metrics, %d jobs" % (
                workload, trace, len(units), result["attempted"]))

        corrupted = result_of(["--workload", workload, "--seconds", "0",
                               "--tiny", "--corrupt"])
        if corrupted["failed"] != 1 or corrupted["correct"]:
            sys.exit("FAIL %s: a corrupted output was not counted: %s" % (
                workload, corrupted))
        print("ok   %s: corrupted output counted, failed_frac = 1/%d" % (
            workload, corrupted["attempted"]))

    transparency = subprocess.run(
        [os.path.join(build_dir, "wild5g_bench"), "--transparency", "--tiny"],
        capture_output=True, text=True)
    if transparency.returncode != 0:
        sys.exit("FAIL decorator transparency\n" + transparency.stdout +
                 transparency.stderr)
    print("ok   ABR decorators transparent on %d cells" %
          transparency.stdout.count(": identical"))


if __name__ == "__main__":
    main()
