#!/usr/bin/env python3
"""wild5g-bench: build the benchmark from this checkout, then run one workload.

    python3 wild5gbench/run.py --workload abr_trace_eval --seed 1 \
        --seconds 10 --trace 0

Run it from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default .bench_build). Build output goes to stderr; the last line of stdout
is the result object of wild5g_bench (see README.md). Exits non-zero,
printing no result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("abr_trace_eval", "speedtest_survey", "serve_drive_soak",
             "power_models")


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "wild5g_bench", "wild5g_serve"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("wild5g-bench: build failed: " + " ".join(step))
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20210823)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output (self-test)")
    args = parser.parse_args()

    build_dir = build()
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(build_dir, "wild5g_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--serve-bin", os.path.join(build_dir, "wild5g_serve"),
               "--work-dir", work_dir]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt:
        command.append("--corrupt")
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
