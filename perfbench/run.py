#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep|record-replay|rack \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (and with it the src/ tree)
in Release under $CARGO_TARGET_DIR (default .bench_build); later calls only
rebuild what changed. Build output goes to stderr. The benchmark binary then
prints its host stamp and, as the last line of stdout, the result JSON. A
traced run (--trace 1) also writes its spans as Chrome trace-event JSON to
<build dir>/perfbench-traces/<workload>-seed<N>.json.

Exits non-zero without printing a result when the build fails, for example
in a directory that holds the benchmark but not the repository's src/.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep", "record-replay", "rack")
RUN_TIMEOUT_S = 175


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))

    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    traces = os.path.join(build_root, "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-file", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
