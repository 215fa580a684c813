#!/usr/bin/env python3
"""hetcomm's benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload fig51_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own unit tests

Run from the repository root.  The build goes to .bench_build/ (CMake,
Release).  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to stderr.
Exits non-zero without a result line when the build or the run fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build")
WORKLOADS = ("fig51_sweep", "serve_hot", "serve_churn")
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: hetcomm sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", "perfbench", "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    os.chdir(ROOT)

    try:
        if args.test:
            return subprocess.run([str(build("perfbench_test"))]).returncode
        if args.workload is None:
            parser.error("--workload is required")
        binary = build("perfbench")
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digest-file", "perfbench/fig51_sweep.digest"]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return proc.returncode
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
