#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload warm_A --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the hetpar libraries and the perfbench
binary from source (into $CARGO_TARGET_DIR, default .bench_build), sets the
workload up several times in one process (the median is `setup_s`), measures
it once in a fresh process, and
prints as the last line of standard output one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm_A", "batch_B_live")
# Set-ups per run; setup_s is their median. warm_A's set-up is mostly cold
# compiles (~6 s), batch_B_live's only writes the inputs and builds their HTGs
# (~1 s, and single samples swing between ~0.7 s and ~1.3 s within seconds on
# a shared host, so it takes more of them).
SETUP_REPEATS = {"warm_A": 3, "batch_B_live": 11}


def build(target):
    """Configures once and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: hetpar sources (src/) not found next to perfbench/")
    build_dir = os.path.join(target, "perfbench-cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    to_stderr = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, **to_stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, **to_stderr)
    return os.path.join(build_dir, "perfbench")


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise SystemExit("perfbench: the binary printed nothing")
    return json.loads(lines[-1])


def drive(binary, *args):
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: the binary failed ({proc.returncode}): {' '.join(args)}")
    return last_json(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--programs", default="",
                    help="comma-separated kernel override (smoke checks only)")
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(target)
    work = os.path.join(target, "perfbench-work", args.workload)
    traces = os.path.join(target, "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    common = ["--workload", args.workload, "--dir", work]
    try:
        setup_args = [*common, "--repeats", str(SETUP_REPEATS[args.workload])]
        if args.programs:
            setup_args += ["--programs", args.programs]
        setup_s = drive(binary, "setup", *setup_args)["setup_s"]
        trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        result = drive(binary, "measure", *common, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--trace-out", trace_out if args.trace else "")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
