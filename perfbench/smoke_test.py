#!/usr/bin/env python3
"""Smoke check of the benchmark itself, on the cheapest kernel (adpcm_enc).

    python3 perfbench/smoke_test.py

Run from the repository root (~1 min once the binary is built). Runs every
workload of BENCHMARK.json through perfbench/run.py with --trace 0 and
--trace 1 and checks the contract of the result line: exactly the keys
correct/attempted/failed/metrics, a correct run with no failure, and exactly
the metric names of BENCHMARK.json's end_to_end (trace 0) or per_layer
(trace 1) list, each printed with its declared unit. Exits 1 if any check
fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--programs", "adpcm_enc"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[section]}
            try:
                result = run(workload, trace)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
                    f"result keys {sorted(result)}"
                assert result["correct"] is True and result["failed"] == 0, "run not correct"
                assert result["attempted"] >= 1, "nothing attempted"
                got = {name: m.get("unit") for name, m in result["metrics"].items()}
                assert got == want, f"metrics differ: missing {sorted(set(want) - set(got))}, " \
                    f"extra {sorted(set(got) - set(want))}, units {sorted(set(got.items()) ^ set(want.items()))}"
                for name, m in result["metrics"].items():
                    assert isinstance(m["value"], (int, float)), f"{name} is not a number"
                print(f"ok   {workload} trace={trace}: {len(got)} metrics")
            except AssertionError as e:
                failures += 1
                print(f"FAIL {workload} trace={trace}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
