#!/usr/bin/env python3
"""Runs workloads repeatedly, each run with another seed, and prints every
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median) next to its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--verbose] [workload ...]

Run from the root of the repository.  Run i uses seed i (1..runs) and the
run length `run_seconds` of BENCHMARK.json.  Quartiles are those of Python's
`statistics.quantiles(values, n=4)`.  A spread at or above a third of the
metric's bound is flagged (setup_s is compared between sets of runs by its
median only, so its spread is shown but not flagged).  Also checks that the
share of failed operations is the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    parser.add_argument("workloads", nargs="*")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = opts.workloads or [w["name"] for w in spec["workloads"]]
    flagged = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed_shares = set()
        for seed in range(1, opts.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit code {done.returncode}")
                flagged += 1
                continue
            result = json.loads(lines[-1])
            failed_shares.add(result["failed"] / result["attempted"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {lines[-1]}")
                flagged += 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {opts.runs} runs, seeds 1..{opts.runs}, "
              f"failed shares {sorted(failed_shares)}")
        if len(failed_shares) > 1:
            flagged += 1
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            flag = ""
            if m["name"] != "setup_s" and spread >= m["bound"] / 3:
                flag = "  <-- at or above a third of the bound"
                flagged += 1
            print(f"  {m['name']:<14} median {q2:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:6.2%}  bound {m['bound']:.0%}{flag}")
            if opts.verbose:
                print("    runs: " + " ".join(f"{x:.6g}" for x in v))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
