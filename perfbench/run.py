#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of the repository.  The first form builds the `perfbench`
package (release, offline) into $CARGO_TARGET_DIR (default `.bench_build`)
and runs one workload; the last line of its standard output is the result
JSON.  `--smoke` runs every workload at reduced size, traced and untraced,
with all of its checks, and fails unless every result is correct and
complete: it is the benchmark's own test.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mobility_topk", "hot_clique", "paged_mobility", "ingest_stream"]


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(result.returncode or 1)
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs the binary with `args` from the repository root; returns the
    completed process with its standard output captured."""
    return subprocess.run([binary, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)


def smoke(binary):
    """Runs every workload at reduced size, untraced and traced, and checks
    each result line against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", trace]
            done = run(binary, [*args, "--smoke"])
            where = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{where}: exit code {done.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {lines[-1]}")
            names = [m["name"] for m in spec[key]]
            if list(result["metrics"]) != names:
                problems.append(f"{where}: metrics {list(result['metrics'])}, want {names}")
                continue
            for m in spec[key]:
                got = result["metrics"][m["name"]]
                value = got["value"]
                if got["unit"] != m["unit"] or not math.isfinite(value):
                    problems.append(f"{where}: {m['name']} = {got}")
                elif key == "end_to_end" and value <= 0:
                    problems.append(f"{where}: {m['name']} = {value} is not positive")
            print(f"{where}: attempted {result['attempted']}, failed {result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if args == ["--smoke"]:
        sys.exit(smoke(binary))
    done = run(binary, args)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
