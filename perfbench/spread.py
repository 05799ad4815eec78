#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed,
and print each end-to-end metric's median and quartile spread (the
distance between the first and third quartile as a share of the median).

Usage, from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Builds once with cargo, then runs the built binary directly so build
checks do not count against the measuring time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()

    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
                    os.path.join(ROOT, "perfbench", "Cargo.toml")], cwd=ROOT, check=True)
    binary = os.path.join(ROOT, "perfbench", "target", "release", "perfbench")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for w in args.workloads:
        values = {}
        failed = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [binary, "--workload", w, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()[-1]
            result = json.loads(out)
            failed += result["failed"]
            if not result["correct"]:
                print(f"{w} seed {seed}: correct=false", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {args.runs} runs, {failed} failed updates")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else ("  WIDE" if spread <= bound else "  OVER"))
            print(f"  {name:28s} median {med:14.6g}  spread {spread:7.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
