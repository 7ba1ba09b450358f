#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs each workload (default: all of BENCHMARK.json) once per seed through
run.py with --trace 0, then prints, per metric, the median and the
distance between the first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`), against a third of the metric's
bound. Exits 1 if a run fails, reports incorrect output, or a spread other
than setup_s's exceeds a third of its bound.
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = run.stdout.splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit code {run.returncode}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median
            limit = m["bound"] / 3
            steady = spread <= limit or m["name"] == "setup_s"
            ok &= steady
            print(f"{workload:>16} {m['name']:<18} median {median:<14.6g} spread {spread:7.4f}"
                  f" (a third of the bound: {limit:.4f}){'' if steady else '  TOO WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
