#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload BENCHMARK.json declares for two seconds, untraced and
traced, plus the construction-only `build_cold` workload, through
perfbench/run.py. Checks that each run exits 0, that every output check
passed and no operation failed, and that each declared end-to-end
(untraced) or per-layer (traced) metric appears with its declared unit.
Takes under a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"exit code {proc.returncode}"]
    return json.loads(lines[-1]), []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    cases = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    cases.append(("build_cold", 0))
    failures = 0
    for workload, trace in cases:
        result, problems = run(workload, trace)
        if result is not None:
            if not result["correct"]:
                problems.append("an output check failed")
            if result["failed"] or result["attempted"] < 1:
                problems.append(f"{result['failed']} of {result['attempted']} operations failed")
            declared = spec["end_to_end"] if trace == 0 else spec["per_layer"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"metric {m['name']} missing or not in {m['unit']}")
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"{workload} trace {trace}: {status}", flush=True)
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
