#!/usr/bin/env python3
"""Short self-check of the benchmark, run from the root of a checkout.

    python3 nwcbench/selfcheck.py [--seconds 3]

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
fails (exit 1) when a run fails, reports a wrong answer, or when a metric
named in BENCHMARK.json is missing, unexpected, not a finite number or
reported with another unit. It sits beside the repository's --smoke gates
and replaces none of them.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, trace, seconds):
    command = [sys.executable, os.path.join(ROOT, *spec["command"][1:]), "--workload", workload,
               "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().split("\n")[-1])
    problems = []
    if result["correct"] is not True or result["failed"] != 0:
        detail = [line for line in done.stdout.split("\n") if line.startswith(("checked", "  "))]
        problems.append(f"correct={result['correct']} failed={result['failed']}: {detail}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = result["metrics"]
    for name, unit in declared.items():
        if name not in reported:
            problems.append(f"metric {name} missing")
            continue
        value = reported[name].get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} has no finite value")
        if reported[name].get("unit") != unit:
            problems.append(f"metric {name} unit {reported[name].get('unit')!r}, want {unit!r}")
    for name in reported:
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace, args.seconds)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    print("self-check passed" if failures == 0 else f"self-check failed: {failures} run(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
