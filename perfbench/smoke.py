"""Smoke test of the benchmark itself, at tiny shapes (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json: each metric named there is
emitted with its unit and a finite value, in both trace modes; an injected
failure is counted in `failed` (and so in `ok_ratio`).  A child killed by a
signal counts as a failed pass without aborting the run.  Last, the command
must fail, with no result line, in a directory holding only BENCHMARK.json
and perfbench/.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--seed", "3", "--seconds", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check(condition, message, problems):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(["--workload", workload, "--trace", str(trace), "--scale", "tiny"])
            check(proc.returncode == 0 and result is not None,
                  f"{workload} trace={trace}: exit 0 with a result", problems)
            if result is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace}: correct, nothing failed", problems)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: every {section} metric with its unit", problems)
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            check(finite, f"{workload} trace={trace}: every value a finite number", problems)

        proc, result = run(["--workload", workload, "--trace", "0", "--scale", "tiny", "--inject", "error"])
        counted = result is not None and result["failed"] >= 1 and not result["correct"]
        if counted:
            ok_ratio = result["metrics"]["ok_ratio"]["value"]
            counted = ok_ratio <= 1.0 - result["failed"] / result["attempted"] + 1e-12
        check(counted, f"{workload}: injected error counted in failed and ok_ratio", problems)

    proc, result = run(["--workload", "prior-study", "--trace", "0", "--scale", "tiny", "--inject", "kill"])
    check(result is not None and result["failed"] >= 1 and not result["correct"],
          "prior-study: a killed child is a failed pass and the run still reports", problems)

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = run(["--workload", "cli-k10", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and result is None,
          "without src/gla the command exits nonzero and prints no result", problems)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
