#!/usr/bin/env python3
"""Benchmark self-test.

Runs every workload run.py offers — the ones BENCHMARK.json lists and
serve_topk, which it does not gate — at a tiny size (run.py --tiny),
untraced and traced, and fails unless each run passes its oracle and
prints exactly the metrics BENCHMARK.json names for that mode, each with
its unit. Then plants one wrong answer per workload (run.py --perturb)
and fails unless the oracle rejects that run.

    python3 perfbench/selftest.py        # from the repository root
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep __pycache__ out of the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # pylint: disable=wrong-import-position


def run(workload, trace, perturb=False):
    """Returns (result line, None) or (None, error)."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    if perturb:
        command.append("--perturb")
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            timeout=900, check=False)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        return None, f"exit code {result.returncode}"
    return json.loads(lines[-1]), None


def metric_problems(result, spec_metrics):
    expected = {metric["name"]: metric["unit"] for metric in spec_metrics}
    printed = {name: value.get("unit") for name, value in result["metrics"].items()}
    problems = []
    missing = sorted(set(expected) - set(printed))
    extra = sorted(set(printed) - set(expected))
    wrong_unit = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
    for what, names in (("missing", missing), ("not in BENCHMARK.json", extra),
                        ("wrong unit", wrong_unit)):
        if names:
            problems.append(f"{what}: {', '.join(names)}")
    if any(not isinstance(value.get("value"), (int, float))
           for value in result["metrics"].values()):
        problems.append("a metric value is not a number")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    failures = []

    def note(label, problems):
        print(("ok   " if not problems else "FAIL ") + label +
              ("" if not problems else ": " + "; ".join(problems)), flush=True)
        failures.extend(f"{label}: {problem}" for problem in problems)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, error = run(workload, trace)
            note(f"{workload} --trace {trace}",
                 [error] if error else metric_problems(result, spec[key]))
        result, error = run(workload, 0, perturb=True)
        if error:
            problems = [error]
        elif result["correct"] or result["failed"] < 1:
            problems = ["the oracle accepted a planted wrong answer"]
        else:
            problems = []
        note(f"{workload} --perturb", problems)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
