#!/usr/bin/env python3
"""The repository benchmark: file-to-pairs joins and KJNP serving.

Run from the repository root:

    python3 perfbench/run.py --workload join_plus --seed 1 --seconds 10 --trace 0

The first run configures and builds the driver (perfbench/CMakeLists.txt,
which compiles the kjoin sources in src/) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs reuse it until a source
changes. A run prints one reading per line ("name value unit"), then one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics after the
span reducer's report. perfbench/README.md describes the workloads, the
metrics and the oracle.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # keep __pycache__ out of the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("join_plus", "join_pure", "serve_topk", "serve_mixed")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def newest_source_mtime():
    newest = 0.0
    for top in (HERE, os.path.join(ROOT, "src")):
        for dirpath, _, filenames in os.walk(top):
            for name in filenames:
                if name.endswith((".cc", ".h", "CMakeLists.txt")):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build(target):
    """Returns the driver binary, building it first when it is stale."""
    build_dir = os.path.join(target, "perfbench")
    binary = os.path.join(build_dir, "kjbench")
    if os.path.exists(binary) and os.path.getmtime(binary) >= newest_source_mtime():
        return binary
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    for command in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "kjbench", "-j", jobs],
    ):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit("benchmark build failed: " + " ".join(command))
    return binary


def main():
    parser = argparse.ArgumentParser(description="kjoin repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: every workload shrunk to seconds")
    parser.add_argument("--perturb", action="store_true",
                        help="self-test: corrupt one answer before the oracle checks it")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("the kjoin sources (src/) are not next to perfbench/")
    target = target_dir()
    binary = build(target)
    workdir = os.path.join(target, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.tiny:
        command.append("--tiny")
    if args.perturb:
        command.append("--perturb")
    try:
        # On timeout subprocess.run kills the driver and waits for it.
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
        lines = result.stdout.splitlines()
        if result.returncode != 0 or not lines:
            sys.stderr.write(result.stdout)
            sys.exit(f"benchmark driver exited with code {result.returncode}")
        final = json.loads(lines[-1])
        if set(final) != RESULT_KEYS:
            sys.exit("benchmark driver printed a malformed result line")
        for line in lines[:-1]:
            print(line)
        if args.trace:
            sys.path.insert(0, HERE)
            import reduce_spans  # pylint: disable=import-outside-toplevel
            reduce_spans.report(workdir)
        print(lines[-1], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
