#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
program from source (perfbench/CMakeLists.txt compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
build. The benchmark binary's last output line is checked against the
metric declarations in BENCHMARK.json before it is passed on, so a run
that prints an undeclared metric, misses one or changes a unit fails.
Exit code: the benchmark's own (1 when its correctness oracle rejected a
frame), or non-zero when the build, the run or the check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(targets=("perfbench",)) -> Path:
    """Configure (once) and build @p targets; returns the build directory."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    for target in targets:
        subprocess.run(
            ["cmake", "--build", str(out), "--target", target, "--parallel", BUILD_JOBS],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def declared_metrics(section: str) -> dict:
    """name -> unit of the BENCHMARK.json section ("end_to_end" or "per_layer")."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def check_result(line: str, trace: bool) -> list:
    """Problems with the benchmark's result line; empty when it is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return [f"last line is not JSON: {err}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are {sorted(result) if isinstance(result, dict) else result}"]
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    printed = result["metrics"]
    if set(printed) != set(declared):
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, metric in printed.items():
        if name in declared and metric.get("unit") != declared[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, declared {declared[name]!r}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 3

    cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out / "runs")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    print(f"run.py: benchmark ran {time.monotonic() - started:.1f} s, exit {proc.returncode}",
          file=sys.stderr)
    problems = check_result(lines[-1], bool(args.trace)) if proc.stdout.strip() else [
        "benchmark printed nothing"]
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return proc.returncode or 5
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
