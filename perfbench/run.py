#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It configures and builds perfbench/ (the
engine libraries from src/ plus the harness in perfbench/cpp) with CMake in
$CARGO_TARGET_DIR, or .bench_build when that is unset, runs the workload,
and prints the harness's check and metric lines, its `machine {...}` block
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a per-layer metric the workload does not
exercise reads 0.  Exits 0 when every correctness check passed, 1 when one
failed, 2 when the benchmark could not be built or run.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "fanin", "twitter_sim")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else Path.cwd() / path


def build(bdir):
    """Configures and builds the harness; CMake's output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    exe = bdir / "perfbench"
    if not exe.exists():
        fail(f"build produced no {exe}")
    cache = (bdir / "CMakeCache.txt").read_text(errors="replace")
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        print("\nWARNING: perfbench is not a Release build; its timings mean nothing\n",
              file=sys.stderr)
    return exe


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--commit", commit()]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]

    # Own process group: the harness forks a child per slice, and a timeout
    # must stop those too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(stdout)
        fail(f"{args.workload} printed no result (exit code {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    correct = bool(result["correct"]) and proc.returncode == 0
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            if not args.trace:
                print(f"check FAIL end-to-end metric {spec['name']} was not measured")
                correct = False
                continue
            got = {"value": 0, "unit": spec["unit"]}  # layer not exercised here
        if got["unit"] != spec["unit"]:
            print(f"check FAIL {spec['name']} reported in {got['unit']}, expected {spec['unit']}")
            correct = False
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}

    print(json.dumps({"correct": correct, "attempted": max(1, int(result["attempted"])),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
