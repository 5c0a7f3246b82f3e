#!/usr/bin/env python3
"""Steadiness tool: runs each workload N times and reports each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads pipeline,fanin] [--trace 0]
                                [--first-seed 1] [--sets 1] [--json out.json]

Each run gets its own seed (first-seed, first-seed + 1, ...).  For every
metric it prints the median and quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, and flags a spread above the metric's bound
in BENCHMARK.json ("OVER") or above a third of it ("wide").  setup_s is
shown but, like the acceptance rule, exempt from the spread check.  With
--sets 2 it repeats the whole set with fresh seeds and flags any median
that got worse than the first set's by more than the bound ("DRIFT").
Run from the repository root; exits 1 when anything is OVER or DRIFTs.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace",
                           str(trace)], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    return json.loads(lines[-1])["metrics"]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    if not first:
        return 0.0
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--json", default="")
    args = parser.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in
                                                                    bench["workloads"]]
    bad = False
    report = {}
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            runs = [run_once(workload, seed, bench["run_seconds"], args.trace) for seed in seeds]
            print(f"\n{workload} (set {s + 1}, seeds {seeds[0]}..{seeds[-1]})")
            print(f"  {'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
                  f"{'bound':>6}")
            set_medians = {}
            for spec in specs:
                name = spec["name"]
                median, q1, q3, spread = summarize([r[name]["value"] for r in runs])
                set_medians[name] = median
                bound = spec.get("bound")
                flag = ""
                if bound is not None and name != "setup_s":
                    if spread > bound:
                        flag, bad = "OVER", True
                    elif spread > bound / 3:
                        flag = "wide"
                if s > 0 and bound is not None:
                    drift = worse_by(medians[0][name], median, spec["better"])
                    if drift > bound:
                        flag, bad = (flag + " DRIFT").strip(), True
                print(f"  {name:36} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
                      f"{bound if bound is not None else '':>6} {flag}")
                report.setdefault(workload, []).append(
                    {"set": s + 1, "metric": name, "median": median, "q1": q1, "q3": q3,
                     "spread": spread, "flag": flag})
            medians.append(set_medians)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
