#!/usr/bin/env python3
"""Smoke test of the benchmark: a 1-second run of every workload, untraced
and traced.  Asserts that each run passes every correctness check and prints
every metric BENCHMARK.json names, with its unit, as a finite number (and
the end-to-end ones non-zero).

    python3 perfbench/smoke_test.py      # from the repository root
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                                  capture_output=True, text=True)
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append(f"{tag}: no JSON result (exit {proc.returncode})\n"
                                + proc.stderr[-1500:])
                continue
            if proc.returncode != 0 or result.get("correct") is not True:
                fails = [l for l in lines if l.startswith("check FAIL")]
                failures.append(f"{tag}: correctness failed: {fails}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{tag}: result keys {sorted(result)}")
            if result.get("attempted", 0) < 1 or result.get("failed") != 0:
                failures.append(f"{tag}: attempted={result.get('attempted')} "
                                f"failed={result.get('failed')}")
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            metrics = result.get("metrics", {})
            if set(metrics) != {s["name"] for s in specs}:
                failures.append(f"{tag}: metric set differs from BENCHMARK.json")
            for spec in specs:
                got = metrics.get(spec["name"], {})
                value = got.get("value")
                if got.get("unit") != spec["unit"]:
                    failures.append(f"{tag}: {spec['name']} unit {got.get('unit')!r}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{tag}: {spec['name']} value {value!r}")
                elif not trace and value == 0:
                    failures.append(f"{tag}: end-to-end {spec['name']} is 0")
            print(f"ok   {tag}" if not any(f.startswith(tag) for f in failures) else
                  f"FAIL {tag}")
    for f in failures:
        print(f, file=sys.stderr)
    print("smoke test " + ("FAILED" if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
