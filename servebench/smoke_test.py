#!/usr/bin/env python3
"""Smoke test of the serving benchmark.

Runs every workload for two seconds at the benchmark's own shapes:
once untraced and twice traced with the same seed.  Asserts that every
metric BENCHMARK.json names is printed with its unit, that every answer was
correct (ok_frac = 1.0), that the exact per-layer counts repeat between the
two traced runs, and that each workload is what it claims to be.

Usage, from the repository root:  python3 servebench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
SEED = "7"

# Per-layer figures that must repeat exactly between runs of one seed.
EXACT = (
    "core.full_ops_per_px",
    "core.combined_ops_per_px",
    "core.visited_frac",
    "archive.bytes_per_query",
    "batch.fanin_mean",
    "net.wire_bytes_per_query",
    "index.onion_pts_per_query",
    "sproc.ops_per_query",
)

# Figures that define a workload's identity.
IDENTITY = {
    "cold_scan": {"engine.result_hit_rate": 0.0},
    "hot_service": {"engine.result_hit_rate": 1.0},
    "batch_burst": {"batch.fanin_mean": 16.0},
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", SEED,
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result, lines


def check_metrics(workload, result, lines, specs):
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}, (workload, sorted(metrics))
    for spec in specs:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], (workload, spec["name"], got)
        assert isinstance(got["value"], (int, float)), (workload, spec["name"], got)
        assert any(line.split()[:1] == [spec["name"]] and spec["unit"] in line.split()
                   for line in lines), (workload, spec["name"], "not printed with its unit")
    assert result["correct"] and result["failed"] == 0, (workload, result)
    assert result["attempted"] >= 1, (workload, result)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        try:
            result, lines = run(workload, 0)
            check_metrics(workload, result, lines, bench["end_to_end"])
            assert result["metrics"]["ok_frac"]["value"] == 1.0, (workload, "ok_frac")
            first, lines = run(workload, 1)
            check_metrics(workload, first, lines, bench["per_layer"])
            second, _ = run(workload, 1)
            for name in EXACT:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                assert a == b, (workload, name, a, b)
            for name, want in IDENTITY.get(workload, {}).items():
                got = first["metrics"][name]["value"]
                assert got == want, (workload, name, got, want)
            print(f"ok   {workload}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {workload}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
