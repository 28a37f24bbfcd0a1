#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload cold_scan --seed 1 --seconds 20 --trace 0

Workloads: cold_scan, hot_service, fleet, batch_burst (README.md here says
what each measures).  The first run configures and builds the benchmark and
the library sources under src/ into $CARGO_TARGET_DIR/servebench
(default .bench_build/servebench); later runs only rebuild what changed.
Build output goes to stderr.  The last line on stdout is the JSON result;
--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the benchmark's spans to <build dir>/traces/.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_scan", "hot_service", "fleet", "batch_burst")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    return 2


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "servebench")


def build(out_dir):
    """Configures once, then builds incrementally; holds a lock meanwhile."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "servebench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
    return True


def git_commit():
    """HEAD of the repository rooted here; "unknown" when ROOT is not the top
    of a git work tree (an exported checkout nested in another repo)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    top, head = lines
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, so runs of a checkout
    that is not a git repository still name the code they measured."""
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"library sources not found at {os.path.join(ROOT, 'src')}")
    out_dir = build_dir()
    if not build(out_dir):
        return fail("build failed")

    command = [os.path.join(out_dir, "servebench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    print(f"provenance: commit={git_commit()} source_digest={source_digest()}", flush=True)
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
