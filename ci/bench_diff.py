#!/usr/bin/env python3
"""Regression gate over two BENCH_engine.json files.

Compares a baseline run against a candidate run and fails (exit 1) when the
candidate regresses by more than the threshold (default 15%) on either:

  * E10  — the median qps across the sweep rows,
  * E10b — the traced-build qps of the observability-overhead check
           (tracing_overhead.qps_traced),
  * E11  — the best qps across the sharded scatter-gather shard-count sweep
           (sharded_throughput rows; schema_version >= 3), and
  * E13  — the best qps across the cross-process router shard-count sweep
           (router_throughput rows; schema_version >= 5).

It also enforces an E11 shape gate on the candidate alone: at 4 shards the
sharded full scan must run at least 2x the serial scan's throughput
(sharded_throughput row shards == 4, speedup_vs_serial).  Best qps alone
cannot catch a sweep where sharding makes a query slower, because the
shards=1 row then wins.  Skipped on hosts with hardware_concurrency < 4.
A second E11 shape gate needs no spare cores: the shards == 1 row must run
at least 0.8x the serial scan (speedup_vs_serial), since one shard does the
serial scan's work in the serial scan's order, and only the scatter-gather
around it may cost extra.  It is never skipped for the host.

It also enforces the E14 distributed-tracing acceptance bound on the
candidate alone (schema_version >= 6): routing the same fleet traced (trace
context on the wire, span trees shipped back and stitched) must cost at most
5% of the untraced throughput.  Like E12 this is an absolute property, not a
diff; it is skipped out loud when the bench could not run the experiment
(no loopback sockets).

It also enforces an E15 shape gate on the candidate alone (schema_version
>= 8, batch_throughput rows, each the median of 5 runs): a group's linear
full scans share one pass over the band planes, so fan-in 16 must reach at
least 1.3x the cold qps of fan-in 1.  E15 runs one dispatcher, so it
measures shared work rather than threads, and the gate is never skipped for
the host.

Gates that do not apply to a given run are *skipped out loud*: every bypassed
gate prints an explicit "... gate skipped: <reason>" line so a green run can
be audited for what it actually checked.  In particular, an experiment that
is present in the baseline but recorded no rows in the candidate (or vice
versa) prints "gate skipped: missing rows" rather than silently passing.

It also enforces the E12 hedged-tail acceptance bound on the *candidate*
alone (schema_version >= 4): under injected 5% slow-shard faults, the hedged
p99 must stay within 1.5x the no-fault p99.  This is an absolute property of
hedged execution, not a diff, so it needs no baseline — but it only holds
where a speculative duplicate can actually run in parallel, so hosts with
hardware_concurrency below 4 report it without gating.

Both files must carry the same schema_version (stamped by bench_engine along
with git_commit and build_flags); mismatched schemas exit 2 rather than
producing a bogus comparison.  So do mismatched hardware_concurrency,
build_flags or kernel_isa stamps (both values are printed; a file that
predates a stamp reads None): a diff across hosts, builds or kernel
instruction sets would gate on the difference between machines, not
between commits.  A missing *baseline* file is not an error —
the first run on a fresh branch has nothing to diff against, so the script
warns and exits 0 (a missing candidate still fails: that means the bench
itself did not run).  Throughput improvements never fail the gate.

Usage:
    ci/bench_diff.py baseline.json candidate.json [--threshold 0.15]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

# Stamps that must match for two runs to be diffed: timings from a host with
# a different thread count, from a build with different flags, or with the
# full-scan kernel running on another instruction set (kernel_isa: "avx2" or
# "baseline") measure something else.
HOST_FINGERPRINT = ("hardware_concurrency", "build_flags", "kernel_isa")


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def e10_median_qps(doc: dict) -> float:
    rows = doc.get("rows", [])
    if not rows:
        raise ValueError("no sweep rows")
    return statistics.median(row["qps"] for row in rows)


def e10b_traced_qps(doc: dict) -> float:
    overhead = doc.get("tracing_overhead")
    if not overhead:
        raise ValueError("no tracing_overhead block")
    return float(overhead["qps_traced"])


def e11_best_sharded_qps(doc: dict) -> float | None:
    """Best qps across the E11 sharded rows; None when the run recorded no
    rows (the gate must then skip out loud, not pass silently)."""
    rows = doc.get("sharded_throughput")
    if not rows:
        return None
    return max(float(row["qps"]) for row in rows)


SHARDED_SPEEDUP_MIN = 2.0  # E11 shape: 4 shards >= 2x the serial scan
SHARDED_SPEEDUP_SHARDS = 4


def sharded_speedup_regressed(doc: dict) -> bool:
    """E11 absolute shape gate on the candidate; returns True when it fails."""
    rows = doc.get("sharded_throughput") or []
    speedup = {int(row["shards"]): float(row["speedup_vs_serial"]) for row in rows}
    if SHARDED_SPEEDUP_SHARDS not in speedup:
        print(
            "E11 sharded speedup gate skipped: missing rows (candidate recorded "
            f"no shards={SHARDED_SPEEDUP_SHARDS} sharded_throughput row)"
        )
        return False
    hw = int(doc.get("hardware_concurrency", 0))
    if hw < 4:
        print(
            f"E11 sharded speedup gate skipped: hardware_concurrency {hw} < 4 "
            "(shards cannot scan in parallel)"
        )
        return False
    ratio = speedup[SHARDED_SPEEDUP_SHARDS]
    verdict = "FAIL" if ratio < SHARDED_SPEEDUP_MIN else "ok"
    print(
        f"E11 sharded speedup: {SHARDED_SPEEDUP_SHARDS} shards = {ratio:.2f}x serial "
        f"(floor {SHARDED_SPEEDUP_MIN:.1f}x) [{verdict}]"
    )
    return ratio < SHARDED_SPEEDUP_MIN


ONE_SHARD_SPEEDUP_MIN = 0.8  # E11 shape: 1 shard >= 0.8x the serial scan


def one_shard_speedup_regressed(doc: dict) -> bool:
    """E11 one-shard gate on the candidate; returns True when it fails.  One
    shard runs the serial scan's work on one thread, so no host skip."""
    rows = doc.get("sharded_throughput") or []
    speedup = {int(row["shards"]): float(row["speedup_vs_serial"]) for row in rows}
    if 1 not in speedup:
        print(
            "E11 one-shard speedup gate skipped: missing rows (candidate recorded "
            "no shards=1 sharded_throughput row)"
        )
        return False
    ratio = speedup[1]
    verdict = "FAIL" if ratio < ONE_SHARD_SPEEDUP_MIN else "ok"
    print(
        f"E11 one-shard speedup: 1 shard = {ratio:.2f}x serial "
        f"(floor {ONE_SHARD_SPEEDUP_MIN:.1f}x) [{verdict}]"
    )
    return ratio < ONE_SHARD_SPEEDUP_MIN


BATCH_SPEEDUP_FAN_IN = 16
BATCH_SPEEDUP_MIN = 1.3  # E15 shape: fan-in 16 >= 1.3x fan-in 1 cold qps


def batch_speedup_regressed(doc: dict) -> bool:
    """E15 shape gate on the candidate; returns True when it fails.  One
    dispatcher runs every group, so no host skip."""
    rows = doc.get("batch_throughput") or []
    qps = {int(row["fan_in"]): float(row["cold_qps"]) for row in rows}
    if 1 not in qps or BATCH_SPEEDUP_FAN_IN not in qps:
        print(
            "E15 batch speedup gate skipped: missing rows (candidate recorded no "
            f"fan_in 1 or {BATCH_SPEEDUP_FAN_IN} batch_throughput row)"
        )
        return False
    ratio = qps[BATCH_SPEEDUP_FAN_IN] / qps[1] if qps[1] > 0 else 0.0
    verdict = "FAIL" if ratio < BATCH_SPEEDUP_MIN else "ok"
    print(
        f"E15 batch speedup: fan-in {BATCH_SPEEDUP_FAN_IN} = {ratio:.2f}x fan-in 1 "
        f"(floor {BATCH_SPEEDUP_MIN:.1f}x) [{verdict}]"
    )
    return ratio < BATCH_SPEEDUP_MIN


HEDGED_TAIL_LIMIT = 1.5  # E12 acceptance: hedged p99 <= 1.5x no-fault p99


def hedged_tail_regressed(doc: dict) -> bool:
    """E12 absolute gate on the candidate; returns True when it fails."""
    tail = doc.get("hedged_tail")
    if not tail:
        raise ValueError("no hedged_tail block")
    ratio = float(tail["hedged_over_nofault"])
    hw = int(doc.get("hardware_concurrency", 0))
    if hw < 4:
        # A speculative duplicate cannot overlap the straggler without spare
        # hardware threads, so the 1.5x bound is not a property of this host.
        print(
            f"E12 hedged tail gate skipped: hardware_concurrency {hw} < 4 "
            "(hedge leg cannot run in parallel with the straggler)"
        )
        return False
    verdict = "FAIL" if ratio > HEDGED_TAIL_LIMIT else "ok"
    print(
        f"E12 hedged tail: p99 {tail['hedged_p99_ms']:.3f}ms vs no-fault "
        f"{tail['nofault_p99_ms']:.3f}ms = {ratio:.2f}x "
        f"(limit {HEDGED_TAIL_LIMIT:.1f}x) [{verdict}]"
    )
    return ratio > HEDGED_TAIL_LIMIT


def e13_best_router_qps(doc: dict) -> float | None:
    """Best qps across the E13 router rows; None when the run recorded no
    rows (block absent, or the bench skipped the experiment because loopback
    sockets were unavailable on the host)."""
    rows = doc.get("router_throughput")
    if not rows:
        return None
    return max(float(row["qps"]) for row in rows)


ROUTER_TRACING_LIMIT_PCT = 5.0  # E14 acceptance: tracing tax <= 5%


def router_tracing_regressed(doc: dict) -> bool:
    """E14 absolute gate on the candidate; returns True when it fails."""
    block = doc.get("router_tracing_overhead")
    if not block:
        raise ValueError("no router_tracing_overhead block (schema >= 6 expected)")
    if not block.get("ran", False):
        print(
            "E14 router tracing gate skipped: candidate did not run the "
            "experiment (loopback sockets unavailable)"
        )
        return False
    pct = float(block["overhead_pct"])
    verdict = "FAIL" if pct > ROUTER_TRACING_LIMIT_PCT else "ok"
    print(
        f"E14 router tracing overhead: untraced {block['qps_untraced']:.1f} qps vs "
        f"traced {block['qps_traced']:.1f} qps = {pct:+.2f}% "
        f"(limit {ROUTER_TRACING_LIMIT_PCT:.0f}%) [{verdict}]"
    )
    return pct > ROUTER_TRACING_LIMIT_PCT


def check(name: str, base: float, cand: float, threshold: float) -> bool:
    floor = base * (1.0 - threshold)
    regressed = cand < floor
    delta = (cand - base) / base * 100.0 if base > 0 else 0.0
    verdict = "FAIL" if regressed else "ok"
    print(
        f"{name}: baseline {base:.1f} qps -> candidate {cand:.1f} qps "
        f"({delta:+.1f}%, floor {floor:.1f}) [{verdict}]"
    )
    return regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_engine.json")
    parser.add_argument("candidate", help="candidate BENCH_engine.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional regression (default 0.15 = 15%%)",
    )
    args = parser.parse_args()

    try:
        base = load(args.baseline)
    except FileNotFoundError:
        print(
            f"baseline {args.baseline} not found — nothing to diff against "
            "(first run on a fresh branch); record the candidate as the new "
            "baseline and re-run",
            file=sys.stderr,
        )
        return 0
    cand = load(args.candidate)

    base_schema = base.get("schema_version")
    cand_schema = cand.get("schema_version")
    if base_schema != cand_schema:
        print(
            f"schema_version mismatch: baseline={base_schema} candidate={cand_schema}; "
            "re-run the baseline with the current bench before comparing",
            file=sys.stderr,
        )
        return 2
    for key in HOST_FINGERPRINT:
        if base.get(key) != cand.get(key):
            print(
                f"{key} mismatch: baseline={base.get(key)!r} candidate={cand.get(key)!r}; "
                "runs from different hosts or builds are not comparable — re-run the "
                "baseline on the candidate's host and build",
                file=sys.stderr,
            )
            return 2

    for label, doc in (("baseline", base), ("candidate", cand)):
        print(
            f"{label}: commit {doc.get('git_commit', '?')} "
            f"[{doc.get('build_flags', '?')}] "
            f"hw_threads {doc.get('hardware_concurrency', '?')} "
            f"kernel_isa {doc.get('kernel_isa', '?')}"
        )

    failed = False
    try:
        failed |= check(
            "E10 median qps", e10_median_qps(base), e10_median_qps(cand), args.threshold
        )
        failed |= check(
            "E10b traced qps", e10b_traced_qps(base), e10b_traced_qps(cand), args.threshold
        )
        # E11 lands with schema_version 3; older pairs (already schema-matched
        # above) predate the sharded sweep and simply skip the gate.  A side
        # with no rows (experiment present in one run, missing from the
        # other) skips out loud instead of passing silently.
        if isinstance(base_schema, int) and base_schema >= 3:
            base_qps = e11_best_sharded_qps(base)
            cand_qps = e11_best_sharded_qps(cand)
            if base_qps is None or cand_qps is None:
                side = "baseline" if base_qps is None else "candidate"
                print(
                    f"E11 best sharded qps gate skipped: missing rows "
                    f"({side} recorded no sharded_throughput rows)"
                )
            else:
                failed |= check(
                    "E11 best sharded qps", base_qps, cand_qps, args.threshold
                )
        # The E11 shape gates need only the candidate's own rows.
        if isinstance(cand_schema, int) and cand_schema >= 3:
            failed |= sharded_speedup_regressed(cand)
            failed |= one_shard_speedup_regressed(cand)
        # E12 lands with schema_version 4: an absolute bound on the candidate
        # (hedging must cap the faulted tail), skipped on few-core hosts where
        # the duplicate leg cannot overlap the straggler.
        if isinstance(cand_schema, int) and cand_schema >= 4:
            failed |= hedged_tail_regressed(cand)
        # E13 lands with schema_version 5: the router's cross-process
        # scatter-gather throughput, diffed like E11.  Either side may have
        # skipped the experiment (no loopback sockets) — then so does the gate.
        if isinstance(base_schema, int) and base_schema >= 5:
            base_qps = e13_best_router_qps(base)
            cand_qps = e13_best_router_qps(cand)
            if base_qps is None or cand_qps is None:
                side = "baseline" if base_qps is None else "candidate"
                print(
                    f"E13 best router qps gate skipped: missing rows "
                    f"({side} recorded no router_throughput rows — loopback "
                    "sockets unavailable, or the experiment never ran)"
                )
            else:
                failed |= check(
                    "E13 best router qps", base_qps, cand_qps, args.threshold
                )
        # E14 lands with schema_version 6: an absolute bound on the candidate
        # (distributed tracing must stay cheap), skipped out loud when the
        # bench had no sockets to run the fleet.
        if isinstance(cand_schema, int) and cand_schema >= 6:
            failed |= router_tracing_regressed(cand)
        # E15 rows become medians of 5 with schema_version 8: a shape gate on
        # the candidate (the shared full-scan pass must pay at fan-in 16).
        if isinstance(cand_schema, int) and cand_schema >= 8:
            failed |= batch_speedup_regressed(cand)
    except (KeyError, ValueError) as err:
        print(f"malformed bench json: {err}", file=sys.stderr)
        return 2

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
