#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the concurrency-sensitive
# suites: the engine (thread pool, scheduler, caches), the serial-vs-parallel
# executor parity tests, the fault-injection tests that share QueryContext
# across threads, and the observability-layer suites: the concurrency tests
# (sharded metrics registry, tracer ring, span trees built from pool
# workers) plus the obs export surface — the snapshot aggregator's periodic
# sampling thread and the stats server's socket thread, and the sharded
# scatter-gather suites — the gather/merge step and the cross-shard shared
# pruning threshold are the race surface (test_shard_parity drives pool
# workers over shared QueryContext budgets; test_shard_merge, the sharded
# onion/SPROC oracles and the per-shard EXPLAIN spans ride along).  The
# chaos battery (ctest -L chaos) runs under TSan too: hedged duplicate legs
# racing the primary through the winner CAS, leg cancellation flags, and the
# urgent-lane thread pool are exactly the interleavings TSan is for.  The
# batch battery (test_batch_parity) drives batched admission: groups forming
# under batch_mutex_ while dispatchers race to run them, and members answered
# one by one while their callers already read the outcome.  The net battery (ctest -L net, reduced case count) adds the distributed layer:
# shard-server connection threads against stop/reap, and router legs racing
# hedges, cancellation, and the gather join over real sockets — including
# the stitched-trace suites, where every leg thread grafts a remote span
# tree into the one shared Trace while siblings annotate it.  test_obs
# rides along for the clock-offset estimator and rebase clamping.  Any race
# report fails the run.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-tsan"

cmake -B "${BUILD}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMMIR_SANITIZE=thread
cmake --build "${BUILD}" -j"$(nproc)" \
  --target test_engine test_parallel_exec test_fault_injection test_core \
           test_obs test_obs_concurrency test_export test_aggregate \
           test_stats_server test_shard_parity test_shard_merge \
           test_index_onion test_sproc_oracle test_explain test_chaos \
           test_batch_parity test_scan_oracle test_net_wire test_net_parity

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "${BUILD}" --output-on-failure \
  -R 'test_engine|test_parallel_exec|test_fault_injection|test_core|test_obs|test_obs_concurrency|test_export|test_aggregate|test_stats_server|test_shard_parity|test_shard_merge|test_index_onion|test_sproc_oracle|test_explain|test_batch_parity|test_scan_oracle'
ctest --test-dir "${BUILD}" --output-on-failure -L chaos
# TSan serializes heavily; a reduced parity battery still covers every
# (mode, policy, shard-count) interleaving class.
MMIR_NET_CASES=20 ctest --test-dir "${BUILD}" --output-on-failure -L net
