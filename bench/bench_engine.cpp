// E10 — concurrent serving: the QueryEngine under load.
// E11 — sharded scatter-gather: shard-count sweep of the sharded combined
//       executor against the serial monolithic reference.
// E12 — hedged tail latency: p99 of the sharded full scan under injected
//       slow-shard faults, with and without hedged execution.
// E13 — distributed serving: the net::Router scatter-gathering over real
//       shard-server processes (loopback TCP, wire protocol) against the
//       in-process sharded executor on the same layout.
// E14 — distributed tracing overhead: the same router fleet queried traced
//       (trace context on the wire, span trees shipped back and stitched)
//       vs untraced; the tracing tax is gated <= 5% in ci/bench_diff.py.
// E15 — batch-admission throughput: cold full-scan qps at batch fan-in
//       1/4/16/64 with one dispatcher (medians of 5 with min/max), measuring
//       what a group's shared full-scan pass saves; fan-in 16 is gated at
//       >= 1.3x fan-in 1 in ci/bench_diff.py.
//
// Sweeps dispatcher threads x admission queue depth x target result-cache
// hit rate over a fixed stream of combined-executor raster queries, and
// reports throughput, p50/p99 latency (queue wait + execution) and the shed
// rate.  Besides the human table, the sweep is dumped machine-readable to
// BENCH_engine.json for tracking across hosts.
//
// Caveat: thread-scaling numbers only mean something on a multi-core host —
// on a single hardware thread every dispatcher count serialises onto one
// core and throughput stays flat.  The hardware_concurrency value is
// recorded in the JSON so downstream tooling can judge the scaling columns.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "archive/sharded.hpp"
#include "archive/tiled.hpp"
#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "core/raster_model.hpp"
#include "data/scene.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "obs/dump.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

// Provenance stamps injected by bench/CMakeLists.txt; the fallbacks cover
// builds driven outside CMake.
#ifndef MMIR_GIT_COMMIT
#define MMIR_GIT_COMMIT "unknown"
#endif
#ifndef MMIR_BUILD_FLAGS
#define MMIR_BUILD_FLAGS "unknown"
#endif

namespace {

using namespace mmir;
using namespace mmir::bench;

// Bumped whenever the JSON layout changes; ci/bench_diff.py refuses to
// compare mismatched schemas.  v3 adds the E11 sharded_throughput rows; v4
// adds the E12 hedged_tail block; v5 adds the E13 router_throughput rows;
// v6 adds the E14 router_tracing_overhead block (distributed tracing tax);
// v7 adds the E15 batch_throughput rows (batch-admission cold qps); v8
// makes each E15 row the median of 5 runs with their min and max.
constexpr int kBenchSchemaVersion = 8;

struct SweepRow {
  std::size_t dispatchers = 0;
  std::size_t queue_depth = 0;
  double target_hit_rate = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  double cache_hit_rate = 0.0;
};

double percentile_ms(std::vector<std::chrono::nanoseconds>& latencies, double q) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t idx = std::min(
      latencies.size() - 1, static_cast<std::size_t>(q * static_cast<double>(latencies.size())));
  return static_cast<double>(latencies[idx].count()) / 1e6;
}

SweepRow run_config(const TiledArchive& archive, const ProgressiveLinearModel& progressive,
                    std::size_t dispatchers, std::size_t queue_depth, double target_hit_rate,
                    obs::MetricsRegistry* metrics, obs::Tracer* tracer) {
  EngineConfig config;
  config.dispatchers = dispatchers;
  config.queue_capacity = queue_depth;
  config.result_cache_entries = 512;
  config.metrics = metrics;  // nullptr = fully inert handles (the no-op build)
  config.tracer = tracer;
  QueryEngine engine(config);

  RasterJob job;
  job.mode = RasterJob::Mode::kCombined;
  job.archive = &archive;
  job.progressive = &progressive;
  job.k = 10;

  // Repeat traffic hits one hot key; cold queries get fresh archive ids (the
  // work is identical, only cacheability differs).  Warm the hot key first so
  // the measured stream sees the configured hit rate from query one.
  job.archive_id = 1;
  (void)engine.submit(job).get();

  const std::size_t total = 256;
  Rng rng(42);
  std::uint64_t next_cold_id = 1000;
  std::vector<std::future<RasterOutcome>> futures;
  futures.reserve(total);
  std::vector<std::chrono::nanoseconds> latencies;
  std::size_t shed = 0;
  std::size_t cache_hits = 0;
  const std::chrono::nanoseconds wall = timed_ns([&] {
    for (std::size_t i = 0; i < total; ++i) {
      job.archive_id = rng.uniform() < target_hit_rate ? 1 : next_cold_id++;
      futures.push_back(engine.submit(job));
    }
    for (auto& f : futures) {
      const RasterOutcome out = f.get();
      if (out.result.status == ResultStatus::kShed) {
        ++shed;
        continue;
      }
      latencies.push_back(out.latency());
      if (out.cache_hit) ++cache_hits;
    }
  });

  SweepRow row;
  row.dispatchers = dispatchers;
  row.queue_depth = queue_depth;
  row.target_hit_rate = target_hit_rate;
  row.qps = ratio(static_cast<double>(total - shed),
                  static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count()) /
                      1e9);
  row.p50_ms = percentile_ms(latencies, 0.50);
  row.p99_ms = percentile_ms(latencies, 0.99);
  row.shed_rate = ratio(static_cast<double>(shed), static_cast<double>(total));
  row.cache_hit_rate =
      ratio(static_cast<double>(cache_hits), static_cast<double>(total - shed));
  return row;
}

struct OverheadResult {
  double qps_noop = 0.0;
  double qps_traced = 0.0;
  [[nodiscard]] double overhead_pct() const {
    return qps_noop > 0.0 ? 100.0 * (qps_noop - qps_traced) / qps_noop : 0.0;
  }
};

// Acceptance gate: with per-stage spans and sharded counters, the traced
// build must stay within 5% of the fully inert (metrics=tracer=nullptr)
// build.  Rounds alternate and keep each side's best qps so a single
// scheduling hiccup cannot bias the comparison.
OverheadResult run_overhead_check(const TiledArchive& archive,
                                  const ProgressiveLinearModel& progressive) {
  heading("E10b: observability overhead (traced vs no-op build)",
          "per-stage tracing and sharded metrics stay within 5% of no instrumentation");
  obs::MetricsRegistry registry(8);
  obs::Tracer tracer(64);
  OverheadResult result;
  for (int round = 0; round < 3; ++round) {
    result.qps_noop = std::max(
        result.qps_noop,
        run_config(archive, progressive, 2, 256, 0.0, nullptr, nullptr).qps);
    result.qps_traced = std::max(
        result.qps_traced,
        run_config(archive, progressive, 2, 256, 0.0, &registry, &tracer).qps);
  }
  std::printf("%12s %12s | %9s\n", "no-op qps", "traced qps", "overhead");
  std::printf("%12.1f %12.1f | %+8.2f%%  (acceptance: <= 5%%)\n", result.qps_noop,
              result.qps_traced, result.overhead_pct());
  footer();
  return result;
}

struct ShardedRow {
  std::size_t shards = 0;
  std::size_t pool_threads = 0;  // executing threads (workers + caller)
  double qps = 0.0;
  double speedup_vs_serial = 0.0;
};

// E11: shard-count sweep of the sharded full-scan executor (scatter on the
// thread pool, gather under the max-of-bounds merge) against the serial
// monolithic full scan on the same archive/model.  Full scan is the right
// carrier here: the combined executor prunes to ~2% of the pixels, so its
// per-query work is too small to amortize the scatter — the full scan keeps
// every shard busy on real pixel work.  Byte-identical answers are the
// parity suite's job; here we track the throughput of the scatter-gather
// machinery itself, and ci/bench_diff.py gates the best row, the 4-shard
// speedup and the 1-shard speedup (>= 0.8x: one shard's leg scans whole
// rows in the serial order, so only the scatter-gather may cost extra).
// Same caveat as E10: shard speedup only means something on a multi-core
// host; the 1-shard row does not need one.
std::vector<ShardedRow> run_sharded_table(const TiledArchive& archive,
                                          const ProgressiveLinearModel& progressive) {
  heading("E11: sharded scatter-gather throughput (engine/shard_exec)",
          "tile-aligned shards scanned in parallel and merged under the max-of-bounds rule");

  constexpr std::size_t kQueries = 24;
  constexpr std::size_t kK = 10;
  const LinearRasterModel raster(progressive.model());

  double serial_qps = 0.0;
  {
    const std::chrono::nanoseconds wall = timed_ns([&] {
      for (std::size_t i = 0; i < kQueries; ++i) {
        QueryContext ctx;
        CostMeter meter;
        (void)full_scan_top_k(archive, raster, kK, ctx, meter);
      }
    });
    serial_qps = ratio(static_cast<double>(kQueries),
                       static_cast<double>(wall.count()) / 1e9);
  }
  std::printf("serial monolithic full scan: %.1f qps (speedup reference)\n\n", serial_qps);

  // workers = 3 -> 4 executing threads (pool workers + the calling thread);
  // single-hardware-thread hosts serialise the shards and speedup stays ~1.
  const std::size_t pool_workers = 3;
  ThreadPool pool(pool_workers);
  std::printf("%7s %8s | %9s %9s\n", "shards", "threads", "qps", "speedup");
  std::printf("-------------------------------------\n");

  std::vector<ShardedRow> rows;
  for (const std::size_t shards : {1ULL, 2ULL, 4ULL, 8ULL}) {
    const ShardedArchive sharded(archive, shards, ShardPolicy::kRowBands);
    const std::chrono::nanoseconds wall = timed_ns([&] {
      for (std::size_t i = 0; i < kQueries; ++i) {
        QueryContext ctx;
        CostMeter meter;
        (void)sharded_full_scan_top_k(sharded, raster, kK, ctx, meter, pool);
      }
    });
    ShardedRow row;
    row.shards = shards;
    row.pool_threads = pool_workers + 1;
    row.qps = ratio(static_cast<double>(kQueries),
                    static_cast<double>(wall.count()) / 1e9);
    row.speedup_vs_serial = ratio(row.qps, serial_qps);
    rows.push_back(row);
    std::printf("%7zu %8zu | %9.1f %8.2fx\n", row.shards, row.pool_threads, row.qps,
                row.speedup_vs_serial);
  }

  std::printf(
      "\nshape check: one shard runs the serial scan plus the scatter-gather\n"
      "overhead, so it stays near 1.0x; speedup grows with shard count until\n"
      "shards exceed either pool threads or tile rows, then the per-shard\n"
      "merge overhead flattens it.  On a single hardware thread every shard\n"
      "count serialises and speedup stays near 1.0x.\n");
  footer();
  return rows;
}

// Deterministic slow-shard fault source for E12: a seeded per-(shard,
// attempt) hash stalls `rate` of all attempts for `delay` — the same
// schedule ChaosPolicy would produce, kept local so the bench links only
// mmir_engine.
class SlowShardChaos final : public ShardChaos {
 public:
  SlowShardChaos(std::uint64_t seed, double rate, std::chrono::nanoseconds delay) noexcept
      : seed_(seed), rate_(rate), delay_(delay) {}
  [[nodiscard]] ShardFaultAction on_attempt(std::size_t shard, int attempt) noexcept override {
    const std::uint64_t key = mix64(
        seed_ ^ mix64(static_cast<std::uint64_t>(shard) * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(attempt) + 1));
    ShardFaultAction action;
    if (static_cast<double>(key >> 11) * 0x1.0p-53 < rate_) {
      action.kind = ShardFault::kDelay;
      action.delay = delay_;
    }
    return action;
  }

 private:
  std::uint64_t seed_;
  double rate_;
  std::chrono::nanoseconds delay_;
};

struct HedgedTailResult {
  std::size_t shards = 8;
  std::size_t pool_threads = 4;
  double fault_rate = 0.05;
  double nofault_p99_ms = 0.0;
  double faulted_p99_ms = 0.0;  ///< faults injected, no hedging
  double hedged_p99_ms = 0.0;   ///< faults injected, hedged execution
  std::uint64_t hedges_launched = 0;
  std::uint64_t hedges_won = 0;
  [[nodiscard]] double hedged_over_nofault() const {
    return ratio(hedged_p99_ms, nofault_p99_ms);
  }
};

// E12: p99 latency of the sharded full scan when 5% of shard attempts stall
// for ~10x a clean query, with and without hedged execution.  Each query
// draws a fresh chaos seed, so ~1 - 0.95^8 = 34% of queries contain at least
// one slow shard and the p99 is dominated by the stall unless hedging
// rescues it.  Acceptance (gated by ci/bench_diff.py on multi-core hosts):
// hedged p99 <= 1.5x the no-fault p99.
HedgedTailResult run_hedged_tail(const TiledArchive& archive,
                                 const ProgressiveLinearModel& progressive) {
  heading("E12: hedged tail latency under slow-shard faults (engine/fault_domain)",
          "a speculative duplicate of the straggler shard caps the p99 near the clean tail");

  constexpr std::size_t kQueries = 120;
  constexpr std::size_t kK = 10;
  HedgedTailResult result;
  const auto kStall = std::chrono::milliseconds(20);
  const LinearRasterModel raster(progressive.model());
  const ShardedArchive sharded(archive, result.shards, ShardPolicy::kRowBands);
  ThreadPool pool(result.pool_threads - 1);  // workers + the calling thread

  ShardFaultStats hedged_stats;
  // mode 0: no faults; mode 1: faults, no hedge; mode 2: faults + hedging.
  const auto run_mode = [&](int mode, ShardFaultStats* stats) {
    std::vector<std::chrono::nanoseconds> latencies;
    latencies.reserve(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      SlowShardChaos chaos(mix64(q * 2654435761ULL + 7), result.fault_rate, kStall);
      ShardExecOptions options;
      if (mode >= 1) options.chaos = &chaos;
      if (mode == 2) {
        options.policy.hedge = true;
        options.policy.hedge_delay = std::chrono::microseconds(200);
      }
      const ShardExecOptions* opt = mode >= 1 ? &options : nullptr;
      QueryContext ctx;
      CostMeter meter;
      ShardedTopK out;
      latencies.push_back(timed_ns(
          [&] { out = sharded_full_scan_top_k(sharded, raster, kK, ctx, meter, pool, opt); }));
      if (stats != nullptr) {
        stats->hedges_launched += out.fault_stats.hedges_launched;
        stats->hedges_won += out.fault_stats.hedges_won;
      }
    }
    return percentile_ms(latencies, 0.99);
  };

  result.nofault_p99_ms = run_mode(0, nullptr);
  result.faulted_p99_ms = run_mode(1, nullptr);
  result.hedged_p99_ms = run_mode(2, &hedged_stats);
  result.hedges_launched = hedged_stats.hedges_launched;
  result.hedges_won = hedged_stats.hedges_won;

  std::printf("shards=%zu threads=%zu fault_rate=%.0f%% stall=%lldms queries=%zu\n\n",
              result.shards, result.pool_threads, 100.0 * result.fault_rate,
              static_cast<long long>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(kStall).count()),
              kQueries);
  std::printf("%24s | %9s\n", "configuration", "p99 ms");
  std::printf("-----------------------------------------\n");
  std::printf("%24s | %9.3f\n", "no faults", result.nofault_p99_ms);
  std::printf("%24s | %9.3f\n", "5% slow shards", result.faulted_p99_ms);
  std::printf("%24s | %9.3f  (%llu hedges, %llu won)\n", "5% slow shards + hedging",
              result.hedged_p99_ms,
              static_cast<unsigned long long>(result.hedges_launched),
              static_cast<unsigned long long>(result.hedges_won));
  std::printf("\nhedged p99 / no-fault p99: %.2fx  (acceptance: <= 1.5x on multi-core hosts)\n",
              result.hedged_over_nofault());
  std::printf(
      "shape check: without hedging the p99 absorbs the full injected stall;\n"
      "with hedging the duplicate leg finishes while the primary sleeps, so\n"
      "the p99 stays near the clean tail plus the hedge delay.  The clean\n"
      "no-fault p99 is scheduling-noise sensitive on oversubscribed hosts, so\n"
      "the 1.5x gate only applies on multi-core hardware.\n");
  footer();
  return result;
}

struct RouterRow {
  std::size_t shards = 0;
  double qps = 0.0;
  double p99_ms = 0.0;
  double inproc_qps = 0.0;
  double router_over_inproc = 0.0;
};

// E13: the same full-scan carrier as E11, but scattered by a net::Router over
// real shard-server sockets (loopback TCP, framed wire protocol, one embedded
// engine per server) instead of the in-process thread pool.  The in-process
// sharded executor on the identical layout is re-timed alongside as the
// reference, so the ratio isolates the wire tax: framing, checksums, socket
// hops, and one scheduler admission per leg.  An empty row set means the host
// has no loopback sockets; ci/bench_diff.py skips its gate out loud then.
std::vector<RouterRow> run_router_table(const TiledArchive& archive,
                                        const ProgressiveLinearModel& progressive,
                                        const std::vector<Interval>& ranges) {
  heading("E13: distributed scatter-gather throughput (net/router over loopback TCP)",
          "router + shard-server processes vs the in-process sharded executor");

  if (!net::sockets_available()) {
    std::printf("skipped: loopback sockets unavailable on this host\n");
    footer();
    return {};
  }

  constexpr std::size_t kQueries = 24;
  constexpr std::size_t kK = 10;
  const LinearRasterModel raster(progressive.model());
  ThreadPool pool(3);  // the E11 reference configuration: 4 executing threads

  std::printf("%7s | %9s %9s %9s | %12s\n", "shards", "qps", "p99 ms", "inproc", "router/inproc");
  std::printf("--------------------------------------------------------\n");

  std::vector<RouterRow> rows;
  for (const std::size_t shards : {2ULL, 4ULL, 8ULL}) {
    RouterRow row;
    row.shards = shards;

    const ShardedArchive sharded(archive, shards, ShardPolicy::kRowBands);
    const std::chrono::nanoseconds inproc_wall = timed_ns([&] {
      for (std::size_t i = 0; i < kQueries; ++i) {
        QueryContext ctx;
        CostMeter meter;
        (void)sharded_full_scan_top_k(sharded, raster, kK, ctx, meter, pool);
      }
    });
    row.inproc_qps = ratio(static_cast<double>(kQueries),
                           static_cast<double>(inproc_wall.count()) / 1e9);

    // One server per shard, each with its own single-dispatcher engine — the
    // deployment shape ci/net.sh launches as separate processes.
    std::vector<std::unique_ptr<net::ShardServer>> servers;
    net::RouterConfig router_config;
    bool fleet_ok = true;
    for (std::size_t s = 0; s < shards; ++s) {
      net::ShardServerConfig server_config;
      server_config.engine.dispatchers = 1;
      server_config.engine.intra_query_threads = 0;
      server_config.engine.queue_capacity = 256;
      server_config.engine.metrics = nullptr;
      auto server = std::make_unique<net::ShardServer>(server_config);
      server->register_archive(1, &archive, ranges);
      if (!server->start()) {
        fleet_ok = false;
        break;
      }
      router_config.ports.push_back(static_cast<std::uint16_t>(server->port()));
      servers.push_back(std::move(server));
    }
    if (!fleet_ok) {
      std::printf("skipped: could not start a %zu-server fleet\n", shards);
      continue;
    }
    net::Router router(router_config);

    net::RouterQuery query;
    query.archive_id = 1;
    query.shard_count = static_cast<std::uint32_t>(shards);
    query.policy = ShardPolicy::kRowBands;
    query.mode = ShardScanMode::kFullScan;
    query.model = &progressive.model();
    query.k = kK;

    std::vector<std::chrono::nanoseconds> latencies;
    latencies.reserve(kQueries);
    const std::chrono::nanoseconds wall = timed_ns([&] {
      for (std::size_t i = 0; i < kQueries; ++i) {
        QueryContext ctx;
        CostMeter meter;
        latencies.push_back(timed_ns([&] { (void)router.execute(query, ctx, meter); }));
      }
    });
    row.qps = ratio(static_cast<double>(kQueries), static_cast<double>(wall.count()) / 1e9);
    row.p99_ms = percentile_ms(latencies, 0.99);
    row.router_over_inproc = ratio(row.qps, row.inproc_qps);
    rows.push_back(row);
    std::printf("%7zu | %9.1f %9.3f %9.1f | %11.2fx\n", row.shards, row.qps, row.p99_ms,
                row.inproc_qps, row.router_over_inproc);
  }

  std::printf(
      "\nshape check: the router pays a per-leg wire tax (framing + checksum +\n"
      "socket hop + one admission per shard server), so router/inproc sits\n"
      "below 1.0x and sinks as shard count multiplies the legs per query; the\n"
      "answers themselves stay byte-identical (tests/test_net_parity.cpp).\n");
  footer();
  return rows;
}

struct RouterOverheadResult {
  bool ran = false;  ///< false when sockets are unavailable (gate skips)
  double qps_untraced = 0.0;
  double qps_traced = 0.0;
  [[nodiscard]] double overhead_pct() const {
    return qps_untraced > 0.0 ? 100.0 * (qps_untraced - qps_traced) / qps_untraced : 0.0;
  }
};

// E14: the E13 fleet shape (2 shard servers, loopback TCP), queried with and
// without trace propagation.  Traced queries carry the trace/parent-span ids
// on the wire, run the remote scan under the server's tracer, ship the span
// tree + server timestamps back, and the router rebases + stitches them —
// the whole distributed-tracing path.  Untraced queries are wire-identical
// to a v1 peer's.  Rounds alternate and keep each side's best qps, the E10b
// idiom, so one scheduling hiccup cannot bias the ratio.
RouterOverheadResult run_router_overhead(const TiledArchive& archive,
                                         const ProgressiveLinearModel& progressive,
                                         const std::vector<Interval>& ranges) {
  heading("E14: distributed tracing overhead (traced vs untraced router)",
          "trace propagation + span shipping + stitching stays within 5% of untraced");

  RouterOverheadResult result;
  if (!net::sockets_available()) {
    std::printf("skipped: loopback sockets unavailable on this host\n");
    footer();
    return result;
  }

  constexpr std::size_t kShards = 2;
  constexpr std::size_t kQueries = 24;
  constexpr std::size_t kK = 10;

  std::vector<std::unique_ptr<net::ShardServer>> servers;
  net::RouterConfig router_config;
  for (std::size_t s = 0; s < kShards; ++s) {
    net::ShardServerConfig server_config;
    server_config.engine.dispatchers = 1;
    server_config.engine.intra_query_threads = 0;
    server_config.engine.queue_capacity = 256;
    server_config.engine.metrics = nullptr;
    auto server = std::make_unique<net::ShardServer>(server_config);
    server->register_archive(1, &archive, ranges);
    if (!server->start()) {
      std::printf("skipped: could not start a %zu-server fleet\n", kShards);
      footer();
      return result;
    }
    router_config.ports.push_back(static_cast<std::uint16_t>(server->port()));
    servers.push_back(std::move(server));
  }
  net::Router router(router_config);

  net::RouterQuery query;
  query.archive_id = 1;
  query.shard_count = kShards;
  query.policy = ShardPolicy::kRowBands;
  query.mode = ShardScanMode::kFullScan;
  query.model = &progressive.model();
  query.k = kK;

  for (int round = 0; round < 3; ++round) {
    const std::chrono::nanoseconds untraced_wall = timed_ns([&] {
      for (std::size_t i = 0; i < kQueries; ++i) {
        QueryContext ctx;
        CostMeter meter;
        (void)router.execute(query, ctx, meter);
      }
    });
    result.qps_untraced =
        std::max(result.qps_untraced, ratio(static_cast<double>(kQueries),
                                            static_cast<double>(untraced_wall.count()) / 1e9));

    const std::chrono::nanoseconds traced_wall = timed_ns([&] {
      for (std::size_t i = 0; i < kQueries; ++i) {
        obs::Trace trace("router_query", i + 1);
        obs::Span root(&trace, "query");
        QueryContext ctx;
        ctx.with_span(&root);
        CostMeter meter;
        (void)router.execute(query, ctx, meter);
      }
    });
    result.qps_traced =
        std::max(result.qps_traced, ratio(static_cast<double>(kQueries),
                                          static_cast<double>(traced_wall.count()) / 1e9));
  }
  result.ran = true;

  std::printf("%14s %12s | %9s\n", "untraced qps", "traced qps", "overhead");
  std::printf("%14.1f %12.1f | %+8.2f%%  (acceptance: <= 5%%)\n", result.qps_untraced,
              result.qps_traced, result.overhead_pct());
  footer();
  return result;
}

struct BatchRow {
  std::size_t fan_in = 0;
  double cold_qps = 0.0;  ///< median of kBatchRepeats runs
  double cold_qps_min = 0.0;
  double cold_qps_max = 0.0;
};

constexpr std::size_t kBatchRepeats = 5;

// E15: batch-admission throughput.  A group of F cold full scans on one
// archive takes one queue slot and one dispatch, and its consecutive linear
// full scans share one pass over the band planes (each block read once for
// every member), so the row measures shared work.  The sweep pins
// dispatchers at 1 so no thread-level parallelism enters; queries are
// all-cold (distinct archive ids, so the result cache never hits) and the
// engine starts paused so every group closes at exactly the configured
// fan-in before dispatch begins.  Each row is the median of kBatchRepeats
// runs, with their min and max; ci/bench_diff.py gates fan-in 16 against
// fan-in 1.
std::vector<BatchRow> run_batch_table(const TiledArchive& archive, const LinearModel& model) {
  heading("E15: batch-admission throughput (cold full scans)",
          "a group's consecutive linear full scans share one pass over the planes");

  const LinearRasterModel raster(model);
  const std::size_t total = 128;  // multiple of every swept fan-in
  std::printf("%7s | %12s %12s %12s %9s\n", "fan-in", "cold qps", "min", "max", "speedup");
  std::vector<BatchRow> rows;
  double base_qps = 0.0;
  for (const std::size_t fan_in : {1ULL, 4ULL, 16ULL, 64ULL}) {
    std::vector<double> qps;
    for (std::size_t repeat = 0; repeat < kBatchRepeats; ++repeat) {
      EngineConfig config;
      config.dispatchers = 1;
      config.queue_capacity = 512;  // room for every group before dispatch
      config.batch_max_fanin = fan_in;
      config.batch_window = std::chrono::milliseconds(5);
      config.start_paused = true;
      config.metrics = nullptr;
      QueryEngine engine(config);

      RasterJob job;
      job.mode = RasterJob::Mode::kFullScan;
      job.archive = &archive;
      job.model = &raster;
      job.k = 10;

      std::vector<std::future<RasterOutcome>> futures;
      futures.reserve(total);
      std::uint64_t next_cold_id = 1;
      for (std::size_t i = 0; i < total; ++i) {
        job.archive_id = next_cold_id++;
        futures.push_back(engine.submit(job));
      }
      const std::chrono::nanoseconds wall = timed_ns([&] {
        engine.resume();
        for (auto& f : futures) (void)f.get();
      });
      qps.push_back(ratio(static_cast<double>(total), static_cast<double>(wall.count()) / 1e9));
    }
    std::sort(qps.begin(), qps.end());
    BatchRow row;
    row.fan_in = fan_in;
    row.cold_qps = qps[qps.size() / 2];
    row.cold_qps_min = qps.front();
    row.cold_qps_max = qps.back();
    if (fan_in == 1) base_qps = row.cold_qps;
    std::printf("%7zu | %12.1f %12.1f %12.1f %8.2fx\n", row.fan_in, row.cold_qps,
                row.cold_qps_min, row.cold_qps_max,
                base_qps > 0.0 ? row.cold_qps / base_qps : 0.0);
    rows.push_back(row);
  }
  std::printf(
      "\nshape check: a group's members share each read of the planes, so\n"
      "fan-in 16 should reach at least 1.3x the qps of fan-in 1.\n");
  footer();
  return rows;
}

void write_json(const std::vector<SweepRow>& rows, const std::vector<ShardedRow>& sharded_rows,
                const std::vector<RouterRow>& router_rows,
                const std::vector<BatchRow>& batch_rows, const OverheadResult& overhead,
                const RouterOverheadResult& router_overhead, const HedgedTailResult& hedged,
                const std::string& metrics_json) {
  std::FILE* f = std::fopen("BENCH_engine.json", "w");
  if (f == nullptr) {
    std::printf("! could not open BENCH_engine.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"experiment\": \"engine_concurrent_serving\",\n");
  std::fprintf(f, "  \"schema_version\": %d,\n", kBenchSchemaVersion);
  std::fprintf(f, "  \"git_commit\": \"%s\",\n", MMIR_GIT_COMMIT);
  std::fprintf(f, "  \"build_flags\": \"%s\",\n", MMIR_BUILD_FLAGS);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"kernel_isa\": \"%s\",\n", std::string(exec::kernel_isa()).c_str());
  std::fprintf(f, "  \"queries_per_config\": 256,\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(f,
                 "    {\"dispatchers\": %zu, \"queue_depth\": %zu, \"target_hit_rate\": %.2f, "
                 "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \"shed_rate\": %.4f, "
                 "\"cache_hit_rate\": %.4f}%s\n",
                 r.dispatchers, r.queue_depth, r.target_hit_rate, r.qps, r.p50_ms, r.p99_ms,
                 r.shed_rate, r.cache_hit_rate, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"sharded_throughput\": [\n");
  for (std::size_t i = 0; i < sharded_rows.size(); ++i) {
    const ShardedRow& r = sharded_rows[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"pool_threads\": %zu, \"qps\": %.1f, "
                 "\"speedup_vs_serial\": %.3f}%s\n",
                 r.shards, r.pool_threads, r.qps, r.speedup_vs_serial,
                 i + 1 < sharded_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"router_throughput\": [\n");
  for (std::size_t i = 0; i < router_rows.size(); ++i) {
    const RouterRow& r = router_rows[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"qps\": %.1f, \"p99_ms\": %.3f, "
                 "\"inproc_qps\": %.1f, \"router_over_inproc\": %.3f}%s\n",
                 r.shards, r.qps, r.p99_ms, r.inproc_qps, r.router_over_inproc,
                 i + 1 < router_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"batch_throughput\": [\n");
  for (std::size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchRow& r = batch_rows[i];
    std::fprintf(f,
                 "    {\"fan_in\": %zu, \"cold_qps\": %.1f, \"cold_qps_min\": %.1f, "
                 "\"cold_qps_max\": %.1f, \"repeats\": %zu}%s\n",
                 r.fan_in, r.cold_qps, r.cold_qps_min, r.cold_qps_max, kBatchRepeats,
                 i + 1 < batch_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"hedged_tail\": {\"shards\": %zu, \"pool_threads\": %zu, "
               "\"fault_rate\": %.2f, \"nofault_p99_ms\": %.3f, \"faulted_p99_ms\": %.3f, "
               "\"hedged_p99_ms\": %.3f, \"hedged_over_nofault\": %.3f, "
               "\"hedges_launched\": %llu, \"hedges_won\": %llu},\n",
               hedged.shards, hedged.pool_threads, hedged.fault_rate, hedged.nofault_p99_ms,
               hedged.faulted_p99_ms, hedged.hedged_p99_ms, hedged.hedged_over_nofault(),
               static_cast<unsigned long long>(hedged.hedges_launched),
               static_cast<unsigned long long>(hedged.hedges_won));
  std::fprintf(f,
               "  \"tracing_overhead\": {\"qps_noop\": %.1f, \"qps_traced\": %.1f, "
               "\"overhead_pct\": %.2f},\n",
               overhead.qps_noop, overhead.qps_traced, overhead.overhead_pct());
  std::fprintf(f,
               "  \"router_tracing_overhead\": {\"ran\": %s, \"qps_untraced\": %.1f, "
               "\"qps_traced\": %.1f, \"overhead_pct\": %.2f},\n",
               router_overhead.ran ? "true" : "false", router_overhead.qps_untraced,
               router_overhead.qps_traced, router_overhead.overhead_pct());
  std::fprintf(f, "  \"metrics\": %s\n}\n", metrics_json.c_str());
  std::fclose(f);
  std::printf(
      "\nwrote BENCH_engine.json (%zu sweep rows + %zu sharded rows + %zu router rows "
      "+ %zu batch rows + hedged tail + tracing + router-tracing overhead + metrics dump)\n",
      rows.size(), sharded_rows.size(), router_rows.size(), batch_rows.size());
}

void run_table() {
  heading("E10: concurrent query serving (engine/scheduler)",
          "a model-based archive service sustains many concurrent bounded queries");

  SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = 9;
  const Scene scene = generate_scene(cfg);
  const std::vector<const Grid*> bands = {&scene.band("b4"), &scene.band("b5"),
                                          &scene.band("b7"), &scene.dem};
  std::vector<Interval> ranges;
  for (const Grid* band : bands) ranges.push_back(band->stats().range());
  const LinearModel model = hps_risk_model();
  const ProgressiveLinearModel progressive(model, ranges);
  const TiledArchive archive(bands, 16);

  std::printf("host hardware threads: %u (thread-scaling columns are only meaningful > 1)\n",
              std::thread::hardware_concurrency());
  std::printf("full-scan kernel ISA: %s\n\n", std::string(exec::kernel_isa()).c_str());
  std::printf("%7s %7s %9s | %9s %9s %9s %9s %9s\n", "threads", "queue", "hit-tgt", "qps",
              "p50 ms", "p99 ms", "shed", "hit-meas");
  std::printf(
      "---------------------------------------------------------------------------\n");

  // The sweep runs fully instrumented: one registry accumulates engine
  // counters/histograms across every config and is dumped into the JSON.
  obs::MetricsRegistry registry(8);
  obs::Tracer tracer(16);
  std::vector<SweepRow> rows;
  for (const std::size_t dispatchers : {1ULL, 2ULL, 4ULL, 8ULL}) {
    for (const std::size_t queue_depth : {8ULL, 256ULL}) {
      for (const double hit_rate : {0.0, 0.5, 0.9}) {
        const SweepRow row = run_config(archive, progressive, dispatchers, queue_depth, hit_rate,
                                        &registry, &tracer);
        rows.push_back(row);
        std::printf("%7zu %7zu %9.2f | %9.1f %9.3f %9.3f %8.1f%% %8.1f%%\n", row.dispatchers,
                    row.queue_depth, row.target_hit_rate, row.qps, row.p50_ms, row.p99_ms,
                    100.0 * row.shed_rate, 100.0 * row.cache_hit_rate);
      }
    }
  }

  std::printf(
      "\nshape check: deeper queues trade shed rate for queue-wait latency; higher\n"
      "cache hit rates raise qps and drop p50 toward the cache lookup cost; more\n"
      "dispatcher threads raise qps until hardware threads are exhausted.\n");

  // Show the deepest retained trace (cache hits retain only the query root,
  // so prefer one that ran the executor stages).
  std::shared_ptr<const obs::Trace> sample;
  for (const auto& trace : tracer.recent()) {
    if (sample == nullptr || trace->span_count() > sample->span_count()) sample = trace;
  }
  if (sample != nullptr) {
    std::printf("\nsample traced query (obs::DumpTrace):\n%s", sample->to_text().c_str());
    std::printf("\nEXPLAIN ANALYZE of the same query:\n%s",
                obs::ExplainReport::from_trace(*sample).to_text().c_str());
  }

  const std::vector<ShardedRow> sharded_rows = run_sharded_table(archive, progressive);
  const HedgedTailResult hedged = run_hedged_tail(archive, progressive);
  const std::vector<RouterRow> router_rows = run_router_table(archive, progressive, ranges);
  const std::vector<BatchRow> batch_rows = run_batch_table(archive, model);
  const OverheadResult overhead = run_overhead_check(archive, progressive);
  const RouterOverheadResult router_overhead =
      run_router_overhead(archive, progressive, ranges);
  write_json(rows, sharded_rows, router_rows, batch_rows, overhead, router_overhead, hedged,
             obs::DumpMetrics(registry, obs::DumpFormat::kJson));
  footer();
}

}  // namespace

int main() {
  run_table();
  return 0;
}
