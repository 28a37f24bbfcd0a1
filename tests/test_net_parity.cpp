// Cross-process differential battery (ISSUE tentpole oracle): a Router
// scatter-gathering over shard-server processes must return the
// *byte-identical* top-K of the serial monolithic executor on the seeded
// shard-parity cases — and stay sound (certified prefix of the exact
// answer) under budgets and under ChaosPolicy-driven wire-layer leg kills,
// delays, and frame corruptions.
//
// Two modes, selected by MMIR_NET_SHARD_PORTS:
//   * unset (default): in-process ShardServers are spun up on ephemeral
//     loopback ports — same wire path, single process, so the suite runs
//     under plain ctest;
//   * "p0,p1,...": the servers are external processes (launched by
//     ci/net.sh via tools/mmir_shard_server with the identical archive
//     pool), making the oracle genuinely cross-process.
// MMIR_NET_CASES caps the case count (TSan runs use a smaller battery).
// A second battery runs the exact-tie archives of testing/scenario_gen.hpp
// (registered after the scene pool) on the kTileHash layout, where only the
// canonical pixel-rank tie-break of the router's merge keeps the answer
// byte-identical.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "archive/sharded.hpp"
#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "net/router.hpp"
#include "net/shard_server.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "testing/fault_injector.hpp"
#include "testing/scenario_gen.hpp"
#include "util/rng.hpp"

namespace mmir::net {
namespace {

// ----------------------------------------------------------------- case pool
// MUST mirror tests/test_shard_parity.cpp (and tools/mmir_shard_server.cpp):
// the whole point is differential parity against the same seeded cases.

struct PooledArchive {
  Scene scene;
  std::vector<const Grid*> bands;
  std::vector<Interval> ranges;
  std::unique_ptr<TiledArchive> archive;

  PooledArchive(std::size_t size, std::size_t tile, std::uint64_t seed)
      : scene(generate_scene([&] {
          SceneConfig cfg;
          cfg.width = size;
          cfg.height = size + size / 3;
          cfg.seed = seed;
          return cfg;
        }())) {
    bands = {&scene.band("b4"), &scene.band("b5"), &scene.band("b7"), &scene.dem};
    for (const Grid* band : bands) ranges.push_back(band->stats().range());
    archive = std::make_unique<TiledArchive>(bands, tile);
  }
};

const std::vector<std::unique_ptr<PooledArchive>>& archive_pool() {
  static const auto pool = [] {
    std::vector<std::unique_ptr<PooledArchive>> p;
    p.push_back(std::make_unique<PooledArchive>(24, 8, 201));
    p.push_back(std::make_unique<PooledArchive>(32, 16, 202));
    p.push_back(std::make_unique<PooledArchive>(40, 8, 203));
    p.push_back(std::make_unique<PooledArchive>(48, 16, 204));
    p.push_back(std::make_unique<PooledArchive>(36, 32, 205));
    p.push_back(std::make_unique<PooledArchive>(28, 16, 206));
    return p;
  }();
  return pool;
}

struct Case {
  std::uint64_t seed = 0;
  const TiledArchive* archive = nullptr;
  const std::vector<Interval>* ranges = nullptr;
  std::size_t archive_index = 0;
  ShardScanMode mode = ShardScanMode::kFullScan;
  ShardPolicy policy = ShardPolicy::kRowBands;
  std::size_t k = 1;
  LinearModel model{{0.0}, 0.0, {"w"}};
  bool budgeted = false;
  std::uint64_t budget = 0;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " archive=" << archive_index << " mode=" << static_cast<int>(mode)
       << " policy=" << shard_policy_name(policy) << " k=" << k << " budgeted=" << budgeted
       << " budget=" << budget;
    return os.str();
  }
};

Case make_case(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Case c;
  c.seed = seed;
  c.archive_index = rng.uniform_int(archive_pool().size());
  const PooledArchive& pooled = *archive_pool()[c.archive_index];
  c.archive = pooled.archive.get();
  c.ranges = &pooled.ranges;
  c.mode = static_cast<ShardScanMode>(rng.uniform_int(4));
  c.policy = rng.bernoulli(0.5) ? ShardPolicy::kRowBands : ShardPolicy::kTileHash;
  c.k = 1 + rng.uniform_int(32);
  std::vector<double> weights(4);
  for (double& w : weights) {
    const double magnitude = rng.uniform(0.25, 2.0);
    w = rng.bernoulli(0.5) ? magnitude : -magnitude;
  }
  c.model = LinearModel(std::move(weights), rng.uniform(-5.0, 5.0), {"b4", "b5", "b7", "dem"});
  c.budgeted = rng.bernoulli(0.33);
  if (c.budgeted) {
    const std::size_t pixels = c.archive->pixel_count();
    c.budget = 16 + rng.uniform_int(pixels * 4ULL);
  }
  return c;
}

/// The exact-tie archives, registered after the scene pool (ids 7..).
struct TieArchive {
  GeneratedArchive gen;
  std::vector<Interval> ranges;
};

const std::vector<TieArchive>& tie_pool() {
  static const auto pool = [] {
    std::vector<TieArchive> p;
    for (const ScenarioConfig& cfg : tie_parity_scenarios()) {
      TieArchive a{generate_scenario(cfg), {}};
      const auto r = a.gen.tiled().band_ranges();
      a.ranges.assign(r.begin(), r.end());
      p.push_back(std::move(a));
    }
    return p;
  }();
  return pool;
}

/// An unbudgeted kTileHash case on an exact-tie archive: integer weights and
/// a quarter-integer bias are exactly representable, so equal palette picks
/// score exactly equal.
Case make_tie_case(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  Case c;
  c.seed = seed;
  const std::size_t index = rng.uniform_int(tie_pool().size());
  c.archive_index = archive_pool().size() + index;
  c.archive = tie_pool()[index].gen.archive.get();
  c.ranges = &tie_pool()[index].ranges;
  c.mode = static_cast<ShardScanMode>(rng.uniform_int(4));
  c.policy = ShardPolicy::kTileHash;
  c.k = 1 + rng.uniform_int(32);
  std::vector<double> weights(4);
  for (double& w : weights) w = static_cast<double>(rng.uniform_int(5)) - 2.0;
  c.model = LinearModel(std::move(weights), 0.25 * (static_cast<double>(rng.uniform_int(17)) - 8.0),
                        {"b0", "b1", "b2", "b3"});
  return c;
}

std::vector<RasterHit> run_serial(const Case& c, CostMeter& meter) {
  const TiledArchive& archive = *c.archive;
  const LinearRasterModel raster(c.model);
  const ProgressiveLinearModel progressive(c.model, *c.ranges);
  switch (c.mode) {
    case ShardScanMode::kFullScan: return full_scan_top_k(archive, raster, c.k, meter);
    case ShardScanMode::kProgressiveModel:
      return progressive_model_top_k(archive, progressive, c.k, meter);
    case ShardScanMode::kTileScreened: return tile_screened_top_k(archive, raster, c.k, meter);
    case ShardScanMode::kCombined:
      return progressive_combined_top_k(archive, progressive, c.k, meter);
  }
  return {};
}

bool identical_hits(const std::vector<RasterHit>& expected, const RasterTopK& got,
                    std::string& why) {
  if (expected.size() != got.hits.size()) {
    why = "size " + std::to_string(got.hits.size()) + " != " + std::to_string(expected.size());
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].x != got.hits[i].x || expected[i].y != got.hits[i].y) {
      why = "location mismatch at rank " + std::to_string(i);
      return false;
    }
    if (expected[i].score != got.hits[i].score) {
      why = "score mismatch at rank " + std::to_string(i);
      return false;
    }
  }
  if (got.certified_prefix() != got.hits.size()) {
    why = "complete run certified only " + std::to_string(got.certified_prefix()) + " of " +
          std::to_string(got.hits.size()) + " hits";
    return false;
  }
  return true;
}

bool sound_prefix(const RasterTopK& result, const std::vector<RasterHit>& exact,
                  std::string& why) {
  const std::size_t certified = result.certified_prefix();
  if (certified > exact.size()) {
    why = "certified prefix longer than the exact answer";
    return false;
  }
  for (std::size_t i = 0; i < certified; ++i) {
    if (result.hits[i].score != exact[i].score) {
      why = "certified rank " + std::to_string(i) + " diverges from the exact answer";
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------------- server fleet

std::size_t case_count() {
  if (const char* env = std::getenv("MMIR_NET_CASES")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 220;
}

/// An in-process shard server with every parity archive registered under
/// id = pool index + 1; not started.
std::unique_ptr<ShardServer> make_server(
    std::chrono::milliseconds read_timeout = ShardServerConfig{}.read_timeout) {
  ShardServerConfig config;
  config.engine.dispatchers = 1;
  config.engine.intra_query_threads = 0;
  config.engine.queue_capacity = 256;
  config.engine.metrics = nullptr;
  config.read_timeout = read_timeout;
  auto server = std::make_unique<ShardServer>(config);
  for (std::size_t a = 0; a < archive_pool().size(); ++a) {
    const PooledArchive& pooled = *archive_pool()[a];
    server->register_archive(a + 1, pooled.archive.get(), pooled.ranges);
  }
  for (std::size_t a = 0; a < tie_pool().size(); ++a) {
    server->register_archive(archive_pool().size() + a + 1, tie_pool()[a].gen.archive.get(),
                             tie_pool()[a].ranges);
  }
  return server;
}

/// The shard-server fleet behind the suite: external processes when
/// MMIR_NET_SHARD_PORTS is set, else self-hosted in-process servers with
/// every parity archive registered under id = pool index + 1.
class Fleet {
 public:
  static constexpr std::size_t kMaxShards = 8;

  Fleet() {
    if (const char* env = std::getenv("MMIR_NET_SHARD_PORTS")) {
      std::istringstream is(env);
      std::string tok;
      while (std::getline(is, tok, ',')) {
        if (!tok.empty()) ports_.push_back(static_cast<std::uint16_t>(std::stoul(tok)));
      }
      external_ = true;
      return;
    }
    for (std::size_t i = 0; i < kMaxShards; ++i) {
      auto server = make_server();
      if (!server->start()) {
        ports_.clear();
        return;
      }
      ports_.push_back(static_cast<std::uint16_t>(server->port()));
      servers_.push_back(std::move(server));
    }
  }

  [[nodiscard]] bool ok() const { return ports_.size() >= kMaxShards; }
  [[nodiscard]] bool external() const { return external_; }
  [[nodiscard]] const std::vector<std::uint16_t>& ports() const { return ports_; }
  /// The in-process server behind ports()[i]; null for an external fleet.
  [[nodiscard]] const ShardServer* server(std::size_t i) const {
    return i < servers_.size() ? servers_[i].get() : nullptr;
  }

 private:
  std::vector<std::unique_ptr<ShardServer>> servers_;
  std::vector<std::uint16_t> ports_;
  bool external_ = false;
};

Fleet& fleet() {
  static Fleet f;
  return f;
}

RouterConfig base_config(std::size_t shards) {
  RouterConfig config;
  config.ports.assign(fleet().ports().begin(), fleet().ports().begin() + shards);
  config.metrics = nullptr;
  return config;
}

/// Routes one case over 2/4/8 shards: complete answers must be
/// byte-identical to the serial monolithic one, truncated ones must certify a
/// sound prefix of it.
bool router_matches_serial(const Case& c, std::string& why) {
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = run_serial(c, serial_meter);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    Router router(base_config(shards));
    RouterQuery query;
    query.archive_id = c.archive_index + 1;
    query.shard_count = static_cast<std::uint32_t>(shards);
    query.policy = c.policy;
    query.mode = c.mode;
    query.model = &c.model;
    query.k = c.k;
    if (c.budgeted) query.op_budget = c.budget;

    QueryContext ctx;
    CostMeter meter;
    const RouterResult res = router.execute(query, ctx, meter);
    const std::string where = " (shards=" + std::to_string(shards) + ")";
    if (res.result.shard_status.size() != shards) {
      why = "shard_status has " + std::to_string(res.result.shard_status.size()) + " entries" +
            where;
      return false;
    }
    if (res.bytes_sent == 0 || res.bytes_received == 0) {
      why = "no bytes crossed the wire" + where;
      return false;
    }
    if (!c.budgeted || res.result.merged.status == ResultStatus::kComplete) {
      if (res.result.merged.status != ResultStatus::kComplete) {
        why = "unbudgeted run not complete: " + std::string(to_string(res.result.merged.status)) +
              where;
        return false;
      }
      if (!identical_hits(exact, res.result.merged, why)) {
        why += where;
        return false;
      }
      if (res.result.fault_stats.any_fault()) {
        why = "healthy fleet reported faults" + where;
        return false;
      }
    } else if (!sound_prefix(res.result.merged, exact, why)) {
      why += where;
      return false;
    }
  }
  return true;
}

template <typename MakeCase>
void run_battery(std::size_t cases, MakeCase&& make) {
  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < cases; ++seed) {
    const Case c = make(seed);
    SCOPED_TRACE(c.describe());
    std::string why;
    const bool ok = router_matches_serial(c, why);
    EXPECT_TRUE(ok) << why;
    if (!ok) failing_seeds.push_back(seed);
  }

  if (!failing_seeds.empty()) {
    std::ostringstream os;
    os << "failing case seeds:";
    for (std::uint64_t s : failing_seeds) os << ' ' << s;
    ADD_FAILURE() << os.str();
  }
}

TEST(NetParity, RouterMatchesSerialMonolithic) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";
  run_battery(case_count(), make_case);
}

TEST(NetParity, TileHashExactTiesMatchSerialMonolithic) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";
  run_battery(std::min<std::size_t>(case_count(), 60), make_tie_case);
}

TEST(NetParity, SoundUnderWireChaos) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";

  // Wire-layer chaos: aborted attempts, stalled attempts, corrupted reply
  // frames.  With retries + hedging the answer must stay SOUND (certified
  // prefix of the exact ranking) — never wrong, never a hang.
  const std::size_t cases = std::min<std::size_t>(case_count(), 60);
  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < cases; ++seed) {
    const Case c = make_case(seed);
    SCOPED_TRACE(c.describe());
    bool ok = true;
    std::string why;

    CostMeter serial_meter;
    const std::vector<RasterHit> exact = run_serial(c, serial_meter);

    ChaosPolicy::Config chaos_config;
    chaos_config.seed = seed + 1;
    chaos_config.fail_rate = 0.25;
    chaos_config.delay_rate = 0.1;
    chaos_config.corrupt_rate = 0.15;
    chaos_config.delay = std::chrono::microseconds(200);
    ChaosPolicy chaos(chaos_config);

    RouterConfig config = base_config(4);
    config.chaos = &chaos;
    config.policy.max_attempts = 3;
    config.policy.hedge = true;
    config.policy.hedge_delay = std::chrono::milliseconds(20);
    Router router(config);

    RouterQuery query;
    query.archive_id = c.archive_index + 1;
    query.shard_count = 4;
    query.policy = c.policy;
    query.mode = c.mode;
    query.model = &c.model;
    query.k = c.k;

    QueryContext ctx;
    CostMeter meter;
    const RouterResult res = router.execute(query, ctx, meter);
    if (res.result.merged.status == ResultStatus::kComplete) {
      // No leg ultimately degraded: the answer must be the exact one.
      if (!identical_hits(exact, res.result.merged, why)) ok = false;
    } else if (!sound_prefix(res.result.merged, exact, why)) {
      ok = false;
    }

    EXPECT_TRUE(ok) << why;
    if (!ok) failing_seeds.push_back(seed);
  }

  if (!failing_seeds.empty()) {
    std::ostringstream os;
    os << "failing chaos seeds:";
    for (std::uint64_t s : failing_seeds) os << ' ' << s;
    ADD_FAILURE() << os.str();
  }
}

TEST(NetParity, DeadFleetShedsInsteadOfHanging) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  // Ports nobody listens on: every leg dies after its attempts; the merge
  // must come back kShed with a +inf bound, promptly.
  std::vector<std::uint16_t> dead_ports;
  {
    // Grab genuinely unused ports by binding and immediately closing.
    for (int i = 0; i < 2; ++i) {
      Listener probe;
      ASSERT_TRUE(probe.listen(0));
      dead_ports.push_back(static_cast<std::uint16_t>(probe.port()));
    }
  }
  RouterConfig config;
  config.ports = dead_ports;
  config.metrics = nullptr;
  config.policy.max_attempts = 2;
  config.default_leg_timeout = std::chrono::milliseconds(200);
  Router router(config);

  const Case c = make_case(0);
  RouterQuery query;
  query.archive_id = c.archive_index + 1;
  query.shard_count = 2;
  query.policy = c.policy;
  query.mode = c.mode;
  query.model = &c.model;
  query.k = c.k;

  QueryContext ctx;
  CostMeter meter;
  const auto start = std::chrono::steady_clock::now();
  const RouterResult res = router.execute(query, ctx, meter);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(res.result.merged.status, ResultStatus::kShed);
  EXPECT_EQ(res.result.merged.missed_bound, std::numeric_limits<double>::infinity());
  EXPECT_EQ(res.result.fault_stats.failed_shards, 2u);
  EXPECT_TRUE(res.result.merged.hits.empty());
  EXPECT_LT(elapsed, std::chrono::seconds(30)) << "dead fleet blocked the query";

  const obs::HealthReport health = router.health();
  EXPECT_FALSE(health.ok);
  ASSERT_FALSE(health.lines.empty());
  EXPECT_NE(health.lines[0].find("remote_shard="), std::string::npos);
}

TEST(NetParity, RouterExplainShowsRemoteLegs) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";

  obs::Trace trace("router_query", 1);
  const obs::Span root(&trace, "query");
  QueryContext ctx;
  ctx.with_span(&root);

  const Case c = make_case(3);
  Router router(base_config(4));
  RouterQuery query;
  query.archive_id = c.archive_index + 1;
  query.shard_count = 4;
  query.policy = c.policy;
  query.mode = c.mode;
  query.model = &c.model;
  query.k = c.k;
  CostMeter meter;
  (void)router.execute(query, ctx, meter);

  bool saw_router = false, saw_leg = false, saw_gather = false;
  for (const obs::SpanRecord& span : trace.spans()) {
    if (span.name == "router") saw_router = true;
    if (span.name == "shard_0") saw_leg = true;
    if (span.name == "gather") saw_gather = true;
  }
  EXPECT_TRUE(saw_router);
  EXPECT_TRUE(saw_leg);
  EXPECT_TRUE(saw_gather);
}

// ----------------------------------------------- distributed trace stitching

double attr_or(const obs::SpanRecord& span, const std::string& key, double fallback) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return fallback;
}

const std::string* note_or_null(const obs::SpanRecord& span, const std::string& key) {
  for (const auto& [k, v] : span.notes) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Runs one traced query over `shards` shards and leaves the stitched span
/// tree in `trace`.
RouterResult run_traced(Router& router, obs::Trace& trace, const Case& c,
                        std::size_t shards) {
  const obs::Span root(&trace, "query");
  QueryContext ctx;
  ctx.with_span(&root);
  RouterQuery query;
  query.archive_id = c.archive_index + 1;
  query.shard_count = static_cast<std::uint32_t>(shards);
  query.policy = c.policy;
  query.mode = c.mode;
  query.model = &c.model;
  query.k = c.k;
  CostMeter meter;
  return router.execute(query, ctx, meter);
}

TEST(NetParity, StitchedLegDecompositionReconcilesWithLegWallTime) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";

  const Case c = make_case(5);
  Router router(base_config(4));
  obs::Trace trace("router_query", 11);
  const RouterResult res = run_traced(router, trace, c, 4);
  ASSERT_EQ(res.result.shard_status.size(), 4u);

  const std::vector<obs::SpanRecord>& spans = trace.spans();
  std::size_t legs_checked = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& leg = spans[i];
    // Router leg spans are the shard_<i> children of the router span; the
    // grafted *remote* trees contain a server-side shard_<i> span too.
    if (leg.name.rfind("shard_", 0) != 0) continue;
    if (leg.parent >= spans.size() || spans[leg.parent].name != "router") continue;
    // A zero-tile shard is short-circuited without an RPC and has nothing
    // to decompose.
    if (attr_or(leg, "attempts", 0.0) < 1.0) continue;
    SCOPED_TRACE(leg.name);
    ++legs_checked;

    // ISSUE acceptance: the explicit wire / queue_wait / scan rows must
    // reconcile with the measured leg latency (within 10%; the tiling is
    // exact by construction, the slack covers the independent wall clock).
    const double wire = attr_or(leg, "wire_ns", -1.0);
    const double queue = attr_or(leg, "queue_wait_ns", -1.0);
    const double scan = attr_or(leg, "scan_ns", -1.0);
    const double wall = attr_or(leg, "leg_wall_ns", -1.0);
    ASSERT_GE(wire, 0.0);
    ASSERT_GE(queue, 0.0);
    ASSERT_GE(scan, 0.0);
    ASSERT_GT(wall, 0.0);
    const double sum = wire + queue + scan;
    EXPECT_NEAR(sum, wall, 0.10 * wall)
        << "decomposition " << sum << " vs measured leg wall " << wall;

    // The decomposition rows exist as child spans and stay inside the leg.
    bool saw_wire = false, saw_queue = false, saw_scan = false;
    for (const obs::SpanRecord& child : spans) {
      if (child.parent != i) continue;
      EXPECT_GE(child.start_ns, leg.start_ns);
      EXPECT_LE(child.start_ns + child.duration_ns, leg.start_ns + leg.duration_ns);
      if (child.name == "wire") saw_wire = true;
      if (child.name == "queue_wait") saw_queue = true;
      if (child.name == "scan") saw_scan = true;
    }
    EXPECT_TRUE(saw_wire && saw_queue && saw_scan)
        << "missing decomposition rows under " << leg.name;
  }
  EXPECT_GE(legs_checked, 2u) << "battery needs at least two wire legs";

  // The grafted remote spans carry the server's pid tag and the whole tree
  // stays well formed despite concurrent per-leg stitching.
  std::size_t remote_spans = 0;
  for (const obs::SpanRecord& span : spans) {
    if (attr_or(span, "remote_pid", 0.0) >= 2.0) ++remote_spans;
  }
  EXPECT_GE(remote_spans, legs_checked) << "no remote span trees were grafted";
  EXPECT_TRUE(trace.well_formed());
}

TEST(NetParity, RemoteTraceIdsAreNamespacedAndUnique) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";

  const Case c = make_case(7);
  Router router(base_config(8));
  obs::Trace trace("router_query", 12);
  (void)run_traced(router, trace, c, 8);

  // A shard the layout assigned zero tiles to is short-circuited without an
  // RPC (attempts=0) and legitimately has no scan span; every leg that did
  // cross the wire must carry one.
  const std::vector<obs::SpanRecord>& spans = trace.spans();
  std::size_t dispatched = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.name.rfind("shard_", 0) != 0) continue;
    if (span.parent >= spans.size() || spans[span.parent].name != "router") continue;
    if (attr_or(span, "attempts", 0.0) >= 1.0) ++dispatched;
  }
  ASSERT_GE(dispatched, 2u) << "battery needs at least two wire legs";

  // Each dispatched leg's scan span records the namespaced remote query id;
  // the high bit tags "remote" (no collision with local monotone trace ids)
  // and the shard ordinal keeps two servers' ids apart even when both
  // servers hand out the same local id.
  std::set<std::uint64_t> ids;
  for (const obs::SpanRecord& span : spans) {
    if (span.name != "scan") continue;
    const std::string* note = note_or_null(span, "remote_query_id");
    ASSERT_NE(note, nullptr) << "scan span without a remote_query_id note";
    const std::uint64_t id = std::stoull(*note);
    EXPECT_TRUE(id >> 63) << "remote id " << id << " is not namespaced";
    EXPECT_TRUE(ids.insert(id).second) << "duplicate remote id " << id;
  }
  EXPECT_EQ(ids.size(), dispatched);
}

TEST(NetParity, ChromeExportSpreadsStitchedSpansAcrossServerPids) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";

  const Case c = make_case(9);
  Router router(base_config(4));
  obs::Trace trace("router_query", 13);
  (void)run_traced(router, trace, c, 4);

  const std::string json = obs::to_chrome_trace(trace);
  // Structural sanity: the exporter promises valid JSON; check the envelope
  // and that braces/brackets balance (no truncated event).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Router-side spans render under pid 1; each server's grafted spans under
  // its own pid (shard + 2) — the acceptance wants >= 2 distinct pids.
  EXPECT_NE(json.find("\"pid\":1,"), std::string::npos);
  std::size_t server_pids = 0;
  for (std::uint64_t pid = 2; pid < 2 + 4; ++pid) {
    if (json.find("\"pid\":" + std::to_string(pid) + ",") != std::string::npos) ++server_pids;
  }
  EXPECT_GE(server_pids, 2u);
}

TEST(NetParity, FleetzFederatesLiveServersAndMarksDeadOnes) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";

  // One query so the fleet has served something, then scrape.
  const Case c = make_case(2);
  Router router(base_config(2));
  obs::Trace trace("router_query", 14);
  (void)run_traced(router, trace, c, 2);

  const std::string page = router.fleet_prometheus();
  EXPECT_NE(page.find("# TYPE fleet_up gauge"), std::string::npos);
  for (const char* shard : {"0", "1"}) {
    const std::string up = std::string("fleet_up{shard=\"") + shard + "\"";
    const std::size_t at = page.find(up);
    ASSERT_NE(at, std::string::npos) << "missing " << up;
    const std::size_t eol = page.find('\n', at);
    EXPECT_NE(page.substr(at, eol - at).find("} 1"), std::string::npos)
        << "live shard " << shard << " not reported up";
  }
  EXPECT_NE(page.find("fleet_queries_served_total{shard=\"0\""), std::string::npos);
  EXPECT_NE(page.find("fleet_uptime_seconds{shard=\"1\""), std::string::npos);
  EXPECT_NE(page.find("fleet_clock_offset_ns"), std::string::npos);

  // A router pointed at a dead port must still render the page — with the
  // shard marked down, never an exception or a hang.
  std::uint16_t dead_port = 0;
  {
    Listener probe;
    ASSERT_TRUE(probe.listen(0));
    dead_port = static_cast<std::uint16_t>(probe.port());
  }
  RouterConfig dead_config;
  dead_config.ports = {dead_port};
  dead_config.metrics = nullptr;
  Router dead_router(dead_config);
  const std::string dead_page = dead_router.fleet_prometheus();
  const std::size_t at = dead_page.find("fleet_up{shard=\"0\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t eol = dead_page.find('\n', at);
  EXPECT_NE(dead_page.substr(at, eol - at).find("} 0"), std::string::npos);
}

TEST(NetParity, ServerSurvivesHostileBytesAndKeepsServing) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  if (fleet().external()) GTEST_SKIP() << "external fleet: exercised in-process only";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";
  const std::uint16_t port = fleet().ports()[0];

  {
    // Garbage bytes: the server must answer a typed kError frame (or just
    // close), and must NOT die.
    Socket hostile = Socket::connect_loopback(port);
    ASSERT_TRUE(hostile.valid());
    const char junk[] = "GET / HTTP/1.0\r\n\r\n";
    ASSERT_TRUE(hostile.write_all(junk, sizeof junk - 1));
    try {
      const Frame reply = read_frame(hostile, std::chrono::milliseconds(2000));
      EXPECT_EQ(reply.type, MsgType::kError);
    } catch (const WireError&) {
      // The server closing the desynced stream is acceptable too.
    }
  }
  {
    // Version skew: typed error, no hang.
    Socket skewed = Socket::connect_loopback(port);
    ASSERT_TRUE(skewed.valid());
    std::vector<std::uint8_t> frame = encode_frame(MsgType::kPing, {});
    frame[4] = static_cast<std::uint8_t>(kWireVersion + 1);
    ASSERT_TRUE(skewed.write_all(frame.data(), frame.size()));
    try {
      const Frame reply = read_frame(skewed, std::chrono::milliseconds(2000));
      EXPECT_EQ(reply.type, MsgType::kError);
    } catch (const WireError&) {
    }
  }
  // And the server still answers pings afterward.
  Socket client = Socket::connect_loopback(port);
  ASSERT_TRUE(client.valid());
  ASSERT_TRUE(write_frame(client, MsgType::kPing, {}));
  const Frame pong = read_frame(client, std::chrono::milliseconds(2000));
  EXPECT_EQ(pong.type, MsgType::kPong);
}

// ---------------------------------------------------------- connection reuse

RouterResult route_case(Router& router, const Case& c, std::size_t shards) {
  RouterQuery query;
  query.archive_id = c.archive_index + 1;
  query.shard_count = static_cast<std::uint32_t>(shards);
  query.policy = c.policy;
  query.mode = c.mode;
  query.model = &c.model;
  query.k = c.k;
  if (c.budgeted) query.op_budget = c.budget;
  QueryContext ctx;
  CostMeter meter;
  return router.execute(query, ctx, meter);
}

/// An unbudgeted row-band case: every shard of a 1..4-way layout holds
/// pixels, so each one costs exactly one wire leg.
Case clean_case(std::uint64_t seed) {
  Case c = make_case(seed);
  c.budgeted = false;
  c.policy = ShardPolicy::kRowBands;
  return c;
}

/// The routed answer is complete, fault-free and byte-identical to serial.
void expect_clean_match(const Case& c, const RouterResult& res) {
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = run_serial(c, serial_meter);
  std::string why;
  EXPECT_EQ(res.result.merged.status, ResultStatus::kComplete);
  EXPECT_TRUE(identical_hits(exact, res.result.merged, why)) << why;
  const ShardFaultStats& stats = res.result.fault_stats;
  EXPECT_FALSE(stats.any_fault());
  EXPECT_EQ(stats.retries, 0u);
}

TEST(NetParity, SequentialQueriesReuseTheirConnections) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  if (fleet().external()) GTEST_SKIP() << "external fleet: connection counts are in-process only";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";
  constexpr std::size_t kShards = 4;
  std::vector<std::uint64_t> before(kShards);
  for (std::size_t i = 0; i < kShards; ++i) before[i] = fleet().server(i)->connections_accepted();

  Router router(base_config(kShards));
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Case c = clean_case(seed);
    SCOPED_TRACE(c.describe());
    expect_clean_match(c, route_case(router, c, kShards));
  }
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_LE(fleet().server(i)->connections_accepted() - before[i], 4u) << "server " << i;
  }
}

TEST(NetParity, ConnectionClosedByTheServersIdleTimeoutIsReplacedWithoutAFault) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  constexpr std::size_t kShards = 2;
  std::vector<std::unique_ptr<ShardServer>> servers;
  RouterConfig config;
  config.metrics = nullptr;
  for (std::size_t i = 0; i < kShards; ++i) {
    servers.push_back(make_server(std::chrono::milliseconds(50)));
    ASSERT_TRUE(servers.back()->start());
    config.ports.push_back(static_cast<std::uint16_t>(servers.back()->port()));
  }
  Router router(config);
  const Case c = clean_case(11);
  expect_clean_match(c, route_case(router, c, kShards));

  // Past the servers' 50 ms read_timeout every pooled connection is closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const RouterResult res = route_case(router, c, kShards);
  expect_clean_match(c, res);
  EXPECT_EQ(res.result.fault_stats.attempts, kShards);
  EXPECT_EQ(res.result.fault_stats.timeouts, 0u);
  for (const auto& server : servers) EXPECT_EQ(server->connections_accepted(), 2u);
}

/// A shard endpoint in front of a real server's routing table that answers
/// the first two frames of each connection, then reads a third and hangs up
/// without a reply: a server closing an idle connection just as the router
/// reuses it, after the router's liveness check passed.  Serves one
/// connection at a time, which one sequential single-shard router needs.
class HangUpOnThirdFrame {
 public:
  explicit HangUpOnThirdFrame(ShardServer& backend) : backend_(backend) {
    if (listener_.listen(0)) thread_ = std::thread([this] { run(); });
  }
  ~HangUpOnThirdFrame() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  HangUpOnThirdFrame(const HangUpOnThirdFrame&) = delete;
  HangUpOnThirdFrame& operator=(const HangUpOnThirdFrame&) = delete;

  [[nodiscard]] bool ok() const { return listener_.valid(); }
  [[nodiscard]] std::uint16_t port() const { return static_cast<std::uint16_t>(listener_.port()); }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_.load(); }

 private:
  void run() {
    while (!stop_.load()) {
      Socket sock = listener_.accept(std::chrono::milliseconds(20));
      if (!sock.valid()) continue;
      ++accepted_;
      for (int frames = 0; !stop_.load(); ++frames) {
        Frame request;
        try {
          request = read_frame(sock, std::chrono::milliseconds(0), &stop_);
        } catch (const WireError&) {
          break;
        }
        if (frames == 2) break;  // read the request, close without a byte
        const Frame reply = backend_.handle(request);
        if (!write_frame(sock, reply.type, reply.payload)) break;
      }
    }
  }

  ShardServer& backend_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::thread thread_;
};

TEST(NetParity, ConnectionDyingAfterItsLivenessCheckIsResentOnceWithoutAFault) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  const std::unique_ptr<ShardServer> backend = make_server();
  HangUpOnThirdFrame endpoint(*backend);
  ASSERT_TRUE(endpoint.ok());
  RouterConfig config;
  config.ports = {endpoint.port()};
  config.metrics = nullptr;
  Router router(config);
  const Case c = clean_case(12);

  // Query 1: kDescribe and the leg share one connection (frames 1 and 2).
  // Query 2 reuses it, and the endpoint hangs up on the request: the leg
  // must reconnect and resend inside its one attempt.
  expect_clean_match(c, route_case(router, c, 1));
  const RouterResult res = route_case(router, c, 1);
  expect_clean_match(c, res);
  EXPECT_EQ(res.result.fault_stats.attempts, 1u);
  EXPECT_EQ(res.result.fault_stats.timeouts, 0u);
  EXPECT_EQ(endpoint.accepted(), 2u);
}

/// Chaos that follows whichever schedule is installed; none means clean.
class SwitchableChaos final : public ShardChaos {
 public:
  void install(ShardChaos* chaos) noexcept { current_.store(chaos); }
  [[nodiscard]] ShardFaultAction on_attempt(std::size_t shard, int attempt) noexcept override {
    ShardChaos* chaos = current_.load();
    return chaos == nullptr ? ShardFaultAction{} : chaos->on_attempt(shard, attempt);
  }

 private:
  std::atomic<ShardChaos*> current_{nullptr};
};

TEST(NetParity, CleanQueriesAfterWireChaosMatchSerial) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  ASSERT_TRUE(fleet().ok()) << "shard-server fleet failed to start";

  // One router through corrupt, delay, fail and hedge schedules: hedges
  // launch at once, so lost races cancel legs mid-read.  Any connection such
  // an ending put back would answer a later query with a stale frame.
  SwitchableChaos chaos;
  RouterConfig config = base_config(4);
  config.chaos = &chaos;
  config.policy.max_attempts = 3;
  config.policy.hedge = true;
  config.policy.hedge_delay = std::chrono::milliseconds(0);
  Router router(config);

  const std::size_t cases = std::min<std::size_t>(case_count(), 60);
  for (std::uint64_t seed = 0; seed < cases; ++seed) {
    const Case c = make_case(seed);
    SCOPED_TRACE(c.describe());
    ChaosPolicy::Config chaos_config;
    chaos_config.seed = seed + 1;
    chaos_config.fail_rate = 0.25;
    chaos_config.delay_rate = 0.1;
    chaos_config.corrupt_rate = 0.15;
    chaos_config.delay = std::chrono::microseconds(200);
    ChaosPolicy schedule(chaos_config);
    chaos.install(&schedule);
    const RouterResult res = route_case(router, c, 4);
    chaos.install(nullptr);
    CostMeter serial_meter;
    const std::vector<RasterHit> exact = run_serial(c, serial_meter);
    std::string why;
    EXPECT_TRUE(sound_prefix(res.result.merged, exact, why)) << why;
    // A clean query right behind each chaotic one, while a lost race's
    // reply may still be in flight.
    const Case next = clean_case(1000 + seed);
    expect_clean_match(next, route_case(router, next, 4));
  }

  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Case c = clean_case(500 + seed);
    SCOPED_TRACE(c.describe());
    expect_clean_match(c, route_case(router, c, 4));
  }
}

TEST(NetParity, ServerStopIsPromptWhileARouterHoldsIdleConnections) {
  if (!sockets_available()) GTEST_SKIP() << "no socket API on this platform";
  const std::unique_ptr<ShardServer> server = make_server();
  ASSERT_TRUE(server->start());
  const auto port = static_cast<std::uint16_t>(server->port());
  RouterConfig config;
  config.ports = {port, port};
  config.metrics = nullptr;
  Router router(config);
  const Case c = clean_case(13);
  expect_clean_match(c, route_case(router, c, 2));

  const auto start = std::chrono::steady_clock::now();
  server->stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(250))
      << "stop() waited on the router's idle connections";
}

}  // namespace
}  // namespace mmir::net
