// Deterministic chaos battery for shard fault domains (DESIGN.md §6f).
//
// Hundreds of seeded chaos schedules — delay / fail / corrupt faults across
// shard counts {2, 4, 8} and 1/2/4 executing threads — drive the fault-domain
// scatter-gather path, and every merged result must uphold the soundness
// contract no matter what the schedule did:
//
//   * the certified prefix is a prefix of the true serial top-K,
//   * every exact hit missing from the merge scores at or below the merged
//     missed bound (bound widening is sound),
//   * fault-degraded runs report kDegraded, all-live-shards-dead runs report
//     kShed, and a fault NEVER surfaces as a truncated status (which would
//     poison the merge via is_truncated),
//   * execution completes promptly — a fault domain degrades, it never hangs.
//
// Directed tests pin the hedging protocol (first clean result wins, the
// losing duplicate is discarded, never double-merged), bound widening for
// dead shards, timeout classification, metrics / EXPLAIN surfacing, engine
// cache admission, /healthz degradation, and replay determinism: a fail-only
// schedule yields byte-identical results under any worker count.
//
// Every battery case derives from a single seed printed on failure.  The
// ci/chaos.sh sweep overrides the fault rate and seed base via the
// MMIR_CHAOS_RATE / MMIR_CHAOS_SEED environment variables.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "archive/sharded.hpp"
#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "engine/fault_domain.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testing/fault_injector.hpp"
#include "testing/scenario_gen.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

constexpr std::uint64_t kChaosCases = 240;

const std::size_t kShardCounts[] = {2, 4, 8};
// Worker counts giving 1 / 2 / 4 executing threads (pool + caller).
const std::size_t kWorkerCounts[] = {0, 1, 3};

// ---------------------------------------------------------------- ci sweep
// ci/chaos.sh sweeps fault rates {0%, 5%, 25%} with fixed seeds by exporting
// these; unset, the battery uses its own per-seed rates.

bool env_rate(double& rate) {
  const char* s = std::getenv("MMIR_CHAOS_RATE");
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || v < 0.0 || v > 1.0) return false;
  rate = v;
  return true;
}

std::uint64_t env_seed_offset() {
  const char* s = std::getenv("MMIR_CHAOS_SEED");
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : 0;
}

// ------------------------------------------------------------ shared fixtures
// Same archive pool as test_shard_parity: scene synthesis dominates the cost
// of a case, so a handful of archives is reused across all seeds while shape
// and tiling still vary (including shapes whose row-band layout leaves
// shards empty).

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
    p.push_back(std::make_unique<PooledArchive>(24, 8, 211));
    p.push_back(std::make_unique<PooledArchive>(32, 16, 212));
    p.push_back(std::make_unique<PooledArchive>(40, 8, 213));
    p.push_back(std::make_unique<PooledArchive>(48, 16, 214));
    p.push_back(std::make_unique<PooledArchive>(36, 32, 215));
    p.push_back(std::make_unique<PooledArchive>(28, 16, 216));
    return p;
  }();
  return pool;
}

enum class Exec { kFullScan, kProgressiveModel, kTileScreened, kCombined };

const char* const kFamilyNames[] = {"delay", "fail", "corrupt", "mixed"};

struct ChaosCase {
  std::uint64_t seed = 0;
  std::size_t archive_index = 0;
  const TiledArchive* archive = nullptr;
  const std::vector<Interval>* ranges = nullptr;
  Exec exec = Exec::kFullScan;
  ShardPolicy policy = ShardPolicy::kRowBands;
  std::size_t k = 1;
  LinearModel model{{0.0}, 0.0, {"w"}};
  std::size_t shards = 2;
  std::size_t workers = 0;
  int family = 0;
  ChaosPolicy::Config chaos;
  ShardFaultPolicy fault;
  bool budgeted = false;
  std::uint64_t budget = 0;
  bool deadlined = false;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " archive=" << archive_index << " exec=" << static_cast<int>(exec)
       << " policy=" << shard_policy_name(policy) << " k=" << k << " shards=" << shards
       << " workers=" << workers << " family=" << kFamilyNames[family]
       << " rates=" << chaos.delay_rate << '/' << chaos.fail_rate << '/' << chaos.corrupt_rate
       << " attempts=" << fault.max_attempts << " timeout_us="
       << std::chrono::duration_cast<std::chrono::microseconds>(fault.shard_timeout).count()
       << " hedge=" << fault.hedge << " budgeted=" << budgeted << " deadlined=" << deadlined;
    return os.str();
  }
};

ChaosCase make_chaos_case(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xc3a05ULL);
  ChaosCase c;
  c.seed = seed;
  c.archive_index = rng.uniform_int(archive_pool().size());
  const PooledArchive& pooled = *archive_pool()[c.archive_index];
  c.archive = pooled.archive.get();
  c.ranges = &pooled.ranges;
  c.exec = static_cast<Exec>(rng.uniform_int(4));
  c.policy = rng.bernoulli(0.5) ? ShardPolicy::kRowBands : ShardPolicy::kTileHash;
  c.k = 1 + rng.uniform_int(32);

  // Signed weights bounded away from zero: exact-score ties stay
  // measure-zero, so byte-identity of complete merges is meaningful.
  std::vector<double> weights(4);
  for (double& w : weights) {
    const double magnitude = rng.uniform(0.25, 2.0);
    w = rng.bernoulli(0.5) ? magnitude : -magnitude;
  }
  c.model = LinearModel(std::move(weights), rng.uniform(-5.0, 5.0), {"b4", "b5", "b7", "dem"});

  c.shards = kShardCounts[rng.uniform_int(3)];
  c.workers = kWorkerCounts[rng.uniform_int(3)];

  // The schedule: one fault family (or a mix), rate drawn per seed unless
  // the ci sweep pinned it.
  c.family = static_cast<int>(rng.uniform_int(4));
  double rate = 0.05 + rng.uniform(0.0, 0.30);
  (void)env_rate(rate);
  switch (c.family) {
    case 0: c.chaos.delay_rate = rate; break;
    case 1: c.chaos.fail_rate = rate; break;
    case 2: c.chaos.corrupt_rate = rate; break;
    default:
      c.chaos.delay_rate = rate / 3.0;
      c.chaos.fail_rate = rate / 3.0;
      c.chaos.corrupt_rate = rate / 3.0;
      break;
  }
  c.chaos.seed = mix64(seed + 1) + env_seed_offset();
  c.chaos.delay = std::chrono::microseconds(200 + rng.uniform_int(2300));

  c.fault.max_attempts = 1 + static_cast<int>(rng.uniform_int(3));
  c.fault.retry_initial_backoff = std::chrono::microseconds(20);
  c.fault.retry_max_backoff = std::chrono::microseconds(200);
  if (c.family == 0 || c.family == 3) {
    // Delay faults meet a sub-deadline they can actually trip.
    if (rng.bernoulli(0.5)) c.fault.shard_timeout = std::chrono::milliseconds(1 + rng.uniform_int(3));
  } else if (rng.bernoulli(0.25)) {
    c.fault.shard_timeout = std::chrono::milliseconds(5);
  }
  if (c.workers > 0 && rng.bernoulli(0.35)) {
    c.fault.hedge = true;
    c.fault.hedge_delay = std::chrono::microseconds(100 + rng.uniform_int(400));
  }

  // A quarter of the cases also run inside a global envelope, proving the
  // fault domains compose with budget / deadline truncation.
  c.budgeted = rng.bernoulli(0.25);
  if (c.budgeted) {
    c.budget = 16 + rng.uniform_int(c.archive->pixel_count() * 4ULL);
  }
  c.deadlined = rng.bernoulli(0.15);
  return c;
}

std::vector<RasterHit> run_serial(const ChaosCase& c, const LinearRasterModel& raster,
                                  const ProgressiveLinearModel& progressive, CostMeter& meter) {
  const TiledArchive& archive = *c.archive;
  switch (c.exec) {
    case Exec::kFullScan: return full_scan_top_k(archive, raster, c.k, meter);
    case Exec::kProgressiveModel:
      return progressive_model_top_k(archive, progressive, c.k, meter);
    case Exec::kTileScreened: return tile_screened_top_k(archive, raster, c.k, meter);
    case Exec::kCombined: return progressive_combined_top_k(archive, progressive, c.k, meter);
  }
  return {};
}

ShardedTopK run_sharded(const ChaosCase& c, const ShardedArchive& sharded,
                        const LinearRasterModel& raster,
                        const ProgressiveLinearModel& progressive, QueryContext& ctx,
                        CostMeter& meter, ThreadPool& pool, const ShardExecOptions* options) {
  switch (c.exec) {
    case Exec::kFullScan:
      return sharded_full_scan_top_k(sharded, raster, c.k, ctx, meter, pool, options);
    case Exec::kProgressiveModel:
      return sharded_progressive_model_top_k(sharded, progressive, c.k, ctx, meter, pool,
                                             options);
    case Exec::kTileScreened:
      return sharded_tile_screened_top_k(sharded, raster, c.k, ctx, meter, pool, options);
    case Exec::kCombined:
      return sharded_progressive_combined_top_k(sharded, progressive, c.k, ctx, meter, pool,
                                                options);
  }
  return {};
}

std::size_t live_shards(const ShardedArchive& sharded) {
  std::size_t live = 0;
  for (const ShardInfo& shard : sharded.shards()) {
    if (!shard.tiles.empty()) ++live;
  }
  return live;
}

// ------------------------------------------------------------------- oracles

/// Byte-identical comparison against the serial monolithic answer.
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

/// The certified prefix must match the exact ranking score for score —
/// a widened bound may shorten it but never corrupt it.
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

/// Bound soundness: any exact top-K hit absent from the merge must be
/// covered by the merged missed bound.  Each shard partial is the exact
/// top-K of the pixels its picked leg examined plus a bound over the rest,
/// so an uncovered absent hit means a fault path dropped examined pixels
/// without widening — the exact bug this battery exists to catch.
bool sound_bound(const RasterTopK& merged, const std::vector<RasterHit>& exact,
                 std::string& why) {
  for (const RasterHit& hit : exact) {
    bool present = false;
    for (const RasterHit& got : merged.hits) {
      if (got.x == hit.x && got.y == hit.y) {
        present = true;
        break;
      }
    }
    if (!present && hit.score > merged.missed_bound) {
      why = "exact hit above the merged missed bound is absent from the merge";
      return false;
    }
  }
  return true;
}

/// No pixel may appear twice — a double-merged hedge duplicate would.
bool unique_locations(const RasterTopK& result, std::string& why) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const RasterHit& hit : result.hits) {
    if (!seen.insert({hit.x, hit.y}).second) {
      why = "pixel (" + std::to_string(hit.x) + ", " + std::to_string(hit.y) +
            ") appears twice in the merge";
      return false;
    }
  }
  return true;
}

bool same_result(const ShardedTopK& a, const ShardedTopK& b, std::string& why) {
  if (a.merged.status != b.merged.status) {
    why = "status differs";
    return false;
  }
  if (a.merged.missed_bound != b.merged.missed_bound &&
      !(std::isnan(a.merged.missed_bound) && std::isnan(b.merged.missed_bound))) {
    why = "missed bound differs";
    return false;
  }
  if (a.merged.hits.size() != b.merged.hits.size()) {
    why = "hit count differs";
    return false;
  }
  for (std::size_t i = 0; i < a.merged.hits.size(); ++i) {
    if (a.merged.hits[i].x != b.merged.hits[i].x || a.merged.hits[i].y != b.merged.hits[i].y ||
        a.merged.hits[i].score != b.merged.hits[i].score) {
      why = "hit " + std::to_string(i) + " differs";
      return false;
    }
  }
  if (a.shard_status != b.shard_status) {
    why = "shard_status differs";
    return false;
  }
  return true;
}

/// Scriptable chaos for directed tests: the verdict function must stay a
/// pure function of (shard, attempt) to honor the ShardChaos contract.
class ScriptedChaos final : public ShardChaos {
 public:
  using Verdict = ShardFaultAction (*)(std::size_t shard, int attempt);
  explicit ScriptedChaos(Verdict verdict) noexcept : verdict_(verdict) {}
  [[nodiscard]] ShardFaultAction on_attempt(std::size_t shard, int attempt) noexcept override {
    return verdict_(shard, attempt);
  }

 private:
  Verdict verdict_;
};

LinearModel directed_model() {
  return LinearModel({1.1, -0.7, 0.9, 1.3}, 0.25, {"b4", "b5", "b7", "dem"});
}

// ------------------------------------------------------------------ battery

/// What a battery run saw, summed over its cases.
struct BatteryTally {
  ShardFaultStats faults;
  std::size_t complete = 0, degraded = 0, shed = 0, truncated = 0;
};

/// Runs one chaos case and checks it against the soundness contract; false
/// (with `why`) on a violation.  `exact_prefix` also requires the certified
/// prefix to match the serial answer's pixels, not just its scores — the
/// tie battery's check that no fault path reorders exact ties.
bool check_chaos_case(const ChaosCase& c, bool exact_prefix, BatteryTally& tally,
                      std::string& why) {
  const LinearRasterModel raster(c.model);
  const ProgressiveLinearModel progressive(c.model, *c.ranges);

  CostMeter serial_meter;
  const std::vector<RasterHit> exact = run_serial(c, raster, progressive, serial_meter);

  const ShardedArchive sharded(*c.archive, c.shards, c.policy);
  ThreadPool pool(c.workers);
  QueryContext ctx;
  if (c.budgeted) ctx.with_op_budget(c.budget);
  if (c.deadlined) ctx.with_timeout(std::chrono::milliseconds(25));
  ChaosPolicy chaos(c.chaos);
  const ShardExecOptions options{c.fault, &chaos, nullptr};
  CostMeter meter;

  const auto t0 = std::chrono::steady_clock::now();
  const ShardedTopK result = run_sharded(c, sharded, raster, progressive, ctx, meter, pool,
                                         &options);
  const auto wall = std::chrono::steady_clock::now() - t0;

  const ShardFaultStats& fs = result.fault_stats;
  tally.faults.attempts += fs.attempts;
  tally.faults.retries += fs.retries;
  tally.faults.timeouts += fs.timeouts;
  tally.faults.faults_injected += fs.faults_injected;
  tally.faults.hedges_launched += fs.hedges_launched;
  tally.faults.hedges_won += fs.hedges_won;
  tally.faults.bounds_widened += fs.bounds_widened;
  tally.faults.failed_shards += fs.failed_shards;

  // A fault domain degrades; it must never hang.  5s is orders of
  // magnitude above any legitimate schedule (<= 8 shards x 3 attempts x
  // 2.5ms delays) while still catching a lost-wakeup deadlock.
  if (wall > std::chrono::seconds(5)) {
    why = "execution took too long";
    return false;
  }
  if (result.shard_status.size() != c.shards) {
    why = "shard_status has " + std::to_string(result.shard_status.size()) + " entries";
    return false;
  }
  if (!sound_prefix(result.merged, exact, why) || !sound_bound(result.merged, exact, why) ||
      !unique_locations(result.merged, why)) {
    return false;
  }
  if (exact_prefix) {
    for (std::size_t i = 0; i < result.merged.certified_prefix(); ++i) {
      if (result.merged.hits[i].x != exact[i].x || result.merged.hits[i].y != exact[i].y) {
        why = "certified rank " + std::to_string(i) + " is a different pixel than the exact answer's";
        return false;
      }
    }
  }
  if (c.budgeted || c.deadlined) {
    if (is_truncated(result.merged.status)) ++tally.truncated;
    return true;
  }
  // No global envelope: the status must come from the fault-domain
  // precedence alone.
  if (result.merged.status == ResultStatus::kShed) {
    ++tally.shed;
    const std::size_t live = live_shards(sharded);
    if (fs.failed_shards != live || live == 0) {
      why = "kShed without every live shard dead (failed=" + std::to_string(fs.failed_shards) +
            " live=" + std::to_string(live) + ")";
      return false;
    }
    if (!result.merged.hits.empty() ||
        result.merged.missed_bound != std::numeric_limits<double>::infinity()) {
      why = "all-shards-dead merge must be empty with a +inf bound";
      return false;
    }
    return true;
  }
  if (is_truncated(result.merged.status)) {
    why = "fault surfaced as truncated status " + std::string(to_string(result.merged.status)) +
          " without a global envelope";
    return false;
  }
  if (fs.degraded_shards > 0) {
    ++tally.degraded;
    if (result.merged.status != ResultStatus::kDegraded) {
      why = "degraded shards but merged status " + std::string(to_string(result.merged.status));
      return false;
    }
    return true;
  }
  ++tally.complete;
  if (result.merged.status != ResultStatus::kComplete) {
    why = "no degraded shard but merged status " + std::string(to_string(result.merged.status));
    return false;
  }
  if (!identical_hits(exact, result.merged, why)) {
    why += " (fault-free or fully-recovered run must be byte-identical)";
    return false;
  }
  return true;
}

/// Runs `cases` through check_chaos_case, reporting every failing seed.
BatteryTally run_battery(const std::vector<ChaosCase>& cases, bool exact_prefix) {
  BatteryTally tally;
  std::vector<std::uint64_t> failing_seeds;
  for (const ChaosCase& c : cases) {
    SCOPED_TRACE(c.describe());
    std::string why;
    const bool ok = check_chaos_case(c, exact_prefix, tally, why);
    EXPECT_TRUE(ok) << why;
    if (!ok) failing_seeds.push_back(c.seed);
  }
  if (!failing_seeds.empty()) {
    std::ostringstream os;
    os << "failing case seeds:";
    for (std::uint64_t s : failing_seeds) os << ' ' << s;
    ADD_FAILURE() << os.str();
  }
  double pinned_rate = 0.0;
  if (env_rate(pinned_rate) && pinned_rate == 0.0) {
    EXPECT_EQ(tally.faults.faults_injected, 0u) << "rate pinned to 0 but chaos injected faults";
  } else {
    EXPECT_GT(tally.faults.faults_injected, 0u) << "the battery never injected a fault";
  }
  std::printf(
      "[chaos] cases=%zu attempts=%llu retries=%llu timeouts=%llu injected=%llu "
      "hedges=%llu hedge_wins=%llu widened=%llu failed=%llu | complete=%zu degraded=%zu "
      "shed=%zu truncated=%zu\n",
      cases.size(), static_cast<unsigned long long>(tally.faults.attempts),
      static_cast<unsigned long long>(tally.faults.retries),
      static_cast<unsigned long long>(tally.faults.timeouts),
      static_cast<unsigned long long>(tally.faults.faults_injected),
      static_cast<unsigned long long>(tally.faults.hedges_launched),
      static_cast<unsigned long long>(tally.faults.hedges_won),
      static_cast<unsigned long long>(tally.faults.bounds_widened),
      static_cast<unsigned long long>(tally.faults.failed_shards), tally.complete,
      tally.degraded, tally.shed, tally.truncated);
  return tally;
}

TEST(ChaosBattery, EveryScheduleYieldsSoundBoundedResultsWithCorrectStatus) {
  std::vector<ChaosCase> cases;
  for (std::uint64_t seed = 0; seed < kChaosCases; ++seed) cases.push_back(make_chaos_case(seed));
  (void)run_battery(cases, false);
}

/// The exact-tie archives (testing/scenario_gen.hpp), built once.
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

/// A chaos schedule over an exact-tie archive: the schedule, shard count,
/// workers and envelope of make_chaos_case(seed), with an integer-weight
/// model and a quarter-integer bias (exactly representable, so equal
/// palette picks score exactly equal) and the shard policy alternating by
/// seed so both layouts meet the ties.
ChaosCase make_tie_chaos_case(std::uint64_t seed) {
  ChaosCase c = make_chaos_case(seed);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x71e5ULL);
  c.archive_index = archive_pool().size() + rng.uniform_int(tie_pool().size());
  const TieArchive& tie = tie_pool()[c.archive_index - archive_pool().size()];
  c.archive = tie.gen.archive.get();
  c.ranges = &tie.ranges;
  c.policy = seed % 2 == 0 ? ShardPolicy::kRowBands : ShardPolicy::kTileHash;
  std::vector<double> weights(4);
  for (double& w : weights) w = static_cast<double>(rng.uniform_int(5)) - 2.0;
  c.model = LinearModel(std::move(weights), 0.25 * (static_cast<double>(rng.uniform_int(17)) - 8.0),
                        {"b0", "b1", "b2", "b3"});
  if (c.budgeted) c.budget = 16 + rng.uniform_int(c.archive->pixel_count() * 4ULL);
  return c;
}

TEST(ChaosBattery, ExactTieSchedulesStayCanonical) {
  // Clean schedules must return the serial monolithic answer byte for byte
  // — exact ties resolved by pixel rank under both shard policies — and
  // faulted ones a certified prefix made of the serial answer's own pixels.
  std::vector<ChaosCase> cases;
  for (std::uint64_t seed = 0; seed < 120; ++seed) cases.push_back(make_tie_chaos_case(seed));
  const BatteryTally tally = run_battery(cases, true);
  EXPECT_GT(tally.complete, 0u) << "no clean schedule reached the byte-identity check";
}

// With active options but no chaos source and generous limits, the
// fault-domain path must be byte-identical to the legacy scatter-gather —
// the machinery itself may not perturb answers.
TEST(ChaosBattery, ActiveOptionsWithoutFaultsAreByteIdenticalToLegacyPath) {
  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ChaosCase c = make_chaos_case(seed);
    c.budgeted = false;
    c.deadlined = false;
    SCOPED_TRACE(c.describe());
    const LinearRasterModel raster(c.model);
    const ProgressiveLinearModel progressive(c.model, *c.ranges);
    const ShardedArchive sharded(*c.archive, c.shards, c.policy);
    bool ok = true;
    std::string why;

    ThreadPool legacy_pool(c.workers);
    QueryContext legacy_ctx;
    CostMeter legacy_meter;
    const ShardedTopK legacy =
        run_sharded(c, sharded, raster, progressive, legacy_ctx, legacy_meter, legacy_pool,
                    nullptr);

    ShardFaultPolicy generous;
    generous.max_attempts = 3;
    generous.shard_timeout = std::chrono::seconds(1);
    const ShardExecOptions options{generous, nullptr, nullptr};
    ASSERT_TRUE(options.active());
    ThreadPool pool(c.workers);
    QueryContext ctx;
    CostMeter meter;
    const ShardedTopK faulted =
        run_sharded(c, sharded, raster, progressive, ctx, meter, pool, &options);

    if (!same_result(legacy, faulted, why)) {
      ok = false;
    } else if (faulted.fault_stats.any_fault()) {
      ok = false;
      why = "fault stats nonzero on a fault-free run";
    }
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

// A fail-only schedule (no timeouts, no hedging — nothing wall-clock
// dependent) must replay byte-identically under any worker count and across
// reruns: the chaos verdict is a pure function of (seed, shard, attempt).
TEST(ChaosBattery, FailOnlySchedulesReplayIdenticallyAcrossWorkerCounts) {
  for (const std::uint64_t seed : {7ULL, 19ULL, 42ULL, 77ULL}) {
    ChaosCase c = make_chaos_case(seed);
    c.budgeted = false;
    c.deadlined = false;
    c.shards = 4;
    c.chaos = ChaosPolicy::Config{};
    c.chaos.seed = seed * 31 + 5;
    c.chaos.fail_rate = 0.3;
    c.fault = ShardFaultPolicy{};
    c.fault.max_attempts = 2;
    c.fault.retry_initial_backoff = std::chrono::microseconds(10);
    c.fault.retry_max_backoff = std::chrono::microseconds(50);
    SCOPED_TRACE(c.describe());
    const LinearRasterModel raster(c.model);
    const ProgressiveLinearModel progressive(c.model, *c.ranges);
    const ShardedArchive sharded(*c.archive, c.shards, c.policy);

    std::vector<ShardedTopK> runs;
    std::vector<ShardFaultStats> stats;
    for (const std::size_t workers : {0UL, 3UL, 0UL}) {  // rerun at 0 proves rerun stability
      ThreadPool pool(workers);
      QueryContext ctx;
      ChaosPolicy chaos(c.chaos);
      const ShardExecOptions options{c.fault, &chaos, nullptr};
      CostMeter meter;
      runs.push_back(run_sharded(c, sharded, raster, progressive, ctx, meter, pool, &options));
      stats.push_back(runs.back().fault_stats);
    }
    std::string why;
    EXPECT_TRUE(same_result(runs[0], runs[1], why)) << "workers 0 vs 3: " << why;
    EXPECT_TRUE(same_result(runs[0], runs[2], why)) << "rerun: " << why;
    for (std::size_t i = 1; i < stats.size(); ++i) {
      EXPECT_EQ(stats[0].attempts, stats[i].attempts);
      EXPECT_EQ(stats[0].retries, stats[i].retries);
      EXPECT_EQ(stats[0].faults_injected, stats[i].faults_injected);
      EXPECT_EQ(stats[0].failed_shards, stats[i].failed_shards);
      EXPECT_EQ(stats[0].degraded_shards, stats[i].degraded_shards);
      EXPECT_EQ(stats[0].bounds_widened, stats[i].bounds_widened);
      EXPECT_EQ(stats[0].timeouts, 0u);
      EXPECT_EQ(stats[0].hedges_launched, 0u);
    }
  }
}

// ------------------------------------------------------------ hedging tests

TEST(ChaosHedging, HedgeRescuesShardsWhosePrimaryLegAlwaysFails) {
  const PooledArchive& pooled = *archive_pool()[3];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const std::size_t k = 10;
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = full_scan_top_k(*pooled.archive, raster, k, serial_meter);

  const ShardedArchive sharded(*pooled.archive, 4, ShardPolicy::kRowBands);
  ASSERT_EQ(live_shards(sharded), 4u);

  // Primary attempts (ids below kHedgeAttemptBase) always fail; hedge
  // attempts run clean — only the hedge leg can deliver each shard.
  ScriptedChaos chaos(+[](std::size_t, int attempt) {
    ShardFaultAction action;
    if (attempt < kHedgeAttemptBase) action.kind = ShardFault::kFail;
    return action;
  });
  ShardFaultPolicy policy;
  policy.max_attempts = 1;
  policy.hedge = true;
  policy.hedge_delay = std::chrono::nanoseconds(0);
  const ShardExecOptions options{policy, &chaos, nullptr};

  ThreadPool pool(3);
  QueryContext ctx;
  CostMeter meter;
  const ShardedTopK result =
      sharded_full_scan_top_k(sharded, raster, k, ctx, meter, pool, &options);

  std::string why;
  EXPECT_EQ(result.merged.status, ResultStatus::kComplete);
  EXPECT_TRUE(identical_hits(exact, result.merged, why)) << why;
  EXPECT_TRUE(unique_locations(result.merged, why)) << why;
  EXPECT_EQ(result.fault_stats.hedges_won, 4u);
  EXPECT_GE(result.fault_stats.hedges_launched, 4u);
  EXPECT_EQ(result.fault_stats.failed_shards, 0u);
  EXPECT_EQ(result.fault_stats.bounds_widened, 0u);
}

TEST(ChaosHedging, PrimaryWinsWhenTheHedgeLegAlwaysFails) {
  const PooledArchive& pooled = *archive_pool()[3];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const std::size_t k = 10;
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = full_scan_top_k(*pooled.archive, raster, k, serial_meter);

  const ShardedArchive sharded(*pooled.archive, 4, ShardPolicy::kRowBands);
  ScriptedChaos chaos(+[](std::size_t, int attempt) {
    ShardFaultAction action;
    if (attempt >= kHedgeAttemptBase) action.kind = ShardFault::kFail;
    return action;
  });
  ShardFaultPolicy policy;
  policy.max_attempts = 1;
  policy.hedge = true;
  policy.hedge_delay = std::chrono::nanoseconds(0);
  const ShardExecOptions options{policy, &chaos, nullptr};

  ThreadPool pool(3);
  QueryContext ctx;
  CostMeter meter;
  const ShardedTopK result =
      sharded_full_scan_top_k(sharded, raster, k, ctx, meter, pool, &options);

  std::string why;
  EXPECT_EQ(result.merged.status, ResultStatus::kComplete);
  EXPECT_TRUE(identical_hits(exact, result.merged, why)) << why;
  EXPECT_TRUE(unique_locations(result.merged, why)) << why;
  EXPECT_EQ(result.fault_stats.hedges_won, 0u);
  EXPECT_EQ(result.fault_stats.failed_shards, 0u);
  EXPECT_EQ(result.fault_stats.bounds_widened, 0u);
}

// Both legs run clean and race to the winner CAS.  Whichever wins, the
// result must be byte-identical to serial and contain no duplicated pixel —
// first-result-wins must never double-merge.  Repeated to give the race
// room to land both ways.
TEST(ChaosHedging, TieBetweenCleanPrimaryAndCleanHedgeNeverDoubleMerges) {
  const PooledArchive& pooled = *archive_pool()[1];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const std::size_t k = 12;
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = full_scan_top_k(*pooled.archive, raster, k, serial_meter);

  ShardFaultPolicy policy;
  policy.hedge = true;
  policy.hedge_delay = std::chrono::nanoseconds(0);  // hedge every shard immediately
  const ShardExecOptions options{policy, nullptr, nullptr};
  ASSERT_TRUE(options.active());

  for (const std::size_t shards : {2UL, 8UL}) {
    const ShardedArchive sharded(*pooled.archive, shards, ShardPolicy::kTileHash);
    for (const std::size_t workers : {1UL, 3UL}) {
      for (int rep = 0; rep < 10; ++rep) {
        SCOPED_TRACE("shards=" + std::to_string(shards) + " workers=" +
                     std::to_string(workers) + " rep=" + std::to_string(rep));
        ThreadPool pool(workers);
        QueryContext ctx;
        CostMeter meter;
        const ShardedTopK result =
            sharded_full_scan_top_k(sharded, raster, k, ctx, meter, pool, &options);
        std::string why;
        EXPECT_EQ(result.merged.status, ResultStatus::kComplete);
        EXPECT_TRUE(identical_hits(exact, result.merged, why)) << why;
        EXPECT_TRUE(unique_locations(result.merged, why)) << why;
        EXPECT_EQ(result.fault_stats.failed_shards, 0u);
        EXPECT_EQ(result.fault_stats.bounds_widened, 0u);
      }
    }
  }
}

// ---------------------------------------------------------- degraded shards

TEST(ChaosFaultDomains, DeadShardWidensTheBoundAndDegradesOnlyItself) {
  const PooledArchive& pooled = *archive_pool()[3];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const std::size_t k = 16;
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = full_scan_top_k(*pooled.archive, raster, k, serial_meter);

  const ShardedArchive sharded(*pooled.archive, 4, ShardPolicy::kRowBands);
  ASSERT_EQ(live_shards(sharded), 4u);
  ScriptedChaos chaos(+[](std::size_t shard, int) {
    ShardFaultAction action;
    if (shard == 0) action.kind = ShardFault::kFail;
    return action;
  });
  ShardFaultPolicy policy;
  policy.max_attempts = 2;
  policy.retry_initial_backoff = std::chrono::microseconds(10);
  const ShardExecOptions options{policy, &chaos, nullptr};

  for (const std::size_t workers : {0UL, 3UL}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    QueryContext ctx;
    CostMeter meter;
    const ShardedTopK result =
        sharded_full_scan_top_k(sharded, raster, k, ctx, meter, pool, &options);

    std::string why;
    EXPECT_EQ(result.merged.status, ResultStatus::kDegraded);
    EXPECT_EQ(result.fault_stats.failed_shards, 1u);
    EXPECT_GE(result.fault_stats.bounds_widened, 1u);
    EXPECT_EQ(result.fault_stats.retries, 1u);  // shard 0 used its second attempt
    ASSERT_EQ(result.shard_status.size(), 4u);
    EXPECT_EQ(result.shard_status[0], ResultStatus::kDegraded);
    for (std::size_t s = 1; s < 4; ++s) {
      EXPECT_EQ(result.shard_status[s], ResultStatus::kComplete) << "shard " << s;
    }
    EXPECT_FALSE(result.merged.hits.empty());
    EXPECT_TRUE(sound_prefix(result.merged, exact, why)) << why;
    EXPECT_TRUE(sound_bound(result.merged, exact, why)) << why;
    // The widened bound is real: it covers every score the dead shard holds.
    EXPECT_TRUE(std::isfinite(result.merged.missed_bound));
  }
}

TEST(ChaosFaultDomains, EveryLiveShardDeadCollapsesToShed) {
  const PooledArchive& pooled = *archive_pool()[2];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const ShardedArchive sharded(*pooled.archive, 4, ShardPolicy::kTileHash);
  ScriptedChaos chaos(+[](std::size_t, int) {
    ShardFaultAction action;
    action.kind = ShardFault::kFail;
    return action;
  });
  ShardFaultPolicy policy;  // single attempt, no hedge: every leg dies
  const ShardExecOptions options{policy, &chaos, nullptr};
  ASSERT_TRUE(options.active());

  for (const std::size_t workers : {0UL, 3UL}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    QueryContext ctx;
    CostMeter meter;
    const ShardedTopK result =
        sharded_full_scan_top_k(sharded, raster, 8, ctx, meter, pool, &options);
    EXPECT_EQ(result.merged.status, ResultStatus::kShed);
    EXPECT_TRUE(result.merged.hits.empty());
    EXPECT_EQ(result.merged.missed_bound, std::numeric_limits<double>::infinity());
    EXPECT_EQ(result.fault_stats.failed_shards, live_shards(sharded));
  }
}

TEST(ChaosFaultDomains, ShardTimeoutDegradesTheMergeWithoutTruncatingIt) {
  const PooledArchive& pooled = *archive_pool()[0];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const ShardedArchive sharded(*pooled.archive, 2, ShardPolicy::kRowBands);

  // Every attempt stalls 5ms against a 1ms sub-deadline: the delay is
  // interruptible, the sub-deadline trips, and the shard is kept degraded
  // with a widened bound — never a truncated status (no global envelope
  // exists to justify one).
  ChaosPolicy::Config cfg;
  cfg.seed = 9;
  cfg.delay_rate = 1.0;
  cfg.delay = std::chrono::milliseconds(5);
  ChaosPolicy chaos(cfg);
  ShardFaultPolicy policy;
  policy.shard_timeout = std::chrono::milliseconds(1);
  const ShardExecOptions options{policy, &chaos, nullptr};

  ThreadPool pool(3);
  QueryContext ctx;
  CostMeter meter;
  const auto t0 = std::chrono::steady_clock::now();
  const ShardedTopK result =
      sharded_full_scan_top_k(sharded, raster, 8, ctx, meter, pool, &options);
  const auto wall = std::chrono::steady_clock::now() - t0;

  EXPECT_EQ(result.merged.status, ResultStatus::kDegraded);
  EXPECT_FALSE(is_truncated(result.merged.status));
  EXPECT_GE(result.fault_stats.timeouts, 2u);
  EXPECT_GE(result.fault_stats.bounds_widened, 2u);
  EXPECT_EQ(result.fault_stats.failed_shards, 0u);  // kept partials, not dead legs
  EXPECT_TRUE(std::isfinite(result.merged.missed_bound));
  // The run waited out sub-deadlines, not the full injected stalls.
  EXPECT_LT(wall, std::chrono::seconds(2));
}

// --------------------------------------------------- observability surfaces

TEST(ChaosObservability, MetricsAndExplainSurfaceTheFaultDomainEvents) {
  const PooledArchive& pooled = *archive_pool()[3];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const std::size_t k = 10;
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = full_scan_top_k(*pooled.archive, raster, k, serial_meter);

  const ShardedArchive sharded(*pooled.archive, 4, ShardPolicy::kRowBands);
  // One transient fault: shard 0's first attempt fails, the retry succeeds.
  ScriptedChaos chaos(+[](std::size_t shard, int attempt) {
    ShardFaultAction action;
    if (shard == 0 && attempt == 0) action.kind = ShardFault::kFail;
    return action;
  });
  ShardFaultPolicy policy;
  policy.max_attempts = 2;
  policy.retry_initial_backoff = std::chrono::microseconds(10);
  obs::MetricsRegistry registry;
  const ShardFaultMetrics metrics(registry);
  const ShardExecOptions options{policy, &chaos, &metrics};

  obs::Tracer tracer(4);
  auto trace = tracer.start_trace("chaos_raster");
  ThreadPool pool(2);
  CostMeter meter;
  ShardedTopK result;
  {
    obs::Span root(trace.get(), "query");
    QueryContext ctx;
    ctx.with_span(&root);
    result = sharded_full_scan_top_k(sharded, raster, k, ctx, meter, pool, &options);
  }
  tracer.finish(trace);

  std::string why;
  EXPECT_EQ(result.merged.status, ResultStatus::kComplete);
  EXPECT_TRUE(identical_hits(exact, result.merged, why)) << why;
  EXPECT_EQ(result.fault_stats.retries, 1u);
  EXPECT_EQ(result.fault_stats.faults_injected, 1u);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter("engine_shard_attempts_total"), 5u);  // 4 shards + 1 retry
  EXPECT_EQ(snap.counter("engine_shard_retries_total"), 1u);
  EXPECT_EQ(snap.counter("engine_shard_faults_injected_total"), 1u);
  EXPECT_EQ(snap.counter("engine_shard_failed_total"), 0u);

  const auto retained = tracer.latest();
  ASSERT_NE(retained, nullptr);
  const std::string text = obs::ExplainReport::from_trace(*retained).to_text();
  EXPECT_NE(text.find("shard_0"), std::string::npos) << text;
  EXPECT_NE(text.find("fault-domain:"), std::string::npos) << text;
  EXPECT_NE(text.find("retries=1"), std::string::npos) << text;
}

TEST(ChaosObservability, EngineSkipsCacheForFaultedRunsAndHealthzDegrades) {
  const PooledArchive& pooled = *archive_pool()[3];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const ProgressiveLinearModel progressive(model, pooled.ranges);
  const ShardedArchive sharded(*pooled.archive, 4, ShardPolicy::kRowBands);

  ScriptedChaos chaos(+[](std::size_t shard, int) {
    ShardFaultAction action;
    if (shard == 0) action.kind = ShardFault::kFail;
    return action;
  });
  EngineConfig config;
  config.dispatchers = 2;
  config.intra_query_threads = 2;
  config.metrics = nullptr;
  config.shard_chaos = &chaos;
  QueryEngine engine(config);

  ShardedRasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.sharded = &sharded;
  job.model = &raster;
  job.progressive = &progressive;
  job.k = 8;
  job.archive_id = 7;
  job.model_fingerprint = 4242;

  const ShardedRasterOutcome first = engine.submit(job).get();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.result.merged.status, ResultStatus::kDegraded);
  EXPECT_EQ(first.result.fault_stats.failed_shards, 1u);

  // A fault-widened answer is an artifact of THIS execution's faults and
  // must not be served to later queries: the replay re-executes.
  const ShardedRasterOutcome replay = engine.submit(job).get();
  EXPECT_FALSE(replay.cache_hit);

  const EngineHealth health = engine.health();
  EXPECT_TRUE(health.degraded);
  ASSERT_FALSE(health.layouts.empty());
  bool found = false;
  for (const ShardLayoutHealth& layout : health.layouts) {
    if (layout.layout_tag == sharded.layout_tag()) {
      found = true;
      EXPECT_EQ(layout.shard_count, 4u);
      EXPECT_GE(layout.executions, 2u);
      EXPECT_GE(layout.failed_shards, 2u);
    }
  }
  EXPECT_TRUE(found) << "no health entry for the job's shard layout";
}

TEST(ChaosObservability, CleanEngineReportsHealthyWithNoLayoutWindow) {
  const PooledArchive& pooled = *archive_pool()[1];
  const LinearModel model = directed_model();
  const LinearRasterModel raster(model);
  const ProgressiveLinearModel progressive(model, pooled.ranges);
  const ShardedArchive sharded(*pooled.archive, 2, ShardPolicy::kRowBands);

  EngineConfig config;
  config.dispatchers = 1;
  config.intra_query_threads = 2;
  config.metrics = nullptr;
  QueryEngine engine(config);

  ShardedRasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.sharded = &sharded;
  job.model = &raster;
  job.progressive = &progressive;
  job.k = 4;
  job.archive_id = 3;
  job.model_fingerprint = 99;
  const ShardedRasterOutcome outcome = engine.submit(job).get();
  EXPECT_EQ(outcome.result.merged.status, ResultStatus::kComplete);

  // Inert fault policy: the legacy path ran, nothing recorded, healthy.
  const EngineHealth health = engine.health();
  EXPECT_FALSE(health.degraded);
  EXPECT_TRUE(health.layouts.empty());
}

// ------------------------------------------------------------ retry backoff

TEST(ChaosBackoff, JitteredDelaySequenceIsSeededAndStreamDecorrelated) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds(100);
  policy.max_backoff = std::chrono::microseconds(800);
  policy.jitter = 0.5;
  policy.jitter_seed = 1234;

  ExponentialBackoff a(policy, /*stream=*/3);
  ExponentialBackoff b(policy, /*stream=*/3);
  ExponentialBackoff other(policy, /*stream=*/4);
  bool streams_diverge = false;
  for (int i = 0; i < 6; ++i) {
    const auto delay = a.next_delay();
    EXPECT_EQ(delay.count(), b.next_delay().count()) << "draw " << i;
    if (delay.count() != other.next_delay().count()) streams_diverge = true;
    // Jitter only shortens: delay in (base/2, base] with jitter = 0.5.
    const std::int64_t base = std::min<std::int64_t>(100LL << i, 800);
    EXPECT_LE(delay.count(), base) << "draw " << i;
    EXPECT_GT(delay.count(), base / 2) << "draw " << i;
  }
  EXPECT_TRUE(streams_diverge) << "distinct streams produced identical jitter";

  // jitter = 0 disables it: the exact capped exponential sequence.
  policy.jitter = 0.0;
  ExponentialBackoff exact(policy, 3);
  for (const std::int64_t expected : {100LL, 200LL, 400LL, 800LL, 800LL}) {
    EXPECT_EQ(exact.next_delay().count(), expected);
  }
}

}  // namespace
}  // namespace mmir
