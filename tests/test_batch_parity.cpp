// Generator-driven fuzz-parity battery for batched admission.
//
// Hundreds of seeded cases drawn from the procedural scenario generator
// (src/testing/scenario_gen.hpp) run through four lenses:
//
//   1. QueryEngine groups at fan-in 1/4/16/64 — every member's result, meter
//      and budget books must equal its solo serial run's, its bill must not
//      bleed across members (identical at every fan-in), and budget-tripped
//      members must trip on their own unit and certify a sound prefix while
//      their batch-mates complete;
//   2. the QueryEngine's batched admission at batch sizes 1/4/16/64 and
//      1/2/4 dispatchers — the full production path, including the result
//      cache and the `batch` EXPLAIN span;
//   3. batched ShardScanJobs against direct scan_shard_partial — the unit a
//      shard server executes, including empty shards;
//   4. the group contract: members run in arrival order, consecutive linear
//      full scans as one shared pass (one start, answered when the pass
//      ends), every other member answered when its own scan ends, each with
//      its own queue wait, execution time and exception.
//
// Every case derives from a printed seed, so any failure reproduces
// standalone.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archive/sharded.hpp"
#include "core/progressive_exec.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "testing/scenario_gen.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

/// A generated scenario archive reused across cases.
struct PooledScenario {
  GeneratedArchive gen;
  std::vector<Interval> ranges;

  explicit PooledScenario(const ScenarioConfig& cfg) : gen(generate_scenario(cfg)) {
    const auto r = gen.tiled().band_ranges();
    ranges.assign(r.begin(), r.end());
  }
};

const std::vector<std::unique_ptr<PooledScenario>>& scenario_pool() {
  static const auto pool = [] {
    std::vector<std::unique_ptr<PooledScenario>> p;
    std::uint64_t seed = 900;
    for (ScenarioKind kind : kAllScenarioKinds) {
      ScenarioConfig cfg;
      cfg.kind = kind;
      cfg.width = 64;
      cfg.height = 48;
      cfg.tile_size = 16;
      cfg.seed = seed++;
      p.push_back(std::make_unique<PooledScenario>(cfg));
    }
    // Two off-grid variants: uneven tile remainders + small tiles.
    ScenarioConfig sparse;
    sparse.kind = ScenarioKind::kSparse;
    sparse.width = 40;
    sparse.height = 56;
    sparse.tile_size = 8;
    sparse.seed = seed++;
    p.push_back(std::make_unique<PooledScenario>(sparse));
    ScenarioConfig ties;
    ties.kind = ScenarioKind::kTieStorm;
    ties.width = 44;
    ties.height = 28;
    ties.tile_size = 8;
    ties.seed = seed++;
    p.push_back(std::make_unique<PooledScenario>(ties));
    return p;
  }();
  return pool;
}

struct Case {
  std::uint64_t seed = 0;
  std::size_t archive_index = 0;
  const PooledScenario* pooled = nullptr;
  RasterJob::Mode mode = RasterJob::Mode::kFullScan;
  std::size_t k = 1;
  LinearModel model{{0.0}, 0.0, {"w"}};
  bool budgeted = false;
  std::uint64_t budget = 0;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " scenario=" << scenario_name(pooled->gen.config.kind)
       << " archive=" << archive_index << " mode=" << static_cast<int>(mode) << " k=" << k
       << " budgeted=" << budgeted << " budget=" << budget;
    return os.str();
  }
};

LinearModel make_model(Rng& rng, std::size_t bands) {
  std::vector<double> weights(bands);
  std::vector<std::string> names(bands);
  for (std::size_t b = 0; b < bands; ++b) names[b] = "band" + std::to_string(b);
  double bias = 0.0;
  if (rng.bernoulli(0.5)) {
    // Integer weights + quarter-integer bias: exactly representable, so the
    // quantized scenarios (tie_storm, constant_tile) produce REAL score ties
    // and exercise the canonical (score, pixel-rank) tie-break.
    for (double& w : weights) {
      w = rng.bernoulli(0.15) ? 0.0 : static_cast<double>(rng.uniform_int(5)) - 2.0;
    }
    bias = 0.25 * (static_cast<double>(rng.uniform_int(17)) - 8.0);
  } else {
    for (double& w : weights) w = rng.bernoulli(0.15) ? 0.0 : rng.uniform(-2.0, 2.0);
    bias = rng.uniform(-5.0, 5.0);
  }
  return LinearModel(std::move(weights), bias, std::move(names));
}

Case make_case(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  Case c;
  c.seed = seed;
  c.archive_index = rng.uniform_int(scenario_pool().size());
  c.pooled = scenario_pool()[c.archive_index].get();
  c.mode = static_cast<RasterJob::Mode>(rng.uniform_int(4));
  c.k = 1 + rng.uniform_int(24);
  c.model = make_model(rng, c.pooled->gen.tiled().band_count());
  c.budgeted = rng.bernoulli(0.3);
  if (c.budgeted) {
    const std::size_t pixels = c.pooled->gen.tiled().pixel_count();
    c.budget = 16 + rng.uniform_int(pixels * 4ULL);
  }
  return c;
}

/// Same case, pinned to a specific archive (batch-mates must share one).
Case make_case_on(std::uint64_t seed, std::size_t archive_index) {
  Case c = make_case(seed);
  c.archive_index = archive_index;
  c.pooled = scenario_pool()[archive_index].get();
  return c;
}

RasterTopK run_serial(const Case& c, const LinearRasterModel& raster,
                      const ProgressiveLinearModel& progressive, QueryContext& ctx,
                      CostMeter& meter) {
  const TiledArchive& archive = c.pooled->gen.tiled();
  switch (c.mode) {
    case RasterJob::Mode::kFullScan:
      return full_scan_top_k(archive, raster, c.k, ctx, meter);
    case RasterJob::Mode::kProgressiveModel:
      return progressive_model_top_k(archive, progressive, c.k, ctx, meter);
    case RasterJob::Mode::kTileScreened:
      return tile_screened_top_k(archive, raster, c.k, ctx, meter);
    case RasterJob::Mode::kCombined:
      return progressive_combined_top_k(archive, progressive, c.k, ctx, meter);
  }
  return {};
}

/// Byte-identity: same hits (location AND score, rank for rank), same status,
/// same bad-point count.
bool identical(const RasterTopK& expected, const RasterTopK& got, std::string& why) {
  if (expected.status != got.status) {
    why = std::string("status ") + to_string(got.status) + " != " + to_string(expected.status);
    return false;
  }
  if (expected.bad_points != got.bad_points) {
    why = "bad_points diverge";
    return false;
  }
  if (expected.hits.size() != got.hits.size()) {
    why = "hit count " + std::to_string(got.hits.size()) + " != " +
          std::to_string(expected.hits.size());
    return false;
  }
  for (std::size_t i = 0; i < expected.hits.size(); ++i) {
    if (expected.hits[i].x != got.hits[i].x || expected.hits[i].y != got.hits[i].y ||
        expected.hits[i].score != got.hits[i].score) {
      why = "hit " + std::to_string(i) + " diverges";
      return false;
    }
  }
  return true;
}

/// Soundness of a truncated result: the certified prefix matches the exact
/// answer byte for byte (canonical order makes even the locations unique).
bool sound_prefix(const RasterTopK& result, const RasterTopK& exact, std::string& why) {
  const std::size_t certified = result.certified_prefix();
  if (certified > exact.hits.size()) {
    why = "certified prefix longer than the exact answer";
    return false;
  }
  for (std::size_t i = 0; i < certified; ++i) {
    if (result.hits[i].x != exact.hits[i].x || result.hits[i].y != exact.hits[i].y ||
        result.hits[i].score != exact.hits[i].score) {
      why = "certified rank " + std::to_string(i) + " diverges from the exact answer";
      return false;
    }
  }
  return true;
}

struct MeterSnapshot {
  std::uint64_t points = 0;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t pruned = 0;

  explicit MeterSnapshot(const CostMeter& m)
      : points(m.points()), ops(m.ops()), bytes(m.bytes()), pruned(m.pruned()) {}
  bool operator==(const MeterSnapshot& o) const {
    return points == o.points && ops == o.ops && bytes == o.bytes && pruned == o.pruned;
  }
};

/// Everything a solo run reports that a batched member must reproduce: the
/// result bytes (including the missed bound), the meter and the context's
/// books.
bool same_as_solo(const RasterTopK& solo, const MeterSnapshot& solo_meter,
                  std::uint64_t solo_spent, const RasterOutcome& got, std::string& why) {
  if (!identical(solo, got.result, why)) return false;
  if (std::bit_cast<std::uint64_t>(solo.missed_bound) !=
      std::bit_cast<std::uint64_t>(got.result.missed_bound)) {
    why = "missed bound diverges";
    return false;
  }
  if (!(MeterSnapshot(got.meter) == solo_meter)) {
    why = "meter diverges from the solo meter";
    return false;
  }
  if (got.budget_spent != solo_spent) {
    why = "budget_spent " + std::to_string(got.budget_spent) + " != solo spent() " +
          std::to_string(solo_spent);
    return false;
  }
  return true;
}

/// One member's models and future, address-stable while the engine runs it.
struct MemberRun {
  Case c;
  LinearRasterModel raster;
  ProgressiveLinearModel progressive;
  std::future<RasterOutcome> future;

  explicit MemberRun(Case cc)
      : c(std::move(cc)), raster(c.model), progressive(c.model, c.pooled->ranges) {}

  void submit(QueryEngine& engine) {
    RasterJob job;
    job.mode = c.mode;
    job.archive = &c.pooled->gen.tiled();
    job.model = &raster;
    job.progressive = &progressive;
    job.k = c.k;
    if (c.budgeted) job.limits.op_budget = c.budget;
    future = engine.submit(std::move(job));
  }

  /// The same query run solo through the serial executors, under the same
  /// budget: the result, meter and books a batched run must reproduce.
  RasterTopK solo(CostMeter& meter, std::uint64_t& spent) const {
    QueryContext ctx;
    if (c.budgeted) ctx.with_op_budget(c.budget);
    RasterTopK out = run_serial(c, raster, progressive, ctx, meter);
    spent = ctx.spent();
    return out;
  }
};

/// A paused engine whose groups close at exactly `fanin` members when every
/// archive receives a multiple of `fanin` submissions; fan-in 1 is the solo
/// path.  Uncached (the jobs carry no archive id), so every member scans.
EngineConfig batch_config(std::size_t fanin, std::size_t dispatchers) {
  EngineConfig config;
  config.dispatchers = dispatchers;
  config.intra_query_threads = 0;
  config.queue_capacity = 4096;
  config.batch_max_fanin = fanin;
  config.batch_window = std::chrono::milliseconds(100);
  config.start_paused = true;
  config.metrics = nullptr;
  return config;
}

// ---------------------------------------------------------------------------
// 1. Engine groups: byte-identity, meter no-bleed, trip isolation.
// ---------------------------------------------------------------------------

TEST(BatchParity, EngineMembersMatchSerialAtEveryFanIn) {
  constexpr std::uint64_t kCases = 72;
  const std::size_t kFanIns[] = {1, 4, 16, 64};
  // Per case: its member's result and bill at fan-in 1 (the no-bleed
  // baseline), and the first failure seen.
  std::vector<std::unique_ptr<RasterTopK>> baseline_result(kCases);
  std::vector<std::unique_ptr<MeterSnapshot>> baseline_meter(kCases);
  std::vector<std::string> why(kCases);

  for (const std::size_t fanin : kFanIns) {
    QueryEngine engine(batch_config(fanin, 2));
    // Member 0 of each group is the case under test; fillers share its
    // archive and mix modes and budgets so tripping mates ride along.  Every
    // case submits exactly `fanin` jobs, so its group holds just its own.
    std::vector<std::deque<MemberRun>> groups(kCases);
    for (std::uint64_t seed = 0; seed < kCases; ++seed) {
      if (fanin == 64 && seed % 4 != 0) continue;
      const Case c = make_case(seed);
      groups[seed].emplace_back(c);
      for (std::size_t j = 1; j < fanin; ++j) {
        groups[seed].emplace_back(make_case_on(seed * 1000 + j + 50000, c.archive_index));
      }
      for (MemberRun& r : groups[seed]) r.submit(engine);
    }
    engine.resume();

    for (std::uint64_t seed = 0; seed < kCases; ++seed) {
      if (groups[seed].empty() || !why[seed].empty()) continue;
      const std::string at = " (fanin=" + std::to_string(fanin) + ")";
      const Case& c = groups[seed][0].c;
      const LinearRasterModel& raster = groups[seed][0].raster;
      const ProgressiveLinearModel& progressive = groups[seed][0].progressive;
      std::vector<RasterOutcome> outcomes;
      for (MemberRun& r : groups[seed]) outcomes.push_back(r.future.get());

      // Every member — the case and each batch-mate — returns what its solo
      // serial run returns, bills what it bills and books what it books.
      for (std::size_t i = 0; i < outcomes.size() && why[seed].empty(); ++i) {
        CostMeter solo_meter;
        std::uint64_t solo_spent = 0;
        const RasterTopK solo = groups[seed][i].solo(solo_meter, solo_spent);
        std::string w;
        if (!same_as_solo(solo, MeterSnapshot(solo_meter), solo_spent, outcomes[i], w)) {
          why[seed] = "member " + std::to_string(i) + ": " + w + at;
        }
      }
      if (!why[seed].empty()) continue;

      // The exact (unbudgeted) answer, and the meter the serial executor
      // billed for it.
      QueryContext exact_ctx;
      CostMeter exact_meter;
      const RasterTopK exact = run_serial(c, raster, progressive, exact_ctx, exact_meter);
      const RasterTopK& got = outcomes[0].result;
      const MeterSnapshot got_meter(outcomes[0].meter);
      std::string w;
      if (!c.budgeted) {
        if (!identical(exact, got, w)) {
          why[seed] = w + at;
          continue;
        }
        // Unbudgeted, the member's meter is the solo serial meter byte for
        // byte, in every mode.
        if (!(got_meter == MeterSnapshot(exact_meter))) {
          why[seed] = "meter diverges from solo" + at;
          continue;
        }
      } else if (!is_truncated(got.status)) {
        if (!identical(exact, got, w)) {
          why[seed] = w + " (within-budget completion" + at + ")";
          continue;
        }
      } else if (!sound_prefix(got, exact, w)) {
        why[seed] = w + at;
        continue;
      }
      // No cross-member bleed: the member's result AND its bill are a pure
      // function of its own query — identical whoever rides along.
      if (baseline_result[seed] == nullptr) {
        baseline_result[seed] = std::make_unique<RasterTopK>(got);
        baseline_meter[seed] = std::make_unique<MeterSnapshot>(got_meter);
      } else if (!identical(*baseline_result[seed], got, w)) {
        why[seed] = w + " (fan-in bleed" + at + ")";
      } else if (!(got_meter == *baseline_meter[seed])) {
        why[seed] = "meter bleeds across fan-ins" + at;
      }
    }
  }

  std::ostringstream failing;
  for (std::uint64_t seed = 0; seed < kCases; ++seed) {
    if (why[seed].empty()) continue;
    ADD_FAILURE() << make_case(seed).describe() << ": " << why[seed];
    failing << ' ' << seed;
  }
  EXPECT_TRUE(failing.str().empty()) << "failing case seeds:" << failing.str();
}

TEST(BatchParity, EngineBudgetedMembersTripOnTheirOwnUnit) {
  // A member spends its budget one pixel (full model) or one term (staged)
  // at a time, whoever rides along: it is refused exactly when the next
  // request no longer fits, its meter shows the work done up to there, and
  // its context's books add the refused request.  Its unbudgeted batch-mates
  // complete with their solo answers.
  const TiledArchive& archive = scenario_pool()[0]->gen.tiled();
  const std::uint64_t bands = archive.band_count();
  const std::uint64_t full_cost = archive.pixel_count() * bands;
  for (const RasterJob::Mode mode :
       {RasterJob::Mode::kFullScan, RasterJob::Mode::kProgressiveModel}) {
    const bool staged = mode == RasterJob::Mode::kProgressiveModel;
    const std::uint64_t unit = staged ? 1 : bands;
    for (const std::size_t fanin : {1UL, 4UL}) {
      QueryEngine engine(batch_config(fanin, 1));
      std::vector<std::uint64_t> budgets;
      std::deque<MemberRun> runs;  // fanin runs per budget: the member, then its mates
      for (std::uint64_t budget = 0; budget < full_cost + 2 * bands; budget += 37) {
        budgets.push_back(budget);
        Case c = make_case_on(7, 0);
        c.mode = mode;
        c.budgeted = true;
        c.budget = budget;
        runs.emplace_back(c);
        for (std::size_t j = 1; j < fanin; ++j) {
          Case filler = make_case_on(100 + j, 0);
          filler.mode = RasterJob::Mode::kFullScan;
          filler.budgeted = false;
          runs.emplace_back(filler);
        }
      }
      for (MemberRun& r : runs) r.submit(engine);
      engine.resume();

      // The mates' solo answers, one per filler seed.
      std::vector<RasterTopK> mate_exact;
      for (std::size_t j = 1; j < fanin; ++j) {
        CostMeter meter;
        std::uint64_t spent = 0;
        mate_exact.push_back(runs[j].solo(meter, spent));
      }
      for (std::size_t b = 0; b < budgets.size(); ++b) {
        const std::uint64_t budget = budgets[b];
        SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode) << " budget "
                                        << budget << " fanin " << fanin);
        const RasterOutcome member = runs[b * fanin].future.get();
        const std::uint64_t work = member.meter.ops();
        if (is_truncated(member.result.status)) {
          EXPECT_EQ(member.result.status, ResultStatus::kTruncatedBudget);
          EXPECT_LE(work, budget);
          EXPECT_GT(work + unit, budget);
          EXPECT_EQ(member.budget_spent, work + unit);
        } else {
          EXPECT_LE(work, budget);
          EXPECT_EQ(member.budget_spent, work);
          if (!staged) {
            EXPECT_EQ(work, full_cost);
          }
        }
        for (std::size_t j = 1; j < fanin; ++j) {
          const RasterOutcome mate = runs[b * fanin + j].future.get();
          std::string why;
          EXPECT_FALSE(is_truncated(mate.result.status));
          EXPECT_TRUE(identical(mate_exact[j - 1], mate.result, why)) << "mate " << j << ": " << why;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Engine-level batched admission across batch sizes and dispatchers.
// ---------------------------------------------------------------------------

TEST(BatchParity, EngineBatchedSubmissionsMatchSerial) {
  const std::size_t kDispatchers[] = {1, 2, 4};
  const std::size_t kBatchSizes[] = {1, 4, 16, 64};
  std::vector<std::string> failures;
  std::size_t config_index = 0;
  for (std::size_t dispatchers : kDispatchers) {
    for (std::size_t batch : kBatchSizes) {
      // Submit all members while paused: groups form deterministically, the
      // member count is a multiple of the fan-in cap, so every batch closes
      // at exactly `batch` members with no window waits.
      const std::size_t n = batch <= 4 ? 12 : batch;
      const std::size_t archive_index = config_index % scenario_pool().size();
      obs::Tracer tracer(128);
      EngineConfig config;
      config.dispatchers = dispatchers;
      config.intra_query_threads = 0;
      config.batch_max_fanin = batch;
      config.batch_window = std::chrono::milliseconds(100);
      config.start_paused = true;
      config.metrics = nullptr;
      config.tracer = &tracer;
      QueryEngine engine(config);

      struct EngineRun {
        Case c;
        LinearRasterModel raster;
        ProgressiveLinearModel progressive;
        std::future<RasterOutcome> future;

        explicit EngineRun(Case cc)
            : c(std::move(cc)), raster(c.model), progressive(c.model, c.pooled->ranges) {}
      };
      std::deque<EngineRun> runs;
      for (std::size_t j = 0; j < n; ++j) {
        runs.emplace_back(make_case_on(20000 + config_index * 100 + j, archive_index));
      }
      for (std::size_t j = 0; j < n; ++j) {
        EngineRun& r = runs[j];
        RasterJob job;
        job.mode = r.c.mode;
        job.archive = &r.c.pooled->gen.tiled();
        job.model = &r.raster;
        job.progressive = &r.progressive;
        job.k = r.c.k;
        job.archive_id = archive_index + 1;
        job.model_fingerprint = r.c.seed + 1;  // unique per case
        if (r.c.budgeted) job.limits.op_budget = r.c.budget;
        r.future = engine.submit(std::move(job));
      }
      engine.resume();

      for (EngineRun& r : runs) {
        const std::string where = r.c.describe() + " batch=" + std::to_string(batch) +
                                  " dispatchers=" + std::to_string(dispatchers);
        const RasterOutcome outcome = r.future.get();
        QueryContext ctx;
        CostMeter meter;
        const RasterTopK exact = run_serial(r.c, r.raster, r.progressive, ctx, meter);
        std::string why;
        if (!r.c.budgeted) {
          if (!identical(exact, outcome.result, why)) failures.push_back(where + ": " + why);
        } else if (!is_truncated(outcome.result.status)) {
          if (!identical(exact, outcome.result, why)) {
            failures.push_back(where + ": " + why + " (within-budget completion)");
          }
        } else if (!sound_prefix(outcome.result, exact, why)) {
          failures.push_back(where + ": " + why);
        }
      }
      engine.drain();

      // Every batched execution must leave a well-formed `batch` trace whose
      // root records the fan-in and carries one child span per member.
      if (batch > 1) {
        std::size_t batch_traces = 0;
        std::size_t members_traced = 0;
        for (const auto& trace : tracer.recent()) {
          if (trace->name() != "batch") continue;
          ++batch_traces;
          EXPECT_TRUE(trace->well_formed());
          const std::vector<obs::SpanRecord> spans = trace->spans();
          ASSERT_FALSE(spans.empty());
          double fan_in = 0.0;
          for (const auto& [key, value] : spans[0].attrs) {
            if (key == "fan_in") fan_in = value;
          }
          std::size_t children = 0;
          for (const obs::SpanRecord& span : spans) {
            if (span.parent == 0) ++children;
          }
          EXPECT_EQ(static_cast<std::size_t>(fan_in), children)
              << "batch root fan_in disagrees with member child spans";
          members_traced += children;
        }
        EXPECT_EQ(batch_traces, n / batch) << "unexpected batch count";
        EXPECT_EQ(members_traced, n) << "every member should appear under a batch root";
      }
      ++config_index;
    }
  }
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

// ---------------------------------------------------------------------------
// 3. Batched ShardScanJobs against the direct shard-scan oracle.
// ---------------------------------------------------------------------------

TEST(BatchParity, BatchedShardScansMatchDirectPartials) {
  struct ShardedSetup {
    const PooledScenario* pooled;
    ShardedArchive sharded;
  };
  // 13 shards over 12 tiles guarantees at least one empty shard.
  const std::vector<ShardedSetup> setups = [] {
    std::vector<ShardedSetup> s;
    s.push_back({scenario_pool()[1].get(),
                 ShardedArchive(scenario_pool()[1]->gen.tiled(), 5, ShardPolicy::kRowBands)});
    s.push_back({scenario_pool()[5].get(),
                 ShardedArchive(scenario_pool()[5]->gen.tiled(), 13, ShardPolicy::kTileHash)});
    return s;
  }();

  std::vector<std::string> failures;
  for (std::size_t setup_index = 0; setup_index < setups.size(); ++setup_index) {
    const ShardedSetup& setup = setups[setup_index];
    EngineConfig config;
    config.dispatchers = 2;
    config.intra_query_threads = 0;
    config.batch_max_fanin = 4;
    config.batch_window = std::chrono::milliseconds(100);
    config.start_paused = true;
    config.metrics = nullptr;
    QueryEngine engine(config);

    struct ShardRun {
      Case c;
      std::size_t shard_id;
      LinearRasterModel raster;
      ProgressiveLinearModel progressive;
      std::future<ShardScanOutcome> future;

      ShardRun(Case cc, std::size_t shard)
          : c(std::move(cc)), shard_id(shard), raster(c.model),
            progressive(c.model, c.pooled->ranges) {}
    };
    std::deque<ShardRun> runs;
    for (std::size_t j = 0; j < 12; ++j) {
      Case c = make_case_on(40000 + setup_index * 100 + j,
                            setup_index == 0 ? 1 : 5);  // the setup's archive
      runs.emplace_back(std::move(c), j % setup.sharded.shard_count());
    }
    for (ShardRun& r : runs) {
      ShardScanJob job;
      job.mode = static_cast<ShardScanMode>(r.c.mode);
      job.sharded = &setup.sharded;
      job.shard_id = r.shard_id;
      job.model = &r.raster;
      job.progressive = &r.progressive;
      job.k = r.c.k;
      if (r.c.budgeted) job.limits.op_budget = r.c.budget;
      r.future = engine.submit(std::move(job));
    }
    engine.resume();

    for (ShardRun& r : runs) {
      const std::string where =
          r.c.describe() + " shard=" + std::to_string(r.shard_id) + " setup=" +
          std::to_string(setup_index);
      const ShardScanOutcome outcome = r.future.get();
      QueryContext exact_ctx;
      CostMeter exact_meter;
      const ShardScanResult exact =
          scan_shard_partial(setup.sharded, r.shard_id, static_cast<ShardScanMode>(r.c.mode),
                             &r.raster, &r.progressive, r.c.k, exact_ctx, exact_meter);
      std::string why;
      if (outcome.result.partial.shard_id != r.shard_id) {
        failures.push_back(where + ": shard_id diverges");
        continue;
      }
      if (outcome.result.model_terms != exact.model_terms) {
        failures.push_back(where + ": model_terms diverge");
        continue;
      }
      if (!r.c.budgeted) {
        if (!identical(exact.partial.result, outcome.result.partial.result, why)) {
          failures.push_back(where + ": " + why);
        }
      } else if (!is_truncated(outcome.result.partial.result.status)) {
        if (!identical(exact.partial.result, outcome.result.partial.result, why)) {
          failures.push_back(where + ": " + why + " (within-budget completion)");
        }
      } else if (!sound_prefix(outcome.result.partial.result, exact.partial.result, why)) {
        failures.push_back(where + ": " + why);
      }
    }
    engine.drain();
  }
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

// ---------------------------------------------------------------------------
// 4. The group contract: arrival order, early answers, own accounting.
// ---------------------------------------------------------------------------

/// A non-linear test model that scores like `model`, but whose first
/// evaluate() runs `hook` first — to stall, slow or break one member.
class HookedModel final : public RasterModel {
 public:
  HookedModel(LinearModel model, std::function<void()> hook)
      : model_(std::move(model)), hook_(std::move(hook)) {}

  [[nodiscard]] std::size_t bands() const override { return model_.dim(); }
  [[nodiscard]] double evaluate(std::span<const double> pixel) const override {
    std::call_once(once_, hook_);
    return model_.evaluate(pixel);
  }
  [[nodiscard]] Interval bound(std::span<const Interval> ranges) const override {
    return model_.evaluate_interval(ranges);
  }
  [[nodiscard]] std::size_t ops_per_evaluation() const override { return model_.dim(); }

 private:
  LinearModel model_;
  std::function<void()> hook_;
  mutable std::once_flag once_;
};

/// Submits one full scan per model to `engine`, in order.
std::vector<std::future<RasterOutcome>> submit_full_scans(
    QueryEngine& engine, const TiledArchive& archive,
    const std::vector<const RasterModel*>& models) {
  std::vector<std::future<RasterOutcome>> futures;
  for (const RasterModel* model : models) {
    RasterJob job;
    job.mode = RasterJob::Mode::kFullScan;
    job.archive = &archive;
    job.model = model;
    job.k = 5;
    futures.push_back(engine.submit(std::move(job)));
  }
  return futures;
}

/// Byte-identity against the solo serial full scan of `model`.
void expect_solo_full_scan(const TiledArchive& archive, const RasterModel& model,
                           const RasterOutcome& got) {
  QueryContext ctx;
  CostMeter meter;
  const RasterTopK solo = full_scan_top_k(archive, model, 5, ctx, meter);
  std::string why;
  EXPECT_TRUE(identical(solo, got.result, why)) << why;
  EXPECT_TRUE(MeterSnapshot(got.meter) == MeterSnapshot(meter));
}

TEST(BatchContract, MemberIsAnsweredWhenItsOwnScanEnds) {
  // The second member stalls on a latch the test opens only once the first
  // member's future is ready: a group that answered members at its end
  // would keep the first future waiting until the wait below gives up.
  const TiledArchive& archive = scenario_pool()[0]->gen.tiled();
  Rng rng(11);
  const LinearRasterModel first(make_model(rng, archive.band_count()));
  std::promise<void> latch;
  const std::shared_future<void> opened = latch.get_future().share();
  const HookedModel stalled(make_model(rng, archive.band_count()),
                            [opened] { opened.wait_for(std::chrono::seconds(60)); });

  obs::MetricsRegistry registry;
  EngineConfig config = batch_config(2, 1);
  config.metrics = &registry;
  QueryEngine engine(config);
  auto futures = submit_full_scans(engine, archive, {&first, &stalled});
  engine.resume();
  const bool first_ready =
      futures[0].wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  latch.set_value();
  EXPECT_TRUE(first_ready) << "the first member was not answered while its batch-mate scanned";
  const RasterOutcome a = futures[0].get();
  const RasterOutcome b = futures[1].get();
  expect_solo_full_scan(archive, first, a);
  expect_solo_full_scan(archive, stalled, b);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("engine_batch_batches_total"), 1u);
  EXPECT_EQ(snap.counter("engine_batch_members_total"), 2u);
}

TEST(BatchContract, ThrowingMemberFailsAloneAndMatesKeepTheirAnswers) {
  // The middle member's model throws.  The member answered before it keeps
  // its answer (its promise is never touched again), the one after it still
  // runs, and only the thrower's future carries the exception.
  const TiledArchive& archive = scenario_pool()[0]->gen.tiled();
  Rng rng(12);
  const LinearRasterModel before(make_model(rng, archive.band_count()));
  const HookedModel thrower(make_model(rng, archive.band_count()),
                            [] { throw std::runtime_error("model fault"); });
  const LinearRasterModel after(make_model(rng, archive.band_count()));

  QueryEngine engine(batch_config(3, 1));
  auto futures = submit_full_scans(engine, archive, {&before, &thrower, &after});
  engine.resume();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  }
  expect_solo_full_scan(archive, before, futures[0].get());
  try {
    (void)futures[1].get();
    ADD_FAILURE() << "the throwing member's future holds no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "model fault");
  }
  expect_solo_full_scan(archive, after, futures[2].get());
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(BatchContract, LinearMemberWithTheWrongBandCountFailsAlone) {
  // A linear full scan whose model has one band too many sits between
  // linear batch-mates that would share a pass with it.  The executor
  // rejects that model; only its own future may carry the error.
  const TiledArchive& archive = scenario_pool()[0]->gen.tiled();
  Rng rng(15);
  const LinearRasterModel first(make_model(rng, archive.band_count()));
  const LinearRasterModel second(make_model(rng, archive.band_count()));
  const LinearRasterModel malformed(make_model(rng, archive.band_count() + 1));
  const LinearRasterModel third(make_model(rng, archive.band_count()));
  const LinearRasterModel fourth(make_model(rng, archive.band_count()));

  QueryEngine engine(batch_config(5, 1));
  auto futures =
      submit_full_scans(engine, archive, {&first, &second, &malformed, &third, &fourth});
  engine.resume();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  }
  expect_solo_full_scan(archive, first, futures[0].get());
  expect_solo_full_scan(archive, second, futures[1].get());
  EXPECT_THROW((void)futures[2].get(), Error);
  expect_solo_full_scan(archive, third, futures[3].get());
  expect_solo_full_scan(archive, fourth, futures[4].get());
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(BatchContract, MembersCarryTheirOwnQueueWaitAndExecTime) {
  // The first member sleeps 50 ms; the others are small scans.  Run back to
  // back, each member's queue wait runs to its own start, so it covers the
  // execution of every member before it, and its execution time is its own.
  const TiledArchive& archive = scenario_pool()[0]->gen.tiled();
  Rng rng(13);
  constexpr auto kSleep = std::chrono::milliseconds(50);
  const HookedModel slow(make_model(rng, archive.band_count()),
                         [kSleep] { std::this_thread::sleep_for(kSleep); });
  const LinearRasterModel second(make_model(rng, archive.band_count()));
  const LinearRasterModel third(make_model(rng, archive.band_count()));

  QueryEngine engine(batch_config(3, 1));
  auto futures = submit_full_scans(engine, archive, {&slow, &second, &third});
  engine.resume();
  std::vector<RasterOutcome> out;
  for (auto& f : futures) out.push_back(f.get());

  EXPECT_GE(out[0].exec_time, kSleep);
  // Execution of the members run before this member's pass began: the two
  // linear members share one pass, which begins once the slow member ends.
  std::chrono::nanoseconds before{0};
  for (std::size_t i = 0; i < out.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "member " << i);
    if (i > 0) {
      EXPECT_GT(out[i].dispatch_order, out[i - 1].dispatch_order);
      EXPECT_LT(out[i].exec_time, out[0].exec_time);
    }
    EXPECT_GE(out[i].queue_wait, before);
    if (i == 0) before += out[i].exec_time;
  }
}

TEST(BatchContract, MembersOfOnePassShareAStartAndDispatchInArrivalOrder) {
  // Four linear full scans, a non-linear one, then two more linear ones:
  // the first four share one pass, the non-linear member runs on its own,
  // and the last two share a second pass.  A member's start is its
  // submission plus its queue wait, and its submission lies between two
  // clock reads around its submit() call: the members of one pass must
  // have one start inside all of their brackets.  Run back to back, each
  // member would start after the scan before it ended.
  ScenarioConfig cfg;
  cfg.kind = ScenarioKind::kDense;
  cfg.width = 256;
  cfg.height = 256;
  cfg.tile_size = 32;
  cfg.seed = 77;
  const GeneratedArchive scene = generate_scenario(cfg);
  const TiledArchive& archive = scene.tiled();
  Rng rng(14);
  std::deque<LinearRasterModel> linear;
  for (int i = 0; i < 6; ++i) linear.emplace_back(make_model(rng, archive.band_count()));
  const HookedModel alone(make_model(rng, archive.band_count()), [] {});
  const std::vector<const RasterModel*> models = {&linear[0], &linear[1], &linear[2], &linear[3],
                                                  &alone,     &linear[4], &linear[5]};

  QueryEngine engine(batch_config(models.size(), 1));
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> before_submit;
  std::vector<Clock::time_point> after_submit;
  std::vector<std::future<RasterOutcome>> futures;
  for (const RasterModel* model : models) {
    before_submit.push_back(Clock::now());
    futures.push_back(std::move(submit_full_scans(engine, archive, {model})[0]));
    after_submit.push_back(Clock::now());
  }
  engine.resume();
  std::vector<RasterOutcome> out;
  for (auto& f : futures) out.push_back(f.get());

  for (std::size_t i = 0; i < out.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "member " << i);
    expect_solo_full_scan(archive, *models[i], out[i]);
    if (i > 0) {
      EXPECT_EQ(out[i].dispatch_order, out[i - 1].dispatch_order + 1);
    }
  }
  // The earliest and the latest possible start of each member.
  const auto earliest = [&](std::size_t i) { return before_submit[i] + out[i].queue_wait; };
  const auto latest = [&](std::size_t i) { return after_submit[i] + out[i].queue_wait; };
  for (const auto& [first, end] : {std::pair<std::size_t, std::size_t>{0, 4}, {5, 7}}) {
    for (std::size_t i = first; i < end; ++i) {
      for (std::size_t j = first; j < end; ++j) {
        EXPECT_LE(earliest(i), latest(j)) << "members " << i << " and " << j
                                          << " of one pass did not start together";
      }
    }
  }
  // The non-linear member starts once the first pass is answered, and the
  // second pass once the non-linear member is.
  EXPECT_GE(latest(4), earliest(0) + out[0].exec_time);
  EXPECT_GE(latest(5), earliest(4) + out[4].exec_time);
}

TEST(BatchParity, EngineMixedGroupMembersMatchTheirSoloRuns) {
  // One group: linear full scans under budgets from 0 to the full cost in
  // steps of 37 (consecutive ones share a pass), split by a non-linear full
  // scan, a staged member and a tile-screened member that run on their own,
  // plus a linear scan past its deadline and a cancelled one.  Every member
  // returns, bills and books exactly what its solo serial run does: hits,
  // status, bad points, missed-bound bytes, meter and budget_spent.  With an
  // intra-query pool a budgeted member's trip, and a pruning member's bill,
  // depend on the workers' interleaving, so that run keeps the unbudgeted
  // full scans only.
  const PooledScenario& pooled = *scenario_pool()[0];
  const TiledArchive& archive = pooled.gen.tiled();
  const std::uint64_t bands = archive.band_count();
  const std::uint64_t full_cost = archive.pixel_count() * bands;
  Rng rng(21);
  const ProgressiveLinearModel staged(make_model(rng, bands), pooled.ranges);
  const HookedModel nonlinear(make_model(rng, bands), [] {});
  const LinearRasterModel screened(make_model(rng, bands));
  const std::atomic<bool> cancelled{true};

  enum class Kind { kBudget, kUnbounded, kDeadline, kCancelled, kNonLinear, kStaged, kScreened };
  struct Member {
    Kind kind;
    std::uint64_t budget = std::numeric_limits<std::uint64_t>::max();
    std::size_t k = 1;
  };
  std::vector<Member> members;
  for (std::uint64_t budget = 0; budget <= full_cost; budget += 37) {
    members.push_back({Kind::kBudget, budget});
    switch (members.size()) {
      case 5: members.push_back({Kind::kDeadline}); break;
      case 9: members.push_back({Kind::kCancelled}); break;
      case 40: members.push_back({Kind::kNonLinear}); break;
      case 41: members.push_back({Kind::kUnbounded}); break;
      case 120: members.push_back({Kind::kStaged}); break;
      case 200: members.push_back({Kind::kScreened}); break;
      default: break;
    }
  }
  members.push_back({Kind::kUnbounded});
  std::deque<LinearRasterModel> linear;
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i].k = 1 + i % 13;
    linear.emplace_back(make_model(rng, bands));
  }

  for (const std::size_t threads : {0UL, 3UL}) {
    SCOPED_TRACE(testing::Message() << "intra-query threads " << threads);
    std::vector<std::size_t> run;  // indices of the members submitted
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (threads == 0 || members[i].kind == Kind::kUnbounded ||
          members[i].kind == Kind::kNonLinear ||
          (members[i].kind == Kind::kBudget && members[i].budget >= full_cost)) {
        run.push_back(i);
      }
    }
    EngineConfig config = batch_config(run.size(), 1);
    config.intra_query_threads = threads;
    QueryEngine engine(config);
    std::vector<std::future<RasterOutcome>> futures;
    for (const std::size_t i : run) {
      const Member& m = members[i];
      RasterJob job;
      job.mode = RasterJob::Mode::kFullScan;
      job.archive = &archive;
      job.model = &linear[i];
      job.k = m.k;
      job.limits.op_budget = m.budget;
      switch (m.kind) {
        case Kind::kDeadline: job.limits.timeout = std::chrono::nanoseconds(1); break;
        case Kind::kCancelled: job.limits.cancel = &cancelled; break;
        case Kind::kNonLinear: job.model = &nonlinear; break;
        case Kind::kStaged:
          job.mode = RasterJob::Mode::kProgressiveModel;
          job.progressive = &staged;
          break;
        case Kind::kScreened:
          job.mode = RasterJob::Mode::kTileScreened;
          job.model = &screened;
          break;
        default: break;
      }
      futures.push_back(engine.submit(job));
    }
    engine.resume();

    std::size_t tripped = 0;
    for (std::size_t r = 0; r < run.size(); ++r) {
      const Member& m = members[run[r]];
      SCOPED_TRACE(testing::Message() << "member " << run[r] << " kind "
                                      << static_cast<int>(m.kind) << " budget " << m.budget);
      const RasterOutcome got = futures[r].get();
      QueryContext ctx;
      ctx.with_op_budget(m.budget);
      if (m.kind == Kind::kDeadline) {
        ctx.with_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
      }
      if (m.kind == Kind::kCancelled) ctx.with_cancel_flag(&cancelled);
      CostMeter meter;
      RasterTopK solo;
      switch (m.kind) {
        case Kind::kNonLinear: solo = full_scan_top_k(archive, nonlinear, m.k, ctx, meter); break;
        case Kind::kStaged:
          solo = progressive_model_top_k(archive, staged, m.k, ctx, meter);
          break;
        case Kind::kScreened:
          solo = tile_screened_top_k(archive, screened, m.k, ctx, meter);
          break;
        default: solo = full_scan_top_k(archive, linear[run[r]], m.k, ctx, meter); break;
      }
      if (is_truncated(got.result.status)) ++tripped;
      std::string why;
      EXPECT_TRUE(same_as_solo(solo, MeterSnapshot(meter), ctx.spent(), got, why)) << why;
    }
    if (threads == 0) {
      EXPECT_GT(tripped, 2u);
      EXPECT_LT(tripped, run.size());
    } else {
      EXPECT_EQ(tripped, 0u);
    }
  }
}

}  // namespace
}  // namespace mmir
