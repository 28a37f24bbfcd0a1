// Generator-driven fuzz-parity battery for batched shared-scan execution.
//
// Hundreds of seeded cases drawn from the procedural scenario generator
// (src/testing/scenario_gen.hpp) run through three lenses:
//
//   1. direct batch_scan() calls at fan-in 1/4/16/64 — every member's result
//      must be byte-identical to its solo serial run, its CostMeter must not
//      bleed across members (identical at every fan-in), and budget-tripped
//      members must certify a sound prefix without disturbing batch-mates;
//   2. the QueryEngine's batched admission at batch sizes 1/4/16/64 and
//      1/2/4 dispatchers — the full production path, including the result
//      cache and the `batch` EXPLAIN span;
//   3. batched ShardScanJobs against direct scan_shard_partial — the unit a
//      shard server executes, including empty shards.
//
// Every case derives from a printed seed, so any failure reproduces
// standalone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "archive/sharded.hpp"
#include "core/progressive_exec.hpp"
#include "engine/batch_exec.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
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

/// One member's models + fault envelope, address-stable for batch_scan.
struct MemberRun {
  Case c;
  LinearRasterModel raster;
  ProgressiveLinearModel progressive;
  QueryContext ctx;
  CostMeter meter;

  explicit MemberRun(Case cc)
      : c(std::move(cc)), raster(c.model), progressive(c.model, c.pooled->ranges) {
    if (c.budgeted) ctx.with_op_budget(c.budget);
  }

  [[nodiscard]] BatchMemberSpec spec() {
    BatchMemberSpec s;
    s.mode = static_cast<BatchScanMode>(c.mode);
    s.model = &raster;
    s.progressive = &progressive;
    s.k = c.k;
    s.ctx = &ctx;
    s.meter = &meter;
    return s;
  }
};

// ---------------------------------------------------------------------------
// 1. Direct batch_scan: byte-identity, meter no-bleed, trip isolation.
// ---------------------------------------------------------------------------

TEST(BatchParity, DirectBatchMatchesSerialAtEveryFanIn) {
  constexpr std::uint64_t kCases = 72;
  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < kCases; ++seed) {
    const Case c = make_case(seed);
    SCOPED_TRACE(c.describe());
    const TiledArchive& archive = c.pooled->gen.tiled();
    const LinearRasterModel raster(c.model);
    const ProgressiveLinearModel progressive(c.model, c.pooled->ranges);
    bool ok = true;
    std::string why;

    // Solo oracles: the exact (unbudgeted) answer, and — for unbudgeted
    // cases — the meter the serial executor billed.
    QueryContext exact_ctx;
    CostMeter exact_meter;
    const RasterTopK exact = run_serial(c, raster, progressive, exact_ctx, exact_meter);

    std::unique_ptr<RasterTopK> baseline_result;        // member result at fan-in 1
    std::unique_ptr<MeterSnapshot> baseline_meter;      // member meter at fan-in 1
    std::vector<std::size_t> fanins = {1, 4, 16};
    if (seed % 4 == 0) fanins.push_back(64);
    for (std::size_t fanin : fanins) {
      // Member 0 is the case under test; fillers share its archive and mix
      // modes/budgets so tripping mates ride along.
      std::deque<MemberRun> runs;
      runs.emplace_back(c);
      for (std::size_t j = 1; j < fanin; ++j) {
        Case filler = make_case_on(seed * 1000 + j + 50000, c.archive_index);
        runs.emplace_back(std::move(filler));
      }
      std::vector<BatchMemberSpec> specs;
      for (MemberRun& r : runs) specs.push_back(r.spec());
      const std::vector<BatchMemberResult> results =
          batch_scan(archive, std::span<const BatchMemberSpec>(specs));

      const RasterTopK& got = results[0].result;
      const MeterSnapshot got_meter(runs[0].meter);
      if (!c.budgeted) {
        if (!identical(exact, got, why)) {
          ok = false;
          why += " (fanin=" + std::to_string(fanin) + ")";
          break;
        }
        // Full scans bill order-independently, so the batched member's meter
        // must equal the solo serial meter byte for byte.
        if (c.mode == RasterJob::Mode::kFullScan &&
            !(got_meter == MeterSnapshot(exact_meter))) {
          ok = false;
          why = "full-scan meter diverges from solo (fanin=" + std::to_string(fanin) + ")";
          break;
        }
      } else {
        if (!is_truncated(got.status)) {
          if (!identical(exact, got, why)) {
            ok = false;
            why += " (within-budget completion, fanin=" + std::to_string(fanin) + ")";
            break;
          }
        } else if (!sound_prefix(got, exact, why)) {
          ok = false;
          why += " (fanin=" + std::to_string(fanin) + ")";
          break;
        }
      }
      // No cross-member bleed: the member's result AND its bill are a pure
      // function of its own query — identical whoever rides along.
      if (baseline_result == nullptr) {
        baseline_result = std::make_unique<RasterTopK>(got);
        baseline_meter = std::make_unique<MeterSnapshot>(got_meter);
      } else {
        if (!identical(*baseline_result, got, why)) {
          ok = false;
          why += " (fan-in bleed at fanin=" + std::to_string(fanin) + ")";
          break;
        }
        if (!(got_meter == *baseline_meter)) {
          ok = false;
          why = "meter bleeds across fan-ins (fanin=" + std::to_string(fanin) + ")";
          break;
        }
      }
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

TEST(BatchParity, BudgetedMembersTripOnTheirOwnUnit) {
  // A member spends its budget one pixel (full model) or one term (staged)
  // at a time, whoever rides along: it is refused exactly when the next
  // request no longer fits, its meter shows the work done up to there, and
  // its context's books add the refused request.
  const TiledArchive& archive = scenario_pool()[0]->gen.tiled();
  const std::uint64_t bands = archive.band_count();
  const std::uint64_t full_cost = archive.pixel_count() * bands;
  for (const RasterJob::Mode mode :
       {RasterJob::Mode::kFullScan, RasterJob::Mode::kProgressiveModel}) {
    const bool staged = mode == RasterJob::Mode::kProgressiveModel;
    const std::uint64_t unit = staged ? 1 : bands;
    for (std::uint64_t budget = 0; budget < full_cost + 2 * bands; budget += 37) {
      for (const std::size_t fanin : {1UL, 4UL}) {
        SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode) << " budget "
                                        << budget << " fanin " << fanin);
        std::deque<MemberRun> runs;
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
        std::vector<BatchMemberSpec> specs;
        for (MemberRun& r : runs) specs.push_back(r.spec());
        const auto results = batch_scan(archive, std::span<const BatchMemberSpec>(specs));
        const std::uint64_t work = runs[0].meter.ops();
        if (is_truncated(results[0].result.status)) {
          EXPECT_EQ(results[0].result.status, ResultStatus::kTruncatedBudget);
          EXPECT_LE(work, budget);
          EXPECT_GT(work + unit, budget);
          EXPECT_EQ(runs[0].ctx.spent(), work + unit);
        } else {
          EXPECT_LE(work, budget);
          EXPECT_EQ(runs[0].ctx.spent(), work);
          if (!staged) EXPECT_EQ(work, full_cost);
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

}  // namespace
}  // namespace mmir
