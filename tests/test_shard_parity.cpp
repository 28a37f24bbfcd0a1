// Differential shard-parity battery: across hundreds of seeded random
// (archive, model, k, budget) cases, scatter-gather execution over a
// ShardedArchive at S in {1, 2, 4, 8} shards and 1/2/4 executing threads must
// return the *byte-identical* top-K — locations, scores, certified prefix —
// of the serial monolithic executor, under both placement policies; budgeted
// runs must certify a sound prefix of the exact answer instead.  A wrong
// shard merge returns a plausible-but-incomplete top-K, which no smoke test
// catches — only this differential battery does.
//
// The main battery's scenes are continuous-valued with weights kept away
// from zero, so ties have measure zero there; a second battery draws
// tie-storm and constant-tile archives (testing/scenario_gen.hpp) under
// integer-weight models on the kTileHash layout, where exact ties are
// everywhere and only the canonical pixel-rank tie-break — in the per-shard
// heaps and in the merge — keeps the answer byte-identical.
//
// Every case derives from a single seed printed on failure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "archive/sharded.hpp"
#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "testing/scenario_gen.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

constexpr std::size_t kCases = 220;

const std::size_t kShardCounts[] = {1, 2, 4, 8};
// Worker counts giving 1 / 2 / 4 executing threads (pool + caller).
const std::size_t kWorkerCounts[] = {0, 1, 3};

/// A generated archive reused across cases (scene synthesis dominates the
/// cost of a case; the pool keeps 200+ cases fast while varying content,
/// shape and tiling — including shapes where S exceeds the tile-row count,
/// so row-band layouts contain empty shards).
struct PooledArchive {
  Scene scene;
  std::vector<const Grid*> bands;
  std::vector<Interval> ranges;
  std::unique_ptr<TiledArchive> archive;

  PooledArchive(std::size_t size, std::size_t tile, std::uint64_t seed)
      : scene(generate_scene([&] {
          SceneConfig cfg;
          cfg.width = size;
          cfg.height = size + size / 3;  // non-square: uneven tile remainders
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
    p.push_back(std::make_unique<PooledArchive>(36, 32, 205));  // tile > remainder
    p.push_back(std::make_unique<PooledArchive>(28, 16, 206));
    return p;
  }();
  return pool;
}

enum class Exec { kFullScan, kProgressiveModel, kTileScreened, kCombined };

struct Case {
  std::uint64_t seed = 0;
  const TiledArchive* archive = nullptr;
  const std::vector<Interval>* ranges = nullptr;
  std::size_t archive_index = 0;
  Exec exec = Exec::kFullScan;
  ShardPolicy policy = ShardPolicy::kRowBands;
  std::size_t k = 1;
  LinearModel model{{0.0}, 0.0, {"w"}};
  bool budgeted = false;
  std::uint64_t budget = 0;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " archive=" << archive_index
       << " exec=" << static_cast<int>(exec) << " policy=" << shard_policy_name(policy)
       << " k=" << k << " budgeted=" << budgeted << " budget=" << budget;
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
  c.exec = static_cast<Exec>(rng.uniform_int(4));
  c.policy = rng.bernoulli(0.5) ? ShardPolicy::kRowBands : ShardPolicy::kTileHash;
  c.k = 1 + rng.uniform_int(32);

  // Signed weights bounded away from zero: ties stay measure-zero, so exact
  // comparison between execution orders is meaningful.
  std::vector<double> weights(4);
  for (double& w : weights) {
    const double magnitude = rng.uniform(0.25, 2.0);
    w = rng.bernoulli(0.5) ? magnitude : -magnitude;
  }
  c.model = LinearModel(std::move(weights), rng.uniform(-5.0, 5.0), {"b4", "b5", "b7", "dem"});

  // A third of the cases run with a budget that usually truncates.
  c.budgeted = rng.bernoulli(0.33);
  if (c.budgeted) {
    const std::size_t pixels = c.archive->pixel_count();
    c.budget = 16 + rng.uniform_int(pixels * 4ULL);
  }
  return c;
}

/// The exact-tie archives (testing/scenario_gen.hpp), indexed after the
/// scene pool.
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
  c.exec = static_cast<Exec>(rng.uniform_int(4));
  c.policy = ShardPolicy::kTileHash;
  c.k = 1 + rng.uniform_int(32);
  std::vector<double> weights(4);
  for (double& w : weights) w = static_cast<double>(rng.uniform_int(5)) - 2.0;
  c.model = LinearModel(std::move(weights), 0.25 * (static_cast<double>(rng.uniform_int(17)) - 8.0),
                        {"b0", "b1", "b2", "b3"});
  return c;
}

std::vector<RasterHit> run_serial(const Case& c, const LinearRasterModel& raster,
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

ShardedTopK run_sharded(const Case& c, const ShardedArchive& sharded,
                        const LinearRasterModel& raster,
                        const ProgressiveLinearModel& progressive, QueryContext& ctx,
                        CostMeter& meter, ThreadPool& pool) {
  switch (c.exec) {
    case Exec::kFullScan:
      return sharded_full_scan_top_k(sharded, raster, c.k, ctx, meter, pool);
    case Exec::kProgressiveModel:
      return sharded_progressive_model_top_k(sharded, progressive, c.k, ctx, meter, pool);
    case Exec::kTileScreened:
      return sharded_tile_screened_top_k(sharded, raster, c.k, ctx, meter, pool);
    case Exec::kCombined:
      return sharded_progressive_combined_top_k(sharded, progressive, c.k, ctx, meter, pool);
  }
  return {};
}

/// Byte-identical comparison: location, score and certified prefix must all
/// match the serial monolithic answer exactly — no tolerance.
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

/// Soundness of a truncated result: the certified prefix matches the exact
/// ranking score for score.
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

/// Runs one case at every shard count and thread count: complete runs must
/// be byte-identical to the serial monolithic answer, truncated ones must
/// certify a sound prefix of it.
bool sharded_matches_serial(const Case& c, std::string& why) {
  const LinearRasterModel raster(c.model);
  const ProgressiveLinearModel progressive(c.model, *c.ranges);
  CostMeter serial_meter;
  const std::vector<RasterHit> exact = run_serial(c, raster, progressive, serial_meter);

  for (std::size_t shards : kShardCounts) {
    const ShardedArchive sharded(*c.archive, shards, c.policy);
    for (std::size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      QueryContext ctx;
      if (c.budgeted) ctx.with_op_budget(c.budget);
      CostMeter meter;
      const ShardedTopK result = run_sharded(c, sharded, raster, progressive, ctx, meter, pool);
      const std::string where =
          " (shards=" + std::to_string(shards) + " workers=" + std::to_string(workers) + ")";
      if (result.shard_status.size() != shards) {
        why = "shard_status has " + std::to_string(result.shard_status.size()) + " entries" +
              where;
        return false;
      }
      if (!c.budgeted || result.merged.status == ResultStatus::kComplete) {
        if (result.merged.status != ResultStatus::kComplete) {
          why = "unbudgeted run not complete: " + std::string(to_string(result.merged.status)) +
                where;
          return false;
        }
        // Complete runs (no budget, or budget never hit) must be
        // byte-identical to the serial monolithic answer.
        if (!identical_hits(exact, result.merged, why)) {
          why += where;
          return false;
        }
        for (ResultStatus status : result.shard_status) {
          if (is_truncated(status)) {
            why = "complete merge reported a truncated shard" + where;
            return false;
          }
        }
      } else if (!sound_prefix(result.merged, exact, why)) {
        why += where;
        return false;
      }
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
    const bool ok = sharded_matches_serial(c, why);
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

TEST(ShardParity, ShardedScatterGatherMatchesSerialMonolithic) {
  run_battery(kCases, make_case);
}

TEST(ShardParity, TileHashExactTiesMatchSerialMonolithic) {
  run_battery(120, make_tie_case);
}

TEST(ShardParity, EngineShardedJobAndCachedReplayAgree) {
  // The engine path on top of the same executors: the sharded job's answer
  // equals the serial monolithic one, a replay hits the result cache, and a
  // monolithic job on the same (archive, model, k, mode) does NOT alias the
  // sharded entry (the key carries the shard layout).
  EngineConfig config;
  config.dispatchers = 2;
  config.intra_query_threads = 2;
  config.result_cache_entries = 1024;
  config.metrics = nullptr;
  QueryEngine engine(config);

  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const Case c = make_case(seed);
    if (c.budgeted) continue;  // cache admission needs complete answers
    SCOPED_TRACE(c.describe());
    const LinearRasterModel raster(c.model);
    const ProgressiveLinearModel progressive(c.model, *c.ranges);
    const ShardedArchive sharded(*c.archive, 4, c.policy);
    bool ok = true;
    std::string why;

    CostMeter serial_meter;
    const std::vector<RasterHit> exact = run_serial(c, raster, progressive, serial_meter);

    ShardedRasterJob job;
    job.mode = static_cast<RasterJob::Mode>(c.exec);
    job.sharded = &sharded;
    job.model = &raster;
    job.progressive = &progressive;
    job.k = c.k;
    job.archive_id = c.archive_index + 1;
    job.model_fingerprint = seed + 1;  // unique per case: replay hits its own entry
    const ShardedRasterOutcome first = engine.submit(job).get();
    const ShardedRasterOutcome replay = engine.submit(job).get();
    if (!first.cache_hit && !identical_hits(exact, first.result.merged, why)) {
      ok = false;
      why += " (engine first run)";
    } else if (!replay.cache_hit) {
      ok = false;
      why = "replay missed the result cache";
    } else if (!identical_hits(exact, replay.result.merged, why)) {
      ok = false;
      why += " (cached replay)";
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

}  // namespace
}  // namespace mmir
