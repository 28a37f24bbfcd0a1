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

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "archive/sharded.hpp"
#include "core/exec_kernels.hpp"
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

// ------------------------------------------------ one shard and the walker
//
// A shard leg scans its tile list through exec::walk_tile_spans: per tile
// row, runs of adjacent tiles become one span and each pixel row of the
// span is one row-kernel call.  That is row-major order over the shard's
// pixels, so a one-shard row-band leg runs the serial full scan itself.

std::uint64_t bits_of(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Byte-for-byte equality of two full-scan answers and the ops behind them.
void expect_same_answer(const RasterTopK& expected, std::uint64_t expected_ops,
                        const RasterTopK& got, std::uint64_t got_ops, const std::string& where) {
  EXPECT_EQ(got.status, expected.status) << where;
  EXPECT_EQ(bits_of(got.missed_bound), bits_of(expected.missed_bound)) << where;
  EXPECT_EQ(got.bad_points, expected.bad_points) << where;
  EXPECT_EQ(got_ops, expected_ops) << where;
  ASSERT_EQ(got.hits.size(), expected.hits.size()) << where;
  for (std::size_t i = 0; i < expected.hits.size(); ++i) {
    EXPECT_EQ(got.hits[i].x, expected.hits[i].x) << where << " rank " << i;
    EXPECT_EQ(got.hits[i].y, expected.hits[i].y) << where << " rank " << i;
    EXPECT_EQ(bits_of(got.hits[i].score), bits_of(expected.hits[i].score))
        << where << " rank " << i;
  }
}

TEST(ShardParity, OneShardBudgetSweepMatchesSerialByteForByte) {
  // 70x45 at tile 16 leaves 6-pixel-wide and 13-pixel-tall edge tiles.
  ScenarioConfig cfg;
  cfg.kind = ScenarioKind::kDense;
  cfg.width = 70;
  cfg.height = 45;
  cfg.tile_size = 16;
  cfg.seed = 4501;
  const GeneratedArchive gen = generate_scenario(cfg);
  const TiledArchive& archive = gen.tiled();
  const ShardedArchive sharded(archive, 1, ShardPolicy::kRowBands);
  const LinearRasterModel model(
      LinearModel({0.61, -1.37, 0.83, 1.12}, 0.3, {"b0", "b1", "b2", "b3"}));
  constexpr std::size_t kK = 7;
  const std::uint64_t cost = archive.pixel_count() * model.ops_per_evaluation();
  ThreadPool pool(0);
  std::size_t cases = 0;
  for (std::uint64_t budget = 0; budget <= cost + 8; budget += 7) {
    const std::string where = "budget " + std::to_string(budget);
    QueryContext serial_ctx;
    serial_ctx.with_op_budget(budget);
    CostMeter serial_meter;
    const RasterTopK serial = full_scan_top_k(archive, model, kK, serial_ctx, serial_meter);

    QueryContext sharded_ctx;
    sharded_ctx.with_op_budget(budget);
    CostMeter sharded_meter;
    const ShardedTopK merged =
        sharded_full_scan_top_k(sharded, model, kK, sharded_ctx, sharded_meter, pool);
    expect_same_answer(serial, serial_meter.ops(), merged.merged, sharded_meter.ops(),
                       where + " sharded_full_scan_top_k");

    QueryContext leg_ctx;
    leg_ctx.with_op_budget(budget);
    CostMeter leg_meter;
    const ShardScanResult leg = scan_shard_partial(sharded, 0, ShardScanMode::kFullScan, &model,
                                                   nullptr, kK, leg_ctx, leg_meter);
    expect_same_answer(serial, serial_meter.ops(), leg.partial.result, leg_meter.ops(),
                       where + " scan_shard_partial");
    ++cases;
  }
  EXPECT_EQ(cases, 1802u);
}

/// Scenario archives for the walker tests: the exact-tie and NaN kinds, at
/// sizes that leave narrow and short edge tiles.
const std::vector<GeneratedArchive>& walker_pool() {
  static const auto pool = [] {
    std::vector<GeneratedArchive> p;
    const auto add = [&](ScenarioKind kind, std::size_t width, std::size_t height,
                         std::size_t tile, std::uint64_t seed) {
      ScenarioConfig cfg;
      cfg.kind = kind;
      cfg.width = width;
      cfg.height = height;
      cfg.tile_size = tile;
      cfg.seed = seed;
      p.push_back(generate_scenario(cfg));
    };
    add(ScenarioKind::kTieStorm, 50, 37, 8, 601);
    add(ScenarioKind::kConstantTile, 44, 29, 8, 602);
    add(ScenarioKind::kAllNaNBand, 41, 35, 16, 603);
    return p;
  }();
  return pool;
}

/// Runs `check(archive, sharded, shard, where)` on every shard of every
/// walker_pool archive under both policies at 1, 3 and 4 shards.
template <typename Check>
void for_every_walker_shard(Check&& check) {
  for (const GeneratedArchive& gen : walker_pool()) {
    for (ShardPolicy policy : {ShardPolicy::kRowBands, ShardPolicy::kTileHash}) {
      for (std::size_t shards : {1UL, 3UL, 4UL}) {
        const ShardedArchive sharded(gen.tiled(), shards, policy);
        for (const ShardInfo& shard : sharded.shards()) {
          const std::string where =
              "kind=" + std::to_string(static_cast<int>(gen.config.kind)) + " policy=" +
              std::string(shard_policy_name(policy)) + " shards=" + std::to_string(shards) +
              " shard=" + std::to_string(shard.id);
          SCOPED_TRACE(where);
          check(gen.tiled(), sharded, shard);
        }
      }
    }
  }
}

/// Integer weights and a quarter-integer bias: exact ties stay exact.
LinearModel walker_model() {
  return LinearModel({2.0, -1.0, 1.0, 1.0}, 0.25, {"b0", "b1", "b2", "b3"});
}

TEST(ShardWalker, VisitsEveryPixelOfTheTileListOnceInRowMajorOrder) {
  for_every_walker_shard([](const TiledArchive& archive, const ShardedArchive& sharded,
                            const ShardInfo& shard) {
    std::vector<int> visits(archive.pixel_count(), 0);
    std::uint64_t last_rank = 0;
    bool first = true;
    bool ordered = true;
    bool whole_rows = true;
    QueryContext ctx;
    exec::ScanTally tally;
    const std::uint64_t entered = exec::walk_tile_spans(
        archive, shard.tiles, ctx, tally, [&](std::size_t x0, std::size_t x1, std::size_t y) {
          if (!first && exec::pixel_rank(x0, y) <= last_rank) ordered = false;
          if (x0 != 0 || x1 != archive.width()) whole_rows = false;
          for (std::size_t x = x0; x < x1; ++x) ++visits[y * archive.width() + x];
          first = false;
          last_rank = exec::pixel_rank(x1 - 1, y);
          tally.pixels += x1 - x0;
          return true;
        });
    EXPECT_EQ(entered, shard.tiles.size());
    EXPECT_EQ(tally.pixels, shard.pixel_count);
    EXPECT_TRUE(ordered) << "spans out of row-major order";
    if (sharded.policy() == ShardPolicy::kRowBands) {
      EXPECT_TRUE(whole_rows) << "a row-band shard was not walked as whole rows";
    }
    for (std::size_t y = 0; y < archive.height(); ++y) {
      for (std::size_t x = 0; x < archive.width(); ++x) {
        const std::size_t t =
            (y / archive.tile_size()) * archive.tiles_x() + x / archive.tile_size();
        const int expected = sharded.owner_of_tile(t) == shard.id ? 1 : 0;
        ASSERT_EQ(visits[y * archive.width() + x], expected) << "pixel " << x << "," << y;
      }
    }
  });
}

TEST(ShardWalker, CompleteWalksMatchTheTileByTileLoop) {
  const LinearRasterModel raster(walker_model());
  for_every_walker_shard([&](const TiledArchive& archive, const ShardedArchive&,
                             const ShardInfo& shard) {
    const auto tiles = archive.tiles();
    // Full model: hits, score bytes, tally and meter all agree.
    QueryContext walk_ctx;
    CostMeter walk_meter;
    exec::ScanTally walk_tally;
    TopK<RasterHit> walk_top(9);
    EXPECT_EQ(exec::scan_tiles_full(archive, raster, shard.tiles, walk_top, walk_ctx, walk_meter,
                                    walk_tally),
              shard.tiles.size());
    QueryContext loop_ctx;
    CostMeter loop_meter;
    exec::ScanTally loop_tally;
    TopK<RasterHit> loop_top(9);
    std::vector<double> scratch;
    for (std::size_t t : shard.tiles) {
      exec::scan_rect_full(archive, raster, tiles[t].x0, tiles[t].x0 + tiles[t].width,
                           tiles[t].y0, tiles[t].y0 + tiles[t].height, loop_top, scratch,
                           loop_ctx, loop_meter, loop_tally);
    }
    RasterTopK walked;
    walked.hits = exec::finalize(walk_top);
    walked.bad_points = walk_tally.bad_points;
    RasterTopK looped;
    looped.hits = exec::finalize(loop_top);
    looped.bad_points = loop_tally.bad_points;
    expect_same_answer(looped, loop_meter.ops(), walked, walk_meter.ops(), "full");
    EXPECT_EQ(walk_tally.pixels, loop_tally.pixels);
    EXPECT_EQ(walk_meter.points(), loop_meter.points());
    EXPECT_EQ(walk_meter.bytes(), loop_meter.bytes());

    // Staged model: the same canonical hits (ops and abandoned NaN pixels
    // depend on visit order through the heap threshold).
    const auto ranges = archive.band_ranges();
    const ProgressiveLinearModel staged(walker_model(), {ranges.begin(), ranges.end()});
    QueryContext staged_walk_ctx;
    CostMeter staged_walk_meter;
    exec::ScanTally staged_walk_tally;
    TopK<RasterHit> staged_walk_top(9);
    EXPECT_EQ(exec::scan_tiles_staged(
                  archive, staged, shard.tiles, staged_walk_top,
                  [&] { return staged_walk_top.threshold(); }, [] {}, staged_walk_ctx,
                  staged_walk_meter, staged_walk_tally),
              shard.tiles.size());
    QueryContext staged_loop_ctx;
    CostMeter staged_loop_meter;
    exec::ScanTally staged_loop_tally;
    TopK<RasterHit> staged_loop_top(9);
    for (std::size_t t : shard.tiles) {
      exec::scan_rect_staged(
          archive, staged, tiles[t].x0, tiles[t].x0 + tiles[t].width, tiles[t].y0,
          tiles[t].y0 + tiles[t].height, staged_loop_top,
          [&] { return staged_loop_top.threshold(); }, [] {}, staged_loop_ctx,
          staged_loop_meter, staged_loop_tally);
    }
    RasterTopK staged_walked;
    staged_walked.hits = exec::finalize(staged_walk_top);
    RasterTopK staged_looped;
    staged_looped.hits = exec::finalize(staged_loop_top);
    expect_same_answer(staged_looped, 0, staged_walked, 0, "staged");
    EXPECT_EQ(staged_walk_tally.pixels, staged_loop_tally.pixels);
  });
}

TEST(ShardWalker, TilesScannedCountsOnlyTilesEnteredBeforeATrip) {
  // A single worker's full scan trips on exactly the per-pixel unit, so a
  // budget of m pixels visits the first m of the shard's pixels in
  // row-major order; the tiles scanned are those whose top-left pixel is
  // among them.  Budgets stop the walk at and around every tile boundary
  // inside the first row of every span.
  const LinearRasterModel raster(walker_model());
  const std::uint64_t unit = raster.ops_per_evaluation();
  std::size_t trips = 0;
  for_every_walker_shard([&](const TiledArchive& archive, const ShardedArchive&,
                             const ShardInfo& shard) {
    const auto tiles = archive.tiles();
    const std::size_t ts = archive.tile_size();
    // The shard's pixels in row-major order, and each one's position there.
    std::vector<std::uint64_t> order_of(archive.pixel_count(), 0);
    std::vector<std::pair<std::size_t, std::size_t>> pixels;
    for (std::size_t y = 0; y < archive.height(); ++y) {
      for (std::size_t x = 0; x < archive.width(); ++x) {
        const std::size_t t = (y / ts) * archive.tiles_x() + x / ts;
        if (std::find(shard.tiles.begin(), shard.tiles.end(), t) == shard.tiles.end()) continue;
        order_of[y * archive.width() + x] = pixels.size();
        pixels.emplace_back(x, y);
      }
    }
    for (std::size_t i = 0; i < shard.tiles.size(); ++i) {
      const TileSummary& tile = tiles[shard.tiles[i]];
      // Only the first tile of a span starts the span's first row.
      if (i > 0 && shard.tiles[i - 1] + 1 == shard.tiles[i] &&
          shard.tiles[i - 1] / archive.tiles_x() == shard.tiles[i] / archive.tiles_x()) {
        continue;
      }
      const std::uint64_t start = order_of[tile.y0 * archive.width() + tile.x0];
      for (std::uint64_t offset : {0UL, 1UL, ts - 1, ts, ts + 1, 2 * ts - 1, 2 * ts, 2 * ts + 3}) {
        const std::uint64_t visited = start + offset;
        if (visited >= pixels.size() || pixels[visited].second != tile.y0) continue;
        for (std::uint64_t extra : {0UL, unit - 1}) {
          QueryContext ctx;
          ctx.with_op_budget(visited * unit + extra);
          CostMeter meter;
          exec::ScanTally tally;
          TopK<RasterHit> top(5);
          const std::uint64_t entered =
              exec::scan_tiles_full(archive, raster, shard.tiles, top, ctx, meter, tally);
          std::uint64_t expected = 0;
          for (std::size_t t : shard.tiles) {
            if (order_of[tiles[t].y0 * archive.width() + tiles[t].x0] < visited) ++expected;
          }
          ASSERT_TRUE(ctx.stopped()) << "budget " << visited * unit + extra;
          EXPECT_EQ(tally.pixels, visited) << "budget " << visited * unit + extra;
          EXPECT_EQ(entered, expected) << "budget " << visited * unit + extra;
          ++trips;
        }
      }
    }
  });
  EXPECT_GT(trips, 0u);
}

}  // namespace
}  // namespace mmir
