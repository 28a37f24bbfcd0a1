// Property-based parity for the raster executors: across hundreds of seeded
// random (archive, model, k, budget) cases, the serial executors, the
// parallel executors at 1/2/4/8 executing threads, and a cached replay
// through the QueryEngine must return the same top-K (modulo exact ties),
// and budget-truncated runs must certify a sound prefix of the exact answer.
//
// Every case is derived from a single case seed printed on failure, so any
// failing case reproduces standalone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/scheduler.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

constexpr std::size_t kCases = 220;

// Worker counts giving 1 / 2 / 4 / 8 executing threads (pool + caller).
const std::size_t kWorkerCounts[] = {0, 1, 3, 7};

/// A generated archive reused across cases (scene synthesis dominates the
/// cost of a case, so the pool keeps 200+ cases fast while still varying
/// archive content, shape and tiling).
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
    p.push_back(std::make_unique<PooledArchive>(24, 8, 101));
    p.push_back(std::make_unique<PooledArchive>(32, 16, 102));
    p.push_back(std::make_unique<PooledArchive>(40, 8, 103));
    p.push_back(std::make_unique<PooledArchive>(48, 16, 104));
    p.push_back(std::make_unique<PooledArchive>(36, 32, 105));  // tile > remainder
    p.push_back(std::make_unique<PooledArchive>(28, 16, 106));
    return p;
  }();
  return pool;
}

enum class Exec { kFullScan, kProgressiveModel, kTileScreened, kCombined };

struct Case {
  std::uint64_t seed = 0;
  const PooledArchive* pooled = nullptr;
  std::size_t archive_index = 0;
  Exec exec = Exec::kFullScan;
  std::size_t k = 1;
  LinearModel model{{0.0}, 0.0, {"w"}};
  bool budgeted = false;
  std::uint64_t budget = 0;

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " archive=" << archive_index
       << " exec=" << static_cast<int>(exec) << " k=" << k << " budgeted=" << budgeted
       << " budget=" << budget;
    return os.str();
  }
};

Case make_case(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  Case c;
  c.seed = seed;
  c.archive_index = rng.uniform_int(archive_pool().size());
  c.pooled = archive_pool()[c.archive_index].get();
  c.exec = static_cast<Exec>(rng.uniform_int(4));
  c.k = 1 + rng.uniform_int(32);

  // Random model: signed weights so pruning thresholds and bounds get
  // exercised from both directions; occasionally a zero weight.
  std::vector<double> weights(4);
  for (double& w : weights) w = rng.bernoulli(0.1) ? 0.0 : rng.uniform(-2.0, 2.0);
  c.model = LinearModel(std::move(weights), rng.uniform(-5.0, 5.0),
                        {"b4", "b5", "b7", "dem"});

  // A third of the cases run with a budget that usually truncates.
  c.budgeted = rng.bernoulli(0.33);
  if (c.budgeted) {
    const std::size_t pixels = c.pooled->scene.width * c.pooled->scene.height;
    c.budget = 16 + rng.uniform_int(pixels * 4ULL);
  }
  return c;
}

RasterTopK run_parallel(const Case& c, const LinearRasterModel& raster,
                        const ProgressiveLinearModel& progressive, QueryContext& ctx,
                        CostMeter& meter, ThreadPool& pool) {
  const TiledArchive& archive = *c.pooled->archive;
  switch (c.exec) {
    case Exec::kFullScan:
      return parallel_full_scan_top_k(archive, raster, c.k, ctx, meter, pool);
    case Exec::kProgressiveModel:
      return parallel_progressive_model_top_k(archive, progressive, c.k, ctx, meter, pool);
    case Exec::kTileScreened:
      return parallel_tile_screened_top_k(archive, raster, c.k, ctx, meter, pool);
    case Exec::kCombined:
      return parallel_progressive_combined_top_k(archive, progressive, c.k, ctx, meter, pool);
  }
  return {};
}

std::vector<RasterHit> run_serial(const Case& c, const LinearRasterModel& raster,
                                  const ProgressiveLinearModel& progressive, CostMeter& meter) {
  const TiledArchive& archive = *c.pooled->archive;
  switch (c.exec) {
    case Exec::kFullScan: return full_scan_top_k(archive, raster, c.k, meter);
    case Exec::kProgressiveModel:
      return progressive_model_top_k(archive, progressive, c.k, meter);
    case Exec::kTileScreened: return tile_screened_top_k(archive, raster, c.k, meter);
    case Exec::kCombined: return progressive_combined_top_k(archive, progressive, c.k, meter);
  }
  return {};
}

/// Tie-insensitive equivalence: scores agree rank for rank and every
/// reported location reproduces its score under the model.
bool equivalent_hits(const std::vector<RasterHit>& expected, const std::vector<RasterHit>& got,
                     const Case& c, const LinearRasterModel& raster, std::string& why) {
  if (expected.size() != got.size()) {
    why = "size " + std::to_string(got.size()) + " != " + std::to_string(expected.size());
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].score != got[i].score) {
      why = "score mismatch at rank " + std::to_string(i);
      return false;
    }
    std::vector<double> pixel;
    for (const Grid* band : c.pooled->bands) pixel.push_back(band->cell(got[i].x, got[i].y));
    // Staged (progressive) evaluation sums the model's terms in importance
    // order, so recomputation can differ from the flat sum by rounding only.
    const double expected = raster.evaluate(pixel);
    const double tol = 1e-9 * std::max(1.0, std::abs(expected));
    if (std::abs(got[i].score - expected) > tol) {
      why = "location does not reproduce its score at rank " + std::to_string(i);
      return false;
    }
  }
  return true;
}

/// Soundness of a (possibly truncated) budgeted result: the certified prefix
/// matches the exact ranking score for score.
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

TEST(PropertyParity, SerialParallelAndCachedReplayAgree) {
  // One engine serves every unbudgeted case's cached-replay check; distinct
  // (archive_id, fingerprint, k, mode) keys keep cases from colliding.
  EngineConfig config;
  config.dispatchers = 2;
  config.intra_query_threads = 2;
  config.result_cache_entries = 4096;
  config.metrics = nullptr;  // parity, not metrics, is under test here
  QueryEngine engine(config);

  std::vector<std::uint64_t> failing_seeds;
  for (std::uint64_t seed = 0; seed < kCases; ++seed) {
    const Case c = make_case(seed);
    SCOPED_TRACE(c.describe());
    const LinearRasterModel raster(c.model);
    const ProgressiveLinearModel progressive(c.model, c.pooled->ranges);
    bool ok = true;
    std::string why;

    CostMeter serial_meter;
    const std::vector<RasterHit> exact = run_serial(c, raster, progressive, serial_meter);

    if (!c.budgeted) {
      // Unbudgeted: serial == parallel(1/2/4/8) == engine == cached replay.
      for (std::size_t workers : kWorkerCounts) {
        ThreadPool pool(workers);
        QueryContext ctx;
        CostMeter meter;
        const RasterTopK parallel = run_parallel(c, raster, progressive, ctx, meter, pool);
        if (parallel.status != ResultStatus::kComplete) {
          ok = false;
          why = "parallel status not complete at workers=" + std::to_string(workers);
          break;
        }
        if (!equivalent_hits(exact, parallel.hits, c, raster, why)) {
          ok = false;
          why += " (workers=" + std::to_string(workers) + ")";
          break;
        }
      }

      if (ok) {
        RasterJob job;
        job.mode = static_cast<RasterJob::Mode>(c.exec);
        job.archive = c.pooled->archive.get();
        job.model = &raster;
        job.progressive = &progressive;
        job.k = c.k;
        job.archive_id = c.archive_index + 1;
        job.model_fingerprint = seed + 1;  // unique per case: replay hits its own entry
        const RasterOutcome first = engine.submit(job).get();
        const RasterOutcome replay = engine.submit(job).get();
        if (!first.cache_hit && !equivalent_hits(exact, first.result.hits, c, raster, why)) {
          ok = false;
          why += " (engine first run)";
        } else if (!replay.cache_hit) {
          ok = false;
          why = "replay missed the result cache";
        } else if (!equivalent_hits(exact, replay.result.hits, c, raster, why)) {
          ok = false;
          why += " (cached replay)";
        }
      }
    } else {
      // Budgeted: every thread count must certify a sound prefix; a run that
      // completes within budget must match the exact answer outright.
      for (std::size_t workers : kWorkerCounts) {
        ThreadPool pool(workers);
        QueryContext ctx;
        ctx.with_op_budget(c.budget);
        CostMeter meter;
        const RasterTopK result = run_parallel(c, raster, progressive, ctx, meter, pool);
        if (result.status == ResultStatus::kComplete) {
          if (!equivalent_hits(exact, result.hits, c, raster, why)) {
            ok = false;
            why += " (within-budget completion, workers=" + std::to_string(workers) + ")";
            break;
          }
        } else if (!sound_prefix(result, exact, why)) {
          ok = false;
          why += " (workers=" + std::to_string(workers) + ")";
          break;
        }
      }
      // The serial budgeted run must certify a sound prefix too.
      QueryContext ctx;
      ctx.with_op_budget(c.budget);
      CostMeter meter;
      const TiledArchive& archive = *c.pooled->archive;
      RasterTopK serial_budgeted;
      switch (c.exec) {
        case Exec::kFullScan:
          serial_budgeted = full_scan_top_k(archive, raster, c.k, ctx, meter);
          break;
        case Exec::kProgressiveModel:
          serial_budgeted = progressive_model_top_k(archive, progressive, c.k, ctx, meter);
          break;
        case Exec::kTileScreened:
          serial_budgeted = tile_screened_top_k(archive, raster, c.k, ctx, meter);
          break;
        case Exec::kCombined:
          serial_budgeted = progressive_combined_top_k(archive, progressive, c.k, ctx, meter);
          break;
      }
      if (ok) {
        if (serial_budgeted.status == ResultStatus::kComplete) {
          if (!equivalent_hits(exact, serial_budgeted.hits, c, raster, why)) {
            ok = false;
            why += " (serial within-budget completion)";
          }
        } else if (!sound_prefix(serial_budgeted, exact, why)) {
          ok = false;
          why += " (serial budgeted)";
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

}  // namespace
}  // namespace mmir
