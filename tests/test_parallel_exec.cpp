// Serial-vs-parallel parity for the four progressive raster executors
// (engine/parallel_exec.hpp): for every thread count the parallel executors
// must return the serial executors' top-K (modulo exact ties), and under
// budget / deadline / cancellation truncation the certified prefix must
// still be a sound prefix of the exact answer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"

namespace mmir {
namespace {

// Worker counts that give 1 / 2 / 4 / 8 executing threads (pool + caller).
const std::size_t kWorkerCounts[] = {0, 1, 3, 7};

struct Workload {
  Scene scene;
  std::vector<const Grid*> bands;
  LinearModel model;
  LinearRasterModel raster_model;
  std::vector<Interval> ranges;

  explicit Workload(std::size_t size = 96, std::uint64_t seed = 9)
      : scene(generate_scene([&] {
          SceneConfig cfg;
          cfg.width = size;
          cfg.height = size;
          cfg.seed = seed;
          return cfg;
        }())),
        model(hps_risk_model()),
        raster_model(model) {
    bands = {&scene.band("b4"), &scene.band("b5"), &scene.band("b7"), &scene.dem};
    for (const Grid* band : bands) ranges.push_back(band->stats().range());
  }

  [[nodiscard]] ProgressiveLinearModel progressive() const {
    return ProgressiveLinearModel(model, ranges);
  }
};

/// Same hits modulo exact ties: scores must agree rank for rank, and every
/// reported location must reproduce its reported score under the model.
void expect_equivalent_hits(const std::vector<RasterHit>& serial,
                            const std::vector<RasterHit>& parallel, const Workload& w) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].score, parallel[i].score) << "rank " << i;
    std::vector<double> pixel;
    for (const Grid* band : w.bands) pixel.push_back(band->cell(parallel[i].x, parallel[i].y));
    EXPECT_DOUBLE_EQ(parallel[i].score, w.raster_model.evaluate(pixel)) << "rank " << i;
  }
}

/// Soundness of a truncated answer: its certified prefix must match the
/// exact top-K rank for rank (ties at a rank share a score, so score
/// equality is the tie-insensitive check).
void expect_sound_prefix(const RasterTopK& truncated, const std::vector<RasterHit>& exact) {
  ASSERT_TRUE(is_truncated(truncated.status));
  const std::size_t certified = truncated.certified_prefix();
  ASSERT_LE(certified, exact.size());
  for (std::size_t i = 0; i < certified; ++i) {
    EXPECT_EQ(truncated.hits[i].score, exact[i].score) << "certified rank " << i;
  }
}

enum class Exec { kFullScan, kProgressiveModel, kTileScreened, kCombined };
const Exec kAllExecs[] = {Exec::kFullScan, Exec::kProgressiveModel, Exec::kTileScreened,
                          Exec::kCombined};

RasterTopK run_parallel(Exec exec, const TiledArchive& archive, const Workload& w,
                        const ProgressiveLinearModel& progressive, std::size_t k,
                        QueryContext& ctx, CostMeter& meter, ThreadPool& pool) {
  switch (exec) {
    case Exec::kFullScan:
      return parallel_full_scan_top_k(archive, w.raster_model, k, ctx, meter, pool);
    case Exec::kProgressiveModel:
      return parallel_progressive_model_top_k(archive, progressive, k, ctx, meter, pool);
    case Exec::kTileScreened:
      return parallel_tile_screened_top_k(archive, w.raster_model, k, ctx, meter, pool);
    case Exec::kCombined:
      return parallel_progressive_combined_top_k(archive, progressive, k, ctx, meter, pool);
  }
  return {};
}

std::vector<RasterHit> run_serial(Exec exec, const TiledArchive& archive, const Workload& w,
                                  const ProgressiveLinearModel& progressive, std::size_t k,
                                  CostMeter& meter) {
  switch (exec) {
    case Exec::kFullScan: return full_scan_top_k(archive, w.raster_model, k, meter);
    case Exec::kProgressiveModel: return progressive_model_top_k(archive, progressive, k, meter);
    case Exec::kTileScreened: return tile_screened_top_k(archive, w.raster_model, k, meter);
    case Exec::kCombined: return progressive_combined_top_k(archive, progressive, k, meter);
  }
  return {};
}

TEST(ParallelParity, AllExecutorsAllThreadCountsUnbounded) {
  const Workload w;
  const TiledArchive archive(w.bands, 16);
  const ProgressiveLinearModel progressive = w.progressive();
  for (const std::size_t k : {1UL, 10UL, 64UL}) {
    for (Exec exec : kAllExecs) {
      CostMeter serial_meter;
      const auto serial = run_serial(exec, archive, w, progressive, k, serial_meter);
      for (std::size_t workers : kWorkerCounts) {
        ThreadPool pool(workers);
        QueryContext ctx;
        CostMeter meter;
        const RasterTopK par = run_parallel(exec, archive, w, progressive, k, ctx, meter, pool);
        EXPECT_EQ(par.status, ResultStatus::kComplete);
        expect_equivalent_hits(serial, par.hits, w);
        EXPECT_EQ(par.certified_prefix(), par.hits.size());
      }
    }
  }
}

TEST(ParallelParity, MetersAccountTheWork) {
  const Workload w;
  const TiledArchive archive(w.bands, 16);
  ThreadPool pool(3);
  QueryContext ctx;
  CostMeter meter;
  const RasterTopK out =
      parallel_full_scan_top_k(archive, w.raster_model, 10, ctx, meter, pool);
  ASSERT_EQ(out.status, ResultStatus::kComplete);
  // Full scan touches every pixel once: merged per-worker meters must add up
  // to exactly the serial work.
  CostMeter serial_meter;
  (void)full_scan_top_k(archive, w.raster_model, 10, serial_meter);
  EXPECT_EQ(meter.points(), serial_meter.points());
  EXPECT_EQ(meter.ops(), serial_meter.ops());
  EXPECT_EQ(meter.bytes(), serial_meter.bytes());
}

TEST(ParallelParity, BudgetTruncationIsSoundAtEveryThreadCount) {
  const Workload w;
  const TiledArchive archive(w.bands, 16);
  const ProgressiveLinearModel progressive = w.progressive();
  const std::size_t k = 16;
  for (Exec exec : kAllExecs) {
    CostMeter exact_meter;
    const auto exact = run_serial(exec, archive, w, progressive, k, exact_meter);
    // A tenth of the exact run's op count forces a mid-flight stop; a tiny
    // budget exercises the pre-metadata bail-out of the tile executors.
    for (const std::uint64_t budget : {exact_meter.ops() / 10, std::uint64_t{3}}) {
      for (std::size_t workers : kWorkerCounts) {
        ThreadPool pool(workers);
        QueryContext ctx;
        ctx.with_op_budget(budget);
        CostMeter meter;
        const RasterTopK par = run_parallel(exec, archive, w, progressive, k, ctx, meter, pool);
        EXPECT_EQ(par.status, ResultStatus::kTruncatedBudget);
        expect_sound_prefix(par, exact);
      }
    }
  }
}

TEST(ParallelParity, ExpiredDeadlineTruncatesImmediately) {
  const Workload w;
  const TiledArchive archive(w.bands, 16);
  const ProgressiveLinearModel progressive = w.progressive();
  for (Exec exec : kAllExecs) {
    CostMeter exact_meter;
    const auto exact = run_serial(exec, archive, w, progressive, 8, exact_meter);
    for (std::size_t workers : kWorkerCounts) {
      ThreadPool pool(workers);
      QueryContext ctx;
      ctx.with_deadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(1))
          .with_check_interval(16);
      CostMeter meter;
      const RasterTopK par = run_parallel(exec, archive, w, progressive, 8, ctx, meter, pool);
      EXPECT_EQ(par.status, ResultStatus::kTruncatedDeadline);
      expect_sound_prefix(par, exact);
    }
  }
}

TEST(ParallelParity, MidFlightCancellationStopsAllWorkers) {
  const Workload w(128, 11);
  const TiledArchive archive(w.bands, 16);
  const ProgressiveLinearModel progressive = w.progressive();
  CostMeter exact_meter;
  const auto exact = run_serial(Exec::kCombined, archive, w, progressive, 8, exact_meter);

  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    std::atomic<bool> cancel{false};
    QueryContext ctx;
    ctx.with_cancel_flag(&cancel).with_check_interval(8);
    CostMeter meter;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      cancel.store(true);
    });
    const RasterTopK par = run_parallel(Exec::kCombined, archive, w, progressive, 8, ctx, meter,
                                        pool);
    canceller.join();
    // The race is real: the query may legitimately finish first.  Either way
    // the answer must be sound.
    if (par.status == ResultStatus::kCancelled) {
      expect_sound_prefix(par, exact);
    } else {
      EXPECT_EQ(par.status, ResultStatus::kComplete);
      expect_equivalent_hits(exact, par.hits, w);
    }
  }
}

TEST(ParallelParity, PreRaisedCancellationIsDeterministic) {
  const Workload w;
  const TiledArchive archive(w.bands, 16);
  ThreadPool pool(3);
  std::atomic<bool> cancel{true};
  QueryContext ctx;
  ctx.with_cancel_flag(&cancel).with_check_interval(1);
  CostMeter meter;
  const RasterTopK par = parallel_full_scan_top_k(archive, w.raster_model, 8, ctx, meter, pool);
  EXPECT_EQ(par.status, ResultStatus::kCancelled);
  EXPECT_TRUE(is_truncated(par.status));
  EXPECT_EQ(par.certified_prefix(), 0u);  // missed bound dominates everything
}

TEST(ParallelParity, PoisonedArchiveDegradesIdentically) {
  Workload w;
  // Copy the bands so NaNs can be injected without touching the scene.
  std::vector<Grid> poisoned;
  poisoned.reserve(w.bands.size());
  for (const Grid* band : w.bands) poisoned.push_back(*band);
  poisoned[0].cell(3, 5) = std::numeric_limits<double>::quiet_NaN();
  poisoned[2].cell(40, 41) = std::numeric_limits<double>::quiet_NaN();
  std::vector<const Grid*> bands;
  for (const Grid& band : poisoned) bands.push_back(&band);
  const TiledArchive archive(bands, 16);

  CostMeter serial_meter;
  QueryContext serial_ctx;
  const RasterTopK serial =
      full_scan_top_k(archive, w.raster_model, 10, serial_ctx, serial_meter);
  ASSERT_EQ(serial.status, ResultStatus::kDegraded);

  for (std::size_t workers : kWorkerCounts) {
    ThreadPool pool(workers);
    QueryContext ctx;
    CostMeter meter;
    const RasterTopK par =
        parallel_full_scan_top_k(archive, w.raster_model, 10, ctx, meter, pool);
    EXPECT_EQ(par.status, ResultStatus::kDegraded);
    EXPECT_EQ(par.bad_points, serial.bad_points);
    ASSERT_EQ(par.hits.size(), serial.hits.size());
    for (std::size_t i = 0; i < serial.hits.size(); ++i) {
      EXPECT_EQ(par.hits[i].score, serial.hits[i].score);
    }
  }
}

TEST(ParallelParity, InlinePoolSpendsExactlyLikeSerial) {
  // Serial and tile-parallel screened executors share one metadata pass
  // (exec::screen_tiles) and one visit order, so on an inline pool the
  // parallel run scans the same tiles and spends the same ops.
  const Workload w;
  const TiledArchive archive(w.bands, 16);
  const ProgressiveLinearModel progressive = w.progressive();
  ThreadPool inline_pool(0);
  for (Exec exec : {Exec::kTileScreened, Exec::kCombined}) {
    SCOPED_TRACE(static_cast<int>(exec));
    QueryContext serial_ctx;
    QueryContext par_ctx;
    CostMeter serial_meter;
    CostMeter par_meter;
    const bool screened = exec == Exec::kTileScreened;
    const RasterTopK serial =
        screened ? tile_screened_top_k(archive, w.raster_model, 12, serial_ctx, serial_meter)
                 : progressive_combined_top_k(archive, progressive, 12, serial_ctx, serial_meter);
    const RasterTopK par =
        screened ? parallel_tile_screened_top_k(archive, w.raster_model, 12, par_ctx, par_meter,
                                                inline_pool)
                 : parallel_progressive_combined_top_k(archive, progressive, 12, par_ctx,
                                                       par_meter, inline_pool);
    ASSERT_EQ(par.status, ResultStatus::kComplete);
    expect_equivalent_hits(serial.hits, par.hits, w);
    EXPECT_EQ(par_ctx.spent(), serial_ctx.spent());
    EXPECT_EQ(par_meter.ops(), serial_meter.ops());
  }
}

}  // namespace
}  // namespace mmir
