// Serial-vs-parallel parity for the four progressive raster executors
// (engine/parallel_exec.hpp): for every thread count the parallel executors
// must return the serial executors' top-K (modulo exact ties), and under
// budget / deadline / cancellation truncation the certified prefix must
// still be a sound prefix of the exact answer.  The ChargeLease tests pin how
// the kernels spend a shared budget: exactly like per-unit charging on one
// worker, never past the budget on several, stops seen within one slice.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "archive/sharded.hpp"
#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/shard_exec.hpp"
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
/// exact top-K rank for rank, pixels included (answers are canonical, so
/// exact ties leave no slack).
void expect_sound_prefix(const RasterTopK& truncated, const std::vector<RasterHit>& exact) {
  ASSERT_TRUE(is_truncated(truncated.status));
  const std::size_t certified = truncated.certified_prefix();
  ASSERT_LE(certified, exact.size());
  for (std::size_t i = 0; i < certified; ++i) {
    EXPECT_EQ(truncated.hits[i].x, exact[i].x) << "certified rank " << i;
    EXPECT_EQ(truncated.hits[i].y, exact[i].y) << "certified rank " << i;
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

// ------------------------------------------------------------ charge leases

/// The per-unit reference the lease must reproduce on one worker: the full
/// scan as it was written before leases, one QueryContext::charge per pixel.
RasterTopK per_charge_full_scan(const TiledArchive& archive, const RasterModel& model,
                                std::size_t k, QueryContext& ctx) {
  TopK<RasterHit> top(k);
  std::vector<double> scratch(archive.band_count());
  CostMeter meter;
  RasterTopK out;
  for (std::size_t y = 0; y < archive.height() && !ctx.stopped(); ++y) {
    for (std::size_t x = 0; x < archive.width(); ++x) {
      if (!ctx.charge(model.ops_per_evaluation())) break;
      const double score = exec::full_pixel(archive, model, x, y, scratch, meter);
      if (!std::isfinite(score)) {
        ++out.bad_points;
        continue;
      }
      top.offer_ranked(score, exec::pixel_rank(x, y), RasterHit{x, y, score});
    }
  }
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, model);
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  return out;
}

void expect_same_hits(const std::vector<RasterHit>& a, const std::vector<RasterHit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "rank " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

TEST(ChargeLease, RefusesTheSameRequestAsPerUnitCharges) {
  // Mixed request sizes against every budget in a range, at several slices:
  // a single lease is refused on the same request as charge(), and once it
  // is released spent() matches too — refused request included.
  std::vector<std::uint64_t> requests;
  for (std::uint64_t i = 0; i < 400; ++i) requests.push_back(1 + (i * 7919) % 9);
  for (const std::uint64_t interval : {1UL, 3UL, 16UL, 1024UL}) {
    for (std::uint64_t budget = 0; budget < 2200; budget += 7) {
      QueryContext plain;
      plain.with_op_budget(budget).with_check_interval(interval);
      QueryContext leased;
      leased.with_op_budget(budget).with_check_interval(interval);
      std::size_t plain_granted = 0;
      while (plain_granted < requests.size() && plain.charge(requests[plain_granted])) {
        ++plain_granted;
      }
      std::size_t lease_granted = 0;
      {
        ChargeLease lease(leased);
        while (lease_granted < requests.size() && lease.charge(requests[lease_granted])) {
          ++lease_granted;
        }
        // A refusal always leaves the context stopped.
        EXPECT_EQ(leased.stopped(), lease_granted < requests.size());
      }
      ASSERT_EQ(lease_granted, plain_granted) << "budget " << budget << " slice " << interval;
      EXPECT_EQ(leased.stop_reason(), plain.stop_reason());
      EXPECT_EQ(leased.spent(), plain.spent()) << "budget " << budget << " slice " << interval;
    }
  }
}

TEST(ChargeLease, SeesAStopLatchedElsewhereOnTheNextRequest) {
  // A lease still holding allowance must not spend it once a sibling (or,
  // through a chained child, anyone under the parent) has latched a stop.
  QueryContext ctx;
  ctx.with_op_budget(5000);
  ChargeLease lease(ctx);
  ASSERT_TRUE(lease.charge(1));  // draws a whole slice
  EXPECT_FALSE(ctx.charge(4000));  // a sibling's request trips the budget
  EXPECT_FALSE(lease.charge(1));
  lease.release();
  EXPECT_EQ(ctx.spent(), 1u + 4000u);

  QueryContext parent;
  parent.with_op_budget(5000);
  QueryContext child;
  child.with_parent(&parent);
  ChargeLease child_lease(child);
  ASSERT_TRUE(child_lease.charge(1));
  EXPECT_FALSE(parent.charge(4000));
  EXPECT_FALSE(child_lease.charge(1));
  EXPECT_EQ(child.stop_reason(), ResultStatus::kTruncatedBudget);
  child_lease.release();
  EXPECT_EQ(child.spent(), 1u);
  EXPECT_EQ(parent.spent(), 1u + 4000u);
}

TEST(ChargeLease, TakeRunsSpendsExactlyTheRunHeldChargesWouldCover) {
  // After one charge() draws a slice, take_runs(max_n, unit) must grant the
  // number of successive charge(unit) calls the held allowance covers
  // (capped at max_n), without touching the context.  The reference charges
  // per request until one refills or is refused, which moves spent().
  for (const std::uint64_t interval : {1UL, 7UL, 64UL, 1024UL}) {
    for (const std::uint64_t unit : {0UL, 1UL, 3UL, 4UL, 9UL}) {
      for (const std::size_t max_n : {0UL, 1UL, 5UL, 100UL, 5000UL}) {
        for (const std::uint64_t budget : {5UL, 100UL, 1000UL, 1UL << 40}) {
          SCOPED_TRACE(testing::Message() << "slice " << interval << " unit " << unit
                                          << " max_n " << max_n << " budget " << budget);
          QueryContext per_charge;
          per_charge.with_op_budget(budget).with_check_interval(interval);
          QueryContext bulk;
          bulk.with_op_budget(budget).with_check_interval(interval);
          ChargeLease reference(per_charge);
          ChargeLease lease(bulk);
          ASSERT_TRUE(reference.charge(1));
          ASSERT_TRUE(lease.charge(1));
          std::size_t covered = 0;
          std::optional<bool> drew;  // the reference's first refill, if any
          while (covered < max_n) {
            const std::uint64_t before = per_charge.spent();
            const bool granted = reference.charge(unit);
            if (per_charge.spent() != before) {
              drew = granted;
              break;
            }
            ++covered;
          }
          const std::uint64_t spent_before = bulk.spent();
          EXPECT_EQ(lease.take_runs(max_n, unit), covered);
          EXPECT_EQ(bulk.spent(), spent_before);  // never draws
          EXPECT_FALSE(bulk.stopped());           // never latches
          // The request the run stopped short of goes through charge() and
          // refills, or is refused, exactly as the reference's did.
          if (drew.has_value()) {
            EXPECT_EQ(lease.charge(unit), *drew);
          }
          EXPECT_EQ(bulk.spent(), per_charge.spent());
          // Both leases now hold the same leftover: the next request is
          // granted or refused alike, with the same books.
          EXPECT_EQ(lease.charge(unit + 1), reference.charge(unit + 1));
          lease.release();
          reference.release();
          EXPECT_EQ(bulk.spent(), per_charge.spent());
        }
      }
    }
  }
}

TEST(ChargeLease, TakeRunsGrantsNothingOnceAStopLatchedElsewhere) {
  QueryContext ctx;
  ctx.with_op_budget(5000);
  ChargeLease lease(ctx);
  ASSERT_TRUE(lease.charge(1));  // holds the rest of a slice
  ASSERT_GT(lease.take_runs(10, 4), 0u);
  EXPECT_FALSE(ctx.charge(4000));  // a sibling's request trips the budget
  EXPECT_EQ(lease.take_runs(10, 4), 0u);
  EXPECT_EQ(lease.take_runs(10, 0), 0u);
  lease.release();
  EXPECT_EQ(ctx.spent(), 1u + 40u + 4000u);

  QueryContext parent;
  parent.with_op_budget(5000);
  QueryContext child;
  child.with_parent(&parent);
  ChargeLease child_lease(child);
  ASSERT_TRUE(child_lease.charge(1));
  ASSERT_GT(child_lease.take_runs(10, 4), 0u);
  EXPECT_FALSE(parent.charge(4000));
  EXPECT_EQ(child_lease.take_runs(10, 4), 0u);
  EXPECT_FALSE(child_lease.charge(4));  // and the fallback charge() latches it
  EXPECT_EQ(child.stop_reason(), ResultStatus::kTruncatedBudget);
  child_lease.release();
  EXPECT_EQ(child.spent(), 1u + 40u);
  EXPECT_EQ(parent.spent(), 1u + 40u + 4000u);
}

TEST(ChargeLease, SerialFullScanTripsOnTheSameUnitAsPerChargeMode) {
  // Square archives of 4-op pixels.  30x30 costs 3600 ops and 81x81 costs
  // 26244: neither is a multiple of either slice below (1024 or 64 ops), so
  // budgets above the cost leave allowance for the lease to hand back at
  // the end of a complete scan, and both end in a partial row of 8-pixel
  // tiles.  The row kernel pays in runs of up to a slice (256 pixels at the
  // default interval, 16 at the short one), so 81-pixel rows hold several
  // runs and runs straddle rows.
  std::size_t mid_row_trips = 0;
  for (const std::size_t size : {30UL, 81UL}) {
    const Workload w(size, 5);
    const TiledArchive archive(w.bands, 8);
    const std::uint64_t unit = w.raster_model.ops_per_evaluation();
    const std::uint64_t width = archive.width();
    const std::uint64_t cost = archive.width() * archive.height() * unit;
    ASSERT_NE(cost % 64, 0u);
    std::vector<std::uint64_t> budgets;
    for (std::uint64_t b = 0; b < cost; b += 61) budgets.push_back(b);
    for (std::uint64_t b = cost - 40; b <= cost + 8; ++b) budgets.push_back(b);
    // Trips inside a run in the middle of a row: pixel p granted last, p not
    // at a row start and not at a slice boundary, plus a ragged remainder.
    for (const std::uint64_t row : {0UL, 3UL, 17UL, size - 2}) {
      for (const std::uint64_t col : {1UL, 13UL, 21UL, size / 2 + 1, size - 1}) {
        for (const std::uint64_t extra : {0UL, 1UL, 3UL}) {
          budgets.push_back((row * width + col) * unit + extra);
        }
      }
    }
    for (const std::uint64_t interval : {1024UL, 64UL}) {
      for (const std::uint64_t budget : budgets) {
        SCOPED_TRACE(testing::Message()
                     << "size " << size << " budget " << budget << " slice " << interval);
        QueryContext reference_ctx;
        reference_ctx.with_op_budget(budget).with_check_interval(interval);
        const RasterTopK reference =
            per_charge_full_scan(archive, w.raster_model, 10, reference_ctx);
        QueryContext ctx;
        ctx.with_op_budget(budget).with_check_interval(interval);
        CostMeter meter;
        const RasterTopK leased = full_scan_top_k(archive, w.raster_model, 10, ctx, meter);
        EXPECT_EQ(leased.status, reference.status);
        expect_same_hits(leased.hits, reference.hits);
        EXPECT_EQ(leased.missed_bound, reference.missed_bound);
        EXPECT_EQ(ctx.spent(), reference_ctx.spent());
        EXPECT_EQ(meter.ops(), std::min(budget / unit * unit, cost));
        if (is_truncated(leased.status) && (budget / unit) % width != 0) ++mid_row_trips;
        // On the inline pool the tile-parallel scan is one worker too.
        QueryContext inline_ctx;
        inline_ctx.with_op_budget(budget).with_check_interval(interval);
        ThreadPool inline_pool(0);
        CostMeter inline_meter;
        const RasterTopK inline_run = parallel_full_scan_top_k(
            archive, w.raster_model, 10, inline_ctx, inline_meter, inline_pool);
        EXPECT_EQ(inline_run.status, reference.status);
        expect_same_hits(inline_run.hits, reference.hits);
        EXPECT_EQ(inline_ctx.spent(), reference_ctx.spent());
      }
    }
  }
  EXPECT_GT(mid_row_trips, 100u);
}

TEST(ChargeLease, ChainedChildTripsAtTheParentsUnit) {
  // The fault-domain sub-context shape: an unbounded child with its own
  // cancel flag and a short check interval, chained under a budgeted parent.
  const Workload w(30, 6);
  const TiledArchive archive(w.bands, 8);
  const std::uint64_t cost = archive.width() * archive.height() * w.raster_model.ops_per_evaluation();
  for (std::uint64_t budget = 1; budget < cost + 8; budget += 37) {
    SCOPED_TRACE(budget);
    std::atomic<bool> cancel{false};
    QueryContext reference_parent;
    reference_parent.with_op_budget(budget);
    QueryContext reference_child;
    reference_child.with_parent(&reference_parent).with_cancel_flag(&cancel).with_check_interval(128);
    const RasterTopK reference = per_charge_full_scan(archive, w.raster_model, 10, reference_child);

    QueryContext parent;
    parent.with_op_budget(budget);
    QueryContext child;
    child.with_parent(&parent).with_cancel_flag(&cancel).with_check_interval(128);
    CostMeter meter;
    const RasterTopK leased = full_scan_top_k(archive, w.raster_model, 10, child, meter);
    EXPECT_EQ(leased.status, reference.status);
    expect_same_hits(leased.hits, reference.hits);
    EXPECT_EQ(leased.missed_bound, reference.missed_bound);
    EXPECT_EQ(child.spent(), reference_child.spent());
    EXPECT_EQ(parent.spent(), reference_parent.spent());
    EXPECT_EQ(parent.stop_reason(), reference_parent.stop_reason());
  }
}

TEST(ChargeLease, FourWorkersNeverOverspendAndKeepASoundPrefix) {
  const Workload w(64, 8);
  const TiledArchive archive(w.bands, 8);
  const ShardedArchive sharded(archive, 4);
  const std::uint64_t ops = w.raster_model.ops_per_evaluation();
  const std::uint64_t cost = archive.width() * archive.height() * ops;
  CostMeter exact_meter;
  const auto exact = full_scan_top_k(archive, w.raster_model, 12, exact_meter);
  ThreadPool pool(3);
  const std::uint64_t workers = pool.slot_count();
  for (int round = 0; round < 10; ++round) {
    for (const std::uint64_t budget : {cost / 7, cost / 2, cost - 3, cost - 1}) {
      for (const bool use_shards : {false, true}) {
        SCOPED_TRACE(testing::Message() << "budget " << budget << " shards " << use_shards);
        QueryContext ctx;
        ctx.with_op_budget(budget).with_check_interval(64);
        CostMeter meter;
        const RasterTopK out =
            use_shards
                ? sharded_full_scan_top_k(sharded, w.raster_model, 12, ctx, meter, pool).merged
                : parallel_full_scan_top_k(archive, w.raster_model, 12, ctx, meter, pool);
        ASSERT_EQ(out.status, ResultStatus::kTruncatedBudget);
        // Work done never exceeds the budget; the books add at most one
        // refused request per worker on top of it.
        EXPECT_LE(meter.ops(), budget);
        EXPECT_GE(ctx.spent(), meter.ops());
        EXPECT_LE(ctx.spent(), budget + workers * ops);
        expect_sound_prefix(out, exact);
      }
    }
  }
}

/// A linear raster model that fires a trigger on its `at`-th evaluation and
/// counts evaluations that begin after the trigger has fired.
class TriggerModel final : public RasterModel {
 public:
  TriggerModel(const LinearRasterModel& inner, std::uint64_t at, std::function<void()> fire)
      : inner_(inner), at_(at), fire_(std::move(fire)) {}
  [[nodiscard]] std::size_t bands() const override { return inner_.bands(); }
  [[nodiscard]] double evaluate(std::span<const double> pixel) const override {
    if (fired_.load()) late_.fetch_add(1);
    if (count_.fetch_add(1) + 1 == at_) {
      fire_();
      fired_.store(true);
    }
    return inner_.evaluate(pixel);
  }
  [[nodiscard]] Interval bound(std::span<const Interval> ranges) const override {
    return inner_.bound(ranges);
  }
  [[nodiscard]] std::size_t ops_per_evaluation() const override {
    return inner_.ops_per_evaluation();
  }
  [[nodiscard]] std::uint64_t late() const { return late_.load(); }

 private:
  const LinearRasterModel& inner_;
  std::uint64_t at_;
  std::function<void()> fire_;
  mutable std::atomic<std::uint64_t> count_{0};
  mutable std::atomic<std::uint64_t> late_{0};
  mutable std::atomic<bool> fired_{false};
};

TEST(ChargeLease, CancelAndDeadlineAreSeenWithinOneSlicePerWorker) {
  // Once the cancel flag is up (or the deadline has passed), each worker
  // spends at most what its lease already held — under one slice — before
  // its next refill checks and stops the query.
  const Workload w(128, 12);
  const TiledArchive archive(w.bands, 16);
  const std::uint64_t slice = 64;
  const std::uint64_t per_worker = slice / w.raster_model.ops_per_evaluation();
  for (std::size_t pool_workers : {0UL, 3UL}) {
    ThreadPool pool(pool_workers);
    const std::uint64_t workers = pool.slot_count();
    {
      std::atomic<bool> cancel{false};
      const TriggerModel model(w.raster_model, 300, [&] { cancel.store(true); });
      QueryContext ctx;
      ctx.with_cancel_flag(&cancel).with_check_interval(slice);
      CostMeter meter;
      const RasterTopK out = parallel_full_scan_top_k(archive, model, 8, ctx, meter, pool);
      EXPECT_EQ(out.status, ResultStatus::kCancelled);
      EXPECT_LE(model.late(), workers * per_worker) << "workers " << workers;
    }
    {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
      const TriggerModel model(w.raster_model, 300, [&] {
        while (std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
      });
      QueryContext ctx;
      ctx.with_deadline(deadline).with_check_interval(slice);
      CostMeter meter;
      const RasterTopK out = parallel_full_scan_top_k(archive, model, 8, ctx, meter, pool);
      EXPECT_EQ(out.status, ResultStatus::kTruncatedDeadline);
      EXPECT_LE(model.late(), workers * per_worker) << "workers " << workers;
    }
  }
}

}  // namespace
}  // namespace mmir
