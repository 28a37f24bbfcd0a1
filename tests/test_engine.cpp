// Tests for the concurrent query engine (src/engine/): the work-stealing
// thread pool, the concurrency guarantees of QueryContext, the sharded LRU
// caches, and the QueryEngine scheduler facade.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "archive/sharded.hpp"
#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "data/tuples.hpp"
#include "engine/cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "index/onion.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "sproc/fast_sproc.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t workers : {0UL, 1UL, 3UL, 7UL}) {
    ThreadPool pool(workers);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    std::atomic<bool> slot_ok{true};
    pool.parallel_for(0, n, 7, [&](std::size_t lo, std::size_t hi, std::size_t slot) {
      if (slot >= pool.slot_count()) slot_ok = false;
      for (std::size_t i = lo; i < hi; ++i) counts[i].fetch_add(1);
    });
    EXPECT_TRUE(slot_ok);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "index " << i << " with " << workers << " workers";
    }
  }
}

TEST(ThreadPool, EmptyRangeAndSingleChunkWork) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, 4, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> covered{0};
  pool.parallel_for(0, 3, 100, [&](std::size_t lo, std::size_t hi, std::size_t) {
    covered += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(covered.load(), 3);
}

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) pool.submit([&] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ASubmitRacingTheOnlyWorkerToSleepIsNeverLost) {
  // Ping-pong one task at a time through a one-worker pool, so each submit
  // races the worker going back to sleep.  A wakeup lost in that window
  // leaves the task queued forever (seen under ThreadSanitizer, which widens
  // it, as a hung fault-domain scatter-gather).  The window is narrow, so a
  // regression fails this only now and then, most often under TSan.
  ThreadPool pool(1);
  for (int i = 0; i < 100000; ++i) {
    std::promise<void> done;
    std::future<void> ran = done.get_future();
    pool.submit([&done] { done.set_value(); });
    if (ran.wait_for(std::chrono::seconds(5)) == std::future_status::timeout) {
      pool.submit([] {});  // wake the sleeper so the pool can shut down
      ran.wait();
      FAIL() << "wakeup lost at submit " << i;
    }
  }
}

TEST(ThreadPool, ConcurrentParallelForsShareOnePoolWithoutDeadlock) {
  // Caller participation guarantees progress even when every pool worker is
  // busy with the other caller's chunks.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> sums[2] = {{0}, {0}};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      pool.parallel_for(0, 10000, 64, [&, c](std::size_t lo, std::size_t hi, std::size_t) {
        std::uint64_t s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += i;
        sums[c].fetch_add(s);
      });
    });
  }
  for (auto& t : callers) t.join();
  const std::uint64_t expect = 10000ULL * 9999ULL / 2;
  EXPECT_EQ(sums[0].load(), expect);
  EXPECT_EQ(sums[1].load(), expect);
}

// ------------------------------------------------------------- QueryContext

TEST(QueryContextConcurrency, BudgetEnforcedExactlyUnderContention) {
  const std::uint64_t budget = 10000;
  QueryContext ctx;
  ctx.with_op_budget(budget);
  std::atomic<std::uint64_t> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      std::uint64_t local = 0;
      while (ctx.charge(1)) ++local;
      successes.fetch_add(local);
    });
  }
  for (auto& t : threads) t.join();
  // Every successful charge(1) moved the spent counter by one before the
  // budget line; concurrent losers latched without under-counting.
  EXPECT_EQ(successes.load(), budget);
  EXPECT_EQ(ctx.stop_reason(), ResultStatus::kTruncatedBudget);
  EXPECT_TRUE(ctx.stopped());
}

TEST(QueryContextConcurrency, CancellationStopsAllWorkers) {
  std::atomic<bool> cancel{false};
  QueryContext ctx;
  ctx.with_cancel_flag(&cancel).with_check_interval(4);
  std::atomic<int> stopped_workers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (ctx.charge(1)) {
      }
      stopped_workers.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  cancel.store(true);
  for (auto& t : threads) t.join();
  EXPECT_EQ(stopped_workers.load(), 4);
  EXPECT_EQ(ctx.stop_reason(), ResultStatus::kCancelled);
}

TEST(QueryContextConcurrency, FirstStopReasonWinsAndBadPointsAccumulate) {
  QueryContext ctx;
  ctx.with_op_budget(100);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) ctx.note_bad_points();
      while (ctx.charge(1)) {
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ctx.bad_points(), 4000u);
  // Budget is the only configured stop condition; the latch can only hold it.
  EXPECT_EQ(ctx.stop_reason(), ResultStatus::kTruncatedBudget);
}

// ----------------------------------------------------------------- CostMeter

TEST(CostMeterMerge, MergeIsPlusEqualsAndStreamsCacheStatsWhenPresent) {
  CostMeter a;
  a.add_ops(10);
  a.add_points(5);
  CostMeter b;
  b.add_ops(3);
  b.add_cache_hits(2);
  b.add_cache_misses(1);
  a.merge(b);
  EXPECT_EQ(a.ops(), 13u);
  EXPECT_EQ(a.points(), 5u);
  EXPECT_EQ(a.cache_hits(), 2u);
  EXPECT_EQ(a.cache_misses(), 1u);

  std::ostringstream with_cache;
  with_cache << a;
  EXPECT_NE(with_cache.str().find("cache"), std::string::npos);

  CostMeter plain;
  plain.add_ops(1);
  std::ostringstream without_cache;
  without_cache << plain;
  EXPECT_EQ(without_cache.str().find("cache"), std::string::npos);
  EXPECT_NE(without_cache.str().find("ops"), std::string::npos);
}

// --------------------------------------------------------------------- cache

TEST(ShardedLruCache, EvictsLeastRecentlyUsedAndCountsEverything) {
  ShardedLruCache<int, int> cache(3, 1);  // single shard: deterministic LRU order
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(3, 30);
  ASSERT_TRUE(cache.get(1).has_value());  // refresh 1; LRU order now 2 < 3 < 1
  cache.put(4, 40);                       // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value_or(-1), 10);
  EXPECT_EQ(cache.get(4).value_or(-1), 40);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.75);
}

TEST(ShardedLruCache, PutRefreshesExistingKeyWithoutDuplicating) {
  ShardedLruCache<int, int> cache(2, 1);
  cache.put(1, 10);
  cache.put(1, 11);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.get(1).value_or(-1), 11);
  EXPECT_TRUE(cache.erase(1));
  EXPECT_FALSE(cache.erase(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCache, ConcurrentTrafficStaysBoundedAndCountsAccurately) {
  ShardedLruCache<int, int> cache(64, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        cache.put(t * 1000 + i, i);
        (void)cache.get((t * 1000 + i) % 512);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.size(), cache.capacity());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4000u);
  EXPECT_EQ(stats.insertions, 4000u);  // all keys distinct
}

TEST(ModelFingerprint, DistinguishesParametersAndStageOrder) {
  const LinearModel hps = hps_risk_model();
  const LinearModel other({0.443, 0.222, 0.153, 0.184}, 0.0, {});
  const LinearModel rebiased({0.443, 0.222, 0.153, 0.183}, 0.5, {});
  EXPECT_EQ(model_fingerprint(hps), model_fingerprint(hps_risk_model()));
  EXPECT_NE(model_fingerprint(hps), model_fingerprint(other));
  EXPECT_NE(model_fingerprint(hps), model_fingerprint(rebiased));

  const std::vector<Interval> narrow(4, Interval{0.0, 1.0});
  const std::vector<Interval> wide = {{0.0, 1.0}, {0.0, 255.0}, {0.0, 1.0}, {0.0, 1.0}};
  const ProgressiveLinearModel p1(hps, narrow);
  const ProgressiveLinearModel p2(hps, wide);
  EXPECT_EQ(model_fingerprint(p1), model_fingerprint(ProgressiveLinearModel(hps, narrow)));
  const std::vector<std::size_t> order1(p1.order().begin(), p1.order().end());
  const std::vector<std::size_t> order2(p2.order().begin(), p2.order().end());
  if (order1 != order2) {
    EXPECT_NE(model_fingerprint(p1), model_fingerprint(p2));
  }
}

// -------------------------------------------------------------- QueryEngine

struct EngineWorkload {
  Scene scene;
  std::vector<const Grid*> bands;
  LinearModel model;
  LinearRasterModel raster_model;
  std::vector<Interval> ranges;
  TiledArchive archive;
  ProgressiveLinearModel progressive;

  EngineWorkload()
      : scene(generate_scene([] {
          SceneConfig cfg;
          cfg.width = 64;
          cfg.height = 64;
          cfg.seed = 21;
          return cfg;
        }())),
        bands({&scene.band("b4"), &scene.band("b5"), &scene.band("b7"), &scene.dem}),
        model(hps_risk_model()),
        raster_model(model),
        ranges([this] {
          std::vector<Interval> r;
          for (const Grid* band : bands) r.push_back(band->stats().range());
          return r;
        }()),
        archive(bands, 16),
        progressive(model, ranges) {}
};

TEST(QueryEngine, RasterJobsMatchSerialExecutors) {
  const EngineWorkload w;
  QueryEngine engine;

  const auto expect_matches = [&](RasterJob::Mode mode, const std::vector<RasterHit>& serial) {
    RasterJob job;
    job.mode = mode;
    job.archive = &w.archive;
    job.model = &w.raster_model;
    job.progressive = &w.progressive;
    job.k = 10;
    RasterOutcome out = engine.submit(job).get();
    EXPECT_EQ(out.result.status, ResultStatus::kComplete);
    ASSERT_EQ(out.result.hits.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(out.result.hits[i].score, serial[i].score) << "rank " << i;
    }
    EXPECT_FALSE(out.cache_hit);
    EXPECT_GT(out.dispatch_order, 0u);
  };

  CostMeter meter;
  expect_matches(RasterJob::Mode::kFullScan, full_scan_top_k(w.archive, w.raster_model, 10, meter));
  expect_matches(RasterJob::Mode::kProgressiveModel,
                 progressive_model_top_k(w.archive, w.progressive, 10, meter));
  expect_matches(RasterJob::Mode::kTileScreened,
                 tile_screened_top_k(w.archive, w.raster_model, 10, meter));
  expect_matches(RasterJob::Mode::kCombined,
                 progressive_combined_top_k(w.archive, w.progressive, 10, meter));
}

TEST(QueryEngine, ResultCacheServesRepeatQueries) {
  const EngineWorkload w;
  QueryEngine engine;
  RasterJob job;
  job.mode = RasterJob::Mode::kCombined;
  job.archive = &w.archive;
  job.progressive = &w.progressive;
  job.k = 10;
  job.archive_id = 1;

  const RasterOutcome first = engine.submit(job).get();
  EXPECT_FALSE(first.cache_hit);
  const RasterOutcome second = engine.submit(job).get();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.meter.cache_hits(), 1u);
  ASSERT_EQ(second.result.hits.size(), first.result.hits.size());
  for (std::size_t i = 0; i < first.result.hits.size(); ++i) {
    EXPECT_EQ(second.result.hits[i].score, first.result.hits[i].score);
  }
  EXPECT_GE(engine.result_cache_stats().hits, 1u);
}

TEST(QueryEngine, TruncatedResultsAreNotCached) {
  const EngineWorkload w;
  QueryEngine engine;
  RasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.archive = &w.archive;
  job.model = &w.raster_model;
  job.k = 10;
  job.archive_id = 2;
  job.limits.op_budget = 50;

  const RasterOutcome truncated = engine.submit(job).get();
  EXPECT_EQ(truncated.result.status, ResultStatus::kTruncatedBudget);
  // Resubmitting without the budget must re-execute, not replay the stub.
  job.limits.op_budget = std::numeric_limits<std::uint64_t>::max();
  const RasterOutcome full = engine.submit(job).get();
  EXPECT_FALSE(full.cache_hit);
  EXPECT_EQ(full.result.status, ResultStatus::kComplete);
  EXPECT_EQ(full.result.hits.size(), 10u);
}

TEST(QueryEngine, ScreenedJobsSpendBudgetLikeTheDirectExecutor) {
  // A cacheable engine query must pay for the tile-screening metadata pass
  // exactly like the executor it dispatches to: under a budget that covers
  // the scan but not scan + metadata, both truncate at the same op.  With
  // intra_query_threads = 0 the engine's pool runs inline, so its execution
  // is as deterministic as the direct call on ThreadPool(0).
  const EngineWorkload w;
  QueryEngine engine;
  ThreadPool inline_pool(0);
  const std::uint64_t metadata_ops = w.archive.tiles().size() * w.raster_model.ops_per_evaluation();

  for (const RasterJob::Mode mode : {RasterJob::Mode::kTileScreened, RasterJob::Mode::kCombined}) {
    SCOPED_TRACE(static_cast<int>(mode));
    const auto direct = [&](QueryContext& ctx, CostMeter& meter) {
      return mode == RasterJob::Mode::kTileScreened
                 ? parallel_tile_screened_top_k(w.archive, w.raster_model, 10, ctx, meter,
                                                inline_pool)
                 : parallel_progressive_combined_top_k(w.archive, w.progressive, 10, ctx, meter,
                                                       inline_pool);
    };
    QueryContext unbounded;
    CostMeter unbounded_meter;
    ASSERT_EQ(direct(unbounded, unbounded_meter).status, ResultStatus::kComplete);
    const std::uint64_t budget = unbounded.spent() - metadata_ops / 2;

    QueryContext ctx;
    ctx.with_op_budget(budget);
    CostMeter meter;
    const RasterTopK expected = direct(ctx, meter);
    ASSERT_EQ(expected.status, ResultStatus::kTruncatedBudget);

    RasterJob job;
    job.mode = mode;
    job.archive = &w.archive;
    job.model = &w.raster_model;
    job.progressive = &w.progressive;
    job.k = 10;
    job.archive_id = 3 + static_cast<std::uint64_t>(mode);
    job.limits.op_budget = budget;
    const RasterOutcome got = engine.submit(job).get();
    EXPECT_EQ(got.result.status, expected.status);
    EXPECT_EQ(got.result.missed_bound, expected.missed_bound);
    EXPECT_EQ(got.meter.ops(), meter.ops());
    ASSERT_EQ(got.result.hits.size(), expected.hits.size());
    for (std::size_t i = 0; i < expected.hits.size(); ++i) {
      EXPECT_EQ(got.result.hits[i].x, expected.hits[i].x) << "rank " << i;
      EXPECT_EQ(got.result.hits[i].y, expected.hits[i].y) << "rank " << i;
      EXPECT_EQ(got.result.hits[i].score, expected.hits[i].score) << "rank " << i;
    }
  }
}

TEST(QueryEngine, AdmissionControlShedsBeyondCapacity) {
  const EngineWorkload w;
  EngineConfig config;
  config.dispatchers = 1;
  config.queue_capacity = 1;
  config.start_paused = true;
  RasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.archive = &w.archive;
  job.model = &w.raster_model;
  job.k = 4;

  QueryEngine engine(config);
  auto f1 = engine.submit(job);
  auto f2 = engine.submit(job);
  auto f3 = engine.submit(job);
  // Overflow futures complete immediately while the engine is still paused.
  const RasterOutcome shed2 = f2.get();
  const RasterOutcome shed3 = f3.get();
  EXPECT_EQ(shed2.result.status, ResultStatus::kShed);
  EXPECT_EQ(shed3.result.status, ResultStatus::kShed);
  EXPECT_TRUE(is_truncated(shed3.result.status));
  EXPECT_EQ(shed3.result.missed_bound, std::numeric_limits<double>::infinity());
  EXPECT_EQ(shed3.dispatch_order, 0u);

  engine.resume();
  const RasterOutcome ran = f1.get();
  EXPECT_EQ(ran.result.status, ResultStatus::kComplete);
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed, 2u);
}

TEST(QueryEngine, HigherPriorityDispatchesFirst) {
  const EngineWorkload w;
  EngineConfig config;
  config.dispatchers = 1;
  config.start_paused = true;
  RasterJob job;
  job.mode = RasterJob::Mode::kTileScreened;
  job.archive = &w.archive;
  job.model = &w.raster_model;
  job.k = 3;

  QueryEngine engine(config);
  job.limits.priority = Priority::kLow;
  auto low = engine.submit(job);
  job.limits.priority = Priority::kNormal;
  auto normal = engine.submit(job);
  job.limits.priority = Priority::kHigh;
  auto high = engine.submit(job);
  engine.resume();
  const std::uint64_t high_order = high.get().dispatch_order;
  const std::uint64_t normal_order = normal.get().dispatch_order;
  const std::uint64_t low_order = low.get().dispatch_order;
  EXPECT_LT(high_order, normal_order);
  EXPECT_LT(normal_order, low_order);
}

TEST(QueryEngine, QueueWaitCountsAgainstTheDeadline) {
  const EngineWorkload w;
  EngineConfig config;
  config.dispatchers = 1;
  config.start_paused = true;
  QueryEngine engine(config);
  RasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.archive = &w.archive;
  job.model = &w.raster_model;
  job.k = 4;
  job.limits.timeout = std::chrono::milliseconds(1);
  auto future = engine.submit(job);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.resume();
  const RasterOutcome out = future.get();
  EXPECT_EQ(out.result.status, ResultStatus::kTruncatedDeadline);
  EXPECT_GE(out.queue_wait, std::chrono::milliseconds(10));
}

TEST(QueryEngine, PreCancelledJobComesBackCancelled) {
  const EngineWorkload w;
  QueryEngine engine;
  std::atomic<bool> cancel{true};
  RasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.archive = &w.archive;
  job.model = &w.raster_model;
  job.k = 4;
  job.limits.cancel = &cancel;
  const RasterOutcome out = engine.submit(job).get();
  EXPECT_EQ(out.result.status, ResultStatus::kCancelled);
}

TEST(QueryEngine, OnionJobMatchesDirectIndexCall) {
  const TupleSet points = gaussian_tuples(2000, 3, 1);
  const OnionIndex index(points);
  const std::vector<double> weights = {0.5, 1.5, -0.25};
  CostMeter direct_meter;
  const std::vector<ScoredId> direct = index.top_k(weights, 8, direct_meter);

  QueryEngine engine;
  OnionJob job;
  job.index = &index;
  job.weights = weights;
  job.k = 8;
  const OnionOutcome out = engine.submit(job).get();
  EXPECT_EQ(out.result.status, ResultStatus::kComplete);
  ASSERT_EQ(out.result.hits.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(out.result.hits[i].score, direct[i].score) << "rank " << i;
  }
}

TEST(QueryEngine, CompositeJobMatchesDirectProcessorCall) {
  // Unary/binary degree tables drawn in [0,1] (the test_sproc idiom).
  const std::size_t m = 4;
  const std::size_t l = 12;
  Rng rng(5);
  std::vector<double> unary(m * l);
  std::vector<double> binary(m * l * l);
  for (auto& v : unary) v = rng.uniform();
  for (auto& v : binary) v = rng.uniform();
  CartesianQuery query;
  query.components = m;
  query.library_size = l;
  query.unary = [&](std::size_t comp, std::uint32_t j) { return unary[comp * l + j]; };
  query.binary = [&](std::size_t comp, std::uint32_t i, std::uint32_t j) {
    return binary[(comp * l + i) * l + j];
  };

  CostMeter direct_meter;
  const auto direct = fast_sproc_top_k(query, 5, direct_meter);

  QueryEngine engine;
  CompositeJob job;
  job.query = &query;
  job.processor = CompositeJob::Processor::kFastSproc;
  job.k = 5;
  const CompositeOutcome out = engine.submit(job).get();
  EXPECT_EQ(out.result.status, ResultStatus::kComplete);
  ASSERT_EQ(out.result.matches.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(out.result.matches[i].score, direct[i].score, 1e-12) << "rank " << i;
  }
}

TEST(QueryEngine, DestructorShedsJobsStillQueued) {
  const EngineWorkload w;
  RasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.archive = &w.archive;
  job.model = &w.raster_model;
  job.k = 4;

  std::future<RasterOutcome> f1;
  std::future<RasterOutcome> f2;
  {
    EngineConfig config;
    config.dispatchers = 1;
    config.start_paused = true;
    QueryEngine engine(config);
    f1 = engine.submit(job);
    f2 = engine.submit(job);
  }
  EXPECT_EQ(f1.get().result.status, ResultStatus::kShed);
  EXPECT_EQ(f2.get().result.status, ResultStatus::kShed);
}

TEST(QueryEngine, ExecutionFailurePropagatesThroughTheFuture) {
  const EngineWorkload w;
  // 3-band archive against the 4-weight HPS model: the executor's
  // precondition fires on the dispatcher thread.
  const std::vector<const Grid*> three_bands(w.bands.begin(), w.bands.begin() + 3);
  const TiledArchive mismatched(three_bands, 16);
  QueryEngine engine;
  RasterJob job;
  job.mode = RasterJob::Mode::kFullScan;
  job.archive = &mismatched;
  job.model = &w.raster_model;
  job.k = 4;
  auto future = engine.submit(job);
  EXPECT_THROW((void)future.get(), Error);
  engine.drain();
  EXPECT_EQ(engine.stats().failed, 1u);
  EXPECT_EQ(engine.stats().completed, 0u);
}

/// A non-linear model whose every evaluation throws.  It takes the
/// per-pixel path, so it throws on whichever thread scans a pixel: a pool
/// worker as well as the dispatcher.
class ThrowingModel final : public RasterModel {
 public:
  explicit ThrowingModel(std::size_t bands) : bands_(bands) {}
  [[nodiscard]] std::size_t bands() const override { return bands_; }
  [[nodiscard]] double evaluate(std::span<const double>) const override {
    throw std::runtime_error("model fault");
  }
  [[nodiscard]] Interval bound(std::span<const Interval>) const override { return {-1.0, 1.0}; }
  [[nodiscard]] std::size_t ops_per_evaluation() const override { return bands_; }

 private:
  std::size_t bands_;
};

/// `future` holds the model's exception, not a value.
template <typename Outcome>
void expect_model_fault(std::future<Outcome>& future) {
  try {
    (void)future.get();
    ADD_FAILURE() << "the future holds no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "model fault");
  }
}

TEST(ThreadPool, ParallelForRethrowsTheFirstBodyExceptionOnceNoRunnerHoldsTheBody) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<bool> returned{false};
    std::atomic<int> late_calls{0};
    try {
      pool.parallel_for(0, 64, 1, [&](std::size_t lo, std::size_t, std::size_t) {
        if (returned.load()) late_calls.fetch_add(1);
        if (lo % 8 == 3) throw std::runtime_error("model fault");
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      });
      ADD_FAILURE() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "model fault");
    }
    returned.store(true);
    // Helpers still queued from this call must find the loop finished.
    pool.parallel_for(0, 8, 1, [](std::size_t, std::size_t, std::size_t) {});
    ASSERT_EQ(late_calls.load(), 0) << "round " << round;
  }
}

TEST(QueryEngine, ModelExceptionOnAPoolWorkerReachesTheFuture) {
  const EngineWorkload w;
  const ThrowingModel thrower(w.archive.band_count());
  EngineConfig config;
  config.dispatchers = 1;
  config.intra_query_threads = 3;
  QueryEngine engine(config);
  CostMeter meter;
  const std::vector<RasterHit> serial = full_scan_top_k(w.archive, w.raster_model, 6, meter);
  for (int round = 0; round < 10; ++round) {
    RasterJob job;
    job.mode = RasterJob::Mode::kFullScan;
    job.archive = &w.archive;
    job.model = &thrower;
    job.k = 6;
    auto failing = engine.submit(job);
    expect_model_fault(failing);
    job.model = &w.raster_model;
    const RasterOutcome next = engine.submit(job).get();
    ASSERT_EQ(next.result.hits.size(), serial.size()) << "round " << round;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(next.result.hits[i].score, serial[i].score) << "round " << round;
    }
  }
  engine.drain();
  EXPECT_EQ(engine.stats().failed, 10u);
}

TEST(QueryEngine, ModelExceptionInAShardLegReachesTheFuture) {
  const EngineWorkload w;
  const ThrowingModel thrower(w.archive.band_count());
  const ShardedArchive sharded(w.archive, 4);
  EngineConfig config;
  config.dispatchers = 1;
  config.intra_query_threads = 3;
  QueryEngine engine(config);
  CostMeter meter;
  const std::vector<RasterHit> serial = full_scan_top_k(w.archive, w.raster_model, 6, meter);
  for (int round = 0; round < 10; ++round) {
    ShardedRasterJob job;
    job.mode = RasterJob::Mode::kFullScan;
    job.sharded = &sharded;
    job.model = &thrower;
    job.k = 6;
    auto failing = engine.submit(job);
    expect_model_fault(failing);
    job.model = &w.raster_model;
    const ShardedRasterOutcome next = engine.submit(job).get();
    ASSERT_EQ(next.result.merged.hits.size(), serial.size()) << "round " << round;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(next.result.merged.hits[i].score, serial[i].score) << "round " << round;
    }
  }
  engine.drain();
  EXPECT_EQ(engine.stats().failed, 10u);
}

/// Hedging with a 1 ms hedge_delay: the primaries and the hedges both run
/// as pool tasks, so a model exception leaves a pool worker on either leg.
ShardFaultPolicy hedging_policy() {
  ShardFaultPolicy policy;
  policy.hedge = true;
  policy.hedge_delay = std::chrono::milliseconds(1);
  return policy;
}

TEST(ShardExec, HedgedLegExceptionReachesTheCaller) {
  const EngineWorkload w;
  const ThrowingModel thrower(w.archive.band_count());
  const ShardedArchive sharded(w.archive, 4);
  ThreadPool pool(3);
  ShardExecOptions options;
  options.policy = hedging_policy();
  CostMeter serial_meter;
  const std::vector<RasterHit> serial =
      full_scan_top_k(w.archive, w.raster_model, 6, serial_meter);
  for (int round = 0; round < 10; ++round) {
    QueryContext failing_ctx;
    CostMeter failing_meter;
    try {
      (void)sharded_full_scan_top_k(sharded, thrower, 6, failing_ctx, failing_meter, pool,
                                    &options);
      ADD_FAILURE() << "the hedged executor swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "model fault");
    }
    QueryContext ctx;
    CostMeter meter;
    const ShardedTopK next =
        sharded_full_scan_top_k(sharded, w.raster_model, 6, ctx, meter, pool, &options);
    ASSERT_EQ(next.merged.hits.size(), serial.size()) << "round " << round;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(next.merged.hits[i].score, serial[i].score) << "round " << round;
    }
  }
}

TEST(QueryEngine, ModelExceptionInAHedgedShardLegReachesTheFuture) {
  const EngineWorkload w;
  const ThrowingModel thrower(w.archive.band_count());
  const ShardedArchive sharded(w.archive, 4);
  EngineConfig config;
  config.dispatchers = 1;
  config.intra_query_threads = 3;
  config.shard_fault_policy = hedging_policy();
  QueryEngine engine(config);
  CostMeter meter;
  const std::vector<RasterHit> serial = full_scan_top_k(w.archive, w.raster_model, 6, meter);
  for (int round = 0; round < 10; ++round) {
    ShardedRasterJob job;
    job.mode = RasterJob::Mode::kFullScan;
    job.sharded = &sharded;
    job.model = &thrower;
    job.k = 6;
    auto failing = engine.submit(job);
    expect_model_fault(failing);
    job.model = &w.raster_model;
    const ShardedRasterOutcome next = engine.submit(job).get();
    ASSERT_EQ(next.result.merged.hits.size(), serial.size()) << "round " << round;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(next.result.merged.hits[i].score, serial[i].score) << "round " << round;
    }
  }
  engine.drain();
  EXPECT_EQ(engine.stats().failed, 10u);
}

TEST(QueryEngine, ConcurrentMixedLoadCompletesEverything) {
  const EngineWorkload w;
  EngineConfig config;
  config.dispatchers = 4;
  config.intra_query_threads = 2;
  config.queue_capacity = 256;
  QueryEngine engine(config);

  RasterJob job;
  job.archive = &w.archive;
  job.model = &w.raster_model;
  job.progressive = &w.progressive;
  job.k = 6;
  job.archive_id = 9;

  std::vector<std::future<RasterOutcome>> futures;
  const RasterJob::Mode modes[] = {RasterJob::Mode::kFullScan, RasterJob::Mode::kProgressiveModel,
                                   RasterJob::Mode::kTileScreened, RasterJob::Mode::kCombined};
  for (int round = 0; round < 8; ++round) {
    job.mode = modes[round % 4];
    futures.push_back(engine.submit(job));
  }
  std::vector<double> top_score(4, 0.0);
  for (int round = 0; round < 8; ++round) {
    const RasterOutcome out = futures[static_cast<std::size_t>(round)].get();
    ASSERT_EQ(out.result.status, ResultStatus::kComplete) << "round " << round;
    ASSERT_EQ(out.result.hits.size(), 6u);
    // All four executors agree on the exact top score.
    if (round < 4) {
      top_score[static_cast<std::size_t>(round)] = out.result.hits[0].score;
    } else {
      EXPECT_EQ(out.result.hits[0].score, top_score[round % 4]);
    }
  }
  engine.drain();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.shed, 0u);
}

}  // namespace
}  // namespace mmir
