// Concurrency tests for the observability layer, run under ci/tsan.sh:
// concurrent counter sums must be exact after join, snapshots taken during
// writes must be monotone and bounded, and span trees built by many threads
// (including the engine's shared ThreadPool workers) must stay well-formed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "data/scene.hpp"
#include "engine/scheduler.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mmir {
namespace {

TEST(ObsConcurrency, ConcurrentCounterSumsAreExact) {
  obs::MetricsRegistry registry(8);
  obs::Counter shared = registry.counter("shared_total");
  obs::Counter per_thread[4] = {
      registry.counter("t0_total"), registry.counter("t1_total"),
      registry.counter("t2_total"), registry.counter("t3_total")};
  constexpr std::uint64_t kPerThread = 200000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        shared.add();
        per_thread[t].add(2);
      }
    });
  }
  for (auto& th : threads) th.join();
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("shared_total"), 4 * kPerThread);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(snap.counter("t" + std::to_string(t) + "_total"), 2 * kPerThread);
  }
}

TEST(ObsConcurrency, ConcurrentHistogramCountsAreExact) {
  obs::MetricsRegistry registry(8);
  obs::Histogram h = registry.histogram("ops", obs::HistogramSpec::work_units());
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) h.observe(t + 1);
    });
  }
  for (auto& th : threads) th.join();
  const obs::HistogramSample s = registry.snapshot().histograms[0];
  EXPECT_EQ(s.count, 4 * kPerThread);
  EXPECT_EQ(s.sum, kPerThread * (1 + 2 + 3 + 4));
}

TEST(ObsConcurrency, SnapshotDuringWritesIsMonotoneAndBounded) {
  obs::MetricsRegistry registry(8);
  obs::Counter c = registry.counter("monotone_total");
  constexpr std::uint64_t kPerThread = 150000;
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 3; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  std::uint64_t last = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = registry.snapshot().counter("monotone_total");
      if (now < last) monotone = false;
      last = now;
    }
  });
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotone) << "a snapshot observed a decreasing counter";
  EXPECT_LE(last, 3 * kPerThread);
  EXPECT_EQ(registry.snapshot().counter("monotone_total"), 3 * kPerThread);
}

TEST(ObsConcurrency, SpanTreesFromManyThreadsStayWellFormed) {
  obs::Trace trace("parallel");
  obs::Span root(&trace, "root");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        obs::Span child = obs::Span::child_of(&root, "worker_stage");
        child.annotate("i", static_cast<double>(i));
        obs::Span grandchild = obs::Span::child_of(&child, "inner");
        grandchild.note("k", "v");
      }
    });
  }
  for (auto& th : threads) th.join();
  root.finish();
  EXPECT_TRUE(trace.well_formed());
  EXPECT_EQ(trace.span_count(), 1 + 4 * 200 * 2);
}

TEST(ObsConcurrency, SpanTreesUnderSharedThreadPool) {
  obs::Trace trace("pooled");
  obs::Span root(&trace, "root");
  ThreadPool pool(3);
  pool.parallel_for(0, 64, 1, [&](std::size_t b, std::size_t, std::size_t) {
    obs::Span span = obs::Span::child_of(&root, "chunk");
    span.annotate("begin", static_cast<double>(b));
  });
  root.finish();
  EXPECT_TRUE(trace.well_formed());
  EXPECT_EQ(trace.span_count(), 1u + 64u);
}

TEST(ObsConcurrency, TracerRingUnderConcurrentFinishes) {
  obs::Tracer tracer(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto trace = tracer.start_trace("t");
        obs::Span root(trace.get(), "root");
        root.finish();
        tracer.finish(std::move(trace));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.started(), 200u);
  EXPECT_EQ(tracer.finished(), 200u);
  EXPECT_EQ(tracer.recent().size(), 8u);  // ring stays capacity-bounded
}

// End-to-end: the engine traces concurrent raster queries through the shared
// ThreadPool; every retained trace must be a well-formed span tree carrying
// the executor stage spans.
TEST(ObsConcurrency, EngineTracesAreWellFormedSpanTrees) {
  SceneConfig cfg;
  cfg.width = 48;
  cfg.height = 48;
  cfg.seed = 21;
  const Scene scene = generate_scene(cfg);
  const std::vector<const Grid*> bands = {&scene.band("b4"), &scene.band("b5"),
                                          &scene.band("b7"), &scene.dem};
  const TiledArchive archive(bands, 16);
  const LinearModel model({0.8, -0.4, 0.3, 0.01}, 1.0, {"b4", "b5", "b7", "dem"});
  const LinearRasterModel raster(model);

  obs::MetricsRegistry registry(8);
  obs::Tracer tracer(64);
  EngineConfig config;
  config.dispatchers = 3;
  config.intra_query_threads = 2;
  config.metrics = &registry;
  config.tracer = &tracer;
  QueryEngine engine(config);

  std::vector<std::future<RasterOutcome>> futures;
  for (int i = 0; i < 24; ++i) {
    RasterJob job;
    job.mode = (i % 2 == 0) ? RasterJob::Mode::kFullScan : RasterJob::Mode::kTileScreened;
    job.archive = &archive;
    job.model = &raster;
    job.k = 5;
    futures.push_back(engine.submit(job));
  }
  for (auto& f : futures) {
    const RasterOutcome out = f.get();
    EXPECT_EQ(out.result.status, ResultStatus::kComplete);
  }
  engine.drain();

  const auto traces = tracer.recent();
  ASSERT_EQ(traces.size(), 24u);
  for (const auto& trace : traces) {
    EXPECT_TRUE(trace->well_formed()) << trace->to_text();
    EXPECT_GE(trace->span_count(), 2u);  // query root + at least one stage
    bool has_stage = false;
    for (const auto& span : trace->spans()) {
      EXPECT_TRUE(span.closed);
      if (span.name == "parallel_full_scan" || span.name == "parallel_tile_screened") {
        has_stage = true;
      }
    }
    EXPECT_TRUE(has_stage) << trace->to_text();
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("engine_jobs_submitted_total"), 24u);
  EXPECT_EQ(snap.counter("engine_jobs_completed_total"), 24u);
  EXPECT_GT(snap.counter("query_points_total"), 0u);
}

// The engine publishes every completed query's meter into the registry
// through counter handles it resolved once: with 3 dispatchers publishing at
// once, each query_*_total / cache_*_total counter must equal the sum of the
// per-query meters, and the cache counters must agree with the result
// cache's own (lock-free) stats.
TEST(ObsConcurrency, QueryTotalsEqualTheSumOfPerQueryMeters) {
  SceneConfig cfg;
  cfg.width = 40;
  cfg.height = 40;
  cfg.seed = 23;
  const Scene scene = generate_scene(cfg);
  const std::vector<const Grid*> bands = {&scene.band("b4"), &scene.band("b5"),
                                          &scene.band("b7"), &scene.dem};
  const TiledArchive archive(bands, 8);
  std::vector<LinearRasterModel> models;
  for (int m = 0; m < 4; ++m) {
    models.emplace_back(LinearModel({0.8 - 0.1 * m, -0.4, 0.3, 0.01 * m}, 1.0,
                                    {"b4", "b5", "b7", "dem"}));
  }

  obs::MetricsRegistry registry(8);
  EngineConfig config;
  config.dispatchers = 3;
  config.intra_query_threads = 2;
  config.metrics = &registry;
  QueryEngine engine(config);

  const RasterJob::Mode modes[] = {RasterJob::Mode::kFullScan, RasterJob::Mode::kTileScreened};
  std::vector<std::future<RasterOutcome>> futures;
  for (int i = 0; i < 48; ++i) {  // each (model, mode) pair six times: misses, then hits
    RasterJob job;
    job.mode = modes[i % 2];
    job.archive = &archive;
    job.model = &models[(i / 2) % models.size()];
    job.archive_id = 7;  // admits the query to the result cache
    job.k = 5;
    futures.push_back(engine.submit(job));
  }
  CostMeter sum;
  for (auto& f : futures) {
    const RasterOutcome out = f.get();
    EXPECT_EQ(out.result.status, ResultStatus::kComplete);
    sum.merge(out.meter);
  }
  engine.drain();

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(sum.points(), 0u);
  EXPECT_EQ(snap.counter("query_points_total"), sum.points());
  EXPECT_EQ(snap.counter("query_ops_total"), sum.ops());
  EXPECT_EQ(snap.counter("query_bytes_total"), sum.bytes());
  EXPECT_EQ(snap.counter("query_pruned_total"), sum.pruned());
  EXPECT_EQ(snap.counter("cache_hits_total"), sum.cache_hits());
  EXPECT_EQ(snap.counter("cache_misses_total"), sum.cache_misses());
  const CacheStats cache = engine.result_cache_stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_EQ(cache.hits, sum.cache_hits());
  EXPECT_EQ(cache.hits + cache.misses, 48u);
}

}  // namespace
}  // namespace mmir
