// Independent score oracle for every full-model scan path.
//
// The reference here shares no code with the executors: it gathers each
// pixel's bands straight from the grids, scores them with
// LinearModel::evaluate (or a non-linear model's own evaluate), and sorts
// the finite scores into the canonical (score desc, pixel rank asc) top-K.
// The serial full scan, the tile-screened scan, the tile-parallel scans at
// 1/2/4 threads, the sharded scans under both placement policies and the
// members of an engine batch group must all return exactly those hits with
// bit-identical scores — on clean archives, NaN-poisoned ones and the
// exact-tie scenes of tie_parity_scenarios().  A complete full scan must
// also bill exactly pixels·bands points, pixels·N ops and pixels·bands·8
// bytes, and count exactly the reference's non-finite scores as bad points.
//
// The fused linear pass scores bands in groups of four and screens pixels
// in fixed blocks, so a further battery runs archives of 1, 3, 5 and 9
// bands, at widths and tile sizes that leave partial groups and blocks,
// with +inf, -inf and NaN samples and a scene whose every run ties the heap
// threshold exactly, through every path and under budgets that trip the
// serial scan mid-run.
//
// The pass is compiled twice, for AVX2 and for the baseline ISA
// (core/exec_kernels.cpp).  Both entries are called directly on archives of
// every width from 1 to 67 and must return the reference's hits, score bytes
// and bad points; a contraction canary (a multiply-add that a fused FMA
// would round differently) must score exactly zero on both entries and on
// every path.  Both entries are also called with spans of 1 to 17 members
// (a batch group's shared pass), every member equal to its one-member call,
// with the canary at every member position, and the rows × members loop
// must match one-member scans under tripping budgets.
//
// The second half covers the per-pixel path the row kernel keeps for
// non-linear models (a product of two bands plus a linear tail), alone and
// in an engine batch group that mixes linear, non-linear and staged
// members, some of them tripping their budgets.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "archive/sharded.hpp"
#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/scheduler.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "testing/scenario_gen.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

constexpr std::size_t kK = 12;

/// Pool sizes giving 1 / 2 / 4 executing threads (pool workers + caller).
const std::size_t kPoolWorkers[] = {0, 1, 3};

/// An archive under test: generated bands, optionally poisoned, viewed by a
/// TiledArchive of its own.
struct OracleArchive {
  std::string name;
  std::vector<Grid> grids;
  std::unique_ptr<TiledArchive> archive;

  OracleArchive(std::string label, const ScenarioConfig& cfg, double nan_fraction)
      : name(std::move(label)), grids(generate_scenario(cfg).grids) {
    if (nan_fraction > 0.0) {
      Rng rng(cfg.seed + 17);
      for (std::size_t y = 0; y < cfg.height; ++y) {
        for (std::size_t x = 0; x < cfg.width; ++x) {
          if (rng.bernoulli(nan_fraction)) {
            grids[rng.uniform_int(grids.size())].at(x, y) =
                std::numeric_limits<double>::quiet_NaN();
          }
        }
      }
    }
    view(cfg.tile_size);
  }

  OracleArchive(std::string label, std::vector<Grid> bands, std::size_t tile)
      : name(std::move(label)), grids(std::move(bands)) {
    view(tile);
  }

  [[nodiscard]] const TiledArchive& tiled() const { return *archive; }

 private:
  void view(std::size_t tile) {
    std::vector<const Grid*> bands;
    for (const Grid& g : grids) bands.push_back(&g);
    archive = std::make_unique<TiledArchive>(std::move(bands), tile);
  }
};

ScenarioConfig scenario(ScenarioKind kind, std::size_t width, std::size_t height,
                        std::size_t tile, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.width = width;
  cfg.height = height;
  cfg.tile_size = tile;
  cfg.seed = seed;
  return cfg;
}

/// Clean, NaN-poisoned and exact-tie archives; widths are no multiple of
/// the tile size so edge tiles are narrower than the rest.
const std::vector<std::unique_ptr<OracleArchive>>& archives() {
  static const auto pool = [] {
    std::vector<std::unique_ptr<OracleArchive>> p;
    p.push_back(std::make_unique<OracleArchive>(
        "dense", scenario(ScenarioKind::kDense, 70, 45, 16, 811), 0.0));
    p.push_back(std::make_unique<OracleArchive>(
        "sparse", scenario(ScenarioKind::kSparse, 52, 40, 8, 812), 0.0));
    p.push_back(std::make_unique<OracleArchive>(
        "dense_nan", scenario(ScenarioKind::kDense, 66, 38, 16, 813), 0.03));
    p.push_back(std::make_unique<OracleArchive>(
        "all_nan_band", scenario(ScenarioKind::kAllNaNBand, 40, 24, 8, 814), 0.0));
    for (const ScenarioConfig& cfg : tie_parity_scenarios()) {
      p.push_back(std::make_unique<OracleArchive>(
          std::string("tie_") + scenario_name(cfg.kind) + "_" + std::to_string(cfg.seed), cfg,
          0.0));
    }
    return p;
  }();
  return pool;
}

/// Integer weights and a quarter-integer bias keep tie scenes tying exactly;
/// real-valued weights exercise rounding.
LinearModel make_model(std::uint64_t seed, std::size_t bands, bool integer) {
  Rng rng(seed);
  std::vector<double> weights(bands);
  std::vector<std::string> names(bands);
  for (std::size_t b = 0; b < bands; ++b) {
    names[b] = "band" + std::to_string(b);
    weights[b] = integer ? static_cast<double>(rng.uniform_int(5)) - 2.0 : rng.uniform(-1.5, 1.5);
  }
  const double bias = integer ? 0.25 * static_cast<double>(rng.uniform_int(9)) : rng.normal();
  return LinearModel(std::move(weights), bias, std::move(names));
}

/// Non-linear: b0·b1 plus the linear model over the remaining bands.  Its
/// bound multiplies the two band intervals corner by corner.
class ProductModel final : public RasterModel {
 public:
  explicit ProductModel(LinearModel tail) : tail_(std::move(tail)) {}

  [[nodiscard]] std::size_t bands() const override { return tail_.dim(); }
  [[nodiscard]] double evaluate(std::span<const double> pixel) const override {
    double sum = pixel[0] * pixel[1];
    for (std::size_t b = 2; b < pixel.size(); ++b) sum += tail_.weight(b) * pixel[b];
    return sum;
  }
  [[nodiscard]] Interval bound(std::span<const Interval> ranges) const override {
    const Interval a = ranges[0];
    const Interval b = ranges[1];
    const double c[] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
    Interval sum{*std::min_element(std::begin(c), std::end(c)),
                 *std::max_element(std::begin(c), std::end(c))};
    for (std::size_t i = 2; i < ranges.size(); ++i) sum = sum + tail_.weight(i) * ranges[i];
    return sum;
  }
  [[nodiscard]] std::size_t ops_per_evaluation() const override { return tail_.dim(); }

 private:
  LinearModel tail_;
};

struct Scored {
  double score;
  std::uint64_t rank;
  std::size_t x;
  std::size_t y;
};

/// The hand-rolled reference: the first `pixels` pixels in row-major order
/// (every pixel by default) gathered from the grids and scored by
/// `score_fn`, finite scores sorted canonically, first K kept.
template <typename ScoreFn>
std::vector<RasterHit> oracle_top_k(const TiledArchive& archive, std::size_t k,
                                    ScoreFn&& score_fn,
                                    std::size_t pixels = std::numeric_limits<std::size_t>::max()) {
  std::vector<Scored> all;
  std::vector<double> pixel(archive.band_count());
  for (std::size_t i = 0; i < std::min(pixels, archive.pixel_count()); ++i) {
    const std::size_t x = i % archive.width();
    const std::size_t y = i / archive.width();
    for (std::size_t b = 0; b < pixel.size(); ++b) pixel[b] = archive.band(b).at(x, y);
    const double score = score_fn(pixel);
    if (std::isfinite(score)) all.push_back({score, (std::uint64_t{y} << 32) | x, x, y});
  }
  std::sort(all.begin(), all.end(), [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.rank < b.rank;
  });
  std::vector<RasterHit> out;
  for (std::size_t i = 0; i < std::min(k, all.size()); ++i) {
    out.push_back(RasterHit{all[i].x, all[i].y, all[i].score});
  }
  return out;
}

/// How many of the first `pixels` pixels, in row-major order, have a band
/// vector satisfying `pred`.
template <typename Pred>
std::uint64_t count_pixels(const TiledArchive& archive, std::size_t pixels, Pred&& pred) {
  std::uint64_t count = 0;
  std::vector<double> pixel(archive.band_count());
  for (std::size_t i = 0; i < pixels; ++i) {
    const std::size_t x = i % archive.width();
    const std::size_t y = i / archive.width();
    for (std::size_t b = 0; b < pixel.size(); ++b) pixel[b] = archive.band(b).at(x, y);
    if (pred(std::span<const double>(pixel))) ++count;
  }
  return count;
}

/// The bad points a scan of the first `pixels` pixels must count: those
/// whose score is non-finite.
template <typename ScoreFn>
std::uint64_t oracle_bad_points(const TiledArchive& archive, std::size_t pixels,
                                ScoreFn&& score_fn) {
  return count_pixels(archive, pixels, [&](std::span<const double> pixel) {
    return !std::isfinite(score_fn(pixel));
  });
}

void expect_oracle_hits(const std::vector<RasterHit>& expected,
                        const std::vector<RasterHit>& got) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, expected[i].x) << "rank " << i;
    EXPECT_EQ(got[i].y, expected[i].y) << "rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(expected[i].score))
        << "rank " << i << ": " << got[i].score << " vs " << expected[i].score;
  }
}

/// A truncated answer's certified prefix is a prefix of the exact answer.
void expect_sound_prefix(const std::vector<RasterHit>& exact, const RasterTopK& got) {
  const std::size_t prefix = got.certified_prefix();
  ASSERT_LE(prefix, exact.size());
  expect_oracle_hits(std::vector<RasterHit>(exact.begin(), exact.begin() + prefix),
                     std::vector<RasterHit>(got.hits.begin(), got.hits.begin() + prefix));
}

/// Runs `jobs` as ONE engine batch group (fan-in = jobs.size(), submitted
/// while the engine is paused) and returns their outcomes in order.
std::vector<RasterOutcome> run_batched(const std::vector<RasterJob>& jobs) {
  EngineConfig config;
  config.dispatchers = 1;
  config.intra_query_threads = 0;
  config.batch_max_fanin = jobs.size();
  config.start_paused = true;
  config.metrics = nullptr;
  QueryEngine engine(config);
  std::vector<std::future<RasterOutcome>> futures;
  for (const RasterJob& job : jobs) futures.push_back(engine.submit(job));
  engine.resume();
  std::vector<RasterOutcome> outcomes;
  for (auto& f : futures) outcomes.push_back(f.get());
  return outcomes;
}

/// A complete full scan bills every pixel once, in full.
void expect_full_bill(const TiledArchive& archive, const RasterModel& model,
                      const CostMeter& meter) {
  const std::uint64_t pixels = archive.pixel_count();
  const std::uint64_t bands = archive.band_count();
  EXPECT_EQ(meter.points(), pixels * bands);
  EXPECT_EQ(meter.ops(), pixels * model.ops_per_evaluation());
  EXPECT_EQ(meter.bytes(), pixels * bands * sizeof(double));
}

/// Runs `model` through every full-model path and checks each answer
/// against `expected`, and each complete full scan's bill and bad-point
/// count against the reference's.
void check_every_path(const TiledArchive& archive, const RasterModel& model,
                      const std::vector<RasterHit>& expected) {
  const std::uint64_t expected_bad =
      oracle_bad_points(archive, archive.pixel_count(),
                        [&](std::span<const double> pixel) { return model.evaluate(pixel); });
  const ResultStatus clean = exec::completion_status(archive, 0);
  {
    SCOPED_TRACE("serial full scan");
    QueryContext ctx;
    CostMeter meter;
    const RasterTopK out = full_scan_top_k(archive, model, kK, ctx, meter);
    EXPECT_EQ(out.status, out.bad_points > 0 ? ResultStatus::kDegraded : clean);
    EXPECT_EQ(out.bad_points, expected_bad);
    expect_oracle_hits(expected, out.hits);
    expect_full_bill(archive, model, meter);
  }
  {
    SCOPED_TRACE("serial tile-screened");
    QueryContext ctx;
    CostMeter meter;
    const RasterTopK out = tile_screened_top_k(archive, model, kK, ctx, meter);
    EXPECT_FALSE(is_truncated(out.status));
    expect_oracle_hits(expected, out.hits);
  }
  for (const std::size_t workers : kPoolWorkers) {
    ThreadPool pool(workers);
    SCOPED_TRACE(testing::Message() << "threads " << pool.slot_count());
    {
      QueryContext ctx;
      CostMeter meter;
      const RasterTopK out = parallel_full_scan_top_k(archive, model, kK, ctx, meter, pool);
      EXPECT_FALSE(is_truncated(out.status));
      EXPECT_EQ(out.bad_points, expected_bad);
      expect_oracle_hits(expected, out.hits);
      expect_full_bill(archive, model, meter);
    }
    {
      QueryContext ctx;
      CostMeter meter;
      const RasterTopK out = parallel_tile_screened_top_k(archive, model, kK, ctx, meter, pool);
      EXPECT_FALSE(is_truncated(out.status));
      expect_oracle_hits(expected, out.hits);
    }
  }
  ThreadPool pool(3);
  for (const ShardPolicy policy : {ShardPolicy::kRowBands, ShardPolicy::kTileHash}) {
    const ShardedArchive sharded(archive, 3, policy);
    SCOPED_TRACE(testing::Message() << "sharded " << shard_policy_name(policy));
    {
      QueryContext ctx;
      CostMeter meter;
      const RasterTopK out =
          sharded_full_scan_top_k(sharded, model, kK, ctx, meter, pool).merged;
      EXPECT_FALSE(is_truncated(out.status));
      EXPECT_EQ(out.bad_points, expected_bad);
      expect_oracle_hits(expected, out.hits);
      expect_full_bill(archive, model, meter);
    }
    {
      QueryContext ctx;
      CostMeter meter;
      const RasterTopK out =
          sharded_tile_screened_top_k(sharded, model, kK, ctx, meter, pool).merged;
      EXPECT_FALSE(is_truncated(out.status));
      expect_oracle_hits(expected, out.hits);
    }
  }
  {
    SCOPED_TRACE("batched");
    std::vector<RasterJob> jobs(2);
    jobs[0].mode = RasterJob::Mode::kFullScan;
    jobs[1].mode = RasterJob::Mode::kTileScreened;
    for (RasterJob& job : jobs) {
      job.archive = &archive;
      job.model = &model;
      job.k = kK;
    }
    const std::vector<RasterOutcome> outcomes = run_batched(jobs);
    for (const RasterOutcome& out : outcomes) {
      EXPECT_FALSE(is_truncated(out.result.status));
      expect_oracle_hits(expected, out.result.hits);
    }
    EXPECT_EQ(outcomes[0].result.bad_points, expected_bad);
    expect_full_bill(archive, model, outcomes[0].meter);
  }
}

TEST(ScanOracle, LinearFullScansMatchTheHandRolledReferenceOnEveryPath) {
  std::uint64_t seed = 1;
  for (const auto& entry : archives()) {
    const TiledArchive& archive = entry->tiled();
    for (const bool integer : {false, true}) {
      const LinearModel linear = make_model(seed++, archive.band_count(), integer);
      SCOPED_TRACE(testing::Message() << entry->name << " integer weights " << integer);
      const LinearRasterModel model(linear);
      const auto expected = oracle_top_k(
          archive, kK, [&](std::span<const double> pixel) { return linear.evaluate(pixel); });
      check_every_path(archive, model, expected);
    }
  }
}

TEST(ScanOracle, NonLinearFullScansMatchTheHandRolledReferenceOnEveryPath) {
  std::uint64_t seed = 100;
  for (const auto& entry : archives()) {
    const TiledArchive& archive = entry->tiled();
    SCOPED_TRACE(entry->name);
    const ProductModel model(make_model(seed++, archive.band_count(), true));
    const auto expected = oracle_top_k(
        archive, kK, [&](std::span<const double> pixel) { return model.evaluate(pixel); });
    check_every_path(archive, model, expected);
  }
}

/// Archives for the fused linear pass's edge cases: 1, 3, 5 and 9 bands
/// (no multiple of the four-band group but the first group of 5 and 9),
/// widths and tile sizes that leave partial screen blocks, and +inf, -inf
/// and NaN samples in every band.
const std::vector<std::unique_ptr<OracleArchive>>& edge_archives() {
  static const auto pool = [] {
    struct Shape {
      std::size_t bands, width, height, tile;
    };
    const Shape shapes[] = {{1, 37, 13, 16}, {3, 50, 11, 16}, {5, 33, 17, 7}, {9, 19, 23, 5}};
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::unique_ptr<OracleArchive>> p;
    std::uint64_t seed = 901;
    for (const Shape& shape : shapes) {
      ScenarioConfig cfg =
          scenario(ScenarioKind::kDense, shape.width, shape.height, shape.tile, seed++);
      cfg.bands = std::max<std::size_t>(shape.bands, 2);  // the generator makes at least two
      std::vector<Grid> grids = generate_scenario(cfg).grids;
      grids.erase(grids.begin() + static_cast<std::ptrdiff_t>(shape.bands), grids.end());
      Rng rng(cfg.seed + 29);
      for (Grid& g : grids) {
        for (std::size_t y = 0; y < shape.height; ++y) {
          for (std::size_t x = 0; x < shape.width; ++x) {
            const double u = rng.uniform(0.0, 1.0);
            if (u < 0.02) {
              g.at(x, y) = kInf;
            } else if (u < 0.04) {
              g.at(x, y) = -kInf;
            } else if (u < 0.05) {
              g.at(x, y) = std::numeric_limits<double>::quiet_NaN();
            }
          }
        }
      }
      p.push_back(std::make_unique<OracleArchive>(std::to_string(shape.bands) + "_bands",
                                                  std::move(grids), shape.tile));
    }
    return p;
  }();
  return pool;
}

/// All-positive weights: a pixel with a -inf sample and no +inf or NaN one
/// scores exactly -inf.
LinearModel positive_model(std::size_t bands) {
  std::vector<double> weights(bands);
  for (std::size_t b = 0; b < bands; ++b) weights[b] = 0.5 + 0.25 * static_cast<double>(b);
  return LinearModel(std::move(weights), 0.125, {});
}

/// Budgets that stop a scan mid-run.  The serial full scan visits exactly
/// the first floor(budget / N) pixels in row-major order, so it must bill
/// exactly their ops, count exactly their bad points and return exactly
/// their canonical top-K; the tile-parallel and sharded scans must stay
/// within the budget and certify a prefix of the exact answer.
template <typename ScoreFn>
void check_budget_trips(const TiledArchive& archive, const RasterModel& model,
                        ScoreFn&& score_fn) {
  const std::uint64_t unit = model.ops_per_evaluation();
  const std::size_t width = archive.width();
  const std::size_t pixels = archive.pixel_count();
  const auto exact = oracle_top_k(archive, kK, score_fn);
  ThreadPool pool(3);
  const ShardedArchive sharded(archive, 3, ShardPolicy::kRowBands);
  for (const std::size_t stop : {std::size_t{5}, width + 3, 2 * width + 17, pixels / 2 + 1,
                                 pixels - 1}) {
    if (stop >= pixels) continue;
    for (const std::uint64_t slack : {std::uint64_t{0}, unit - 1}) {
      const std::uint64_t budget = stop * unit + slack;
      SCOPED_TRACE(testing::Message() << "budget " << budget << " stops at pixel " << stop);
      {
        QueryContext ctx;
        ctx.with_op_budget(budget);
        CostMeter meter;
        const RasterTopK out = full_scan_top_k(archive, model, kK, ctx, meter);
        EXPECT_EQ(out.status, ResultStatus::kTruncatedBudget);
        EXPECT_EQ(meter.ops(), stop * unit);
        EXPECT_EQ(out.bad_points, oracle_bad_points(archive, stop, score_fn));
        expect_oracle_hits(oracle_top_k(archive, kK, score_fn, stop), out.hits);
        expect_sound_prefix(exact, out);
      }
      {
        QueryContext ctx;
        ctx.with_op_budget(budget);
        CostMeter meter;
        const RasterTopK out = parallel_full_scan_top_k(archive, model, kK, ctx, meter, pool);
        EXPECT_EQ(out.status, ResultStatus::kTruncatedBudget);
        EXPECT_LE(meter.ops(), budget);
        expect_sound_prefix(exact, out);
      }
      {
        QueryContext ctx;
        ctx.with_op_budget(budget);
        CostMeter meter;
        const RasterTopK out =
            sharded_full_scan_top_k(sharded, model, kK, ctx, meter, pool).merged;
        EXPECT_TRUE(is_truncated(out.status));
        EXPECT_LE(meter.ops(), budget);
        expect_sound_prefix(exact, out);
      }
    }
  }
}

TEST(ScanOracle, FusedPassEdgeCasesMatchTheReferenceOnEveryPath) {
  std::uint64_t seed = 500;
  std::uint64_t neg_inf_scores = 0;
  for (const auto& entry : edge_archives()) {
    const TiledArchive& archive = entry->tiled();
    const std::size_t bands = archive.band_count();
    const LinearModel models[] = {make_model(seed, bands, false), make_model(seed + 1, bands, true),
                                  positive_model(bands)};
    seed += 2;
    for (const LinearModel& linear : models) {
      SCOPED_TRACE(testing::Message() << entry->name << " bias " << linear.bias());
      const LinearRasterModel model(linear);
      const auto score = [&](std::span<const double> pixel) { return linear.evaluate(pixel); };
      check_every_path(archive, model, oracle_top_k(archive, kK, score));
      check_budget_trips(archive, model, score);
      neg_inf_scores += count_pixels(archive, archive.pixel_count(), [&](auto pixel) {
        return score(pixel) == -std::numeric_limits<double>::infinity();
      });
    }
  }
  // The battery really holds -inf scores, which lie below every finite
  // threshold and must still be counted as bad points.
  EXPECT_GT(neg_inf_scores, 0u);
}

TEST(ScanOracle, RunsTyingTheThresholdExactlyKeepTheCanonicalAnswer) {
  // Every pixel scores the same except K-1 higher ones in the last row:
  // once the heap is full every run ties its threshold exactly, so every
  // screen block is flagged and offered, and only pixel rank decides.  The
  // answer is the K-1 high pixels, then pixel (0, 0).
  for (const std::size_t bands : {1, 4, 6}) {
    constexpr std::size_t kWidth = 45;
    constexpr std::size_t kHeight = 9;
    std::vector<Grid> grids;
    for (std::size_t b = 0; b < bands; ++b) {
      Grid g(kWidth, kHeight);
      for (std::size_t y = 0; y < kHeight; ++y) {
        for (std::size_t x = 0; x < kWidth; ++x) g.at(x, y) = 0.5;
      }
      for (std::size_t i = 0; i + 1 < kK; ++i) g.at(kWidth - 1 - 2 * i, kHeight - 1) = 2.0;
      grids.push_back(std::move(g));
    }
    const OracleArchive entry("tie_run", std::move(grids), 8);
    const TiledArchive& archive = entry.tiled();
    const LinearModel models[] = {positive_model(bands), make_model(700 + bands, bands, true)};
    for (const LinearModel& linear : models) {
      SCOPED_TRACE(testing::Message() << bands << " bands, bias " << linear.bias());
      const LinearRasterModel model(linear);
      const auto score = [&](std::span<const double> pixel) { return linear.evaluate(pixel); };
      const auto expected = oracle_top_k(archive, kK, score);
      ASSERT_EQ(expected.size(), kK);
      if (linear.bias() == 0.125) {  // the positive model: the high pixels lead
        EXPECT_EQ(expected.back().x, 0u);
        EXPECT_EQ(expected.back().y, 0u);
      }
      check_every_path(archive, model, expected);
      check_budget_trips(archive, model, score);
    }
  }
}

/// One compiled entry of the fused linear pass (exec::detail).
using LinearRunEntry = void (*)(const TiledArchive&, std::span<exec::LinearRunMember>,
                                std::size_t, std::size_t, std::size_t);

/// What one entry returns over a whole archive: its hits and bad points.
struct EntryScan {
  std::vector<RasterHit> hits;
  std::uint64_t bad_points = 0;
};

/// Calls `entry` directly on every row of `archive`, in runs of at most
/// `run` pixels, into one heap of capacity `k`.
EntryScan scan_with_entry(LinearRunEntry entry, const TiledArchive& archive,
                          const LinearModel& model, std::size_t k, std::size_t run) {
  TopK<RasterHit> top(k);
  std::vector<double> sums(archive.width());
  EntryScan out;
  for (std::size_t y = 0; y < archive.height(); ++y) {
    for (std::size_t x = 0; x < archive.width(); x += run) {
      exec::LinearRunMember member{&model, &top, sums.data(), 0};
      entry(archive, std::span(&member, 1), x, y, std::min(run, archive.width() - x));
      out.bad_points += member.bad;
    }
  }
  out.hits = exec::finalize(top);
  return out;
}

/// Archives of 1, 3, 4, 5 and 9 bands at every width from 1 to 67 (most no
/// multiple of the four-double vector or the 16-pixel screen block), three
/// rows each, with +inf, -inf and NaN samples in every band.
const std::vector<std::unique_ptr<OracleArchive>>& width_archives() {
  static const auto pool = [] {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::unique_ptr<OracleArchive>> p;
    Rng rng(1201);
    for (const std::size_t bands : {1, 3, 4, 5, 9}) {
      for (std::size_t width = 1; width <= 67; ++width) {
        std::vector<Grid> grids;
        for (std::size_t b = 0; b < bands; ++b) {
          Grid g(width, 3);
          for (std::size_t y = 0; y < 3; ++y) {
            for (std::size_t x = 0; x < width; ++x) {
              const double u = rng.uniform(0.0, 1.0);
              g.at(x, y) = u < 0.01   ? kInf
                           : u < 0.02 ? -kInf
                           : u < 0.03 ? std::numeric_limits<double>::quiet_NaN()
                                      : rng.uniform(-2.0, 2.0);
            }
          }
          grids.push_back(std::move(g));
        }
        p.push_back(std::make_unique<OracleArchive>(
            std::to_string(bands) + "_bands_width_" + std::to_string(width), std::move(grids),
            16));
      }
    }
    return p;
  }();
  return pool;
}

/// Checks `entry` against LinearModel::evaluate on every width archive, and
/// against `twin` (another entry, or null) call by call: equal hits, score
/// bytes and bad-point counts.  Heap capacities of 1, 5 and 12 fill partway
/// through the first run; one of every pixel holds every finite score, so
/// every score's bytes are compared.  Runs are whole rows or 5 pixels.
void check_entry(LinearRunEntry entry, LinearRunEntry twin) {
  std::uint64_t seed = 1300;
  for (const auto& archive_entry : width_archives()) {
    const TiledArchive& archive = archive_entry->tiled();
    const std::size_t bands = archive.band_count();
    const LinearModel models[] = {make_model(seed, bands, false),
                                  make_model(seed + 1, bands, true), positive_model(bands)};
    seed += 2;
    for (const LinearModel& linear : models) {
      const auto score = [&](std::span<const double> pixel) { return linear.evaluate(pixel); };
      const std::uint64_t expected_bad =
          oracle_bad_points(archive, archive.pixel_count(), score);
      for (const std::size_t k : {std::size_t{1}, std::size_t{5}, kK, archive.pixel_count()}) {
        const auto expected = oracle_top_k(archive, k, score);
        for (const std::size_t run : {archive.width(), std::size_t{5}}) {
          SCOPED_TRACE(testing::Message() << archive_entry->name << " bias " << linear.bias()
                                          << " k " << k << " run " << run);
          const EntryScan got = scan_with_entry(entry, archive, linear, k, run);
          EXPECT_EQ(got.bad_points, expected_bad);
          expect_oracle_hits(expected, got.hits);
          if (twin != nullptr) {
            const EntryScan other = scan_with_entry(twin, archive, linear, k, run);
            EXPECT_EQ(got.bad_points, other.bad_points);
            expect_oracle_hits(other.hits, got.hits);
          }
        }
      }
    }
  }
}

constexpr const char* kNoAvx2 =
    "this host's CPU or OS does not run AVX2 code, so offer_linear_run uses the baseline "
    "entry only and the AVX2 entry cannot be called";

TEST(ScanOracle, BaselineEntryMatchesTheReferenceAtEveryWidth) {
  check_entry(&exec::detail::offer_linear_run_baseline, nullptr);
}

TEST(ScanOracle, Avx2EntryMatchesTheBaselineEntryAndTheReferenceAtEveryWidth) {
  if (!exec::detail::host_has_avx2()) GTEST_SKIP() << kNoAvx2;
  EXPECT_EQ(exec::kernel_isa(), "avx2");
  check_entry(&exec::detail::offer_linear_run_avx2, &exec::detail::offer_linear_run_baseline);
}

/// The contraction canary's scene: `bands` bands of kCanaryWidth×5 pixels,
/// every sample 1-2^-30 in band `canary` and zero elsewhere.
constexpr std::size_t kCanaryWidth = 37;

OracleArchive canary_archive(std::size_t bands, std::size_t canary) {
  constexpr std::size_t kHeight = 5;
  const double eps = std::ldexp(1.0, -30);
  std::vector<Grid> grids;
  for (std::size_t b = 0; b < bands; ++b) {
    Grid g(kCanaryWidth, kHeight);
    for (std::size_t y = 0; y < kHeight; ++y) {
      for (std::size_t x = 0; x < kCanaryWidth; ++x) g.at(x, y) = b == canary ? 1.0 - eps : 0.0;
    }
    grids.push_back(std::move(g));
  }
  return OracleArchive("canary", std::move(grids), 8);
}

/// The canary's model: weight 1+2^-30 on band `canary`, zero elsewhere,
/// bias -1.
LinearModel canary_model(std::size_t bands, std::size_t canary) {
  std::vector<double> weights(bands, 0.0);
  weights[canary] = 1.0 + std::ldexp(1.0, -30);
  return LinearModel(std::move(weights), -1.0, {});
}

TEST(ScanOracle, ContractionCanaryScoresExactlyZeroOnBothEntriesAndEveryPath) {
  // w·p + bias with w = 1+2^-30, p = 1-2^-30, bias = -1: the product rounds
  // to 1 and the score is exactly +0.0, while a fused multiply-add keeps the
  // product exact (1-2^-60) and scores -2^-60.  The canary term sits at
  // every band position, after zero terms (0·0 = +0 leaves the sum alone),
  // so a contraction in any band group of the pass would show.
  for (const std::size_t bands : {1, 3, 4, 5, 9}) {
    for (std::size_t canary = 0; canary < bands; ++canary) {
      const OracleArchive entry = canary_archive(bands, canary);
      const TiledArchive& archive = entry.tiled();
      const LinearModel linear = canary_model(bands, canary);
      SCOPED_TRACE(testing::Message() << bands << " bands, canary band " << canary);
      const auto score = [&](std::span<const double> pixel) { return linear.evaluate(pixel); };
      const auto expected = oracle_top_k(archive, kK, score);
      ASSERT_EQ(expected.size(), kK);
      for (const RasterHit& hit : expected) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(hit.score), 0u) << hit.score;
      }
      check_every_path(archive, LinearRasterModel(linear), expected);
      expect_oracle_hits(
          expected,
          scan_with_entry(&exec::detail::offer_linear_run_baseline, archive, linear, kK,
                          kCanaryWidth)
              .hits);
      if (exec::detail::host_has_avx2()) {
        expect_oracle_hits(
            expected,
            scan_with_entry(&exec::detail::offer_linear_run_avx2, archive, linear, kK,
                            kCanaryWidth)
                .hits);
      }
    }
  }
  if (!exec::detail::host_has_avx2()) GTEST_SKIP() << "AVX2 half not run: " << kNoAvx2;
}

/// Calls `entry` directly on every row of `archive`, in runs of at most
/// `run` pixels, with one member per model: member j offers into its own
/// heap of capacity ks[j].
std::vector<EntryScan> scan_members_with_entry(LinearRunEntry entry, const TiledArchive& archive,
                                               std::span<const LinearModel> models,
                                               std::span<const std::size_t> ks,
                                               std::size_t run) {
  const std::size_t count = models.size();
  std::vector<TopK<RasterHit>> tops;
  for (std::size_t j = 0; j < count; ++j) tops.emplace_back(ks[j]);
  std::vector<std::vector<double>> sums(count, std::vector<double>(archive.width()));
  std::vector<exec::LinearRunMember> members(count);
  std::vector<EntryScan> out(count);
  for (std::size_t y = 0; y < archive.height(); ++y) {
    for (std::size_t x = 0; x < archive.width(); x += run) {
      for (std::size_t j = 0; j < count; ++j) members[j] = {&models[j], &tops[j], sums[j].data(), 0};
      entry(archive, members, x, y, std::min(run, archive.width() - x));
      for (std::size_t j = 0; j < count; ++j) out[j].bad_points += members[j].bad;
    }
  }
  for (std::size_t j = 0; j < count; ++j) out[j].hits = exec::finalize(tops[j]);
  return out;
}

/// Member counts of a shared pass under test: one lane, a few, a full
/// kPassLanes chunk and one past it.
constexpr std::size_t kMemberCounts[] = {1, 2, 3, 5, 8, 16, 17};
constexpr std::size_t kMaxMembers = 17;

/// Checks `entry` with every member count of kMemberCounts on every width
/// archive, in runs of whole rows and of 5 pixels.  Member j has its own
/// model and a heap of 1, 5, 12 or every pixel in turn; its hits, score
/// bytes and bad points must equal those of its one-member call, which
/// must equal LinearModel::evaluate's.
void check_entry_members(LinearRunEntry entry) {
  std::uint64_t seed = 5000;
  for (const auto& archive_entry : width_archives()) {
    const TiledArchive& archive = archive_entry->tiled();
    const std::size_t bands = archive.band_count();
    const std::size_t capacities[] = {1, 5, kK, archive.pixel_count()};
    std::vector<LinearModel> models;
    std::vector<std::size_t> ks;
    for (std::size_t j = 0; j < kMaxMembers; ++j) {
      models.push_back(j % 5 == 4 ? positive_model(bands) : make_model(seed++, bands, j % 2 == 1));
      ks.push_back(capacities[j % std::size(capacities)]);
    }
    for (const std::size_t run : {archive.width(), std::size_t{5}}) {
      std::vector<EntryScan> solo;
      for (std::size_t j = 0; j < kMaxMembers; ++j) {
        SCOPED_TRACE(testing::Message() << archive_entry->name << " run " << run << " solo " << j);
        solo.push_back(scan_with_entry(entry, archive, models[j], ks[j], run));
        const auto score = [&](std::span<const double> pixel) {
          return models[j].evaluate(pixel);
        };
        EXPECT_EQ(solo[j].bad_points, oracle_bad_points(archive, archive.pixel_count(), score));
        expect_oracle_hits(oracle_top_k(archive, ks[j], score), solo[j].hits);
      }
      for (const std::size_t count : kMemberCounts) {
        const std::vector<EntryScan> got = scan_members_with_entry(
            entry, archive, std::span(models).first(count), std::span(ks).first(count), run);
        for (std::size_t j = 0; j < count; ++j) {
          SCOPED_TRACE(testing::Message() << archive_entry->name << " run " << run << " members "
                                          << count << " member " << j << " k " << ks[j]);
          EXPECT_EQ(got[j].bad_points, solo[j].bad_points);
          expect_oracle_hits(solo[j].hits, got[j].hits);
        }
      }
    }
  }
}

TEST(ScanOracle, BaselineEntryScoresEveryMemberOfASharedPassAsItsOneMemberCall) {
  check_entry_members(&exec::detail::offer_linear_run_baseline);
}

TEST(ScanOracle, Avx2EntryScoresEveryMemberOfASharedPassAsItsOneMemberCall) {
  if (!exec::detail::host_has_avx2()) GTEST_SKIP() << kNoAvx2;
  check_entry_members(&exec::detail::offer_linear_run_avx2);
}

TEST(ScanOracle, ContractionCanaryScoresExactlyZeroAtEveryMemberPosition) {
  // The canary model at every position of a kMaxMembers-member pass, the
  // other members random: a contraction in any member's lane would show.
  for (const std::size_t bands : {1, 3, 4, 5, 9}) {
    for (std::size_t canary = 0; canary < bands; ++canary) {
      const OracleArchive entry = canary_archive(bands, canary);
      const TiledArchive& archive = entry.tiled();
      for (std::size_t position = 0; position < kMaxMembers; ++position) {
        std::vector<LinearModel> models;
        for (std::size_t j = 0; j < kMaxMembers; ++j) {
          models.push_back(j == position ? canary_model(bands, canary)
                                         : make_model(900 + j, bands, j % 2 == 0));
        }
        const std::vector<std::size_t> ks(kMaxMembers, kK);
        std::vector<LinearRunEntry> entries = {&exec::detail::offer_linear_run_baseline};
        if (exec::detail::host_has_avx2()) entries.push_back(&exec::detail::offer_linear_run_avx2);
        for (const LinearRunEntry run_entry : entries) {
          SCOPED_TRACE(testing::Message() << bands << " bands, canary band " << canary
                                          << ", member " << position);
          const std::vector<EntryScan> got =
              scan_members_with_entry(run_entry, archive, models, ks, kCanaryWidth);
          ASSERT_EQ(got[position].hits.size(), kK);
          for (const RasterHit& hit : got[position].hits) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(hit.score), 0u) << hit.score;
          }
        }
      }
    }
  }
  if (!exec::detail::host_has_avx2()) GTEST_SKIP() << "AVX2 half not run: " << kNoAvx2;
}

TEST(ScanOracle, RowsTimesMembersScanMatchesOneMemberScans) {
  // exec::scan_rect_full over a span of members: linear members under
  // budgets that trip them at different pixels (so some are granted part
  // of a row and finish it alone), a non-linear member and unbounded ones,
  // over the whole archive and an inner rectangle.  Each member's hits,
  // score bytes, bad points, tally, bill, books and stop equal those of its
  // one-member call.
  std::vector<const OracleArchive*> scenes;
  for (const auto& a : archives()) scenes.push_back(a.get());
  for (const auto& a : width_archives()) {
    if (a->tiled().width() == 67) scenes.push_back(a.get());  // 1 to 9 bands
  }
  std::uint64_t seed = 7000;
  for (const OracleArchive* scene : scenes) {
    const TiledArchive& archive = scene->tiled();
    const std::size_t bands = archive.band_count();
    const std::uint64_t cost = archive.pixel_count() * bands;
    std::vector<std::unique_ptr<RasterModel>> models;
    const std::uint64_t budgets[] = {std::numeric_limits<std::uint64_t>::max(),
                                     0,
                                     3,
                                     cost / 7 + 1,
                                     cost / 3 + 2,
                                     std::numeric_limits<std::uint64_t>::max(),
                                     cost - 1,
                                     cost / 2 + 5};
    constexpr std::size_t kCount = std::size(budgets);
    for (std::size_t j = 0; j < kCount; ++j) {
      const LinearModel linear = make_model(seed++, bands, j % 2 == 1);
      if (j == 5 && bands >= 2) {
        models.push_back(std::make_unique<ProductModel>(linear));
      } else {
        models.push_back(std::make_unique<LinearRasterModel>(linear));
      }
    }
    struct Rect {
      std::size_t x0, x1, y0, y1;
    };
    const Rect rects[] = {{0, archive.width(), 0, archive.height()},
                          {archive.width() / 3, archive.width(), 1, archive.height()}};
    for (const Rect& r : rects) {
      struct Run {
        std::unique_ptr<QueryContext> ctx = std::make_unique<QueryContext>();
        std::unique_ptr<TopK<RasterHit>> top;
        std::vector<double> scratch;
        CostMeter meter;
        exec::ScanTally tally;
      };
      const auto make_run = [&](std::size_t j) {
        Run run;
        run.ctx->with_op_budget(budgets[j]);
        run.top = std::make_unique<TopK<RasterHit>>(1 + 3 * j);
        return run;
      };
      std::vector<Run> shared;
      for (std::size_t j = 0; j < kCount; ++j) shared.push_back(make_run(j));
      std::vector<exec::ScanMember> members;
      for (std::size_t j = 0; j < kCount; ++j) {
        Run& run = shared[j];
        members.push_back({models[j].get(), run.top.get(), &run.scratch, run.ctx.get(),
                           &run.meter, &run.tally});
      }
      exec::scan_rect_full(archive, r.x0, r.x1, r.y0, r.y1, members);
      for (std::size_t j = 0; j < kCount; ++j) {
        SCOPED_TRACE(testing::Message() << scene->name << " rect x0 " << r.x0 << " member "
                                        << j << " budget " << budgets[j]);
        Run solo = make_run(j);
        exec::scan_rect_full(archive, *models[j], r.x0, r.x1, r.y0, r.y1, *solo.top,
                             solo.scratch, *solo.ctx, solo.meter, solo.tally);
        Run& got = shared[j];
        expect_oracle_hits(exec::finalize(*solo.top), exec::finalize(*got.top));
        EXPECT_EQ(got.tally.pixels, solo.tally.pixels);
        EXPECT_EQ(got.tally.bad_points, solo.tally.bad_points);
        EXPECT_EQ(got.meter.points(), solo.meter.points());
        EXPECT_EQ(got.meter.ops(), solo.meter.ops());
        EXPECT_EQ(got.meter.bytes(), solo.meter.bytes());
        EXPECT_EQ(got.ctx->spent(), solo.ctx->spent());
        EXPECT_EQ(got.ctx->stop_reason(), solo.ctx->stop_reason());
        EXPECT_EQ(got.ctx->bad_points(), solo.ctx->bad_points());
      }
    }
  }
}

TEST(ScanOracle, MixedBatchWithTrippingMembersMatchesSoloRuns) {
  // Linear, non-linear and staged members in one engine batch group,
  // full-scan and screened, budgets from zero to unbounded.  A complete
  // member returns the reference answer; a tripped one certifies a prefix
  // of it; every member returns, bills and books exactly what its solo
  // serial run does, tripping on the same unit.
  const TiledArchive& archive = archives()[0]->tiled();
  const std::size_t bands = archive.band_count();
  const LinearModel linear = make_model(301, bands, false);
  const LinearRasterModel linear_model(linear);
  const ProductModel product(make_model(302, bands, false));
  std::vector<Interval> ranges(archive.band_ranges().begin(), archive.band_ranges().end());
  const ProgressiveLinearModel staged(make_model(303, bands, false), ranges);
  const std::uint64_t full_cost = archive.pixel_count() * bands;

  enum class Kind { kLinear, kProduct, kStaged, kLinearScreened, kProductScreened };
  const Kind kinds[] = {Kind::kLinear, Kind::kProduct, Kind::kStaged, Kind::kLinearScreened,
                        Kind::kProductScreened};
  const std::uint64_t budgets[] = {0,
                                   3,
                                   full_cost / 9 + 1,
                                   full_cost / 3 + 2,
                                   full_cost / 2 + 3,
                                   full_cost - 1,
                                   std::numeric_limits<std::uint64_t>::max()};
  for (std::size_t round = 0; round < 6; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const std::size_t members = std::size(kinds) * 2;
    std::vector<RasterJob> jobs(members);
    for (std::size_t i = 0; i < members; ++i) {
      RasterJob& job = jobs[i];
      job.archive = &archive;
      job.k = 7 + i % 5;
      job.limits.op_budget = budgets[(i * 5 + round * 3) % std::size(budgets)];
      switch (kinds[i % std::size(kinds)]) {
        case Kind::kLinear:
          job.mode = RasterJob::Mode::kFullScan;
          job.model = &linear_model;
          break;
        case Kind::kProduct:
          job.mode = RasterJob::Mode::kFullScan;
          job.model = &product;
          break;
        case Kind::kStaged:
          job.mode = RasterJob::Mode::kProgressiveModel;
          job.progressive = &staged;
          break;
        case Kind::kLinearScreened:
          job.mode = RasterJob::Mode::kTileScreened;
          job.model = &linear_model;
          break;
        case Kind::kProductScreened:
          job.mode = RasterJob::Mode::kTileScreened;
          job.model = &product;
          break;
      }
    }
    const std::vector<RasterOutcome> outcomes = run_batched(jobs);
    std::size_t tripped = 0;
    for (std::size_t i = 0; i < members; ++i) {
      const RasterJob& job = jobs[i];
      const std::uint64_t budget = job.limits.op_budget;
      SCOPED_TRACE(testing::Message() << "member " << i << " budget " << budget);
      const RasterTopK& got = outcomes[i].result;
      const CostMeter& meter = outcomes[i].meter;
      const auto exact = job.progressive != nullptr
                             ? oracle_top_k(archive, job.k,
                                            [&](std::span<const double> pixel) {
                                              return staged.model().evaluate(pixel);
                                            })
                             : oracle_top_k(archive, job.k, [&](std::span<const double> pixel) {
                                 return job.model->evaluate(pixel);
                               });
      if (is_truncated(got.status)) {
        ++tripped;
        EXPECT_EQ(got.status, ResultStatus::kTruncatedBudget);
        EXPECT_LE(meter.ops(), budget);
        expect_sound_prefix(exact, got);
      } else {
        expect_oracle_hits(exact, got.hits);
      }
      // The member trips on the unit its solo scan trips on: same hits,
      // status, missed bound, bill and books.  The solo context checks its
      // deadline at a different interval than the engine's, which must not
      // move the trip either.
      QueryContext solo_ctx;
      solo_ctx.with_op_budget(budget).with_check_interval(i % 2 == 0 ? 1024 : 96);
      CostMeter solo_meter;
      RasterTopK solo;
      switch (job.mode) {
        case RasterJob::Mode::kFullScan:
          solo = full_scan_top_k(archive, *job.model, job.k, solo_ctx, solo_meter);
          break;
        case RasterJob::Mode::kProgressiveModel:
          solo = progressive_model_top_k(archive, staged, job.k, solo_ctx, solo_meter);
          break;
        case RasterJob::Mode::kTileScreened:
          solo = tile_screened_top_k(archive, *job.model, job.k, solo_ctx, solo_meter);
          break;
        case RasterJob::Mode::kCombined:
          break;
      }
      expect_oracle_hits(solo.hits, got.hits);
      EXPECT_EQ(got.status, solo.status);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.missed_bound),
                std::bit_cast<std::uint64_t>(solo.missed_bound));
      EXPECT_EQ(meter.ops(), solo_meter.ops());
      EXPECT_EQ(meter.points(), solo_meter.points());
      EXPECT_EQ(meter.bytes(), solo_meter.bytes());
      EXPECT_EQ(outcomes[i].budget_spent, solo_ctx.spent());
    }
    EXPECT_GT(tripped, 0u);
    EXPECT_LT(tripped, members);
  }
}

}  // namespace
}  // namespace mmir
