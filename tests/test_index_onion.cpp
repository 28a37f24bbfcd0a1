// Unit + property tests for the Onion index: exactness against sequential
// scan, layer structure, residual handling, and the speedup mechanism.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "data/tuples.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "index/onion.hpp"
#include "index/seqscan.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace mmir {
namespace {

void expect_same_hits(const std::vector<ScoredId>& a, const std::vector<ScoredId>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].score, b[i].score, 1e-9);
  }
}

// ---------------------------------------------------------------- structure

TEST(Onion, LayersPartitionThePoints) {
  const TupleSet points = gaussian_tuples(2000, 3, 1);
  const OnionIndex index(points);
  EXPECT_EQ(index.size(), points.size());
  std::set<std::uint32_t> seen;
  for (std::size_t l = 0; l < index.layer_count(); ++l) {
    for (auto id : index.layer(l)) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id across layers";
    }
  }
}

TEST(Onion, LayerSizesAreSmallForGaussian) {
  const TupleSet points = gaussian_tuples(20000, 3, 2);
  const OnionIndex index(points);
  ASSERT_GE(index.layer_count(), 2u);
  // Hulls of Gaussian clouds hold a vanishing fraction of the points.
  EXPECT_LT(index.layer(0).size(), 300u);
  EXPECT_LT(index.layer(1).size(), 400u);
}

TEST(Onion, ExactFlagByDimension) {
  const TupleSet d2 = gaussian_tuples(100, 2, 3);
  const TupleSet d3 = gaussian_tuples(100, 3, 3);
  const TupleSet d5 = gaussian_tuples(100, 5, 3);
  EXPECT_TRUE(OnionIndex(d2).exact());
  EXPECT_TRUE(OnionIndex(d3).exact());
  EXPECT_FALSE(OnionIndex(d5).exact());
}

TEST(Onion, ResidualHoldsDeepPoints) {
  OnionConfig config;
  config.max_layers = 2;
  const TupleSet points = gaussian_tuples(5000, 3, 4);
  const OnionIndex index(points, config);
  EXPECT_EQ(index.layer_count(), 2u);
  EXPECT_GT(index.residual_size(), 0u);
  EXPECT_EQ(index.size(), points.size());
}

// ---------------------------------------------------------------- exactness

class OnionExactness : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(OnionExactness, MatchesSequentialScan3D) {
  const auto [n, k] = GetParam();
  const TupleSet points = gaussian_tuples(n, 3, 42 + n + k);
  const OnionIndex index(points);
  Rng rng(7 + k);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> w(3);
    for (auto& v : w) v = rng.normal();
    CostMeter scan_meter;
    CostMeter onion_meter;
    const auto expected = scan_top_k(points, w, k, scan_meter);
    const auto actual = index.top_k(w, k, onion_meter);
    expect_same_hits(expected, actual);
    EXPECT_LE(onion_meter.points(), scan_meter.points());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SweepSizesAndK, OnionExactness,
    ::testing::Values(std::make_tuple(100, 1), std::make_tuple(100, 10),
                      std::make_tuple(1000, 1), std::make_tuple(1000, 5),
                      std::make_tuple(5000, 1), std::make_tuple(5000, 10),
                      std::make_tuple(20000, 1), std::make_tuple(20000, 10)));

TEST(Onion, MatchesScan2D) {
  const TupleSet points = gaussian_tuples(3000, 2, 5);
  const OnionIndex index(points);
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> w{rng.normal(), rng.normal()};
    CostMeter m1;
    CostMeter m2;
    expect_same_hits(scan_top_k(points, w, 5, m1), index.top_k(w, 5, m2));
  }
}

TEST(Onion, BottomKMatchesScan) {
  const TupleSet points = gaussian_tuples(3000, 3, 7);
  const OnionIndex index(points);
  const std::vector<double> w{0.5, -1.0, 2.0};
  CostMeter m1;
  CostMeter m2;
  expect_same_hits(scan_bottom_k(points, w, 8, m1), index.bottom_k(w, 8, m2));
}

TEST(Onion, MinimizationEqualsNegatedMaximization) {
  const TupleSet points = gaussian_tuples(1000, 3, 8);
  const OnionIndex index(points);
  const std::vector<double> w{1.0, 2.0, -0.5};
  const std::vector<double> neg{-1.0, -2.0, 0.5};
  CostMeter m1;
  CostMeter m2;
  const auto bottom = index.bottom_k(w, 5, m1);
  const auto top_neg = index.top_k(neg, 5, m2);
  ASSERT_EQ(bottom.size(), top_neg.size());
  for (std::size_t i = 0; i < bottom.size(); ++i) {
    EXPECT_EQ(bottom[i].id, top_neg[i].id);
    EXPECT_NEAR(bottom[i].score, -top_neg[i].score, 1e-12);
  }
}

TEST(Onion, KBeyondPeelDepthConsultsResidual) {
  OnionConfig config;
  config.max_layers = 3;
  const TupleSet points = gaussian_tuples(2000, 3, 9);
  const OnionIndex index(points, config);
  const std::vector<double> w{1.0, 1.0, 1.0};
  CostMeter m1;
  CostMeter m2;
  // k = 50 far exceeds 3 layers; the index must still be exact.
  expect_same_hits(scan_top_k(points, w, 50, m1), index.top_k(w, 50, m2));
}

TEST(Onion, KLargerThanDatasetReturnsEverything) {
  const TupleSet points = gaussian_tuples(50, 3, 10);
  const OnionIndex index(points);
  const std::vector<double> w{1.0, 0.0, 0.0};
  CostMeter meter;
  const auto hits = index.top_k(w, 100, meter);
  EXPECT_EQ(hits.size(), 50u);
}

TEST(Onion, AxisAlignedQueryFindsExtremePoint) {
  const TupleSet points = gaussian_tuples(5000, 3, 11);
  const OnionIndex index(points);
  CostMeter meter;
  const auto hits = index.top_k(std::vector<double>{1.0, 0.0, 0.0}, 1, meter);
  ASSERT_EQ(hits.size(), 1u);
  double max_x = -1e300;
  for (std::size_t i = 0; i < points.size(); ++i) max_x = std::max(max_x, points.row(i)[0]);
  EXPECT_DOUBLE_EQ(hits[0].score, max_x);
}

// ---------------------------------------------------------------- cost

TEST(Onion, Top1TouchesOnlyFirstLayer) {
  const TupleSet points = gaussian_tuples(50000, 3, 12);
  const OnionIndex index(points);
  CostMeter meter;
  (void)index.top_k(std::vector<double>{1.0, 1.0, 1.0}, 1, meter);
  EXPECT_EQ(meter.points(), index.layer(0).size());
}

TEST(Onion, SpeedupGrowsWithN) {
  const std::vector<double> w{0.3, -0.7, 1.1};
  double small_speedup = 0.0;
  double large_speedup = 0.0;
  for (const std::size_t n : {2000ULL, 50000ULL}) {
    const TupleSet points = gaussian_tuples(n, 3, 13);
    const OnionIndex index(points);
    CostMeter scan_meter;
    CostMeter onion_meter;
    (void)scan_top_k(points, w, 1, scan_meter);
    (void)index.top_k(w, 1, onion_meter);
    const double speedup = static_cast<double>(scan_meter.points()) /
                           static_cast<double>(onion_meter.points());
    (n == 2000 ? small_speedup : large_speedup) = speedup;
  }
  EXPECT_GT(large_speedup, small_speedup);
  EXPECT_GT(large_speedup, 100.0);  // the paper's orders-of-magnitude claim
}

TEST(Onion, Top10CostsMoreThanTop1) {
  const TupleSet points = gaussian_tuples(20000, 3, 14);
  const OnionIndex index(points);
  const std::vector<double> w{1.0, 1.0, 1.0};
  CostMeter m1;
  CostMeter m10;
  (void)index.top_k(w, 1, m1);
  (void)index.top_k(w, 10, m10);
  EXPECT_GT(m10.points(), m1.points());
}

// ---------------------------------------------------------------- dim > 3

TEST(Onion, HighDimApproximateHasHighRecall) {
  const TupleSet points = gaussian_tuples(5000, 6, 15);
  OnionConfig config;
  config.direction_samples = 128;
  const OnionIndex index(points, config);
  EXPECT_FALSE(index.exact());
  Rng rng(16);
  double recall_sum = 0.0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> w(6);
    for (auto& v : w) v = rng.normal();
    CostMeter m1;
    CostMeter m2;
    const auto expected = scan_top_k(points, w, 10, m1);
    const auto actual = index.top_k(w, 10, m2);
    std::set<std::uint32_t> truth;
    for (const auto& hit : expected) truth.insert(hit.id);
    int found = 0;
    for (const auto& hit : actual) found += truth.count(hit.id) ? 1 : 0;
    recall_sum += static_cast<double>(found) / 10.0;
  }
  EXPECT_GT(recall_sum / trials, 0.8);
}

/// The directional-extreme peel as a per-direction loop over dot(): for
/// each sampled direction, one walk over the alive points keeping the first
/// strict argmax and argmin.  The index's one-pass peel must reproduce its
/// layers exactly, ties included.
struct ReferencePeel {
  std::vector<std::vector<std::uint32_t>> layers;
  std::vector<std::uint32_t> residual;
};

ReferencePeel reference_peel(const TupleSet& points, const OnionConfig& config) {
  const std::size_t dim = points.dim();
  Rng rng(config.seed);
  std::vector<std::vector<double>> directions;
  for (std::size_t s = 0; s < config.direction_samples; ++s) {
    std::vector<double> dir(dim);
    double norm = 0.0;
    for (auto& v : dir) {
      v = rng.normal();
      norm += v * v;
    }
    norm = std::sqrt(norm);
    for (auto& v : dir) v /= norm;
    directions.push_back(std::move(dir));
  }
  ReferencePeel out;
  std::vector<std::uint32_t> alive(points.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = static_cast<std::uint32_t>(i);
  while (!alive.empty() && out.layers.size() < config.max_layers) {
    std::vector<std::uint32_t> layer;
    if (alive.size() <= dim + 1) {
      layer = alive;
    } else {
      for (const auto& dir : directions) {
        std::uint32_t best_max = alive[0];
        std::uint32_t best_min = alive[0];
        double vmax = dot(points.row(alive[0]), dir);
        double vmin = vmax;
        for (auto id : alive) {
          const double v = dot(points.row(id), dir);
          if (v > vmax) {
            vmax = v;
            best_max = id;
          }
          if (v < vmin) {
            vmin = v;
            best_min = id;
          }
        }
        layer.push_back(best_max);
        layer.push_back(best_min);
      }
      std::sort(layer.begin(), layer.end());
      layer.erase(std::unique(layer.begin(), layer.end()), layer.end());
    }
    std::vector<std::uint32_t> next;
    std::set_difference(alive.begin(), alive.end(), layer.begin(), layer.end(),
                        std::back_inserter(next));
    out.layers.push_back(std::move(layer));
    alive = std::move(next);
  }
  out.residual = std::move(alive);
  return out;
}

/// Layers equal the reference peel's, and so do the suffix boxes: a top_k
/// whose op budget runs out on the first point of layer l reports the box
/// bound over layers >= l plus the residual as its missed bound.
void expect_reference_layers_and_boxes(const TupleSet& points, const OnionConfig& config) {
  const ReferencePeel ref = reference_peel(points, config);
  const OnionIndex index(points, config);
  ASSERT_EQ(index.layer_count(), ref.layers.size());
  ASSERT_EQ(index.residual_size(), ref.residual.size());
  for (std::size_t l = 0; l < ref.layers.size(); ++l) {
    const auto got = index.layer(l);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.layers[l].begin(), ref.layers[l].end()))
        << "layer " << l;
  }

  const std::size_t dim = points.dim();
  Rng rng(points.size() + dim);
  std::vector<double> w(dim);
  for (auto& v : w) v = rng.normal();
  std::vector<Interval> box;
  std::vector<double> bounds(ref.layers.size());
  const auto grow = [&](std::uint32_t id) {
    const auto row = points.row(id);
    if (box.empty()) {
      for (std::size_t d = 0; d < dim; ++d) box.push_back(Interval::point(row[d]));
    } else {
      for (std::size_t d = 0; d < dim; ++d) box[d] = box[d].hull(Interval::point(row[d]));
    }
  };
  for (auto id : ref.residual) grow(id);
  for (std::size_t l = ref.layers.size(); l-- > 0;) {
    for (auto id : ref.layers[l]) grow(id);
    double bound = 0.0;
    for (std::size_t d = 0; d < dim; ++d) bound += w[d] >= 0.0 ? w[d] * box[d].hi : w[d] * box[d].lo;
    bounds[l] = bound;
  }
  std::uint64_t before = 0;
  for (std::size_t l = 0; l < ref.layers.size(); ++l) {
    QueryContext ctx;
    ctx.with_op_budget(before * dim);
    CostMeter meter;
    const OnionTopK got = index.top_k(w, points.size(), ctx, meter);
    EXPECT_EQ(got.status, ResultStatus::kTruncatedBudget) << "layer " << l;
    EXPECT_EQ(got.missed_bound, bounds[l]) << "layer " << l;
    before += ref.layers[l].size();
  }
}

TEST(Onion, OnePassPeelMatchesThePerDirectionPeel) {
  for (const std::size_t dim : {std::size_t{4}, std::size_t{5}, std::size_t{6}, std::size_t{8}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " seed " + std::to_string(seed));
      OnionConfig config;
      config.seed = seed + 100;
      expect_reference_layers_and_boxes(gaussian_tuples(1500, dim, seed), config);
    }
  }
}

TEST(Onion, OnePassPeelKeepsTheFirstIdAmongDuplicatePoints) {
  // 1200 points drawn from 25 distinct 6-d points: every extreme is tied
  // many times over, so only the first-in-alive-order rule picks the ids.
  const TupleSet palette = gaussian_tuples(25, 6, 31);
  TupleSet points(6);
  Rng rng(32);
  for (int i = 0; i < 1200; ++i) points.push_row(palette.row(rng.uniform_int(25)));
  expect_reference_layers_and_boxes(points, OnionConfig{});
}

TEST(Onion, RejectsEmptyInput) {
  const TupleSet empty(3);
  EXPECT_THROW(OnionIndex{empty}, Error);
}

TEST(Onion, ClusteredDataStillExact) {
  const TupleSet points = clustered_tuples(5000, 3, 5, 17);
  const OnionIndex index(points);
  const std::vector<double> w{2.0, -1.0, 0.5};
  CostMeter m1;
  CostMeter m2;
  expect_same_hits(scan_top_k(points, w, 10, m1), index.top_k(w, 10, m2));
}

// ---------------------------------------------------------------- sharding

TEST(ShardedOnion, SlicesPartitionTheIdDomain) {
  const TupleSet points = gaussian_tuples(1000, 3, 18);
  const ShardedOnionIndex sharded(points, 4);
  ASSERT_EQ(sharded.shard_count(), 4u);
  EXPECT_EQ(sharded.size(), points.size());
  std::set<std::uint32_t> seen;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    for (std::uint32_t local = 0; local < sharded.shard(s).size(); ++local) {
      const std::uint32_t global = sharded.global_id(s, local);
      EXPECT_TRUE(seen.insert(global).second) << "id owned by two shards";
      // The slice must hold the exact row of its source tuple.
      const auto got = sharded.shard(s);
      (void)got;
      EXPECT_EQ(global % 4, s);
    }
  }
  EXPECT_EQ(seen.size(), points.size());
}

TEST(ShardedOnion, ShardCountClampedToPointCount) {
  const TupleSet points = gaussian_tuples(3, 3, 19);
  const ShardedOnionIndex sharded(points, 8);
  EXPECT_EQ(sharded.shard_count(), 3u);  // every shard non-empty
  EXPECT_EQ(sharded.size(), points.size());
}

// The sharded-index-vs-seqscan oracle: per-shard Onion indexes queried
// independently and merged must reproduce the brute-force scan over the
// whole tuple set — serially and on a thread pool.
TEST(ShardedOnion, MergedShardsMatchSequentialScanOracle) {
  Rng rng(20);
  for (const std::size_t n : {50UL, 1000UL, 5000UL}) {
    const TupleSet points = gaussian_tuples(n, 3, 21 + n);
    for (const std::size_t shards : {1UL, 2UL, 4UL, 8UL}) {
      const ShardedOnionIndex sharded(points, shards);
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<double> w(3);
        for (auto& v : w) v = rng.normal();
        const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(12));
        CostMeter scan_meter;
        const auto expected = scan_top_k(points, w, k, scan_meter);

        QueryContext serial_ctx;
        CostMeter serial_meter;
        const OnionTopK serial = sharded.top_k(w, k, serial_ctx, serial_meter);
        EXPECT_EQ(serial.status, ResultStatus::kComplete);
        expect_same_hits(expected, serial.hits);

        ThreadPool pool(2);
        QueryContext pooled_ctx;
        CostMeter pooled_meter;
        const OnionTopK pooled = sharded_onion_top_k(sharded, w, k, pooled_ctx, pooled_meter, pool);
        EXPECT_EQ(pooled.status, ResultStatus::kComplete);
        expect_same_hits(expected, pooled.hits);
      }
    }
  }
}

/// Gaussian tuples rounded to half-integers: exact duplicates and exact
/// score ties under integer weights, with no rounding in the dot products.
TupleSet tie_tuples(std::size_t n, std::uint64_t seed) {
  const TupleSet raw = gaussian_tuples(n, 3, seed);
  TupleSet out(3, n);
  std::vector<double> row(3);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < 3; ++d) row[d] = 0.5 * std::round(2.0 * raw.row(i)[d]);
    out.push_row(row);
  }
  return out;
}

// The oracle again on tie-storm tuples: the sequential scan visits ids in
// order, so its answer is the canonical (score desc, id asc) top-K, and the
// merged shards must reproduce it id for id — whichever order the shard
// partials reach the merge in.
TEST(ShardedOnion, ExactTiesMergeToTheSequentialScansIds) {
  const std::vector<std::vector<double>> weights = {{1, 0, 0}, {1, 1, 0}, {2, -1, 1}, {0, 0, -1}};
  for (const std::size_t n : {60UL, 400UL}) {
    const TupleSet points = tie_tuples(n, 31 + n);
    for (const std::size_t shards : {2UL, 3UL, 4UL, 8UL}) {
      const ShardedOnionIndex sharded(points, shards);
      for (const auto& w : weights) {
        for (const std::size_t k : {1UL, 5UL, 12UL}) {
          SCOPED_TRACE(testing::Message() << "n " << n << " shards " << shards << " k " << k
                                          << " w " << w[0] << "," << w[1] << "," << w[2]);
          CostMeter scan_meter;
          const auto expected = scan_top_k(points, w, k, scan_meter);
          QueryContext ctx;
          CostMeter meter;
          std::vector<OnionTopK> partials;
          for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
            partials.push_back(sharded.shard(s).top_k(w, k, ctx, meter));
            for (ScoredId& hit : partials.back().hits) hit.id = sharded.global_id(s, hit.id);
          }
          const OnionTopK forward = merge_onion_partials(partials, k);
          std::reverse(partials.begin(), partials.end());
          const OnionTopK reversed = merge_onion_partials(partials, k);
          ThreadPool pool(2);
          QueryContext pooled_ctx;
          CostMeter pooled_meter;
          const OnionTopK pooled =
              sharded_onion_top_k(sharded, w, k, pooled_ctx, pooled_meter, pool);
          for (const OnionTopK* got : {&forward, &reversed, &pooled}) {
            ASSERT_EQ(got->hits.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
              EXPECT_EQ(got->hits[i].id, expected[i].id) << "rank " << i;
              EXPECT_EQ(got->hits[i].score, expected[i].score) << "rank " << i;
            }
          }
        }
      }
    }
  }
}

// A single index on tie-storm tuples with integer weights: every top-K and
// bottom-K must be the sequential scan's, id for id and score byte for
// byte, however the layers order the tied points; a budget that stops the
// query early must leave a certified prefix of that answer.
TEST(Onion, ExactTiesReturnTheSequentialScansIds) {
  const std::vector<std::vector<double>> weights = {
      {1, 0, 0}, {1, 1, 0}, {2, -1, 1}, {0, 0, -1}, {1, 1, 1}, {-1, 2, 0}};
  for (const std::size_t n : {60UL, 400UL, 2000UL}) {
    for (const std::uint64_t seed : {5UL, 6UL}) {
      const TupleSet points = tie_tuples(n, seed * 100 + n);
      const OnionIndex index(points);
      for (const auto& w : weights) {
        for (const std::size_t k : {1UL, 2UL, 5UL, 12UL, 40UL}) {
          for (const bool minimize : {false, true}) {
            SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed << " k " << k
                                            << " minimize " << minimize << " w " << w[0] << ","
                                            << w[1] << "," << w[2]);
            CostMeter scan_meter;
            const auto expected = minimize ? scan_bottom_k(points, w, k, scan_meter)
                                           : scan_top_k(points, w, k, scan_meter);
            QueryContext ctx;
            CostMeter meter;
            const OnionTopK got =
                minimize ? index.bottom_k(w, k, ctx, meter) : index.top_k(w, k, ctx, meter);
            EXPECT_EQ(got.status, ResultStatus::kComplete);
            ASSERT_EQ(got.hits.size(), expected.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
              EXPECT_EQ(got.hits[i].id, expected[i].id) << "rank " << i;
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hits[i].score),
                        std::bit_cast<std::uint64_t>(expected[i].score))
                  << "rank " << i;
            }
            // Budgets that stop the query partway: the hits strictly better
            // than the missed bound are a prefix of the exact answer.
            const double sign = minimize ? -1.0 : 1.0;
            for (const std::uint64_t budget : {3UL, 30UL, 120UL, 600UL}) {
              QueryContext budgeted;
              budgeted.with_op_budget(budget).with_check_interval(1);
              CostMeter budget_meter;
              const OnionTopK part = minimize ? index.bottom_k(w, k, budgeted, budget_meter)
                                              : index.top_k(w, k, budgeted, budget_meter);
              if (part.status == ResultStatus::kComplete) continue;
              std::size_t certified = 0;
              while (certified < part.hits.size() &&
                     sign * part.hits[certified].score > sign * part.missed_bound) {
                ++certified;
              }
              ASSERT_LE(certified, expected.size()) << "budget " << budget;
              for (std::size_t i = 0; i < certified; ++i) {
                EXPECT_EQ(part.hits[i].id, expected[i].id) << "budget " << budget << " rank " << i;
                EXPECT_EQ(part.hits[i].score, expected[i].score)
                    << "budget " << budget << " rank " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(ShardedOnion, RemappedIdsReproduceTheirScores) {
  const TupleSet points = gaussian_tuples(2000, 3, 22);
  const ShardedOnionIndex sharded(points, 4);
  const std::vector<double> w{0.7, -1.3, 0.4};
  ThreadPool pool(2);
  QueryContext ctx;
  CostMeter meter;
  const OnionTopK result = sharded_onion_top_k(sharded, w, 10, ctx, meter, pool);
  ASSERT_EQ(result.hits.size(), 10u);
  for (const ScoredId& hit : result.hits) {
    ASSERT_LT(hit.id, points.size());
    EXPECT_NEAR(hit.score, dot(points.row(hit.id), w), 1e-12);
  }
}

TEST(ShardedOnion, BudgetTruncationKeepsSoundBound) {
  const TupleSet points = gaussian_tuples(5000, 3, 23);
  const ShardedOnionIndex sharded(points, 4);
  const std::vector<double> w{1.0, 1.0, 1.0};
  CostMeter scan_meter;
  const auto exact = scan_top_k(points, w, 10, scan_meter);

  ThreadPool pool(2);
  QueryContext ctx;
  ctx.with_op_budget(64).with_check_interval(1);
  CostMeter meter;
  const OnionTopK result = sharded_onion_top_k(sharded, w, 10, ctx, meter, pool);
  if (result.status != ResultStatus::kComplete) {
    // Certified hits must be a prefix of the exact ranking.
    std::size_t certified = 0;
    while (certified < result.hits.size() && result.hits[certified].score > result.missed_bound) {
      ++certified;
    }
    ASSERT_LE(certified, exact.size());
    for (std::size_t i = 0; i < certified; ++i) {
      EXPECT_NEAR(result.hits[i].score, exact[i].score, 1e-12) << "certified rank " << i;
    }
  }
}

}  // namespace
}  // namespace mmir
