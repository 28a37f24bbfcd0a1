// Unit tests for the sharding layer: ShardedArchive partition invariants and
// catalog registration, and merge_shard_partials soundness under degradation
// — a budget/deadline-hit shard must *widen* the global missed-score bound
// (max is monotone) and therefore can only shorten, never corrupt, the
// certified prefix.  Edge cases: empty partial list, empty shard, single
// shard, all shards shed.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "archive/sharded.hpp"
#include "data/scene.hpp"
#include "engine/shard_exec.hpp"

namespace mmir {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

std::unique_ptr<TiledArchive> make_archive(std::vector<const Grid*>& bands, Scene& scene,
                                           std::size_t tile) {
  bands = {&scene.band("b4"), &scene.band("b5"), &scene.dem};
  return std::make_unique<TiledArchive>(bands, tile);
}

class ShardedArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SceneConfig cfg;
    cfg.width = 40;
    cfg.height = 56;  // 5 x 7 tiles at tile = 8
    cfg.seed = 77;
    scene_ = std::make_unique<Scene>(generate_scene(cfg));
    archive_ = make_archive(bands_, *scene_, 8);
  }

  std::unique_ptr<Scene> scene_;
  std::vector<const Grid*> bands_;
  std::unique_ptr<TiledArchive> archive_;
};

TEST_F(ShardedArchiveTest, TilesPartitionExactlyOnceUnderBothPolicies) {
  for (ShardPolicy policy : {ShardPolicy::kRowBands, ShardPolicy::kTileHash}) {
    for (std::size_t count : {1UL, 2UL, 3UL, 4UL, 8UL, 16UL}) {
      const ShardedArchive sharded(*archive_, count, policy);
      ASSERT_EQ(sharded.shard_count(), count);
      std::vector<int> seen(archive_->tiles().size(), 0);
      std::size_t pixels = 0;
      for (const ShardInfo& shard : sharded.shards()) {
        EXPECT_TRUE(std::is_sorted(shard.tiles.begin(), shard.tiles.end()));
        for (std::size_t t : shard.tiles) {
          ASSERT_LT(t, seen.size());
          ++seen[t];
          EXPECT_EQ(sharded.owner_of_tile(t), shard.id);
        }
        pixels += shard.pixel_count;
      }
      for (int n : seen) EXPECT_EQ(n, 1);  // disjoint cover
      EXPECT_EQ(pixels, archive_->width() * archive_->height());
    }
  }
}

TEST_F(ShardedArchiveTest, RowBandShardsAreContiguousTileRowBands) {
  const ShardedArchive sharded(*archive_, 3, ShardPolicy::kRowBands);
  // Each tile row must land wholly in one shard, and shard ids must be
  // non-decreasing in the row index.
  std::size_t previous = 0;
  for (std::size_t ty = 0; ty < archive_->tiles_y(); ++ty) {
    const std::size_t owner = sharded.owner_of_tile(ty * archive_->tiles_x());
    for (std::size_t tx = 1; tx < archive_->tiles_x(); ++tx) {
      EXPECT_EQ(sharded.owner_of_tile(ty * archive_->tiles_x() + tx), owner);
    }
    EXPECT_GE(owner, previous);
    previous = owner;
  }
}

TEST_F(ShardedArchiveTest, BandRangeHullCoversEveryTileRange) {
  const ShardedArchive sharded(*archive_, 4, ShardPolicy::kTileHash);
  const auto tiles = archive_->tiles();
  for (const ShardInfo& shard : sharded.shards()) {
    if (shard.tiles.empty()) {
      EXPECT_TRUE(shard.band_ranges.empty());
      continue;
    }
    ASSERT_EQ(shard.band_ranges.size(), archive_->band_count());
    for (std::size_t t : shard.tiles) {
      for (std::size_t b = 0; b < shard.band_ranges.size(); ++b) {
        EXPECT_LE(shard.band_ranges[b].lo, tiles[t].band_range[b].lo);
        EXPECT_GE(shard.band_ranges[b].hi, tiles[t].band_range[b].hi);
      }
    }
  }
}

TEST_F(ShardedArchiveTest, ShardCountBeyondTileRowsLeavesEmptyShards) {
  // 7 tile rows into 16 row-band shards: some shards must be empty, and the
  // partition must still cover every tile exactly once.
  const ShardedArchive sharded(*archive_, 16, ShardPolicy::kRowBands);
  std::size_t empty = 0;
  std::size_t covered = 0;
  for (const ShardInfo& shard : sharded.shards()) {
    if (shard.tiles.empty()) {
      ++empty;
      EXPECT_EQ(shard.pixel_count, 0U);
    }
    covered += shard.tiles.size();
  }
  EXPECT_GT(empty, 0U);
  EXPECT_EQ(covered, archive_->tiles().size());
}

TEST_F(ShardedArchiveTest, LayoutTagDistinguishesPolicyAndCountAndIsNonZero) {
  const ShardedArchive rows2(*archive_, 2, ShardPolicy::kRowBands);
  const ShardedArchive rows4(*archive_, 4, ShardPolicy::kRowBands);
  const ShardedArchive hash4(*archive_, 4, ShardPolicy::kTileHash);
  EXPECT_NE(rows2.layout_tag(), 0U);  // 0 is reserved for "not sharded"
  EXPECT_NE(rows2.layout_tag(), rows4.layout_tag());
  EXPECT_NE(rows4.layout_tag(), hash4.layout_tag());
}

TEST_F(ShardedArchiveTest, RegistersOneCatalogEntryPerShard) {
  const ShardedArchive sharded(*archive_, 4, ShardPolicy::kRowBands);
  Catalog catalog;
  sharded.register_in(catalog, "landsat/scene-7");
  EXPECT_EQ(catalog.size(), 4U);
  const auto entry = catalog.find("landsat/scene-7/shard-2");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->modality, Modality::kRaster);
  EXPECT_EQ(entry->item_count, sharded.shard(2).pixel_count);
  EXPECT_EQ(entry->dims, archive_->band_count());
  EXPECT_EQ(entry->attributes.at("shard_policy"), "row_bands");
  EXPECT_EQ(entry->attributes.at("parent"), "landsat/scene-7");
  EXPECT_EQ(catalog.by_attribute("parent", "landsat/scene-7").size(), 4U);
}

// ---------------------------------------------------------------- the merge

ShardPartial partial(std::size_t id, std::vector<double> scores,
                     ResultStatus status = ResultStatus::kComplete,
                     double missed_bound = kNegInf) {
  ShardPartial p;
  p.shard_id = id;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    p.result.hits.push_back(RasterHit{id * 100 + i, id, scores[i]});
  }
  p.result.status = status;
  p.result.missed_bound = missed_bound;
  return p;
}

TEST(ShardMerge, EmptyPartialListMergesToEmptyComplete) {
  const RasterTopK merged = merge_shard_partials({}, 5);
  EXPECT_TRUE(merged.hits.empty());
  EXPECT_EQ(merged.status, ResultStatus::kComplete);
  EXPECT_EQ(merged.missed_bound, kNegInf);
  EXPECT_EQ(merged.certified_prefix(), 0U);
}

TEST(ShardMerge, SingleShardPassesThrough) {
  const std::vector<ShardPartial> partials = {partial(0, {9.0, 7.0, 5.0})};
  const RasterTopK merged = merge_shard_partials(partials, 5);
  ASSERT_EQ(merged.hits.size(), 3U);
  EXPECT_EQ(merged.hits[0].score, 9.0);
  EXPECT_EQ(merged.hits[2].score, 5.0);
  EXPECT_EQ(merged.status, ResultStatus::kComplete);
  EXPECT_EQ(merged.certified_prefix(), 3U);
}

TEST(ShardMerge, EmptyShardContributesNothing) {
  const std::vector<ShardPartial> partials = {partial(0, {9.0, 7.0}), partial(1, {})};
  const RasterTopK merged = merge_shard_partials(partials, 5);
  EXPECT_EQ(merged.hits.size(), 2U);
  EXPECT_EQ(merged.status, ResultStatus::kComplete);
}

TEST(ShardMerge, KeepsGlobalTopKAcrossShards) {
  const std::vector<ShardPartial> partials = {
      partial(0, {9.0, 3.0, 1.0}),
      partial(1, {8.0, 7.0, 2.0}),
      partial(2, {6.0, 5.0, 4.0}),
  };
  const RasterTopK merged = merge_shard_partials(partials, 4);
  ASSERT_EQ(merged.hits.size(), 4U);
  EXPECT_EQ(merged.hits[0].score, 9.0);
  EXPECT_EQ(merged.hits[1].score, 8.0);
  EXPECT_EQ(merged.hits[2].score, 7.0);
  EXPECT_EQ(merged.hits[3].score, 6.0);
  EXPECT_EQ(merged.certified_prefix(), 4U);
}

TEST(ShardMerge, TruncatedShardWidensBoundAndShortensCertifiedPrefixOnly) {
  // Baseline: all shards complete — everything certified.
  std::vector<ShardPartial> partials = {
      partial(0, {9.0, 6.0}),
      partial(1, {8.0, 5.0}),
  };
  const RasterTopK complete = merge_shard_partials(partials, 4);
  EXPECT_EQ(complete.certified_prefix(), 4U);

  // Shard 1 hits its budget with a bound between ranks: the merge must keep
  // the same leading hits, widen the bound to the max, truncate the status —
  // and certify exactly the hits that beat the widened bound.
  partials[1].result.status = ResultStatus::kTruncatedBudget;
  partials[1].result.missed_bound = 7.0;
  const RasterTopK merged = merge_shard_partials(partials, 4);
  EXPECT_EQ(merged.status, ResultStatus::kTruncatedBudget);
  EXPECT_EQ(merged.missed_bound, 7.0);
  ASSERT_EQ(merged.hits.size(), 4U);
  for (std::size_t i = 0; i < merged.hits.size(); ++i) {
    EXPECT_EQ(merged.hits[i].score, complete.hits[i].score) << "rank " << i;
  }
  EXPECT_EQ(merged.certified_prefix(), 2U);  // 9 and 8 beat the bound; 6 and 5 do not

  // The certified prefix is exactly the prefix of the complete ranking.
  for (std::size_t i = 0; i < merged.certified_prefix(); ++i) {
    EXPECT_EQ(merged.hits[i].score, complete.hits[i].score);
  }
}

TEST(ShardMerge, WideningABoundNeverGrowsTheCertifiedPrefix) {
  const std::vector<double> bounds = {kNegInf, 3.0, 5.5, 7.5, 100.0};
  std::size_t previous = std::numeric_limits<std::size_t>::max();
  for (double bound : bounds) {
    std::vector<ShardPartial> partials = {
        partial(0, {9.0, 6.0}),
        partial(1, {8.0, 5.0}, ResultStatus::kTruncatedDeadline, bound),
    };
    const RasterTopK merged = merge_shard_partials(partials, 4);
    EXPECT_LE(merged.certified_prefix(), previous) << "bound " << bound;
    previous = merged.certified_prefix();
  }
  EXPECT_EQ(previous, 0U);  // a bound above every score certifies nothing
}

TEST(ShardMerge, MergedBoundIsMaxOverShardBounds) {
  const std::vector<ShardPartial> partials = {
      partial(0, {9.0}, ResultStatus::kTruncatedBudget, 2.0),
      partial(1, {8.0}, ResultStatus::kTruncatedBudget, 6.0),
      partial(2, {7.0}, ResultStatus::kComplete, kNegInf),
  };
  const RasterTopK merged = merge_shard_partials(partials, 3);
  EXPECT_EQ(merged.missed_bound, 6.0);
}

TEST(ShardMerge, StatusPrecedenceTruncationBeatsDegradation) {
  std::vector<ShardPartial> partials = {
      partial(0, {9.0}),
      partial(1, {8.0}, ResultStatus::kDegraded),
  };
  EXPECT_EQ(merge_shard_partials(partials, 2).status, ResultStatus::kDegraded);

  partials.push_back(partial(2, {7.0}, ResultStatus::kTruncatedDeadline, 5.0));
  EXPECT_EQ(merge_shard_partials(partials, 3).status, ResultStatus::kTruncatedDeadline);
}

TEST(ShardMerge, BadPointsAccumulateAcrossShards) {
  std::vector<ShardPartial> partials = {partial(0, {9.0}), partial(1, {8.0})};
  partials[0].result.bad_points = 3;
  partials[1].result.bad_points = 4;
  EXPECT_EQ(merge_shard_partials(partials, 2).bad_points, 7U);
}

TEST(ShardMerge, AllShardsShedMergesToShed) {
  const std::vector<ShardPartial> partials = {
      partial(0, {}, ResultStatus::kShed, kPosInf),
      partial(1, {}, ResultStatus::kShed, kPosInf),
  };
  const RasterTopK merged = merge_shard_partials(partials, 4);
  EXPECT_EQ(merged.status, ResultStatus::kShed);
  EXPECT_TRUE(merged.hits.empty());
  EXPECT_EQ(merged.missed_bound, kPosInf);
  EXPECT_EQ(merged.certified_prefix(), 0U);
}

TEST(ShardMerge, PartiallyShedMergeKeepsSurvivingHits) {
  const std::vector<ShardPartial> partials = {
      partial(0, {9.0, 6.0}),
      partial(1, {}, ResultStatus::kShed, kPosInf),
  };
  const RasterTopK merged = merge_shard_partials(partials, 4);
  EXPECT_EQ(merged.status, ResultStatus::kShed);  // shed is a truncation
  ASSERT_EQ(merged.hits.size(), 2U);
  EXPECT_EQ(merged.missed_bound, kPosInf);
  // An unexamined shard could hold anything, so nothing is certifiable.
  EXPECT_EQ(merged.certified_prefix(), 0U);
}

TEST(ShardMerge, TieBreaksTowardLowerPixelRank) {
  std::vector<ShardPartial> partials = {partial(0, {5.0}), partial(1, {5.0})};
  RasterTopK merged = merge_shard_partials(partials, 1);
  ASSERT_EQ(merged.hits.size(), 1U);
  EXPECT_EQ(merged.hits[0].y, 0U);  // partial() stores the shard id in y

  // Shard order must not decide: move shard 0's hit below shard 1's in
  // row-major order and the tie flips to shard 1.
  partials[0].result.hits[0].y = 7;
  merged = merge_shard_partials(partials, 1);
  ASSERT_EQ(merged.hits.size(), 1U);
  EXPECT_EQ(merged.hits[0].x, 100U);
  EXPECT_EQ(merged.hits[0].y, 1U);
}

}  // namespace
}  // namespace mmir
