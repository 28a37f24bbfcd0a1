#pragma once
// The Onion index: convex-hull layering for linear-optimization top-K queries
// (Chang, Bergman, Castelli, Li, Lo, Smith — SIGMOD 2000, cited as [11] and
// quoted in §3.2 of the reproduced paper: 13,000× speedup for top-1, 1,400×
// for top-10 against sequential scan on 3-parameter Gaussian data).
//
// Build: repeatedly peel the convex hull of the remaining points; layer i is
// the vertex set of the i-th hull.  Query: a linear function attains its
// maximum over a point set at a hull vertex, so the j-th best tuple lies in
// the first j layers — a top-K query therefore evaluates only the first K
// layers instead of all N points.
//
// Engineering notes (documented deviations, see DESIGN.md §5):
//  * Peeling depth is bounded by `max_layers`; points never reached by the
//    peel stay in a residual bucket that queries scan only when K exceeds the
//    peeled depth.  Answers are identical to the full peel.
//  * Exact hulls are implemented for dim 2 and 3 (the paper's experiment is
//    3-parameter, so E1 is exact).  For dim > 3 the layers are built by
//    peeling *directional extremes* (argmax over sampled unit directions);
//    the j-th-best-in-j-layers guarantee then becomes probabilistic, so
//    queries are flagged approximate via `exact()` and validated empirically
//    (high recall) in the test suite.

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/query_context.hpp"
#include "data/tuples.hpp"
#include "index/seqscan.hpp"
#include "util/cost.hpp"
#include "util/interval.hpp"
#include "util/result_status.hpp"

namespace mmir {

/// Fault-tolerant Onion query result.  `missed_bound` is the most optimistic
/// score (in the query's ranking direction: largest for top_k, smallest for
/// bottom_k) any unexamined point could achieve — sound via the suffix
/// bounding boxes, independent of hull exactness.
struct OnionTopK {
  std::vector<ScoredId> hits;  ///< best-first, possibly fewer than K
  ResultStatus status = ResultStatus::kComplete;
  double missed_bound = -std::numeric_limits<double>::infinity();
};

struct OnionConfig {
  std::size_t max_layers = 24;        ///< peeling depth bound
  std::size_t direction_samples = 64; ///< only used for dim > 3
  std::uint64_t seed = 17;            ///< direction sampling seed (dim > 3)
};

/// Layered convex-hull index over an immutable TupleSet (which must outlive
/// the index).
class OnionIndex {
 public:
  OnionIndex(const TupleSet& points, OnionConfig config = {});

  /// Number of peeled layers (excluding the residual bucket).
  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] std::span<const std::uint32_t> layer(std::size_t i) const;
  [[nodiscard]] std::size_t residual_size() const noexcept { return residual_.size(); }
  /// True when layers are true convex-hull layers (dim <= 3).
  [[nodiscard]] bool exact() const noexcept { return exact_; }

  /// Top-k maximizers of w·x (best first).  Exact for any k: scans
  /// min(k, layer_count) layers plus the residual when k exceeds the peel.
  /// Exact score ties keep the smaller ids, so the answer is the canonical
  /// (score desc, id asc) top-K that scan_top_k returns.
  [[nodiscard]] std::vector<ScoredId> top_k(std::span<const double> weights, std::size_t k,
                                            CostMeter& meter) const;

  /// Fault-tolerant form: stops when the context expires, returning the hits
  /// accumulated so far flagged with the stop reason and a sound bound on
  /// any missed score.
  [[nodiscard]] OnionTopK top_k(std::span<const double> weights, std::size_t k, QueryContext& ctx,
                                CostMeter& meter) const;

  /// Top-k minimizers of w·x (best-first by smallness).
  [[nodiscard]] std::vector<ScoredId> bottom_k(std::span<const double> weights, std::size_t k,
                                               CostMeter& meter) const;
  [[nodiscard]] OnionTopK bottom_k(std::span<const double> weights, std::size_t k,
                                   QueryContext& ctx, CostMeter& meter) const;

  /// Total points stored across layers + residual (== points.size()).
  [[nodiscard]] std::size_t size() const noexcept;

 private:
  void build(const OnionConfig& config);
  [[nodiscard]] std::vector<std::uint32_t> peel_once(std::span<const std::uint32_t> alive,
                                                     const OnionConfig& config) const;
  [[nodiscard]] OnionTopK query(std::span<const double> weights, std::size_t k, double sign,
                                QueryContext& ctx, CostMeter& meter) const;

  const TupleSet& points_;
  std::vector<std::vector<std::uint32_t>> layers_;
  /// Suffix bounding boxes: layer_boxes_[i] covers every point in layers
  /// >= i plus the residual.  A query stops as soon as the suffix box's
  /// linear bound falls below the current K-th best — usually well before K
  /// layers have been scanned.  Sound for any dimension (it is a plain box
  /// over the actual points, independent of hull exactness).
  std::vector<std::vector<Interval>> layer_boxes_;
  std::vector<Interval> residual_box_;  ///< box over the residual alone
  std::vector<std::uint32_t> residual_;
  bool exact_ = true;
  /// dim > 3 peeling directions, dim-major: component d of direction j is
  /// directions_[d * direction_samples + j].
  std::vector<double> directions_;
};

/// Merges per-shard Onion partials into one global OnionTopK of size at most
/// `k`.  Exact score ties break toward the lower global id, so the merged
/// set is the canonical (score desc, id asc) top-K of the partials' hits
/// whatever order the partials arrive in.  The merged missed bound is the max over shard bounds, and the disposition
/// is the first truncated shard's status (complete otherwise; all-shed stays
/// shed).  Pure, so shard-merge soundness is unit-testable without a pool.
[[nodiscard]] OnionTopK merge_onion_partials(std::span<const OnionTopK> partials, std::size_t k);

/// Onion indexing partitioned for scatter-gather: the tuple domain is split
/// round-robin (global id % S) into S slices, each slice gets its own
/// materialized TupleSet and an independently built OnionIndex.  Slices
/// partition the ids, so per-shard top-Ks union to the global candidate set —
/// engine::sharded_onion_top_k queries the shards on the pool and merges with
/// merge_onion_partials.  The effective shard count is min(S, points.size())
/// so every shard is non-empty (OnionIndex requires that).
class ShardedOnionIndex {
 public:
  ShardedOnionIndex(const TupleSet& points, std::size_t shard_count, OnionConfig config = {});

  [[nodiscard]] std::size_t shard_count() const noexcept { return indexes_.size(); }
  [[nodiscard]] const OnionIndex& shard(std::size_t s) const;
  /// Maps a shard-local tuple id back to its id in the source TupleSet.
  [[nodiscard]] std::uint32_t global_id(std::size_t s, std::uint32_t local) const;
  /// Total points across all shards (== source points.size()).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Serial scatter-gather: queries every shard in shard order on the calling
  /// thread and merges.  Identical answers to the pooled execution path.
  [[nodiscard]] OnionTopK top_k(std::span<const double> weights, std::size_t k, QueryContext& ctx,
                                CostMeter& meter) const;

 private:
  std::vector<TupleSet> slices_;
  std::vector<std::vector<std::uint32_t>> global_ids_;  ///< [shard][local] -> global
  // OnionIndex holds a const reference to its TupleSet and is not movable,
  // so shards live behind pointers; slices_ is fully built (stable) first.
  std::vector<std::unique_ptr<OnionIndex>> indexes_;
};

}  // namespace mmir
