#pragma once
// Progressive model execution over tiled raster archives — the heart of the
// framework (§3.1) and the engine behind experiment E5 (§4.2).
//
// Four executors, one exact answer:
//   * full_scan_top_k          — every pixel, full model:          O(n·N)
//   * progressive_model_top_k  — every pixel, staged model terms
//     with per-pixel early abandoning:                              /pm
//   * tile_screened_top_k      — tile-summary interval pruning,
//     full model inside surviving tiles:                            /pd
//   * progressive_combined_top_k — both legs together:              /(pm·pd)
//
// The model leg requires a linear model (stage decomposition); the data leg
// works for any RasterModel.  All four return the identical canonical top-K
// (score desc, pixel rank asc), exact ties included, because every pruning
// step is justified by a sound bound and every offer carries the canonical
// tie-break (core/exec_kernels.hpp).

#include <cstdint>
#include <limits>
#include <vector>

#include "archive/tiled.hpp"
#include "core/query_context.hpp"
#include "core/raster_model.hpp"
#include "linear/progressive.hpp"
#include "util/cost.hpp"
#include "util/result_status.hpp"
#include "util/topk.hpp"

namespace mmir {

/// A retrieved raster location.
struct RasterHit {
  std::size_t x = 0;
  std::size_t y = 0;
  double score = 0.0;
};

/// Fault-tolerant raster query result: a best-effort top-K plus enough
/// metadata to reason about what may have been missed.
struct RasterTopK {
  std::vector<RasterHit> hits;  ///< best-first, possibly fewer than K
  ResultStatus status = ResultStatus::kComplete;
  /// Sound upper bound on the score of any pixel the execution did not
  /// examine; -inf when nothing scoreable was missed (complete / degraded).
  double missed_bound = -std::numeric_limits<double>::infinity();
  /// Non-finite pixel evaluations skipped during *this* execution.
  std::uint64_t bad_points = 0;

  /// Number of leading hits provably members of the exact top-K: every hit
  /// whose score strictly beats `missed_bound` cannot be displaced by an
  /// unexamined pixel.  Equals hits.size() when status is not truncated.
  [[nodiscard]] std::size_t certified_prefix() const noexcept {
    std::size_t n = 0;
    while (n < hits.size() && hits[n].score > missed_bound) ++n;
    return n;
  }
};

// Each executor has two forms: the original unbounded signature (exact
// behavior, kept for existing callers) and a fault-tolerant overload taking a
// QueryContext.  With a default QueryContext the overloads return identical
// hits to the originals; with an expiring budget / deadline / cancellation
// they return a flagged partial prefix instead of running unbounded.
// Non-finite pixel scores are skipped-and-counted in both forms.

/// Exhaustive baseline: full model on every pixel.
[[nodiscard]] std::vector<RasterHit> full_scan_top_k(const TiledArchive& archive,
                                                     const RasterModel& model, std::size_t k,
                                                     CostMeter& meter);
[[nodiscard]] RasterTopK full_scan_top_k(const TiledArchive& archive, const RasterModel& model,
                                         std::size_t k, QueryContext& ctx, CostMeter& meter);

/// Progressive model only: staged term evaluation with early abandoning
/// against the running top-K threshold; all pixels visited.
[[nodiscard]] std::vector<RasterHit> progressive_model_top_k(const TiledArchive& archive,
                                                             const ProgressiveLinearModel& model,
                                                             std::size_t k, CostMeter& meter);
[[nodiscard]] RasterTopK progressive_model_top_k(const TiledArchive& archive,
                                                 const ProgressiveLinearModel& model,
                                                 std::size_t k, QueryContext& ctx,
                                                 CostMeter& meter);

/// Progressive data only: tiles processed best-bound-first; a tile whose
/// interval upper bound cannot reach the current K-th best is pruned without
/// touching its pixels.
[[nodiscard]] std::vector<RasterHit> tile_screened_top_k(const TiledArchive& archive,
                                                         const RasterModel& model, std::size_t k,
                                                         CostMeter& meter);
[[nodiscard]] RasterTopK tile_screened_top_k(const TiledArchive& archive, const RasterModel& model,
                                             std::size_t k, QueryContext& ctx, CostMeter& meter);

/// Both legs: tile screening outside, staged terms inside surviving tiles.
[[nodiscard]] std::vector<RasterHit> progressive_combined_top_k(
    const TiledArchive& archive, const ProgressiveLinearModel& model, std::size_t k,
    CostMeter& meter);
[[nodiscard]] RasterTopK progressive_combined_top_k(const TiledArchive& archive,
                                                    const ProgressiveLinearModel& model,
                                                    std::size_t k, QueryContext& ctx,
                                                    CostMeter& meter);

}  // namespace mmir
