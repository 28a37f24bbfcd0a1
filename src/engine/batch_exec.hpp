#pragma once
// Batched shared-scan execution (multi-query optimisation).
//
// Many concurrent model-based queries walk the same tiled archive; a batch
// visits every needed tile ONCE, in tile-index order, and within a tile
// runs every participating member's row kernel (core/exec_kernels.hpp)
// over each row in turn, so a row is pulled from memory once and stays
// L1-resident for the rest.  Members keep fully independent semantics:
//
//   * attribution — every member owns its CostMeter and is billed exactly
//     what it would have paid solo: the pixels it evaluates, its own
//     metadata pass, its own pruned-tile credits;
//   * fault envelopes — every member owns its QueryContext; a member whose
//     budget or deadline trips drops out with a certified partial top-K
//     prefix (sound missed_bound) while its batch-mates keep scanning;
//   * screening — tile-screened members apply their own per-model interval
//     bounds per tile; a tile pruned for one member is still scanned for
//     another that needs it.
//
// Correctness contract: a member's result is byte-identical to the same
// query run solo through the serial executors.  This holds because every
// executor offers candidates under the canonical (score desc, pixel rank
// asc) order (util/topk.hpp offer_ranked), making the top-K a pure function
// of the scored pixel multiset rather than of the visit order — the batch
// may interleave tiles any way it likes and still land on the same bytes.

#include <cstdint>
#include <span>
#include <vector>

#include "archive/tiled.hpp"
#include "core/progressive_exec.hpp"
#include "core/query_context.hpp"
#include "core/raster_model.hpp"
#include "linear/progressive.hpp"
#include "obs/trace.hpp"
#include "util/cost.hpp"
#include "util/interval.hpp"

namespace mmir {

/// Execution strategy of one batch member; mirrors RasterJob::Mode /
/// ShardScanMode (numeric values match for direct casts).
enum class BatchScanMode : std::uint8_t {
  kFullScan = 0,
  kProgressiveModel = 1,
  kTileScreened = 2,
  kCombined = 3,
};

/// One query riding a shared scan.  The caller owns everything referenced;
/// `ctx` and `meter` are per-member (attribution and fault isolation), the
/// archive is shared by construction.
struct BatchMemberSpec {
  BatchScanMode mode = BatchScanMode::kFullScan;
  /// Full/screening model; required for kFullScan and kTileScreened.
  const RasterModel* model = nullptr;
  /// Staged model; required for kProgressiveModel and kCombined.
  const ProgressiveLinearModel* progressive = nullptr;
  std::size_t k = 10;
  QueryContext* ctx = nullptr;  ///< member-owned fault envelope (required)
  CostMeter* meter = nullptr;   ///< member-owned accounting (required)
  /// Restrict the member to these global tile indices (ascending); null
  /// scans the whole archive.  Lets a shard-server batch ShardScanJobs whose
  /// members cover different shards of one archive.
  const std::vector<std::size_t>* tile_subset = nullptr;
  /// Per-band ranges of the member's domain, for its missed-score bound when
  /// it trips before tile bounds exist; null uses archive.band_ranges().
  const std::vector<Interval>* domain_ranges = nullptr;
  /// Bad-pixel count of the member's domain for completion-status purposes;
  /// kDomainBadFromArchive uses archive.bad_pixel_count().
  static constexpr std::uint64_t kDomainBadFromArchive = ~std::uint64_t{0};
  std::uint64_t domain_bad_pixels = kDomainBadFromArchive;
  /// Per-member trace span; null runs untraced.
  const obs::Span* span = nullptr;
};

/// Per-member outcome of a shared scan, mirroring what the solo executors
/// report (plus the per-shard tallies the shard path needs).
struct BatchMemberResult {
  RasterTopK result;
  std::uint64_t scan_ops = 0;  ///< member ops inside the scan stage
  std::uint64_t pixels_visited = 0;
  std::uint64_t tiles_scanned = 0;
  std::uint64_t tiles_pruned = 0;
};

/// Runs all members over `archive` in one shared tile-index-order scan.
/// Returns one result per member, in member order.
[[nodiscard]] std::vector<BatchMemberResult> batch_scan(
    const TiledArchive& archive, std::span<const BatchMemberSpec> members);

}  // namespace mmir
