#pragma once
// Tile-parallel variants of the four progressive raster executors
// (core/progressive_exec.hpp).
//
// The paper's efficiency model O(nN/(pm·pd)) treats the archive as a set of
// independently screenable tiles — embarrassingly parallel structure the
// serial executors leave on the table.  Each parallel executor partitions
// the TiledArchive across the workers of a ThreadPool (plus the calling
// thread), runs the *same* per-tile kernels as its serial counterpart
// (core/exec_kernels.hpp) with per-worker top-K heaps and CostMeters, and
// merges the heaps and meters after the join.
//
// Soundness of cross-worker pruning: workers publish the threshold of their
// *full* local heap into a shared relaxed atomic maximum.  A full local heap
// of size K holds K scores ≥ its threshold, so the global K-th best is ≥
// any published value — pruning against the shared threshold can only
// discard candidates that provably cannot enter the final top-K.  A stale
// read only *weakens* pruning (more work, same answer), which is why relaxed
// ordering suffices.  Every offer and every merge uses the canonical
// (score desc, pixel rank asc) order, so completed parallel runs return the
// serial executors' top-K byte for byte, exact ties included.
//
// The full-scan executor takes a span of members over one archive: a batch
// group's consecutive linear full scans score each row span they have all
// paid for in one shared pass, so the band planes are read once for all of
// them (a cooperative scan, Zukowski et al., VLDB 2007).  A solo full scan
// is the one-member call.
//
// All workers share one QueryContext (concurrency-safe, see
// core/query_context.hpp), each kernel spending it through its own
// ChargeLease: the first worker refused latches the stop reason and every
// other worker unwinds at its next charge.  Truncated
// results carry the same kind of sound missed-score bound as the serial
// executors — for tile-order executors, the max bound over tiles not fully
// examined; for scan-order executors, the archive-level model bound.

#include <cstddef>
#include <span>

#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "engine/thread_pool.hpp"

namespace mmir {

/// One member of a shared full scan: a query (model, k) with its own
/// context and meter, and where its answer goes.  Members of one call must
/// not share a context or meter.
struct FullScanMember {
  const RasterModel* model = nullptr;
  std::size_t k = 0;
  QueryContext* ctx = nullptr;
  CostMeter* meter = nullptr;
  RasterTopK* result = nullptr;
};

/// Parallel full scan of every member over one archive, in one pass over
/// the rows: row bands are chunked across workers, and in each row the
/// members whose leases cover the whole row share one fused pass
/// (exec::scan_rect_full), so the band planes are read once for all of
/// them.  There is no pruning, so the only state a member shares with its
/// own workers is its QueryContext; each member has its own per-worker
/// heaps, meters and tallies, its own merge, status and missed bound, and
/// gets the answer, bill and books a one-member call would give it.  A
/// member's trace span is a "parallel_full_scan" child of its context's
/// span.  An exception from any member's model ends the whole call, so
/// callers that must fail members alone pass linear models only.
void parallel_full_scan_top_k(const TiledArchive& archive,
                              std::span<const FullScanMember> members, ThreadPool& pool);

/// The one-member parallel full scan.
[[nodiscard]] RasterTopK parallel_full_scan_top_k(const TiledArchive& archive,
                                                  const RasterModel& model, std::size_t k,
                                                  QueryContext& ctx, CostMeter& meter,
                                                  ThreadPool& pool);

/// Parallel progressive-model scan: rows chunked across workers, staged
/// per-pixel evaluation abandons against max(local, shared) threshold.
[[nodiscard]] RasterTopK parallel_progressive_model_top_k(const TiledArchive& archive,
                                                          const ProgressiveLinearModel& model,
                                                          std::size_t k, QueryContext& ctx,
                                                          CostMeter& meter, ThreadPool& pool);

/// Parallel tile screening: after the charged metadata pass
/// (exec::screen_tiles), workers claim tiles best-bound-first off a shared
/// cursor, prune against the shared threshold, full model inside.
[[nodiscard]] RasterTopK parallel_tile_screened_top_k(const TiledArchive& archive,
                                                      const RasterModel& model, std::size_t k,
                                                      QueryContext& ctx, CostMeter& meter,
                                                      ThreadPool& pool);

/// Parallel combined executor: tile screening outside, staged terms inside.
[[nodiscard]] RasterTopK parallel_progressive_combined_top_k(const TiledArchive& archive,
                                                             const ProgressiveLinearModel& model,
                                                             std::size_t k, QueryContext& ctx,
                                                             CostMeter& meter, ThreadPool& pool);

}  // namespace mmir
