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
// All workers share one QueryContext (concurrency-safe, see
// core/query_context.hpp), each kernel spending it through its own
// ChargeLease: the first worker refused latches the stop reason and every
// other worker unwinds at its next charge.  Truncated
// results carry the same kind of sound missed-score bound as the serial
// executors — for tile-order executors, the max bound over tiles not fully
// examined; for scan-order executors, the archive-level model bound.

#include <cstddef>

#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "engine/thread_pool.hpp"

namespace mmir {

/// Parallel full scan: rows are chunked across workers; no pruning, so the
/// only shared state is the QueryContext.
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
