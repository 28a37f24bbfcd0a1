#pragma once
// Scatter-gather query execution over a ShardedArchive.
//
// Each of the four executor modes (core/progressive_exec.hpp) has a sharded
// twin: the shards of a ShardedArchive are scattered across the engine's
// ThreadPool, every shard runs the *serial* scan kernels over its own tiles
// into a private top-K heap, and a gather step merges the partial heaps into
// one global top-K.  All shard tasks share one QueryContext, so the op budget
// and deadline hold globally — each scan draws lease slices from the shared
// budget (core/query_context.hpp) instead of receiving a static S-way split,
// which keeps a fast shard from stranding budget a slow shard needed.
//
// Soundness of the merge (proof sketch in DESIGN.md §6e):
//   * each shard's partial is the exact top-K of the pixels it examined, plus
//     a sound missed-score bound over the pixels it did not;
//   * tiles partition across shards, so the union of partials contains the
//     global top-K of all examined pixels;
//   * the merged missed bound is the max of the per-shard bounds — any
//     unexamined pixel lives in exactly one shard and is covered by that
//     shard's bound.  A budget-hit shard therefore *widens* the global bound
//     (max is monotone) and can only shorten, never corrupt, the certified
//     prefix.
// Cross-shard pruning uses the same shared monotone threshold as the
// tile-parallel executors: a stale read weakens pruning, never soundness.
//
// Fault domains (DESIGN.md §6f): when a ShardExecOptions with an active
// policy/chaos hook is passed, every shard becomes an independent fault
// domain — per-shard sub-deadline, capped-backoff retries with seeded
// jitter, and optional hedged duplicates of stragglers through the pool's
// urgent lane.  A shard that exhausts its attempt budget contributes an
// empty (or partial) result with status kDegraded and its whole-shard bound,
// which *widens* the merged missed bound: the certified prefix shortens but
// stays sound.  With no options (or an inactive one) the legacy path runs
// and answers are byte-identical to before.
//
// Per-shard ResultStatus propagates into the query-level disposition: any
// truncated shard truncates the merge (the shared context's latched reason),
// else any degraded shard degrades it, else the query is complete.  EXPLAIN
// sees one child span per shard ("shard_<id>") with items examined/pruned;
// the parent span carries the summed §4.2 efficiency inputs so the pm·pd
// decomposition reconciles exactly as it does for the monolithic executors.
//
// Scatter-gather twins for the other retrieval families ride along:
// per-shard Onion indexes (index/onion.hpp ShardedOnionIndex) queried in
// parallel, and composite (SPROC) queries partitioned over the component-0
// item domain — both merged at gather with the same max-of-bounds rule.

#include <cstdint>
#include <span>
#include <vector>

#include "archive/sharded.hpp"
#include "core/exec_kernels.hpp"
#include "core/progressive_exec.hpp"
#include "engine/fault_domain.hpp"
#include "engine/thread_pool.hpp"
#include "index/onion.hpp"
#include "sproc/query.hpp"

namespace mmir {

/// One shard's contribution to a sharded raster execution: its partial top-K
/// (with per-shard status and missed bound) plus the gather-side counters
/// EXPLAIN renders per shard.
struct ShardPartial {
  std::size_t shard_id = 0;
  RasterTopK result;
  std::uint64_t pixels_visited = 0;
  std::uint64_t tiles_scanned = 0;
  std::uint64_t tiles_pruned = 0;
};

/// Merges per-shard partials into a global top-K of size at most `k`.
/// Hits are offered under the canonical (score desc, exec::pixel_rank asc)
/// order, so exact score ties resolve by pixel position whatever the shard
/// layout — the merge of complete partials equals the serial monolithic
/// answer byte for byte.  The merged missed
/// bound is the max over shard bounds; the disposition is the first
/// truncated shard's status if any shard truncated, else degraded if any
/// shard degraded, else complete (all-shed merges stay kShed).  Exposed as a
/// pure function so merge soundness is unit-testable in isolation
/// (tests/test_shard_merge.cpp).
[[nodiscard]] RasterTopK merge_shard_partials(std::span<const ShardPartial> partials,
                                              std::size_t k);

/// Result of a sharded raster execution: the merged global answer plus the
/// per-shard dispositions the merge folded together and the fault-domain
/// bookkeeping of the run.  fault_stats stays default (all-zero) on the
/// legacy no-options path and on engine cache-hit replays, which never
/// re-execute shards.
struct ShardedTopK {
  RasterTopK merged;
  std::vector<ResultStatus> shard_status;  ///< indexed by shard id
  ShardFaultStats fault_stats;
};

/// Sharded twins of the four executors.  Answers are byte-identical to the
/// serial monolithic executors, exact ties included (the shard-parity
/// property suite checks this under both placement policies).  `options`
/// (nullable) switches on the fault-domain path; see the header comment.
[[nodiscard]] ShardedTopK sharded_full_scan_top_k(const ShardedArchive& sharded,
                                                  const RasterModel& model, std::size_t k,
                                                  QueryContext& ctx, CostMeter& meter,
                                                  ThreadPool& pool,
                                                  const ShardExecOptions* options = nullptr);
[[nodiscard]] ShardedTopK sharded_progressive_model_top_k(const ShardedArchive& sharded,
                                                          const ProgressiveLinearModel& model,
                                                          std::size_t k, QueryContext& ctx,
                                                          CostMeter& meter, ThreadPool& pool,
                                                          const ShardExecOptions* options =
                                                              nullptr);
[[nodiscard]] ShardedTopK sharded_tile_screened_top_k(const ShardedArchive& sharded,
                                                      const RasterModel& model, std::size_t k,
                                                      QueryContext& ctx, CostMeter& meter,
                                                      ThreadPool& pool,
                                                      const ShardExecOptions* options = nullptr);
[[nodiscard]] ShardedTopK sharded_progressive_combined_top_k(
    const ShardedArchive& sharded, const ProgressiveLinearModel& model, std::size_t k,
    QueryContext& ctx, CostMeter& meter, ThreadPool& pool,
    const ShardExecOptions* options = nullptr);

/// The four executor modes, addressable without dragging the scheduler
/// header in (values mirror RasterJob::Mode).  This is the mode a shard
/// server receives over the wire.
enum class ShardScanMode : std::uint8_t {
  kFullScan = 0,
  kProgressiveModel = 1,
  kTileScreened = 2,
  kCombined = 3,
};

/// Result of serially scanning ONE shard: the partial the gather-side merge
/// consumes plus the §4.2 efficiency inputs (scan_ops, model_terms) a remote
/// router re-annotates on its own spans.
struct ShardScanResult {
  ShardPartial partial;
  std::uint64_t scan_ops = 0;
  std::uint64_t model_terms = 0;
};

/// Serially scans one shard of `sharded` with the same kernels, accounting,
/// and status rules as the in-process executors — the unit of work a
/// ShardServer runs per request.  The pruning threshold is shard-local (no
/// cross-process shared threshold exists), which weakens pruning but never
/// soundness: a complete shard still returns its exact top-K, so the remote
/// merge equals the in-process merge.  `model` is required for
/// kFullScan/kTileScreened, `progressive` for kProgressiveModel/kCombined.
/// Opens a "shard_<id>" span under ctx's span for EXPLAIN.
[[nodiscard]] ShardScanResult scan_shard_partial(const ShardedArchive& sharded,
                                                 std::size_t shard_id, ShardScanMode mode,
                                                 const RasterModel* model,
                                                 const ProgressiveLinearModel* progressive,
                                                 std::size_t k, QueryContext& ctx,
                                                 CostMeter& meter);

/// Scatter-gather over a ShardedOnionIndex: every per-shard index is queried
/// on the pool, hits are remapped to global tuple ids, and the partials merge
/// under the max-of-bounds rule (merge_onion_partials).  Scores equal the
/// monolithic OnionIndex answer; exact ties merge toward the lower global
/// id, so the merged ids do not depend on which shard finishes first.
[[nodiscard]] OnionTopK sharded_onion_top_k(const ShardedOnionIndex& index,
                                            std::span<const double> weights, std::size_t k,
                                            QueryContext& ctx, CostMeter& meter,
                                            ThreadPool& pool);

/// Which composite processor each shard runs (mirrors CompositeJob::Processor
/// without dragging the scheduler header in).
enum class ShardedSprocProcessor : std::uint8_t { kFastSproc = 0, kSproc = 1, kBruteForce = 2 };

/// Scatter-gather composite retrieval: the library's component-0 domain is
/// partitioned round-robin across `shards` (sproc restrict_to_shard), each
/// slice runs the chosen processor independently on the pool, and the gather
/// keeps each shard's own candidates and merges them.  Scores equal the
/// monolithic processors' (same_scores) because the slices partition the
/// candidate space.  Exact score ties merge toward the lexicographically
/// smaller item assignment, the brute-force odometer's order, so sharded
/// brute force returns the monolithic matches exactly.
[[nodiscard]] CompositeTopK sharded_composite_top_k(const CartesianQuery& query,
                                                    std::size_t shards,
                                                    ShardedSprocProcessor processor,
                                                    std::size_t k, QueryContext& ctx,
                                                    CostMeter& meter, ThreadPool& pool);

}  // namespace mmir
