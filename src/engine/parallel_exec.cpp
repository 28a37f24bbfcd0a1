#include "engine/parallel_exec.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <vector>

#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace mmir {

namespace {

using exec::kNegInf;
using exec::SharedThreshold;

/// Per-worker accumulation state; one slot per pool worker + caller, indexed
/// by the parallel_for slot so no synchronization is needed until the merge.
/// Cache-line aligned because every pixel writes a worker's meter and tally:
/// unaligned neighbours would false-share, at a cost that shifts with
/// whatever else happens to share the heap.
struct alignas(64) WorkerState {
  explicit WorkerState(std::size_t k) : top(k) {}
  TopK<RasterHit> top;
  CostMeter meter;
  exec::ScanTally tally;
  /// Full-model row buffer (exec::scan_row_full).  Sized by the worker's
  /// own thread on first use: buffers the coordinator allocated back to
  /// back would share cache lines, and every row writes them.
  std::vector<double> scratch;
  double truncation_bound = kNegInf;
};

/// Merges per-worker heaps/meters/tallies into the final result, reducing
/// the meters with CostMeter::merge.  The global heap re-offers every local
/// entry under its original pixel rank; local heaps hold the canonical top-K
/// of their partition, so the union contains the canonical global top-K and
/// the merge is byte-identical to a serial scan.  Returns the summed tally.
exec::ScanTally merge_workers(std::span<WorkerState> workers, std::size_t k, RasterTopK& out,
                              CostMeter& meter) {
  TopK<RasterHit> merged(k);
  exec::ScanTally tally;
  for (WorkerState& w : workers) {
    for (auto& entry : w.top.take_sorted()) {
      merged.offer_ranked(entry.score, entry.sequence, entry.item);
    }
    meter.merge(w.meter);
    tally += w.tally;
  }
  out.bad_points += tally.bad_points;
  out.hits = exec::finalize(merged);
  return tally;
}

/// Row-band grain: a few chunks per slot for load balance without shredding
/// cache locality.
std::size_t row_grain(std::size_t height, std::size_t slots) {
  return std::max<std::size_t>(1, height / (slots * 4));
}

/// The claim-loop skeleton behind both parallel screened executors: one
/// charged metadata pass, then every worker claims tiles best-bound-first
/// off a shared cursor, prunes against the shared threshold and its own
/// heap, and runs `scan_tile(tile, worker, shared)` over the survivors.
/// The two executors differ only in their screening model, tile kernel and
/// span names.
template <typename ScanTileFn>
RasterTopK parallel_screened_top_k(const TiledArchive& archive, const RasterModel& screen,
                                   std::uint64_t model_terms, std::size_t k, const char* stage,
                                   const char* scan_stage, QueryContext& ctx, CostMeter& meter,
                                   ThreadPool& pool, ScanTileFn&& scan_tile) {
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), stage);
  RasterTopK out;
  obs::Span screen_span = obs::Span::child_of(&span, "metadata_screen");
  const auto order = exec::screen_tiles(archive, screen, ctx, meter);
  if (!order) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, screen);
    span.annotate("workers", static_cast<double>(pool.slot_count()));
    exec::annotate_result(span, out, meter);
    return out;
  }
  screen_span.annotate("tiles", static_cast<double>(order->size()));
  screen_span.finish();
  const auto tiles = archive.tiles();

  std::vector<WorkerState> workers(pool.slot_count(), WorkerState(k));
  SharedThreshold shared;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> tiles_scanned{0};
  const std::uint64_t ops_before = meter.ops();

  obs::Span scan_span = obs::Span::child_of(&span, scan_stage);
  pool.parallel_for(0, pool.slot_count(), 1, [&](std::size_t, std::size_t, std::size_t slot) {
    WorkerState& w = workers[slot];
    while (!ctx.stopped()) {
      const std::size_t pos = cursor.fetch_add(1, std::memory_order_relaxed);
      if (pos >= order->size()) return;
      const auto [hi, t] = (*order)[pos];
      const double threshold = shared.get();
      if (threshold > kNegInf && hi < threshold) {
        // Sound prune: threshold > -inf means some worker's heap is full, so
        // the final global K-th best is at least `threshold`.  Strictly-below
        // only: a tile tying the cross-worker threshold could still win the
        // canonical rank tie-break, so it needs the local-evidence check
        // below.
        w.meter.add_pruned();
        continue;
      }
      if (exec::screen_tile(w.top, hi, exec::tile_min_rank(tiles[t])) !=
          exec::TilePrune::kScan) {
        // Local tie/threshold evidence: this worker's own full heap certifies
        // the tile out (prune-one semantics — later claims re-check).
        w.meter.add_pruned();
        continue;
      }
      tiles_scanned.fetch_add(1, std::memory_order_relaxed);
      scan_tile(tiles[t], w, shared);
      if (ctx.stopped()) {
        // This tile may be partially examined; its bound covers the remainder.
        w.truncation_bound = std::max(w.truncation_bound, hi);
        return;
      }
      if (w.top.full()) shared.raise(w.top.threshold());
    }
  });
  const std::size_t scanned = tiles_scanned.load(std::memory_order_relaxed);
  scan_span.annotate("tiles_scanned", static_cast<double>(scanned));
  scan_span.annotate("tiles_pruned", static_cast<double>(order->size() - scanned));
  scan_span.finish();

  const exec::ScanTally tally = merge_workers(workers, k, out, meter);
  if (ctx.stopped()) {
    // Missed-score bound for a truncated tile-order run: the max bound over
    // every tile not fully examined — each worker's in-flight tile plus the
    // best unclaimed tile (claim order is descending bound, so the first
    // unclaimed position dominates all later ones).
    out.status = ctx.stop_reason();
    out.missed_bound = kNegInf;
    for (const WorkerState& w : workers) {
      out.missed_bound = std::max(out.missed_bound, w.truncation_bound);
    }
    const std::size_t claimed = cursor.load();
    if (claimed < order->size()) {
      out.missed_bound = std::max(out.missed_bound, (*order)[claimed].hi);
    }
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  exec::annotate_efficiency(span, archive, model_terms, tally.pixels, meter.ops() - ops_before);
  span.annotate("workers", static_cast<double>(pool.slot_count()));
  exec::annotate_result(span, out, meter);
  return out;
}

}  // namespace

void parallel_full_scan_top_k(const TiledArchive& archive,
                              std::span<const FullScanMember> members, ThreadPool& pool) {
  const std::size_t count = members.size();
  for (const FullScanMember& m : members) {
    MMIR_EXPECTS(m.k > 0);
    MMIR_EXPECTS(m.model->bands() == archive.band_count());
  }
  const auto started = obs::Clock::now();
  const std::size_t slots = pool.slot_count();
  std::vector<obs::Span> spans;
  std::vector<std::uint64_t> ops_before;
  // Member-major: member j's per-worker states are workers[j·slots, (j+1)·slots).
  std::vector<WorkerState> workers;
  spans.reserve(count);
  ops_before.reserve(count);
  workers.reserve(count * slots);
  for (const FullScanMember& m : members) {
    spans.push_back(obs::Span::child_of(m.ctx->span(), "parallel_full_scan"));
    ops_before.push_back(m.meter->ops());
    for (std::size_t slot = 0; slot < slots; ++slot) workers.emplace_back(m.k);
  }

  pool.parallel_for(0, archive.height(), row_grain(archive.height(), slots),
                    [&](std::size_t y0, std::size_t y1, std::size_t slot) {
                      std::vector<exec::ScanMember> scanning;
                      scanning.reserve(count);
                      for (std::size_t j = 0; j < count; ++j) {
                        if (members[j].ctx->stopped()) continue;
                        WorkerState& w = workers[j * slots + slot];
                        scanning.push_back({members[j].model, &w.top, &w.scratch, members[j].ctx,
                                            &w.meter, &w.tally});
                      }
                      if (!scanning.empty()) {
                        exec::scan_rect_full(archive, 0, archive.width(), y0, y1, scanning);
                      }
                    });

  for (std::size_t j = 0; j < count; ++j) {
    const FullScanMember& m = members[j];
    RasterTopK& out = *m.result;
    const exec::ScanTally tally = merge_workers(
        std::span(workers).subspan(j * slots, slots), m.k, out, *m.meter);
    if (m.ctx->stopped()) {
      out.status = m.ctx->stop_reason();
      out.missed_bound = exec::archive_score_bound(archive, *m.model);
    } else {
      out.status = exec::completion_status(archive, out.bad_points);
    }
    exec::annotate_efficiency(spans[j], archive, m.model->ops_per_evaluation(), tally.pixels,
                              m.meter->ops() - ops_before[j]);
    spans[j].annotate("workers", static_cast<double>(slots));
    exec::annotate_result(spans[j], out, *m.meter);
    m.meter->add_wall(
        std::chrono::duration_cast<std::chrono::nanoseconds>(obs::Clock::now() - started));
  }
}

RasterTopK parallel_full_scan_top_k(const TiledArchive& archive, const RasterModel& model,
                                    std::size_t k, QueryContext& ctx, CostMeter& meter,
                                    ThreadPool& pool) {
  RasterTopK out;
  const FullScanMember member{&model, k, &ctx, &meter, &out};
  parallel_full_scan_top_k(archive, std::span(&member, 1), pool);
  return out;
}

RasterTopK parallel_progressive_model_top_k(const TiledArchive& archive,
                                            const ProgressiveLinearModel& model, std::size_t k,
                                            QueryContext& ctx, CostMeter& meter,
                                            ThreadPool& pool) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "parallel_progressive_model");
  RasterTopK out;
  std::vector<WorkerState> workers(pool.slot_count(), WorkerState(k));
  SharedThreshold shared;
  const std::uint64_t ops_before = meter.ops();

  pool.parallel_for(
      0, archive.height(), row_grain(archive.height(), pool.slot_count()),
      [&](std::size_t y0, std::size_t y1, std::size_t slot) {
        if (ctx.stopped()) return;
        WorkerState& w = workers[slot];
        exec::scan_rect_staged(
            archive, model, 0, archive.width(), y0, y1, w.top,
            [&] { return std::max(w.top.threshold(), shared.get()); },
            [&] {
              if (w.top.full()) shared.raise(w.top.threshold());
            },
            ctx, w.meter, w.tally);
      });

  const exec::ScanTally tally = merge_workers(workers, k, out, meter);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = model.model().evaluate_interval(archive.band_ranges()).hi;
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  exec::annotate_efficiency(span, archive, model.order().size(), tally.pixels,
                            meter.ops() - ops_before);
  span.annotate("workers", static_cast<double>(pool.slot_count()));
  exec::annotate_result(span, out, meter);
  return out;
}

RasterTopK parallel_tile_screened_top_k(const TiledArchive& archive, const RasterModel& model,
                                        std::size_t k, QueryContext& ctx, CostMeter& meter,
                                        ThreadPool& pool) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.bands() == archive.band_count());
  return parallel_screened_top_k(
      archive, model, model.ops_per_evaluation(), k, "parallel_tile_screened", "full_model_scan",
      ctx, meter, pool, [&](const TileSummary& tile, WorkerState& w, SharedThreshold&) {
        exec::scan_rect_full(archive, model, tile.x0, tile.x0 + tile.width, tile.y0,
                             tile.y0 + tile.height, w.top, w.scratch, ctx, w.meter, w.tally);
      });
}

RasterTopK parallel_progressive_combined_top_k(const TiledArchive& archive,
                                               const ProgressiveLinearModel& model, std::size_t k,
                                               QueryContext& ctx, CostMeter& meter,
                                               ThreadPool& pool) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  const LinearRasterModel screen(model.model());
  return parallel_screened_top_k(
      archive, screen, model.order().size(), k, "parallel_progressive_combined",
      "staged_model_scan", ctx, meter, pool,
      [&](const TileSummary& tile, WorkerState& w, SharedThreshold& shared) {
        exec::scan_rect_staged(
            archive, model, tile.x0, tile.x0 + tile.width, tile.y0, tile.y0 + tile.height, w.top,
            [&] { return std::max(w.top.threshold(), shared.get()); },
            [&] {
              if (w.top.full()) shared.raise(w.top.threshold());
            },
            ctx, w.meter, w.tally);
      });
}

}  // namespace mmir
