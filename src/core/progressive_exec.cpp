#include "core/progressive_exec.hpp"

#include <algorithm>

#include "core/exec_kernels.hpp"
#include "obs/trace.hpp"

namespace mmir {

// The pixel/tile kernels live in core/exec_kernels.hpp, shared with the
// tile-parallel executors in engine/parallel_exec.cpp; this file wires them
// into the four serial executors with the exact historical semantics.

using exec::kNegInf;

namespace {

/// The data-leg skeleton behind both serial screened executors: one charged
/// metadata pass, tiles visited best-bound-first, `scan_tile(tile, top,
/// tally)` over every tile the heap cannot certify out.  The two executors
/// differ only in their screening model, tile kernel and span names.
template <typename ScanTileFn>
RasterTopK screened_top_k(const TiledArchive& archive, const RasterModel& screen,
                          std::uint64_t model_terms, std::size_t k, const char* stage,
                          const char* scan_stage, QueryContext& ctx, CostMeter& meter,
                          ScanTileFn&& scan_tile) {
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), stage);
  RasterTopK out;
  obs::Span screen_span = obs::Span::child_of(&span, "metadata_screen");
  const auto order = exec::screen_tiles(archive, screen, ctx, meter);
  if (!order) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, screen);
    exec::annotate_result(span, out, meter);
    return out;
  }
  screen_span.annotate("tiles", static_cast<double>(order->size()));
  screen_span.finish();
  const auto tiles = archive.tiles();

  TopK<RasterHit> top(k);
  double truncation_bound = kNegInf;
  std::size_t tiles_scanned = 0;
  exec::ScanTally tally;
  const std::uint64_t ops_before = meter.ops();
  obs::Span scan_span = obs::Span::child_of(&span, scan_stage);
  for (std::size_t pos = 0; pos < order->size(); ++pos) {
    const auto [hi, t] = (*order)[pos];
    const TileSummary& tile = tiles[t];
    switch (exec::screen_tile(top, hi, exec::tile_min_rank(tile))) {
      case exec::TilePrune::kPruneRest:
        // Strictly dominated; tiles run best-bound-first, so every later
        // tile is dominated too.
        meter.add_pruned(order->size() - pos);
        pos = order->size();
        continue;
      case exec::TilePrune::kPruneOne:
        // Exact-tie prune: this tile cannot win on rank, but a later tile
        // with the same bound and a smaller corner rank still could.
        meter.add_pruned();
        continue;
      case exec::TilePrune::kScan:
        break;
    }
    ++tiles_scanned;
    scan_tile(tile, top, tally);
    if (ctx.stopped()) {
      // Tiles run best-bound-first, so the current tile's bound dominates
      // everything unexamined (its own remainder and all later tiles).
      truncation_bound = hi;
      break;
    }
  }
  out.bad_points = tally.bad_points;
  scan_span.annotate("tiles_scanned", static_cast<double>(tiles_scanned));
  scan_span.annotate("tiles_pruned", static_cast<double>(order->size() - tiles_scanned));
  scan_span.finish();
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = truncation_bound;
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  exec::annotate_efficiency(span, archive, model_terms, tally.pixels, meter.ops() - ops_before);
  exec::annotate_result(span, out, meter);
  return out;
}

}  // namespace


RasterTopK full_scan_top_k(const TiledArchive& archive, const RasterModel& model, std::size_t k,
                           QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.bands() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "full_scan");
  RasterTopK out;
  TopK<RasterHit> top(k);
  std::vector<double> row;  // scan_row_full's row buffer
  const std::uint64_t ops_before = meter.ops();
  exec::ScanTally tally;
  exec::scan_rect_full(archive, model, 0, archive.width(), 0, archive.height(), top, row, ctx,
                       meter, tally);
  out.bad_points = tally.bad_points;
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = exec::archive_score_bound(archive, model);
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  exec::annotate_efficiency(span, archive, model.ops_per_evaluation(), tally.pixels,
                      meter.ops() - ops_before);
  exec::annotate_result(span, out, meter);
  return out;
}

std::vector<RasterHit> full_scan_top_k(const TiledArchive& archive, const RasterModel& model,
                                       std::size_t k, CostMeter& meter) {
  QueryContext unbounded;
  return full_scan_top_k(archive, model, k, unbounded, meter).hits;
}

RasterTopK progressive_model_top_k(const TiledArchive& archive,
                                   const ProgressiveLinearModel& model, std::size_t k,
                                   QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "progressive_model");
  RasterTopK out;
  TopK<RasterHit> top(k);
  const std::uint64_t ops_before = meter.ops();
  exec::ScanTally tally;
  exec::scan_rect_staged(
      archive, model, 0, archive.width(), 0, archive.height(), top,
      [&] { return top.threshold(); }, [] {}, ctx, meter, tally);
  out.bad_points = tally.bad_points;
  out.hits = exec::finalize(top);
  if (ctx.stopped()) {
    out.status = ctx.stop_reason();
    out.missed_bound = model.model().evaluate_interval(archive.band_ranges()).hi;
  } else {
    out.status = exec::completion_status(archive, out.bad_points);
  }
  exec::annotate_efficiency(span, archive, model.order().size(), tally.pixels,
                      meter.ops() - ops_before);
  exec::annotate_result(span, out, meter);
  return out;
}

std::vector<RasterHit> progressive_model_top_k(const TiledArchive& archive,
                                               const ProgressiveLinearModel& model, std::size_t k,
                                               CostMeter& meter) {
  QueryContext unbounded;
  return progressive_model_top_k(archive, model, k, unbounded, meter).hits;
}

RasterTopK tile_screened_top_k(const TiledArchive& archive, const RasterModel& model,
                               std::size_t k, QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.bands() == archive.band_count());
  std::vector<double> row;  // scan_row_full's row buffer
  return screened_top_k(archive, model, model.ops_per_evaluation(), k, "tile_screened",
                        "full_model_scan", ctx, meter,
                        [&](const TileSummary& tile, TopK<RasterHit>& top,
                            exec::ScanTally& tally) {
                          exec::scan_rect_full(archive, model, tile.x0, tile.x0 + tile.width,
                                               tile.y0, tile.y0 + tile.height, top, row, ctx,
                                               meter, tally);
                        });
}

std::vector<RasterHit> tile_screened_top_k(const TiledArchive& archive, const RasterModel& model,
                                           std::size_t k, CostMeter& meter) {
  QueryContext unbounded;
  return tile_screened_top_k(archive, model, k, unbounded, meter).hits;
}

RasterTopK progressive_combined_top_k(const TiledArchive& archive,
                                      const ProgressiveLinearModel& model, std::size_t k,
                                      QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  const LinearRasterModel screen(model.model());
  return screened_top_k(archive, screen, model.order().size(), k, "progressive_combined",
                        "staged_model_scan", ctx, meter,
                        [&](const TileSummary& tile, TopK<RasterHit>& top,
                            exec::ScanTally& tally) {
                          exec::scan_rect_staged(
                              archive, model, tile.x0, tile.x0 + tile.width, tile.y0,
                              tile.y0 + tile.height, top, [&] { return top.threshold(); },
                              [] {}, ctx, meter, tally);
                        });
}

std::vector<RasterHit> progressive_combined_top_k(const TiledArchive& archive,
                                                  const ProgressiveLinearModel& model,
                                                  std::size_t k, CostMeter& meter) {
  QueryContext unbounded;
  return progressive_combined_top_k(archive, model, k, unbounded, meter).hits;
}

}  // namespace mmir
