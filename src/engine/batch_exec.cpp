#include "engine/batch_exec.hpp"

#include <algorithm>
#include <memory>

#include "core/exec_kernels.hpp"
#include "util/error.hpp"

namespace mmir {

namespace {

using exec::kNegInf;

/// Mutable per-member execution state.  Everything a member's decisions read
/// is member-local (its own heap, bounds, context), so its billing and its
/// result are independent of who else rides the batch.
struct MemberState {
  explicit MemberState(const BatchMemberSpec& s)
      : spec(&s), ctx(s.ctx), lease(*s.ctx), meter(s.meter), top(s.k) {}

  const BatchMemberSpec* spec;
  QueryContext* ctx;
  /// The member's scan-stage allowance on its own context, held across the
  /// whole batch: the context is drawn once per slice.  Released at
  /// finalize, before anything reads the context's totals.
  ChargeLease lease;
  CostMeter* meter;
  TopK<RasterHit> top;
  exec::ScanTally tally;
  std::uint64_t ops_before = 0;
  std::uint64_t tiles_scanned = 0;
  std::uint64_t tiles_pruned = 0;

  /// Screening state (kTileScreened / kCombined): the member's own metadata
  /// pass, as bound upper ends in tile-index order (-inf outside its domain).
  std::vector<double> tile_hi;
  std::unique_ptr<LinearRasterModel> owned_screen;
  const RasterModel* screen = nullptr;

  const RasterModel* full = nullptr;    // full-evaluation model (non-staged)
  const LinearModel* linear = nullptr;  // exec::linear_model_of(*full)
  double domain_bound = kNegInf;        // sound pre-metadata missed bound

  std::size_t subset_pos = 0;  // cursor into tile_subset (ascending)
  bool screened = false;
  bool staged = false;
  bool done = false;     // finished its tiles or tripped
  bool stopped = false;  // tripped (budget / deadline / cancel)
  bool scan_trip = false;
  std::size_t trip_tile = 0;  // global tile index at a scan-stage trip
};

/// Whether the member participates in tile `t`; advances the subset cursor
/// (tiles arrive in ascending index order, matching the subset's order).
bool wants_tile(MemberState& m, std::size_t t) {
  const std::vector<std::size_t>* subset = m.spec->tile_subset;
  if (subset == nullptr) return true;
  while (m.subset_pos < subset->size() && (*subset)[m.subset_pos] < t) ++m.subset_pos;
  if (m.subset_pos >= subset->size()) {
    m.done = true;  // subset exhausted: the member completed its domain
    return false;
  }
  if ((*subset)[m.subset_pos] != t) return false;
  ++m.subset_pos;
  return true;
}

void trip(MemberState& m, std::size_t t) {
  m.done = true;
  m.stopped = true;
  m.scan_trip = true;
  m.trip_tile = t;
}

/// Sound missed-score bound after a screened member's scan-stage trip: the
/// max screening bound over its tiles from the trip tile on.  Earlier tiles
/// were fully scanned or certified out; the trip tile (possibly half
/// examined) and everything after are covered by their bounds.
double screened_trip_bound(const MemberState& m) {
  return *std::max_element(m.tile_hi.begin() + static_cast<std::ptrdiff_t>(m.trip_tile),
                           m.tile_hi.end());
}

/// The solo executors' span vocabulary, so a batched member's EXPLAIN reads
/// like a solo run: §4.2 efficiency inputs + result shape + meter totals.
void annotate_member(const obs::Span* span, const TiledArchive& archive, const MemberState& m,
                     const BatchMemberResult& r, std::uint64_t model_terms) {
  if (span == nullptr || !span->active()) return;
  exec::annotate_efficiency(*span, archive, model_terms, r.pixels_visited, r.scan_ops);
  span->annotate("k", static_cast<double>(m.spec->k));
  span->annotate("tiles_scanned", static_cast<double>(r.tiles_scanned));
  span->annotate("tiles_pruned", static_cast<double>(r.tiles_pruned));
  exec::annotate_result(*span, r.result, *m.spec->meter);
  switch (m.spec->mode) {
    case BatchScanMode::kFullScan: span->note("mode", "full_scan"); break;
    case BatchScanMode::kProgressiveModel: span->note("mode", "progressive_model"); break;
    case BatchScanMode::kTileScreened: span->note("mode", "tile_screened"); break;
    case BatchScanMode::kCombined: span->note("mode", "progressive_combined"); break;
  }
}

}  // namespace

std::vector<BatchMemberResult> batch_scan(const TiledArchive& archive,
                                          std::span<const BatchMemberSpec> members) {
  std::vector<BatchMemberResult> out(members.size());
  if (members.empty()) return out;
  const auto tiles = archive.tiles();
  const std::size_t band_count = archive.band_count();

  // ---- Per-member setup + metadata stage -------------------------------
  std::vector<MemberState> states;
  states.reserve(members.size());
  for (const BatchMemberSpec& spec : members) {
    MMIR_EXPECTS(spec.k > 0);
    MMIR_EXPECTS(spec.ctx != nullptr && spec.meter != nullptr);
    MemberState& m = states.emplace_back(spec);
    m.staged = spec.mode == BatchScanMode::kProgressiveModel ||
               spec.mode == BatchScanMode::kCombined;
    m.screened = spec.mode == BatchScanMode::kTileScreened ||
                 spec.mode == BatchScanMode::kCombined;
    if (m.staged) {
      MMIR_EXPECTS(spec.progressive != nullptr);
      MMIR_EXPECTS(spec.progressive->model().dim() == band_count);
    } else {
      MMIR_EXPECTS(spec.model != nullptr);
      MMIR_EXPECTS(spec.model->bands() == band_count);
      m.full = spec.model;
      m.linear = exec::linear_model_of(*spec.model);
    }
    switch (spec.mode) {
      case BatchScanMode::kTileScreened:
        m.screen = spec.model;
        break;
      case BatchScanMode::kCombined:
        m.owned_screen = std::make_unique<LinearRasterModel>(spec.progressive->model());
        m.screen = m.owned_screen.get();
        break;
      default:
        break;
    }

    const std::span<const Interval> ranges =
        spec.domain_ranges != nullptr ? std::span<const Interval>(*spec.domain_ranges)
                                      : archive.band_ranges();
    // An empty domain (e.g. a tile-less shard) has no scoreable pixels and no
    // per-band hull to bound them with; kNegInf is the exact missed bound.
    if (ranges.size() != band_count) {
      m.ops_before = spec.meter->ops();
      continue;
    }
    switch (spec.mode) {
      case BatchScanMode::kFullScan:
      case BatchScanMode::kTileScreened:
        m.domain_bound = spec.model->bound(ranges).hi;
        break;
      case BatchScanMode::kProgressiveModel:
        m.domain_bound = spec.progressive->model().evaluate_interval(ranges).hi;
        break;
      case BatchScanMode::kCombined:
        m.domain_bound = m.screen->bound(ranges).hi;
        break;
    }

    if (m.screened) {
      // Member-paid metadata pass over its own tiles, billed exactly like
      // the solo executors.
      const auto screened =
          spec.tile_subset != nullptr
              ? exec::screen_tiles(archive, *m.screen, *spec.tile_subset, *spec.ctx, *spec.meter)
              : exec::screen_tiles(archive, *m.screen, *spec.ctx, *spec.meter);
      if (!screened) {
        m.done = true;
        m.stopped = true;  // metadata trip: no bounds, domain bound covers
      } else {
        m.tile_hi.assign(tiles.size(), kNegInf);
        for (const exec::TileBound& b : *screened) m.tile_hi[b.tile] = b.hi;
      }
    }
    m.ops_before = spec.meter->ops();
  }

  // ---- Shared scan: every tile visited once, in tile-index order -------
  std::vector<double> scratch;  // row buffer shared by the full-model members
  std::vector<MemberState*> needing;
  needing.reserve(states.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    const TileSummary& tile = tiles[t];
    needing.clear();
    for (MemberState& m : states) {
      if (m.done || !wants_tile(m, t)) continue;
      if (m.screened) {
        if (exec::screen_tile(m.top, m.tile_hi[t], exec::tile_min_rank(tile)) !=
            exec::TilePrune::kScan) {
          // Certified out for THIS member only; batch-mates may still need
          // the tile.  Tile-index order is not bound-descending, so even a
          // strict prune certifies just this tile.
          m.meter->add_pruned();
          ++m.tiles_pruned;
          continue;
        }
      }
      ++m.tiles_scanned;
      needing.push_back(&m);
    }
    if (needing.empty()) {
      bool any_open = false;
      for (const MemberState& m : states) any_open |= !m.done;
      if (!any_open) break;
      continue;
    }

    // Row-major over the tile, every member in turn per row: the row's band
    // planes stay L1-resident across members.  Each member runs the solo
    // row kernels against its own lease, meter and heap, so its billing,
    // its trip unit and its answer are those of a solo scan.
    const std::size_t x1 = tile.x0 + tile.width;
    for (std::size_t y = tile.y0; y < tile.y0 + tile.height; ++y) {
      for (MemberState* mp : needing) {
        MemberState& m = *mp;
        if (m.done) continue;
        const bool finished =
            m.staged ? exec::scan_row_staged(
                           archive, *m.spec->progressive, tile.x0, x1, y, m.top,
                           [&] { return m.top.threshold(); }, [] {}, m.lease, *m.ctx, *m.meter,
                           m.tally)
                     : exec::scan_row_full(archive, *m.full, m.linear, tile.x0, x1, y, m.top,
                                           scratch, m.lease, *m.ctx, *m.meter, m.tally);
        if (!finished) trip(m, t);
      }
    }
  }

  // ---- Finalize each member exactly like its solo executor -------------
  for (std::size_t i = 0; i < states.size(); ++i) {
    MemberState& m = states[i];
    BatchMemberResult& r = out[i];
    m.lease.release();
    r.result.bad_points = m.tally.bad_points;
    r.result.hits = exec::finalize(m.top);
    r.scan_ops = m.meter->ops() - m.ops_before;
    r.pixels_visited = m.tally.pixels;
    r.tiles_scanned = m.tiles_scanned;
    r.tiles_pruned = m.tiles_pruned;
    std::uint64_t model_terms = 0;
    if (m.staged) {
      model_terms = m.spec->progressive->order().size();
    } else {
      model_terms = m.full->ops_per_evaluation();
    }
    if (m.stopped) {
      r.result.status = m.spec->ctx->stop_reason();
      r.result.missed_bound =
          m.screened && m.scan_trip ? screened_trip_bound(m) : m.domain_bound;
    } else {
      const std::uint64_t domain_bad =
          m.spec->domain_bad_pixels == BatchMemberSpec::kDomainBadFromArchive
              ? archive.bad_pixel_count()
              : m.spec->domain_bad_pixels;
      r.result.status = m.tally.bad_points > 0 || domain_bad > 0 ? ResultStatus::kDegraded
                                                                 : ResultStatus::kComplete;
    }
    annotate_member(m.spec->span, archive, m, r, model_terms);
  }
  return out;
}

}  // namespace mmir
