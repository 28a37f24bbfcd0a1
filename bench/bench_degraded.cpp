// Degraded-operation benchmark for the fault-tolerance layer.
//
// Two questions a production deployment asks of the QueryContext machinery:
//
//  1. What does threading a context through the hot loops cost when it is
//     unbounded (the common case)?  Answer: the charge() fast path is an add
//     + compare, so the combined executor should stay within ~3% of a
//     context-free replica of the seed implementation.
//  2. What do you actually get back under a shrinking budget?  Answer: a
//     flagged prefix with a certified head — the table sweeps the budget and
//     reports hits / certified / missed bound at each level.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "archive/tiled.hpp"
#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "util/topk.hpp"

namespace {

using namespace mmir;
using namespace mmir::bench;

// Context-free replica of the combined executor exactly as the seed shipped
// it: tile screening outside, staged terms inside, no charge() calls.  The
// overhead measurement compares this against the real (context-threaded)
// implementation running with a default QueryContext.
std::vector<RasterHit> seed_combined_top_k(const TiledArchive& archive,
                                           const ProgressiveLinearModel& model, std::size_t k,
                                           CostMeter& meter) {
  const LinearRasterModel raster_model(model.model());
  const auto tiles = archive.tiles();
  std::vector<Interval> bounds(tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    bounds[t] = raster_model.bound(tiles[t].band_range);
    meter.add_ops(raster_model.ops_per_evaluation());
  }
  std::vector<std::size_t> order(tiles.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return bounds[a].hi > bounds[b].hi; });

  TopK<RasterHit> top(k);
  const auto stage_order = model.order();
  for (std::size_t t : order) {
    if (top.full() && bounds[t].hi <= top.threshold()) break;
    const TileSummary& tile = tiles[t];
    for (std::size_t y = tile.y0; y < tile.y0 + tile.height; ++y) {
      for (std::size_t x = tile.x0; x < tile.x0 + tile.width; ++x) {
        double partial = model.model().bias();
        double score = partial;
        bool abandoned = false;
        for (std::size_t stage = 0; stage < stage_order.size(); ++stage) {
          const std::size_t band = stage_order[stage];
          partial += model.model().weight(band) * archive.band(band).cell(x, y);
          meter.add_ops(1);
          meter.add_points(1);
          meter.add_bytes(sizeof(double));
          if (stage + 1 < stage_order.size()) {
            const Interval tail = model.tail(stage);
            if (partial + tail.hi < top.threshold()) {
              meter.add_pruned();
              abandoned = true;
              break;
            }
          }
        }
        score = partial;
        if (!abandoned && score > top.threshold()) top.offer(score, RasterHit{x, y, score});
      }
    }
  }
  std::vector<RasterHit> out;
  for (auto& entry : top.take_sorted()) out.push_back(entry.item);
  return out;
}

void run_overhead_table() {
  heading("D1: QueryContext overhead on progressive_combined_top_k",
          "unbounded-context executor within ~3% of a context-free replica");

  SceneConfig cfg;
  cfg.width = 512;
  cfg.height = 512;
  cfg.seed = 31;
  const Scene scene = generate_scene(cfg);
  const std::vector<const Grid*> bands = {&scene.band("b4"), &scene.band("b5"),
                                          &scene.band("b7"), &scene.dem};
  std::vector<Interval> ranges;
  for (const Grid* band : bands) ranges.push_back(band->stats().range());
  const LinearModel model = hps_risk_model();
  const ProgressiveLinearModel progressive(model, ranges);

  std::printf("%6s %6s | %12s %12s | %9s\n", "tile", "K", "seed-replica", "with-ctx", "overhead");
  std::printf("%6s %6s | %12s %12s | %9s\n", "", "", "median ms", "median ms", "");
  std::printf("----------------------------------------------------------\n");
  // Pruning makes single queries very fast (tens of microseconds at large
  // tiles), so each timing sample batches `batch` consecutive runs to get
  // above clock-granularity noise.
  const int reps = 25;
  const int batch = 10;
  for (const std::size_t tile : {8ULL, 16ULL}) {
    const TiledArchive archive(bands, tile);
    for (const std::size_t k : {10ULL, 100ULL}) {
      std::vector<double> base_ms;
      std::vector<double> ctx_ms;
      std::size_t sink = 0;  // defeat dead-code elimination
      for (int warm = 0; warm < 3; ++warm) {
        CostMeter m;
        QueryContext ctx;
        sink += seed_combined_top_k(archive, progressive, k, m).size();
        sink += progressive_combined_top_k(archive, progressive, k, ctx, m).hits.size();
      }
      for (int r = 0; r < reps; ++r) {
        base_ms.push_back(to_ms(timed_ns([&] {
                            for (int b = 0; b < batch; ++b) {
                              CostMeter m;
                              sink += seed_combined_top_k(archive, progressive, k, m).size();
                            }
                          })) /
                          batch);
        ctx_ms.push_back(to_ms(timed_ns([&] {
                           for (int b = 0; b < batch; ++b) {
                             CostMeter m;
                             QueryContext ctx;
                             sink +=
                                 progressive_combined_top_k(archive, progressive, k, ctx, m)
                                     .hits.size();
                           }
                         })) /
                         batch);
      }
      if (sink == 0) std::printf("unexpected empty results\n");
      const double base = median(base_ms);
      const double with_ctx = median(ctx_ms);
      std::printf("%6zu %6zu | %12.3f %12.3f | %+8.2f%%\n", tile, k, base, with_ctx,
                  100.0 * (with_ctx - base) / base);
    }
  }
}

void run_budget_sweep() {
  heading("D2: graceful degradation under shrinking budgets",
          "truncated queries return flagged prefixes with certified heads");

  SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = 32;
  const Scene scene = generate_scene(cfg);
  const std::vector<const Grid*> bands = {&scene.band("b4"), &scene.band("b5"),
                                          &scene.band("b7"), &scene.dem};
  std::vector<Interval> ranges;
  for (const Grid* band : bands) ranges.push_back(band->stats().range());
  const ProgressiveLinearModel progressive(hps_risk_model(), ranges);
  const TiledArchive archive(bands, 16);
  const std::size_t k = 100;

  // Full cost of the unbounded query, in charged units.
  QueryContext probe;
  CostMeter m_probe;
  (void)progressive_combined_top_k(archive, progressive, k, probe, m_probe);
  const std::uint64_t full_cost = probe.spent();

  std::printf("full query cost: %llu units\n\n",
              static_cast<unsigned long long>(full_cost));
  std::printf("%8s %10s | %-18s %6s %10s %14s\n", "budget", "% of full", "status", "hits",
              "certified", "missed bound");
  std::printf("----------------------------------------------------------------------\n");
  for (const double frac : {0.001, 0.01, 0.05, 0.25, 0.5, 1.0}) {
    const auto budget = static_cast<std::uint64_t>(static_cast<double>(full_cost) * frac);
    QueryContext ctx;
    ctx.with_op_budget(budget);
    CostMeter meter;
    const RasterTopK result = progressive_combined_top_k(archive, progressive, k, ctx, meter);
    std::printf("%8llu %9.1f%% | %-18s %6zu %10zu %14.4f\n",
                static_cast<unsigned long long>(budget), 100.0 * frac,
                to_string(result.status), result.hits.size(), result.certified_prefix(),
                result.missed_bound);
  }
}

}  // namespace

int main() {
  run_overhead_table();
  run_budget_sweep();
  footer();
  return 0;
}
