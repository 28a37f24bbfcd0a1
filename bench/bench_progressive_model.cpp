// E5 — §4.2 model efficiency: "progressive model execution allows the
// reduction of the total complexity of the model from O(nN) to
// O(nN/(pm·pd)) where pm and pd are the effective complexity reduction
// ratios due to progressive execution of the models and data
// representations, respectively."
//
// The table runs the HPS risk model over tiled scenes with all four
// executors (baseline / model-leg only / data-leg only / combined), derives
// pm and pd per §4.2, and checks the multiplicative composition.  Sweeps the
// retrieval depth K and tile size (the data-representation granularity).
//
// A second table times the same runs: each executor's median wall time over
// kWallRuns runs (the four executors take turns within each run), and the
// baseline's wall time divided by each leg's, next to the same ratio in
// ops.  A leg whose wall ratio falls short of its ops ratio spends more
// time per op than the full scan does.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "archive/tiled.hpp"
#include "core/progressive_exec.hpp"
#include "data/scene.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "metrics/efficiency.hpp"

namespace {

using namespace mmir;
using namespace mmir::bench;

constexpr std::size_t kWallRuns = 31;

/// The table's four executors in column order — baseline (full scan),
/// model leg, data leg, combined — each running one query into a meter and
/// returning its hit count.
using Executor = std::function<std::size_t(CostMeter&)>;

std::array<Executor, 4> executors(const TiledArchive& archive,
                                  const LinearRasterModel& raster_model,
                                  const ProgressiveLinearModel& progressive, std::size_t k) {
  return {[&archive, &raster_model, k](CostMeter& m) {
            return full_scan_top_k(archive, raster_model, k, m).size();
          },
          [&archive, &progressive, k](CostMeter& m) {
            return progressive_model_top_k(archive, progressive, k, m).size();
          },
          [&archive, &raster_model, k](CostMeter& m) {
            return tile_screened_top_k(archive, raster_model, k, m).size();
          },
          [&archive, &progressive, k](CostMeter& m) {
            return progressive_combined_top_k(archive, progressive, k, m).size();
          }};
}

/// One line of the wall-time table.
struct WallLine {
  std::size_t tile = 0;
  std::size_t k = 0;
  std::array<double, 4> us{};          ///< median wall time per executor
  std::array<std::uint64_t, 4> ops{};  ///< ops per executor
};

void run_table() {
  heading("E5: progressive model execution O(nN) -> O(nN/(pm*pd))",
          "SS4.2 combined speedup is the product of the model leg (pm) and data leg (pd)");

  SceneConfig cfg;
  cfg.width = 512;
  cfg.height = 512;
  cfg.seed = 9;
  const Scene scene = generate_scene(cfg);
  const std::vector<const Grid*> bands = {&scene.band("b4"), &scene.band("b5"),
                                          &scene.band("b7"), &scene.dem};
  std::vector<Interval> ranges;
  for (const Grid* band : bands) ranges.push_back(band->stats().range());
  const LinearModel model = hps_risk_model();
  const ProgressiveLinearModel progressive(model, ranges);
  const LinearRasterModel raster_model(model);

  std::printf("%6s %6s | %12s %12s %12s %12s | %7s %7s %9s\n", "tile", "K", "baseline",
              "model-leg", "data-leg", "combined", "pm", "pd", "pm*pd");
  std::printf("%6s %6s | %12s %12s %12s %12s | %7s %7s %9s\n", "", "", "ops", "ops", "ops",
              "ops", "", "", "=speedup");
  std::printf(
      "--------------------------------------------------------------------------------------------\n");
  std::vector<WallLine> wall_lines;
  for (const std::size_t tile : {8ULL, 16ULL, 32ULL}) {
    const TiledArchive archive(bands, tile);
    for (const std::size_t k : {10ULL, 100ULL}) {
      const auto run = executors(archive, raster_model, progressive, k);
      std::array<CostMeter, 4> meters;
      WallLine line{tile, k};
      for (std::size_t e = 0; e < 4; ++e) {
        (void)run[e](meters[e]);
        line.ops[e] = meters[e].ops();
      }
      const EfficiencyReport report = efficiency_report("hps", meters[0], meters[1], meters[3]);
      std::printf("%6zu %6zu | %12lu %12lu %12lu %12lu | %6.2f %6.2f %8.2fx\n", tile, k,
                  static_cast<unsigned long>(line.ops[0]), static_cast<unsigned long>(line.ops[1]),
                  static_cast<unsigned long>(line.ops[2]), static_cast<unsigned long>(line.ops[3]),
                  report.pm, report.pd, report.measured_speedup);
      // The executors take turns within each run, so host drift hits all four alike.
      std::array<std::vector<double>, 4> samples;
      std::size_t sink = 0;  // keeps the answers alive
      for (std::size_t r = 0; r < kWallRuns; ++r) {
        for (std::size_t e = 0; e < 4; ++e) {
          samples[e].push_back(to_ms(timed_ns([&] {
                                 CostMeter m;
                                 sink += run[e](m);
                               })) *
                               1e3);
        }
      }
      if (sink == 0) std::printf("unexpected empty results\n");
      for (std::size_t e = 0; e < 4; ++e) line.us[e] = median(samples[e]);
      wall_lines.push_back(line);
    }
  }
  std::printf("\nwall time, median of %zu runs; ratio = baseline / leg\n", kWallRuns);
  std::printf("%6s %6s | %10s %10s %10s %10s | %21s | %21s\n", "tile", "K", "baseline",
              "model-leg", "data-leg", "combined", "wall ratio", "ops ratio");
  std::printf("%6s %6s | %10s %10s %10s %10s | %6s %6s %7s | %6s %6s %7s\n", "", "", "us", "us",
              "us", "us", "model", "data", "comb", "model", "data", "comb");
  std::printf("%s\n", std::string(98, '-').c_str());
  for (const WallLine& line : wall_lines) {
    const auto& us = line.us;
    const auto ops_ratio = [&](std::size_t e) {
      return ratio(static_cast<double>(line.ops[0]), static_cast<double>(line.ops[e]));
    };
    std::printf("%6zu %6zu | %10.1f %10.1f %10.1f %10.1f | %6.2f %6.2f %7.2f | %6.2f %6.2f %7.2f\n",
                line.tile, line.k, us[0], us[1], us[2], us[3], ratio(us[0], us[1]),
                ratio(us[0], us[2]), ratio(us[0], us[3]), ops_ratio(1), ops_ratio(2),
                ops_ratio(3));
  }
  std::printf(
      "\nshape check: each leg alone reduces ops; the combined run multiplies the two\n"
      "reductions (pm*pd == measured by the SS4.2 decomposition); smaller tiles give\n"
      "the data leg finer pruning; larger K weakens both legs.  Wall ratios are\n"
      "host-dependent; a wall ratio below 1.0 means the leg costs more time than\n"
      "the full scan it prunes.\n");
  footer();
}

}  // namespace

int main() {
  run_table();
  return 0;
}
