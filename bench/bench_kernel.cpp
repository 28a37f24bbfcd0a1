// L0 — the full-model scan kernel on its own (google-benchmark).
//
// Times exec::scan_rect_full over a whole 512×512 scene of 4 bands, k = 10,
// and reports
//
//   * time_per_px — wall time per scored pixel (ns/pixel);
//   * bytes_per_second — band-plane bytes scanned per second (pixels ·
//     bands · 8), i.e. the GB/s the kernel pulls from the planes.
//
// Two model paths: `linear` is the HPS-shaped LinearRasterModel the row
// kernel scores plane by plane; `per_pixel` is the same linear arithmetic
// behind an opaque RasterModel, which takes the per-pixel gather + virtual
// evaluate path every non-linear model uses.  Each runs under an unbounded
// context and under a budgeted one (an op budget of exactly the scan's
// cost, so the lease's last draws are headroom-limited and the scan still
// completes).
//
//   ./build/bench/bench_kernel [--benchmark_repetitions=5 ...]

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/exec_kernels.hpp"
#include "core/query_context.hpp"
#include "core/raster_model.hpp"
#include "linear/model.hpp"
#include "testing/scenario_gen.hpp"
#include "util/cost.hpp"
#include "util/topk.hpp"

namespace {

using namespace mmir;

constexpr std::size_t kSide = 512;
constexpr std::size_t kBands = 4;
constexpr std::size_t kTopK = 10;

const GeneratedArchive& scene() {
  static const GeneratedArchive archive = [] {
    ScenarioConfig cfg;
    cfg.kind = ScenarioKind::kDense;
    cfg.width = kSide;
    cfg.height = kSide;
    cfg.bands = kBands;
    cfg.tile_size = 64;
    cfg.seed = 512;
    return generate_scenario(cfg);
  }();
  return archive;
}

LinearModel kernel_model() {
  return LinearModel({0.443, 0.222, 0.153, 0.183}, 0.5, {"b0", "b1", "b2", "b3"});
}

/// The same arithmetic as LinearRasterModel, hidden from the row kernel:
/// every pixel goes through the per-pixel path.
class OpaqueLinearModel final : public RasterModel {
 public:
  explicit OpaqueLinearModel(LinearModel model) : model_(std::move(model)) {}
  [[nodiscard]] std::size_t bands() const override { return model_.dim(); }
  [[nodiscard]] double evaluate(std::span<const double> pixel) const override {
    return model_.evaluate(pixel);
  }
  [[nodiscard]] Interval bound(std::span<const Interval> ranges) const override {
    return model_.evaluate_interval(ranges);
  }
  [[nodiscard]] std::size_t ops_per_evaluation() const override { return model_.dim(); }

 private:
  LinearModel model_;
};

void scan_whole_scene(benchmark::State& state, const RasterModel& model, bool budgeted) {
  const TiledArchive& archive = scene().tiled();
  const std::uint64_t pixels = archive.pixel_count();
  const std::uint64_t cost = pixels * model.ops_per_evaluation();
  std::vector<double> row;
  for (auto _ : state) {
    QueryContext ctx;
    if (budgeted) ctx.with_op_budget(cost);
    CostMeter meter;
    exec::ScanTally tally;
    TopK<RasterHit> top(kTopK);
    exec::scan_rect_full(archive, model, 0, archive.width(), 0, archive.height(), top, row, ctx,
                         meter, tally);
    if (ctx.stopped() || tally.pixels != pixels) state.SkipWithError("scan did not complete");
    benchmark::DoNotOptimize(top.threshold());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * pixels *
                                                    archive.band_count() * sizeof(double)));
  // Pixels per second, inverted: seconds per pixel (printed as e.g. "2.1ns").
  state.counters["time_per_px"] = benchmark::Counter(
      static_cast<double>(pixels),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

void BM_ScanRectFull_Linear(benchmark::State& state) {
  const LinearRasterModel model(kernel_model());
  scan_whole_scene(state, model, state.range(0) != 0);
}

void BM_ScanRectFull_PerPixel(benchmark::State& state) {
  const OpaqueLinearModel model(kernel_model());
  scan_whole_scene(state, model, state.range(0) != 0);
}

BENCHMARK(BM_ScanRectFull_Linear)
    ->ArgName("budgeted")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScanRectFull_PerPixel)
    ->ArgName("budgeted")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
