// L0 — the full-model scan kernel on its own (google-benchmark).
//
// Times exec::scan_rect_full over a 512×512 scene of 4 bands, k = 10, and
// reports
//
//   * time_per_px — wall time per scored pixel (ns/pixel);
//   * bytes_per_second — band-plane bytes scanned per second (pixels ·
//     bands · 8), i.e. the GB/s the kernel pulls from the planes.
//
// Two model paths: `linear` is the HPS-shaped LinearRasterModel the row
// kernel scores in its fused pass; `per_pixel` is the same linear
// arithmetic behind an opaque RasterModel, which takes the per-pixel
// gather + virtual evaluate path every non-linear model uses.  Each runs
// whole rows under an unbounded context and under a budgeted one (an op
// budget of exactly the scan's cost, so the lease's last draws are
// headroom-limited and the scan still completes).
//
// `BM_ScanLinear_Runs` times the linear path at the run shapes the other
// executors hand the kernel: `run:32` scans the scene tile by tile (32×32,
// one scan_rect_full and one lease per tile, as every tile-screened path
// does), `run:512` whole rows; `nan:1` poisons one band of 1%
// of the pixels, so the blocks holding them take the per-pixel offer loop.
//
// `BM_ScanLinear_Shared` times the same whole-row scan for `members`
// linear models at once through the rows × members loop
// (exec::scan_rect_full over a member span, what a batch group's shared
// full-scan pass runs): each member is the HPS model with perturbed
// weights, under its own unbounded context and heap.  time_per_px is per
// pixel per member, so `members:1` is comparable with
// BM_ScanRectFull_Linear and a smaller figure at 4 or 16 members is the
// plane read those members shared.  The shared pass gains only where a
// member's block bounds rarely reach its heap threshold; `signs:1` gives
// every weight a random sign (a sign-flipped model is also what a
// bottom-k query scans), so a bound mixes band extremes taken from
// different pixels and is looser than the similar models' of `signs:0`.
//
// `BM_ScanShardLeg` times the tile-list walker every shard leg runs
// (exec::scan_tiles_full) over shard 0 of the same bands tiled at 32 and
// split into 4 shards, the fleet scene's layout: `tile_hash:0` is a
// row-band shard, whose spans are whole rows; `tile_hash:1` a tile-hash
// shard, where only adjacent tiles merge into a span.  time_per_px is per
// pixel of the shard.
//
// `BM_ScanRectStaged` times the staged kernel (scan_rect_staged, the model
// leg of §3.1) over the same whole rows, abandoning pixels against the local
// heap threshold as progressive_model_top_k does; time_per_px is per pixel
// scanned, and `ops_per_px` the model terms it computed per pixel.
//
// The report's context carries `kernel_isa` (exec::kernel_isa(): "avx2" or
// "baseline"), the instruction set the fused linear pass ran on.
//
//   ./build/bench/bench_kernel [--benchmark_repetitions=5 ...]

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "archive/sharded.hpp"
#include "core/exec_kernels.hpp"
#include "core/query_context.hpp"
#include "core/raster_model.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "testing/scenario_gen.hpp"
#include "util/cost.hpp"
#include "util/rng.hpp"
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

/// scene() with one band of 1% of its pixels set to NaN.
const TiledArchive& nan_scene() {
  struct Poisoned {
    std::vector<Grid> grids;
    std::unique_ptr<TiledArchive> archive;
  };
  static const Poisoned poisoned = [] {
    Poisoned p{scene().grids, nullptr};
    Rng rng(513);
    for (std::size_t y = 0; y < kSide; ++y) {
      for (std::size_t x = 0; x < kSide; ++x) {
        if (rng.bernoulli(0.01)) {
          p.grids[rng.uniform_int(kBands)].at(x, y) = std::numeric_limits<double>::quiet_NaN();
        }
      }
    }
    std::vector<const Grid*> bands;
    for (const Grid& g : p.grids) bands.push_back(&g);
    p.archive = std::make_unique<TiledArchive>(std::move(bands), scene().config.tile_size);
    return p;
  }();
  return *poisoned.archive;
}

/// scene()'s bands tiled at 32.
const TiledArchive& scene_tile32() {
  static const std::unique_ptr<TiledArchive> archive = [] {
    std::vector<const Grid*> bands;
    for (const Grid& g : scene().grids) bands.push_back(&g);
    return std::make_unique<TiledArchive>(std::move(bands), 32);
  }();
  return *archive;
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

/// Seconds per pixel, inverted from a pixels-per-second rate (printed as
/// e.g. "2.1ns").
benchmark::Counter time_per_px(std::uint64_t pixels) {
  return benchmark::Counter(static_cast<double>(pixels),
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

/// Scans the whole of `archive` in `run`-wide square tiles, row-major (a
/// run as wide as the scene scans whole rows in one call).
void scan_scene(benchmark::State& state, const TiledArchive& archive, const RasterModel& model,
                bool budgeted, std::size_t run) {
  const std::uint64_t pixels = archive.pixel_count();
  const std::uint64_t cost = pixels * model.ops_per_evaluation();
  const std::size_t tile_h = run < archive.width() ? run : archive.height();
  std::vector<double> row;
  for (auto _ : state) {
    QueryContext ctx;
    if (budgeted) ctx.with_op_budget(cost);
    CostMeter meter;
    exec::ScanTally tally;
    TopK<RasterHit> top(kTopK);
    for (std::size_t y0 = 0; y0 < archive.height(); y0 += tile_h) {
      for (std::size_t x0 = 0; x0 < archive.width(); x0 += run) {
        exec::scan_rect_full(archive, model, x0, std::min(x0 + run, archive.width()), y0,
                             std::min(y0 + tile_h, archive.height()), top, row, ctx, meter,
                             tally);
      }
    }
    if (ctx.stopped() || tally.pixels != pixels) state.SkipWithError("scan did not complete");
    benchmark::DoNotOptimize(top.threshold());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * pixels *
                                                    archive.band_count() * sizeof(double)));
  state.counters["time_per_px"] = time_per_px(pixels);
}

void BM_ScanRectFull_Linear(benchmark::State& state) {
  const LinearRasterModel model(kernel_model());
  scan_scene(state, scene().tiled(), model, state.range(0) != 0, kSide);
}

void BM_ScanRectFull_PerPixel(benchmark::State& state) {
  const OpaqueLinearModel model(kernel_model());
  scan_scene(state, scene().tiled(), model, state.range(0) != 0, kSide);
}

void BM_ScanLinear_Runs(benchmark::State& state) {
  const LinearRasterModel model(kernel_model());
  const TiledArchive& archive = state.range(1) != 0 ? nan_scene() : scene().tiled();
  scan_scene(state, archive, model, false, static_cast<std::size_t>(state.range(0)));
}

void BM_ScanLinear_Shared(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const TiledArchive& archive = scene().tiled();
  std::vector<LinearRasterModel> models;
  Rng rng(514);
  for (std::size_t j = 0; j < count; ++j) {
    const LinearModel hps = kernel_model();
    std::vector<double> weights(hps.weights().begin(), hps.weights().end());
    for (double& w : weights) {
      w *= rng.uniform(0.8, 1.2);
      if (state.range(1) != 0 && rng.bernoulli(0.5)) w = -w;
    }
    models.emplace_back(LinearModel(std::move(weights), hps.bias(), {"b0", "b1", "b2", "b3"}));
  }
  const std::uint64_t pixels = archive.pixel_count();
  std::vector<std::vector<double>> rows(count);
  for (auto _ : state) {
    std::vector<QueryContext> contexts(count);
    std::vector<CostMeter> meters(count);
    std::vector<exec::ScanTally> tallies(count);
    std::vector<TopK<RasterHit>> tops(count, TopK<RasterHit>(kTopK));
    std::vector<exec::ScanMember> members;
    for (std::size_t j = 0; j < count; ++j) {
      members.push_back({&models[j], &tops[j], &rows[j], &contexts[j], &meters[j], &tallies[j]});
    }
    exec::scan_rect_full(archive, 0, archive.width(), 0, archive.height(), members);
    for (std::size_t j = 0; j < count; ++j) {
      if (contexts[j].stopped() || tallies[j].pixels != pixels) {
        state.SkipWithError("scan did not complete");
      }
      benchmark::DoNotOptimize(tops[j].threshold());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * pixels *
                                                    archive.band_count() * sizeof(double)));
  state.counters["time_per_px"] = time_per_px(pixels * count);
}

void BM_ScanShardLeg(benchmark::State& state) {
  const LinearRasterModel model(kernel_model());
  const TiledArchive& archive = scene_tile32();
  const ShardedArchive sharded(
      archive, 4, state.range(0) != 0 ? ShardPolicy::kTileHash : ShardPolicy::kRowBands);
  const ShardInfo& shard = sharded.shard(0);
  for (auto _ : state) {
    QueryContext ctx;
    CostMeter meter;
    exec::ScanTally tally;
    TopK<RasterHit> top(kTopK);
    exec::scan_tiles_full(archive, model, shard.tiles, top, ctx, meter, tally);
    if (ctx.stopped() || tally.pixels != shard.pixel_count) {
      state.SkipWithError("scan did not complete");
    }
    benchmark::DoNotOptimize(top.threshold());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * shard.pixel_count *
                                                    archive.band_count() * sizeof(double)));
  state.counters["time_per_px"] = time_per_px(shard.pixel_count);
}

void BM_ScanRectStaged(benchmark::State& state) {
  const TiledArchive& archive = scene().tiled();
  const ProgressiveLinearModel model(
      kernel_model(), {archive.band_ranges().begin(), archive.band_ranges().end()});
  const std::uint64_t pixels = archive.pixel_count();
  std::uint64_t ops = 0;
  for (auto _ : state) {
    QueryContext ctx;
    CostMeter meter;
    exec::ScanTally tally;
    TopK<RasterHit> top(kTopK);
    exec::scan_rect_staged(
        archive, model, 0, archive.width(), 0, archive.height(), top,
        [&] { return top.threshold(); }, [] {}, ctx, meter, tally);
    if (ctx.stopped() || tally.pixels != pixels) state.SkipWithError("scan did not complete");
    ops = meter.ops();
    benchmark::DoNotOptimize(top.threshold());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * pixels *
                                                    archive.band_count() * sizeof(double)));
  state.counters["time_per_px"] = time_per_px(pixels);
  state.counters["ops_per_px"] = static_cast<double>(ops) / static_cast<double>(pixels);
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
BENCHMARK(BM_ScanLinear_Runs)
    ->ArgNames({"run", "nan"})
    ->ArgsProduct({{32, kSide}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScanLinear_Shared)
    ->ArgNames({"members", "signs"})
    ->ArgsProduct({{1, 4, 16}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ScanShardLeg)->ArgName("tile_hash")->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

BENCHMARK(BM_ScanRectStaged)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("kernel_isa", std::string(exec::kernel_isa()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
