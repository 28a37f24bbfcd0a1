#pragma once
// Seeded procedural archive generator for fuzz/parity batteries.
//
// Each scenario kind manufactures a raster archive with a specific shape of
// trouble for the executors:
//
//   * kSparse           — near-flat background with a small seeded fraction of
//                         hot spikes; exercises screening (most tiles prune).
//   * kDense            — smooth gradients + noise, scores vary everywhere;
//                         nothing prunes, full scans dominate.
//   * kConstantTile     — every tile is a per-band constant from a quantized
//                         palette; tile hi == lo, so whole tiles tie against
//                         the threshold (prune/scan knife-edge).
//   * kAllNaNBand       — one band is entirely NaN; every pixel evaluates
//                         non-finite, results must be empty-but-degraded with
//                         every visit counted in bad_points.
//   * kAntiCorrelatedBand — band 1 is the mirror of band 0, making interval
//                         bounds maximally loose relative to realized scores
//                         (screening admits tiles it can rarely profit from).
//   * kTieStorm         — all values drawn from a tiny quantized palette, so
//                         integer-weight models collide constantly; stresses
//                         the canonical (score, pixel-rank) tie-break.
//
// Generation is a pure function of ScenarioConfig (seed included): the same
// config reproduces the same archive on any host, which is what lets a test
// report failures as replayable seeds.  Generators self-check their target
// densities with MMIR_EXPECTS so a drifting generator fails loudly in the
// suite that uses it rather than silently weakening the battery.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "archive/tiled.hpp"
#include "data/grid.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mmir {

enum class ScenarioKind : std::uint8_t {
  kSparse = 0,
  kDense = 1,
  kConstantTile = 2,
  kAllNaNBand = 3,
  kAntiCorrelatedBand = 4,
  kTieStorm = 5,
};

constexpr ScenarioKind kAllScenarioKinds[] = {
    ScenarioKind::kSparse,          ScenarioKind::kDense,
    ScenarioKind::kConstantTile,    ScenarioKind::kAllNaNBand,
    ScenarioKind::kAntiCorrelatedBand, ScenarioKind::kTieStorm,
};

[[nodiscard]] constexpr const char* scenario_name(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kSparse: return "sparse";
    case ScenarioKind::kDense: return "dense";
    case ScenarioKind::kConstantTile: return "constant_tile";
    case ScenarioKind::kAllNaNBand: return "all_nan_band";
    case ScenarioKind::kAntiCorrelatedBand: return "anti_correlated";
    case ScenarioKind::kTieStorm: return "tie_storm";
  }
  return "unknown";
}

struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kDense;
  std::size_t width = 64;
  std::size_t height = 48;
  std::size_t bands = 4;
  std::size_t tile_size = 16;
  std::uint64_t seed = 1;
  /// Target fraction of hot pixels for kSparse (checked within tolerance).
  double sparse_density = 0.02;
  /// Palette size for kConstantTile / kTieStorm quantization.
  std::size_t palette_levels = 5;
};

/// An archive plus the band storage it views.  Movable (Grid elements live on
/// the vector's heap buffer, so their addresses — and the archive's pointers
/// into them — survive a move of the owner).
struct GeneratedArchive {
  ScenarioConfig config;
  std::vector<Grid> grids;
  std::unique_ptr<TiledArchive> archive;

  [[nodiscard]] const TiledArchive& tiled() const noexcept { return *archive; }
};

namespace detail {

inline void fill_sparse(std::vector<Grid>& grids, const ScenarioConfig& cfg, Rng& rng) {
  MMIR_EXPECTS(cfg.sparse_density > 0.0 && cfg.sparse_density < 0.5);
  std::size_t hot = 0;
  const std::size_t pixels = cfg.width * cfg.height;
  for (std::size_t y = 0; y < cfg.height; ++y) {
    for (std::size_t x = 0; x < cfg.width; ++x) {
      const bool spike = rng.bernoulli(cfg.sparse_density);
      hot += spike ? 1 : 0;
      for (Grid& g : grids) {
        const double base = rng.uniform(-0.05, 0.05);
        g.at(x, y) = spike ? 10.0 + rng.uniform(0.0, 5.0) : base;
      }
    }
  }
  // Bernoulli sampling hits the target only in expectation; allow 3 sigma of
  // binomial spread plus absolute slack for tiny scenes before declaring the
  // generator broken.
  const double expected = cfg.sparse_density * static_cast<double>(pixels);
  const double sigma = std::sqrt(expected * (1.0 - cfg.sparse_density));
  const double slack = 3.0 * sigma + 4.0;
  MMIR_EXPECTS(std::abs(static_cast<double>(hot) - expected) <= slack);
}

inline void fill_dense(std::vector<Grid>& grids, const ScenarioConfig& cfg, Rng& rng) {
  for (std::size_t b = 0; b < grids.size(); ++b) {
    Grid& g = grids[b];
    const double fx = rng.uniform(0.5, 3.0);
    const double fy = rng.uniform(0.5, 3.0);
    for (std::size_t y = 0; y < cfg.height; ++y) {
      for (std::size_t x = 0; x < cfg.width; ++x) {
        const double u = static_cast<double>(x) / static_cast<double>(cfg.width);
        const double v = static_cast<double>(y) / static_cast<double>(cfg.height);
        g.at(x, y) = std::sin(fx * u * 6.28318530717958647692) +
                     std::cos(fy * v * 6.28318530717958647692) + rng.normal() * 0.2;
      }
    }
  }
}

inline void fill_constant_tile(std::vector<Grid>& grids, const ScenarioConfig& cfg, Rng& rng) {
  MMIR_EXPECTS(cfg.palette_levels >= 2);
  for (std::size_t ty = 0; ty * cfg.tile_size < cfg.height; ++ty) {
    for (std::size_t tx = 0; tx * cfg.tile_size < cfg.width; ++tx) {
      for (Grid& g : grids) {
        const double level =
            static_cast<double>(rng.uniform_int(cfg.palette_levels)) /
            static_cast<double>(cfg.palette_levels - 1);
        for (std::size_t y = ty * cfg.tile_size;
             y < std::min(cfg.height, (ty + 1) * cfg.tile_size); ++y) {
          for (std::size_t x = tx * cfg.tile_size;
               x < std::min(cfg.width, (tx + 1) * cfg.tile_size); ++x) {
            g.at(x, y) = level;
          }
        }
      }
    }
  }
}

inline void fill_tie_storm(std::vector<Grid>& grids, const ScenarioConfig& cfg, Rng& rng) {
  MMIR_EXPECTS(cfg.palette_levels >= 2);
  for (Grid& g : grids) {
    for (std::size_t y = 0; y < cfg.height; ++y) {
      for (std::size_t x = 0; x < cfg.width; ++x) {
        // Quarter-integer palette values are exactly representable, so equal
        // palette picks produce exactly equal scores under integer-weight
        // models — real ties, not epsilon-near ones.
        g.at(x, y) = 0.25 * static_cast<double>(rng.uniform_int(cfg.palette_levels));
      }
    }
  }
}

inline void fill_anti_correlated(std::vector<Grid>& grids, const ScenarioConfig& cfg, Rng& rng) {
  MMIR_EXPECTS(grids.size() >= 2);
  for (std::size_t y = 0; y < cfg.height; ++y) {
    for (std::size_t x = 0; x < cfg.width; ++x) {
      const double u = rng.uniform(0.0, 1.0);
      grids[0].at(x, y) = u;
      grids[1].at(x, y) = 1.0 - u;  // exact mirror: b0 + b1 == 1 everywhere
      for (std::size_t b = 2; b < grids.size(); ++b) grids[b].at(x, y) = rng.normal() * 0.1;
    }
  }
}

}  // namespace detail

/// Builds the configured scenario.  Pure in the config: same config, same
/// archive bytes.
[[nodiscard]] inline GeneratedArchive generate_scenario(const ScenarioConfig& cfg) {
  MMIR_EXPECTS(cfg.width > 0 && cfg.height > 0);
  MMIR_EXPECTS(cfg.bands >= 2);
  MMIR_EXPECTS(cfg.tile_size > 0);
  GeneratedArchive out;
  out.config = cfg;
  out.grids.reserve(cfg.bands);
  for (std::size_t b = 0; b < cfg.bands; ++b) out.grids.emplace_back(cfg.width, cfg.height);

  Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(cfg.kind) + 1);
  switch (cfg.kind) {
    case ScenarioKind::kSparse:
      detail::fill_sparse(out.grids, cfg, rng);
      break;
    case ScenarioKind::kDense:
      detail::fill_dense(out.grids, cfg, rng);
      break;
    case ScenarioKind::kConstantTile:
      detail::fill_constant_tile(out.grids, cfg, rng);
      break;
    case ScenarioKind::kAllNaNBand:
      detail::fill_dense(out.grids, cfg, rng);
      for (std::size_t y = 0; y < cfg.height; ++y) {
        for (std::size_t x = 0; x < cfg.width; ++x) {
          out.grids.back().at(x, y) = std::numeric_limits<double>::quiet_NaN();
        }
      }
      break;
    case ScenarioKind::kAntiCorrelatedBand:
      detail::fill_anti_correlated(out.grids, cfg, rng);
      break;
    case ScenarioKind::kTieStorm:
      detail::fill_tie_storm(out.grids, cfg, rng);
      break;
  }

  std::vector<const Grid*> band_ptrs;
  band_ptrs.reserve(out.grids.size());
  for (const Grid& g : out.grids) band_ptrs.push_back(&g);
  out.archive = std::make_unique<TiledArchive>(std::move(band_ptrs), cfg.tile_size);

  // Post-construction density checks against the archive's own summaries:
  // the generator's promise, verified through the same lens executors use.
  const TiledArchive& archive = *out.archive;
  if (cfg.kind == ScenarioKind::kAllNaNBand) {
    MMIR_EXPECTS(archive.bad_pixel_count() == cfg.width * cfg.height);
  } else {
    MMIR_EXPECTS(archive.bad_pixel_count() == 0);
  }
  if (cfg.kind == ScenarioKind::kConstantTile) {
    for (const TileSummary& tile : archive.tiles()) {
      for (const Interval& r : tile.band_range) MMIR_EXPECTS(r.lo == r.hi);
    }
  }
  return out;
}

/// The exact-tie archives shared by the shard, net and router parity
/// batteries: tie-storm and constant-tile scenes, under integer-weight models,
/// make whole runs of pixels score identically, so the canonical pixel-rank
/// tie-break decides the answer.  A shard server registers these after the
/// scene pool, which is why both ends of the wire build them from this list.
[[nodiscard]] inline std::vector<ScenarioConfig> tie_parity_scenarios() {
  std::vector<ScenarioConfig> out;
  const auto add = [&](ScenarioKind kind, std::size_t width, std::size_t height,
                       std::size_t tile, std::uint64_t seed) {
    ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.width = width;
    cfg.height = height;
    cfg.tile_size = tile;
    cfg.seed = seed;
    out.push_back(cfg);
  };
  add(ScenarioKind::kTieStorm, 40, 30, 8, 301);
  add(ScenarioKind::kConstantTile, 48, 36, 8, 302);
  add(ScenarioKind::kTieStorm, 36, 52, 16, 303);
  add(ScenarioKind::kConstantTile, 44, 28, 4, 304);
  return out;
}

}  // namespace mmir
