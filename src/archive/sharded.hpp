#pragma once
// Tile-aligned sharding of a TiledArchive — the first step from "parallel in
// one address space" toward a scale-out archive service.
//
// A shard is a *view*: a subset of the archive's global tile indices plus a
// summary (per-band range hull, pixel / bad-pixel counts) computed once at
// partition time.  Because shards are tile-aligned and keep global pixel
// coordinates, a scatter-gather execution over shards (engine/shard_exec.hpp)
// produces hits directly comparable — byte for byte — with the monolithic
// executors, which is what the shard-parity test battery relies on.
//
// Two placement policies:
//   * kRowBands — contiguous bands of tile rows.  Preserves scan locality:
//     a shard's tiles cover whole tile rows, so its scan-order leg
//     (exec::scan_tiles_full / scan_tiles_staged) hands the row kernel
//     whole archive rows in the serial scan's order — about a third of the
//     per-pixel cost of 32-pixel tile rows — and a one-shard layout scans
//     exactly like the serial executor.  Also gives each shard a tight
//     band-range hull; the default.
//   * kTileHash — tiles scattered by a multiplicative hash.  Destroys
//     locality on purpose: it models hash-placed storage backends and gives
//     the parity suite a worst-case layout where any merge bug that depends
//     on spatial adjacency must surface.
//
// Every tile belongs to exactly one shard (disjoint cover), so per-shard
// partial top-Ks union to the global candidate set and the per-shard missed
// bounds merge (max) into a sound global bound.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "archive/catalog.hpp"
#include "archive/tiled.hpp"
#include "util/interval.hpp"

namespace mmir {

/// How tiles are assigned to shards.
enum class ShardPolicy : std::uint8_t {
  kRowBands = 0,  ///< contiguous bands of tile rows
  kTileHash = 1,  ///< tiles scattered by hash of the tile index
};

[[nodiscard]] std::string_view shard_policy_name(ShardPolicy policy);

/// One shard: its tile subset and the ingest-time summary over it.
struct ShardInfo {
  std::size_t id = 0;
  std::vector<std::size_t> tiles;     ///< global tile indices, ascending
  /// Per-band hull over the shard's tiles — bounds every finite value in the
  /// shard, the shard-level analogue of TiledArchive::band_ranges().  Empty
  /// when the shard holds no tiles.
  std::vector<Interval> band_ranges;
  std::size_t pixel_count = 0;        ///< pixels covered by the shard's tiles
  std::uint64_t bad_pixels = 0;       ///< non-finite samples inside the shard
};

/// Non-owning partition of a TiledArchive into S tile-aligned shards.  The
/// archive must outlive the view.  Shard count may exceed the tile count;
/// surplus shards are empty and executors skip them.
class ShardedArchive {
 public:
  ShardedArchive(const TiledArchive& archive, std::size_t shard_count,
                 ShardPolicy policy = ShardPolicy::kRowBands);

  [[nodiscard]] const TiledArchive& archive() const noexcept { return archive_; }
  [[nodiscard]] ShardPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] const ShardInfo& shard(std::size_t s) const;
  [[nodiscard]] std::span<const ShardInfo> shards() const noexcept { return shards_; }

  /// Shard owning global tile `t`.
  [[nodiscard]] std::size_t owner_of_tile(std::size_t t) const;

  /// Compact non-zero tag identifying (policy, shard count) — the cache-key
  /// qualifier that keeps sharded results and per-shard tile bounds from
  /// aliasing their monolithic twins (0 is reserved for "not sharded").
  [[nodiscard]] std::uint32_t layout_tag() const noexcept {
    return ((static_cast<std::uint32_t>(policy_) + 1U) << 24U) |
           (static_cast<std::uint32_t>(shards_.size()) & 0xFFFFFFU);
  }

  /// Registers one catalog entry per shard, named "<base_name>/shard-<id>",
  /// carrying the placement policy and shard summary as attributes — the
  /// metadata-level view a retrieval planner filters on before touching data.
  void register_in(Catalog& catalog, std::string_view base_name) const;

 private:
  const TiledArchive& archive_;
  ShardPolicy policy_;
  std::vector<ShardInfo> shards_;
  std::vector<std::uint32_t> owner_;  ///< tile index -> shard id
};

}  // namespace mmir
