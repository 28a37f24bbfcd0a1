#pragma once
// Sharded LRU cache for the concurrent query engine.
//
// A production archive sees heavily repeated traffic: the same model over
// the same archive at the same K (dashboards, retries, fan-out replicas).
// The engine therefore keeps one *whole-query result cache* keyed by
// (archive id, model fingerprint, K, executor mode, shard layout) — only
// Complete/Degraded results are admitted, since a truncated answer depends
// on the budget that produced it.  Per-tile screening bounds are not cached:
// the metadata pass costs one model-bound evaluation per tile, less than a
// cache probe would (exec::screen_tiles in core/exec_kernels.hpp).
//
// Sharding: each shard owns an independent mutex + LRU list + hash map, and
// a key's shard is a hash prefix — concurrent queries only contend when they
// collide on a shard.  Hit/miss/insert/evict counters are kept per shard and
// aggregated on demand; executions surface their own cache traffic through
// CostMeter::add_cache_hits/misses so per-query accounting composes with the
// merge()-based worker reduction.

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "util/error.hpp"

namespace mmir {

/// Aggregated counters of one cache (or one shard).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  CacheStats& operator+=(const CacheStats& other) noexcept {
    hits += other.hits;
    misses += other.misses;
    insertions += other.insertions;
    evictions += other.evictions;
    return *this;
  }

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

std::ostream& operator<<(std::ostream& os, const CacheStats& stats);

/// FNV-1a over raw bytes — the same hash family archive/io uses for its
/// checksum trailer; cheap, deterministic across runs, good enough for
/// fingerprinting model parameters.
[[nodiscard]] std::uint64_t fnv1a_bytes(const void* data, std::size_t size,
                                        std::uint64_t seed = 14695981039346656037ULL) noexcept;

/// Fingerprint of a linear model's parameters (weights + bias).
[[nodiscard]] std::uint64_t model_fingerprint(const LinearModel& model) noexcept;

/// Fingerprint of a progressive model: the underlying linear model plus the
/// stage order (two decompositions of one model screen differently).
[[nodiscard]] std::uint64_t model_fingerprint(const ProgressiveLinearModel& model) noexcept;

/// Key of one whole-query result: which archive, which model, which K, which
/// executor.  `mode` disambiguates executors because answers only agree
/// modulo exact ties.
struct QueryCacheKey {
  std::uint64_t archive_id = 0;
  std::uint64_t model_fp = 0;
  std::uint32_t k = 0;
  std::uint32_t mode = 0;
  /// ShardedArchive::layout_tag() of the execution's shard layout; 0 =
  /// monolithic.  Sharded and monolithic answers agree only modulo exact
  /// ties, so they must not alias one cache slot.
  std::uint32_t shard_layout = 0;

  friend bool operator==(const QueryCacheKey&, const QueryCacheKey&) = default;
};

struct QueryCacheKeyHash {
  std::size_t operator()(const QueryCacheKey& key) const noexcept {
    std::uint64_t h = fnv1a_bytes(&key.archive_id, sizeof(key.archive_id));
    h = fnv1a_bytes(&key.model_fp, sizeof(key.model_fp), h);
    h = fnv1a_bytes(&key.k, sizeof(key.k), h);
    h = fnv1a_bytes(&key.mode, sizeof(key.mode), h);
    return static_cast<std::size_t>(fnv1a_bytes(&key.shard_layout, sizeof(key.shard_layout), h));
  }
};

/// Thread-safe sharded LRU cache.  Values are returned by copy; cache large
/// payloads behind shared_ptr.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `capacity` entries total, split evenly across `shards` (each shard gets
  /// at least one slot, so tiny capacities still admit entries).
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 8)
      : shards_(std::max<std::size_t>(1, shards)) {
    MMIR_EXPECTS(capacity > 0);
    per_shard_capacity_ = std::max<std::size_t>(1, (capacity + shards_.size() - 1) / shards_.size());
  }

  /// Looks a key up, refreshing its recency; counts a hit or a miss.
  [[nodiscard]] std::optional<Value> get(const Key& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    ++shard.stats.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // move to front
    return it->second->second;
  }

  /// Inserts or refreshes an entry, evicting the shard's LRU tail on
  /// overflow.
  void put(const Key& key, Value value) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(key, shard.lru.begin());
    ++shard.stats.insertions;
    if (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.stats.evictions;
    }
  }

  /// Removes an entry if present (e.g. after archive invalidation).
  bool erase(const Key& key) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) return false;
    shard.lru.erase(it->second);
    shard.index.erase(it);
    return true;
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.lru.clear();
      shard.index.clear();
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      n += shard.lru.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return per_shard_capacity_ * shards_.size();
  }

  /// Aggregated hit/miss/insert/evict counters across shards.
  [[nodiscard]] CacheStats stats() const {
    CacheStats total;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.stats;
    }
    return total;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::list<std::pair<Key, Value>> lru;  ///< front = most recently used
    std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator, Hash> index;
    CacheStats stats;
  };

  Shard& shard_for(const Key& key) {
    return shards_[Hash{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t per_shard_capacity_ = 0;
};

}  // namespace mmir
