#pragma once
// Hardware-independent cost accounting.
//
// The paper reports speedups measured on the authors' testbed; we cannot
// reproduce their wall-clock numbers, so every retrieval engine in this
// library threads a CostMeter that counts *work*: data points touched, model
// operations executed, and bytes notionally read from the archive.  Speedup
// ratios computed from these counters reproduce the paper's *shape* on any
// host, and wall-clock is recorded alongside for reference.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace mmir {

/// Accumulates the work performed by one retrieval execution.
class CostMeter {
 public:
  /// Records that `n` archive data points (pixels, tuples, log samples,
  /// series days) were read and fed to some computation.
  void add_points(std::uint64_t n) noexcept { points_ += n; }

  /// Records `n` elementary model operations (multiply-adds, CPT lookups,
  /// FSM transitions, fuzzy evaluations).
  void add_ops(std::uint64_t n) noexcept { ops_ += n; }

  /// Records `n` bytes notionally transferred from archive storage.
  void add_bytes(std::uint64_t n) noexcept { bytes_ += n; }

  /// Records that one candidate was pruned without evaluation.
  void add_pruned(std::uint64_t n = 1) noexcept { pruned_ += n; }

  /// Records `n` engine-cache hits (whole-query results or tile summaries
  /// served without recomputation; see engine/cache.hpp).
  void add_cache_hits(std::uint64_t n = 1) noexcept { cache_hits_ += n; }

  /// Records `n` engine-cache misses (lookups that fell through to work).
  void add_cache_misses(std::uint64_t n = 1) noexcept { cache_misses_ += n; }

  void add_wall(std::chrono::nanoseconds d) noexcept { wall_ += d; }

  [[nodiscard]] std::uint64_t points() const noexcept { return points_; }
  [[nodiscard]] std::uint64_t ops() const noexcept { return ops_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t pruned() const noexcept { return pruned_; }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return cache_misses_; }
  [[nodiscard]] std::chrono::nanoseconds wall() const noexcept { return wall_; }
  [[nodiscard]] double wall_ms() const noexcept {
    return std::chrono::duration<double, std::milli>(wall_).count();
  }

  void reset() noexcept { *this = CostMeter{}; }

  CostMeter& operator+=(const CostMeter& other) noexcept {
    points_ += other.points_;
    ops_ += other.ops_;
    bytes_ += other.bytes_;
    pruned_ += other.pruned_;
    cache_hits_ += other.cache_hits_;
    cache_misses_ += other.cache_misses_;
    wall_ += other.wall_;
    return *this;
  }

  /// Folds another meter into this one — the reduction step of per-worker
  /// meter accounting: each worker of a parallel executor charges a private
  /// CostMeter with no synchronization, and the coordinating thread merges
  /// them after the join (see engine/parallel_exec.cpp).  Alias of
  /// operator+=; both sum every counter including cache hits/misses, and
  /// wall-clock sums too (so merged wall is aggregate CPU-ish time, not
  /// elapsed time — executors add elapsed time to the caller's meter via
  /// ScopedTimer instead).
  CostMeter& merge(const CostMeter& other) noexcept { return *this += other; }

 private:
  std::uint64_t points_ = 0;
  std::uint64_t ops_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t pruned_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::chrono::nanoseconds wall_{0};
};

/// Prints the work counters; cache hit/miss stats are appended only when the
/// meter saw any cache traffic (hits + misses > 0).
std::ostream& operator<<(std::ostream& os, const CostMeter& meter);

/// RAII timer adding its lifetime to a CostMeter's wall-clock on destruction.
/// Built on obs::ScopedTimerBase so meters, latency histograms, and bench
/// timings all read the same clock (obs/clock.hpp).
class ScopedTimer : public obs::ScopedTimerBase {
 public:
  explicit ScopedTimer(CostMeter& meter) noexcept : meter_(meter) {}
  ~ScopedTimer() { meter_.add_wall(elapsed()); }

 private:
  CostMeter& meter_;
};

/// Op cost of the §4.2 serial baseline: a full-model scan evaluates all N
/// model terms on every one of the n archive points, so its op count is
/// exactly n·N.  EXPLAIN (obs/explain.hpp) divides this by the measured op
/// count to report the achieved speedup next to the predicted pm·pd.
[[nodiscard]] constexpr std::uint64_t serial_baseline_ops(std::uint64_t total_points,
                                                          std::uint64_t model_terms) noexcept {
  return total_points * model_terms;
}

/// Registry-wide totals of completed executions' meters
/// (query_points_total, query_ops_total, ... — the registry "absorbing" the
/// ad-hoc CostMeter counters): per-query accounting stays on the meter,
/// fleet-wide aggregates live in the registry.  The counter handles are
/// resolved once, at construction, so publishing takes no registry lock;
/// a default-constructed MeterCounters publishes nowhere.
class MeterCounters {
 public:
  MeterCounters() = default;
  explicit MeterCounters(obs::MetricsRegistry& registry);

  /// Adds one completed execution's meter to the totals.
  void publish(const CostMeter& meter) const noexcept;

 private:
  obs::Counter points_;
  obs::Counter ops_;
  obs::Counter bytes_;
  obs::Counter pruned_;
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;
};

/// Baseline-vs-method comparison, as reported in the paper's evaluation.
struct SpeedupReport {
  std::string label;
  CostMeter baseline;
  CostMeter method;

  /// Work speedup as the paper reports it: points touched by the baseline
  /// over points touched by the method (>= 1 means the method wins).
  [[nodiscard]] double point_speedup() const noexcept;
  /// Operation-count speedup.
  [[nodiscard]] double op_speedup() const noexcept;
  /// Wall-clock speedup (host-dependent; shown for reference only).
  [[nodiscard]] double wall_speedup() const noexcept;
};

std::ostream& operator<<(std::ostream& os, const SpeedupReport& report);

}  // namespace mmir
