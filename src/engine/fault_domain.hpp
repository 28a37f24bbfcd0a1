#pragma once
// Shard fault domains: the vocabulary that turns every shard of a sharded
// scatter-gather execution into an independently failing unit.
//
// A ShardFaultPolicy gives each shard task its own *sub-deadline* and
// *attempt budget* inside the query's global envelope, plus optional hedged
// (speculative duplicate) execution of straggler shards.  A shard that times
// out or exhausts its attempts is mapped onto the existing Degraded/Shed
// status precedence by *widening the missed-score bound* to cover whatever
// the shard did not examine — the merged result stays sound (its certified
// prefix only shortens), and a slow shard degrades the answer instead of
// blocking it.  Deliberately NOT mapped to a truncated status: kShed/kTrunc*
// poison the whole merge via is_truncated(), while a fault is local to one
// shard.
//
// ShardChaos is the injection seam: a deterministic, seed-scheduled source
// of per-(shard, attempt) delay/fail/corrupt faults.  The contract is that a
// decision is a pure function of (seed, shard, attempt) — never of wall
// clock or thread interleaving — so a chaos schedule replays identically
// under any worker count (src/testing/fault_injector.hpp ChaosPolicy is the
// canonical implementation).  With chaos disabled and no faults firing, the
// fault-domain execution path returns byte-identical results to the plain
// scatter-gather (tests/test_chaos.cpp certifies both halves).
//
// Header-only and free of engine dependencies so mmir_testing can implement
// ShardChaos without linking mmir_engine.

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.hpp"

namespace mmir {

/// One injected fault kind for a single shard attempt.
enum class ShardFault : std::uint8_t {
  kNone = 0,
  kDelay,    ///< the attempt stalls for ShardFaultAction::delay before scanning
  kFail,     ///< the attempt aborts before examining anything (transient)
  kCorrupt,  ///< the attempt's partial is garbage and must be discarded
};

/// The chaos verdict for one (shard, attempt) pair.
struct ShardFaultAction {
  ShardFault kind = ShardFault::kNone;
  std::chrono::nanoseconds delay{0};  ///< meaningful for kDelay only
};

/// Deterministic per-shard fault source.  on_attempt() is called once per
/// execution attempt (hedge legs draw attempt ids offset by
/// kHedgeAttemptBase, so the duplicate sees an independent schedule) and
/// must be safe to call concurrently from pool workers.  Implementations
/// must derive the verdict purely from (their seed, shard, attempt).
class ShardChaos {
 public:
  virtual ~ShardChaos() = default;
  [[nodiscard]] virtual ShardFaultAction on_attempt(std::size_t shard,
                                                    int attempt) noexcept = 0;
};

/// Attempt-id offset of hedge legs: primary attempts are numbered
/// [0, max_attempts), the hedge duplicate draws [kHedgeAttemptBase, ...), so
/// a ShardChaos can target (or spare) either leg deterministically.
inline constexpr int kHedgeAttemptBase = 1000;

/// Per-shard fault envelope.  The zero-initialized default is inert: one
/// attempt, no sub-deadline, no hedging — the executors then take the plain
/// scatter-gather path unchanged.
struct ShardFaultPolicy {
  /// Wall-clock budget of ONE attempt at one shard; 0 = no sub-deadline.
  /// A tripped sub-deadline is retried while attempts remain, else the
  /// partial is kept as kDegraded with a widened missed bound.
  std::chrono::nanoseconds shard_timeout{0};
  /// Total attempts per shard leg (>= 1), shared by transient-failure
  /// retries and sub-deadline retries.
  int max_attempts = 1;
  /// Capped-backoff delays between attempts; jittered per (seed, shard,
  /// leg) so concurrent shard retries do not synchronize.
  std::chrono::microseconds retry_initial_backoff{50};
  std::chrono::microseconds retry_max_backoff{2000};
  std::uint64_t jitter_seed = 0x73686172642d6a69ULL;
  /// Hedged execution: once a shard's primary leg has run for hedge_delay
  /// without finishing cleanly, a speculative duplicate is launched; the
  /// first clean result wins and cancels the other leg.  Requires pool
  /// workers (a zero-worker pool runs shards inline, where a duplicate can
  /// never overlap the original and is pure overhead).
  bool hedge = false;
  std::chrono::nanoseconds hedge_delay{0};
};

/// Counters of one sharded execution's fault-domain events, returned on
/// ShardedTopK and mirrored into the metrics registry (engine_shard_*).
struct ShardFaultStats {
  std::uint64_t attempts = 0;         ///< scan attempts started (all legs)
  std::uint64_t retries = 0;          ///< attempts after the first of a leg
  std::uint64_t timeouts = 0;         ///< per-shard sub-deadlines tripped
  std::uint64_t faults_injected = 0;  ///< chaos actions != kNone observed
  std::uint64_t hedges_launched = 0;  ///< speculative duplicate legs started
  std::uint64_t hedges_won = 0;       ///< gathers that used the hedge leg
  std::uint64_t bounds_widened = 0;   ///< shards kept with a widened bound
  std::uint64_t failed_shards = 0;    ///< shards that contributed nothing
  std::uint64_t degraded_shards = 0;  ///< shards fault-degraded (incl. failed)

  [[nodiscard]] bool any_fault() const noexcept {
    return timeouts > 0 || faults_injected > 0 || failed_shards > 0 || bounds_widened > 0;
  }
};

/// The engine_shard_* counters a fault-domain execution mirrors its
/// ShardFaultStats into, resolved from the registry once (by the engine, at
/// construction) so a faulted scan publishes without a registry lookup.
class ShardFaultMetrics {
 public:
  ShardFaultMetrics() = default;
  explicit ShardFaultMetrics(obs::MetricsRegistry& registry)
      : attempts_(registry.counter("engine_shard_attempts_total")),
        retries_(registry.counter("engine_shard_retries_total")),
        timeouts_(registry.counter("engine_shard_timeouts_total")),
        faults_injected_(registry.counter("engine_shard_faults_injected_total")),
        hedges_(registry.counter("engine_shard_hedges_total")),
        hedge_wins_(registry.counter("engine_shard_hedge_wins_total")),
        bounds_widened_(registry.counter("engine_shard_bounds_widened_total")),
        failed_(registry.counter("engine_shard_failed_total")) {}

  void publish(const ShardFaultStats& stats) const noexcept {
    attempts_.add(stats.attempts);
    retries_.add(stats.retries);
    timeouts_.add(stats.timeouts);
    faults_injected_.add(stats.faults_injected);
    hedges_.add(stats.hedges_launched);
    hedge_wins_.add(stats.hedges_won);
    bounds_widened_.add(stats.bounds_widened);
    failed_.add(stats.failed_shards);
  }

 private:
  obs::Counter attempts_;
  obs::Counter retries_;
  obs::Counter timeouts_;
  obs::Counter faults_injected_;
  obs::Counter hedges_;
  obs::Counter hedge_wins_;
  obs::Counter bounds_widened_;
  obs::Counter failed_;
};

/// Options threaded into the sharded raster executors.  Null or inactive
/// options select the original scatter-gather path byte-for-byte.
struct ShardExecOptions {
  ShardFaultPolicy policy;
  ShardChaos* chaos = nullptr;                 ///< borrowed; may be null
  const ShardFaultMetrics* metrics = nullptr;  ///< borrowed; may be null

  /// Whether any fault-domain machinery is requested at all.
  [[nodiscard]] bool active() const noexcept {
    return chaos != nullptr || policy.shard_timeout.count() > 0 || policy.max_attempts > 1 ||
           policy.hedge;
  }
};

}  // namespace mmir
