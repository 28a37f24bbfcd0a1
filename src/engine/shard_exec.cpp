#include "engine/shard_exec.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sproc/brute.hpp"
#include "sproc/fast_sproc.hpp"
#include "sproc/sproc.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace mmir {

namespace {

using exec::kNegInf;
using exec::SharedThreshold;

constexpr double kPosInf = std::numeric_limits<double>::infinity();

/// Per-shard accumulation state.  Indexed by shard id — each shard is
/// processed by exactly one pool slot, so no synchronization is needed until
/// the gather (parallel_for's completion handshake publishes the writes).
/// Cache-line aligned for the same reason as the tile-parallel WorkerState:
/// every pixel writes the shard's meter and tally.
struct alignas(64) ShardRun {
  explicit ShardRun(std::size_t k) : top(k) {}
  TopK<RasterHit> top;
  CostMeter meter;
  exec::ScanTally tally;
  std::uint64_t scan_ops = 0;
  std::uint64_t tiles_scanned = 0;
  std::uint64_t tiles_pruned = 0;
  ResultStatus status = ResultStatus::kComplete;
  double missed_bound = kNegInf;
};

/// Shard-level completion status: degraded when the shard carries poisoned
/// samples anywhere in its tiles (a pruned tile's NaN could have been
/// anything), matching the archive-level rule of exec::completion_status so
/// the merged disposition agrees with the monolithic executors.
ResultStatus shard_completion_status(const ShardInfo& shard, std::uint64_t bad_points) {
  return bad_points > 0 || shard.bad_pixels > 0 ? ResultStatus::kDegraded
                                                : ResultStatus::kComplete;
}

/// The EXPLAIN stage row of one shard: items examined/pruned (pixels whose
/// evaluation began vs never touched), tile traffic, ops, disposition.
void annotate_shard(const obs::Span& span, const ShardInfo& shard, const ShardRun& run) {
  if (!span.active()) return;
  span.annotate("shard", static_cast<double>(shard.id));
  span.annotate("items_examined", static_cast<double>(run.tally.pixels));
  span.annotate("items_pruned",
                static_cast<double>(shard.pixel_count - std::min<std::uint64_t>(
                                                            shard.pixel_count, run.tally.pixels)));
  span.annotate("tiles_scanned", static_cast<double>(run.tiles_scanned));
  span.annotate("tiles_pruned", static_cast<double>(run.tiles_pruned));
  span.annotate("meter_ops", static_cast<double>(run.meter.ops()));
  span.note("status", to_string(run.status));
}

/// Sound upper bound on `model` anywhere in the shard (finite data only):
/// the missed bound of a leg that never started, or that stopped while
/// scanning in an order that says nothing about the pixels it left.
double whole_shard_bound(const RasterModel& model, const ShardInfo& shard) {
  return model.bound(shard.band_ranges).hi;
}

/// whole_shard_bound for the staged model leg.
double whole_shard_bound(const ProgressiveLinearModel& model, const ShardInfo& shard) {
  return model.model().evaluate_interval(shard.band_ranges).hi;
}

/// Closes a scan-order leg after its walk: scan ops since `ops_before`, and
/// the leg's status.  A truncated leg reports the whole shard's bound,
/// bound(): scan order says nothing about the pixels it left.
template <typename Bound>
void close_scan_order_leg(const ShardInfo& shard, ShardRun& run, QueryContext& ctx,
                          std::uint64_t ops_before, Bound&& bound) {
  run.scan_ops = run.meter.ops() - ops_before;
  if (ctx.stopped()) {
    run.status = ctx.stop_reason();
    run.missed_bound = bound();
  } else {
    run.status = shard_completion_status(shard, run.tally.bad_points);
  }
}

/// The full-scan leg of one shard, in-process and remote alike: the
/// shard's tile list as whole-row spans (exec::scan_tiles_full).
void full_scan_leg(const TiledArchive& archive, const RasterModel& model, const ShardInfo& shard,
                   ShardRun& run, QueryContext& ctx) {
  const std::uint64_t ops_before = run.meter.ops();
  run.tiles_scanned =
      exec::scan_tiles_full(archive, model, shard.tiles, run.top, ctx, run.meter, run.tally);
  close_scan_order_leg(shard, run, ctx, ops_before,
                       [&] { return whole_shard_bound(model, shard); });
}

/// The staged (model-leg) scan of one shard, in-process and remote alike:
/// exec::scan_tiles_staged, abandoning against the better of the shard's
/// own heap and `shared`.
void staged_scan_leg(const TiledArchive& archive, const ProgressiveLinearModel& model,
                     const ShardInfo& shard, ShardRun& run, SharedThreshold& shared,
                     QueryContext& ctx) {
  const std::uint64_t ops_before = run.meter.ops();
  run.tiles_scanned = exec::scan_tiles_staged(
      archive, model, shard.tiles, run.top,
      [&] { return std::max(run.top.threshold(), shared.get()); },
      [&] {
        if (run.top.full()) shared.raise(run.top.threshold());
      },
      ctx, run.meter, run.tally);
  close_scan_order_leg(shard, run, ctx, ops_before,
                       [&] { return whole_shard_bound(model, shard); });
}

// --------------------------------------------------------------- fault domains
//
// When a ShardExecOptions with an active policy/chaos hook is threaded in,
// each shard runs as an independent fault domain (see engine/fault_domain.hpp
// and DESIGN.md §6f): per-attempt child QueryContexts chained under the
// query's global context carry the per-shard sub-deadline and the hedge
// cancellation flag; transient failures retry under jittered capped backoff;
// straggler shards optionally get a hedged duplicate through the pool's
// urgent lane.  A shard that exhausts its attempts is folded into the merge
// as kDegraded with its whole-shard bound — widening the merged missed bound
// shortens the certified prefix but never corrupts it.

/// One execution leg (primary or hedge duplicate) of one shard.  The leg's
/// task is the only writer until the completion handshake publishes it to
/// the gather; `cancel` is the cross-leg seam (set by the sibling's winning
/// CAS, read through the leg's child context).
struct LegState {
  explicit LegState(std::size_t k) : run(k) {}
  ShardRun run;
  std::atomic<bool> cancel{false};
  bool ok = false;       ///< produced a usable (possibly widened) partial
  bool clean = false;    ///< ok with no fault-driven widening
  std::uint32_t attempts = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t faults = 0;
  ShardFault last_fault = ShardFault::kNone;
  bool widened = false;  ///< missed bound widened by timeout / fault
};

/// Both legs of one shard plus the first-clean-result-wins race state.
/// Holds atomics, so slots are heap-allocated (vector elements must move).
struct ShardSlot {
  explicit ShardSlot(std::size_t k) : primary(k), hedge(k) {}
  LegState primary;
  LegState hedge;
  std::atomic<bool> primary_finished{false};  ///< release-published leg fields
  std::atomic<int> winner{-1};                ///< leg id of the first clean finisher
  bool hedge_launched = false;                ///< coordinator-thread only
};

const char* fault_name(ShardFault fault) {
  switch (fault) {
    case ShardFault::kDelay:
      return "delay";
    case ShardFault::kFail:
      return "fail";
    case ShardFault::kCorrupt:
      return "corrupt";
    case ShardFault::kNone:
      break;
  }
  return "none";
}

/// Sleeps up to `total`, waking early when the leg is cancelled, the global
/// context stopped, or the attempt's sub-context expired — an injected delay
/// or retry backoff must never stall the query past its envelope or defeat
/// hedge cancellation.  Polling in slices keeps this dependency-free (no
/// per-leg condition variable); 100us granularity is far below any
/// meaningful shard timeout.
void interruptible_wait(std::chrono::nanoseconds total, const std::atomic<bool>& cancel,
                        QueryContext& global, QueryContext* sub) {
  const auto deadline = std::chrono::steady_clock::now() + total;
  constexpr auto kSlice = std::chrono::microseconds(100);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancel.load(std::memory_order_relaxed)) return;
    if (global.stopped()) return;
    if (sub != nullptr && sub->expired()) return;
    std::this_thread::sleep_for(kSlice);
  }
}

/// The per-leg EXPLAIN row: the plain shard counters plus the fault-domain
/// events the leg observed.
void annotate_leg(const obs::Span& span, const ShardInfo& shard, const LegState& leg) {
  annotate_shard(span, shard, leg.run);
  if (!span.active()) return;
  span.annotate("attempts", static_cast<double>(leg.attempts));
  span.annotate("timeouts", static_cast<double>(leg.timeouts));
  span.annotate("faults_injected", static_cast<double>(leg.faults));
  span.annotate("bound_widened", leg.widened ? 1.0 : 0.0);
  if (leg.last_fault != ShardFault::kNone) span.note("fault", fault_name(leg.last_fault));
  if (!leg.ok) span.note("leg_outcome", "dead");
}

/// Fault-domain scatter-gather: same merge contract as the plain skeleton,
/// with per-shard attempt loops and (optionally) hedged duplicates.  With
/// zero injected faults every leg completes cleanly on its first attempt and
/// the result is byte-identical to the plain path: child contexts forward
/// every charge to the same global envelope, the shared threshold only ever
/// receives sound K-th-best values, and the gather walks shards in id order.
template <typename ShardScan, typename ShardBound>
ShardedTopK scatter_gather_faulted(const ShardedArchive& sharded, const char* stage,
                                   std::size_t k, std::uint64_t model_terms, QueryContext& ctx,
                                   CostMeter& meter, ThreadPool& pool,
                                   const ShardExecOptions& options, ShardScan&& scan_shard,
                                   ShardBound&& shard_bound) {
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), stage);
  const ShardFaultPolicy& policy = options.policy;
  const std::size_t count = sharded.shard_count();
  std::vector<std::unique_ptr<ShardSlot>> slots;
  slots.reserve(count);
  for (std::size_t s = 0; s < count; ++s) slots.push_back(std::make_unique<ShardSlot>(k));
  SharedThreshold shared;

  const int max_attempts = std::max(1, policy.max_attempts);
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.initial_backoff = policy.retry_initial_backoff;
  retry.max_backoff = policy.retry_max_backoff;
  retry.jitter_seed = policy.jitter_seed;

  // One leg's attempt loop.  Every attempt gets a fresh child context chained
  // under the global one: the kernels' charge leases draw through it, so the
  // global budget is never exceeded, a global stop latches through, and the
  // child adds the per-shard sub-deadline plus this leg's cancel flag.  Work charged by attempts that are later discarded stays
  // charged — the work was really done.
  const auto run_leg = [&](std::size_t s, int leg_id, LegState& leg, ShardSlot& slot) {
    const ShardInfo& shard = sharded.shard(s);
    if (shard.tiles.empty()) {
      leg.ok = true;
      leg.clean = true;
      return;
    }
    // Distinct jitter stream per (shard, leg) so concurrent retries spread.
    ExponentialBackoff backoff(retry,
                               mix64(static_cast<std::uint64_t>(s) * 2 +
                                     static_cast<std::uint64_t>(leg_id)));
    const int attempt_base = leg_id == 0 ? 0 : kHedgeAttemptBase;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (leg.cancel.load(std::memory_order_relaxed)) return;  // sibling won
      if (ctx.stopped()) {
        // Global envelope closed before this attempt: the shard counts as
        // never examined by this leg (prior partials were discarded).
        leg.run = ShardRun(k);
        leg.run.status = ctx.stop_reason();
        leg.run.missed_bound = shard_bound(shard);
        leg.ok = true;
        return;
      }
      ++leg.attempts;
      if (attempt > 0) leg.run = ShardRun(k);  // retry scans from scratch

      ShardFaultAction action;
      if (options.chaos != nullptr) {
        action = options.chaos->on_attempt(s, attempt_base + attempt);
        if (action.kind != ShardFault::kNone) {
          ++leg.faults;
          leg.last_fault = action.kind;
        }
      }

      QueryContext sub;
      sub.with_parent(&ctx).with_cancel_flag(&leg.cancel).with_check_interval(128);
      if (policy.shard_timeout.count() > 0) sub.with_timeout(policy.shard_timeout);

      bool discarded = false;
      bool scanned = false;
      if (action.kind == ShardFault::kDelay) {
        interruptible_wait(action.delay, leg.cancel, ctx, &sub);
      } else if (action.kind == ShardFault::kFail) {
        discarded = true;
      }
      if (!discarded && !sub.expired()) {
        scan_shard(shard, leg.run, shared, sub);
        scanned = true;
        if (action.kind == ShardFault::kCorrupt) discarded = true;
      }

      if (discarded) {
        if (ctx.stopped()) {
          leg.run = ShardRun(k);
          leg.run.status = ctx.stop_reason();
          leg.run.missed_bound = shard_bound(shard);
          leg.ok = true;
          return;
        }
        if (attempt + 1 >= max_attempts) return;  // leg dead: attempts exhausted
        interruptible_wait(backoff.next_delay(), leg.cancel, ctx, nullptr);
        continue;
      }

      if (scanned && !sub.stopped()) {
        // Clean completion: first clean leg wins the shard and cancels the
        // sibling so a still-running duplicate unwinds promptly.
        leg.ok = true;
        leg.clean = true;
        int expected = -1;
        if (slot.winner.compare_exchange_strong(expected, leg_id, std::memory_order_relaxed)) {
          (leg_id == 0 ? slot.hedge : slot.primary).cancel.store(true, std::memory_order_relaxed);
        }
        return;
      }

      // The sub-context stopped: a global stop, a lost hedge race, or this
      // shard's own sub-deadline.
      if (ctx.stopped()) {
        // Global verdict; the scan kernel (if it ran) already recorded the
        // latched reason and a sound bound.
        if (!scanned) {
          leg.run.status = ctx.stop_reason();
          leg.run.missed_bound = shard_bound(shard);
        }
        leg.ok = true;
        return;
      }
      if (sub.stop_reason() == ResultStatus::kCancelled) return;  // hedge race lost
      // Per-shard timeout.  Retry while attempts remain; otherwise keep the
      // partial, remapped onto the Degraded lane with a widened bound (a
      // truncated status here would poison the whole merge — the fault is
      // local to this shard).
      ++leg.timeouts;
      if (attempt + 1 < max_attempts) {
        interruptible_wait(backoff.next_delay(), leg.cancel, ctx, nullptr);
        continue;
      }
      if (!scanned || leg.run.missed_bound == kNegInf) {
        leg.run.missed_bound = shard_bound(shard);
      }
      leg.run.status = ResultStatus::kDegraded;
      leg.widened = true;
      leg.ok = true;
      return;
    }
  };

  const bool hedging = policy.hedge && pool.worker_count() > 0;
  if (!hedging) {
    pool.parallel_for(0, count, 1, [&](std::size_t s0, std::size_t s1, std::size_t) {
      for (std::size_t s = s0; s < s1; ++s) {
        ShardSlot& slot = *slots[s];
        const std::string name = "shard_" + std::to_string(s);
        obs::Span shard_span = obs::Span::child_of(&span, name);
        run_leg(s, 0, slot.primary, slot);
        annotate_leg(shard_span, sharded.shard(s), slot.primary);
      }
    });
  } else {
    // Hedged execution runs a coordinator on the caller: primaries go to the
    // pool, and once hedge_delay elapses every shard that has not finished
    // cleanly gets a speculative duplicate through the urgent lane (a hedge
    // queued behind the backlog that made the primary straggle would be
    // useless).  Tasks decrement their counter and notify while holding the
    // mutex, so the coordinator cannot destroy the cv between a task's
    // unlock and its notify.  A leg that throws (a model error) records the
    // first exception and still counts itself done; the coordinator
    // launches no further hedges and rethrows once every leg has finished,
    // as parallel_for does.
    std::mutex wait_mutex;
    std::condition_variable wait_cv;
    std::size_t primaries_left = count;
    std::size_t hedges_left = 0;
    std::exception_ptr error;  // first leg exception; under wait_mutex
    const auto guarded = [&](auto&& leg_body) {
      try {
        leg_body();
      } catch (...) {
        std::lock_guard<std::mutex> lock(wait_mutex);
        if (!error) error = std::current_exception();
      }
    };
    for (std::size_t s = 0; s < count; ++s) {
      pool.submit([&, s] {
        guarded([&] {
          ShardSlot& slot = *slots[s];
          const std::string name = "shard_" + std::to_string(s);
          obs::Span shard_span = obs::Span::child_of(&span, name);
          run_leg(s, 0, slot.primary, slot);
          annotate_leg(shard_span, sharded.shard(s), slot.primary);
          slot.primary_finished.store(true, std::memory_order_release);
        });
        std::lock_guard<std::mutex> lock(wait_mutex);
        --primaries_left;
        wait_cv.notify_all();
      });
    }
    bool failed = false;
    {
      std::unique_lock<std::mutex> lock(wait_mutex);
      wait_cv.wait_until(lock, std::chrono::steady_clock::now() + policy.hedge_delay,
                         [&] { return primaries_left == 0; });
      failed = error != nullptr;
    }
    for (std::size_t s = 0; s < count && !failed && !ctx.stopped(); ++s) {
      ShardSlot& slot = *slots[s];
      if (sharded.shard(s).tiles.empty()) continue;
      if (slot.primary_finished.load(std::memory_order_acquire) && slot.primary.clean) continue;
      slot.hedge_launched = true;
      {
        std::lock_guard<std::mutex> lock(wait_mutex);
        ++hedges_left;
      }
      pool.submit_urgent([&, s] {
        guarded([&] {
          ShardSlot& hedge_slot = *slots[s];
          // Skip if the primary won (or the query died) while this hedge
          // waited in the queue; the launch still counts as a hedge.
          if (hedge_slot.winner.load(std::memory_order_relaxed) == -1 && !ctx.stopped()) {
            const std::string name = "shard_" + std::to_string(s) + "_hedge";
            obs::Span shard_span = obs::Span::child_of(&span, name);
            run_leg(s, 1, hedge_slot.hedge, hedge_slot);
            annotate_leg(shard_span, sharded.shard(s), hedge_slot.hedge);
            if (shard_span.active()) shard_span.note("leg", "hedge");
          }
        });
        std::lock_guard<std::mutex> lock(wait_mutex);
        --hedges_left;
        wait_cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(wait_mutex);
    wait_cv.wait(lock, [&] { return primaries_left == 0 && hedges_left == 0; });
    if (error) std::rethrow_exception(error);
  }

  // Gather in shard-id order (deterministic regardless of leg interleaving).
  // Leg preference: clean primary > clean hedge > widened primary > widened
  // hedge > dead.  Preferring the primary on a clean/clean tie keeps the
  // result independent of which leg happened to finish first; only the
  // chosen leg's meter and counters merge, so a cancelled duplicate's work
  // never double-counts into the answer (the global budget did see it — the
  // work was really done — but the merged top-K sees exactly one partial per
  // shard).
  ShardFaultStats stats;
  std::vector<ShardPartial> partials;
  partials.reserve(count);
  std::uint64_t pixels_visited = 0;
  std::uint64_t scan_ops = 0;
  std::size_t live_shards = 0;
  for (std::size_t s = 0; s < count; ++s) {
    ShardSlot& slot = *slots[s];
    const ShardInfo& shard = sharded.shard(s);
    if (!shard.tiles.empty()) ++live_shards;
    stats.attempts += slot.primary.attempts + slot.hedge.attempts;
    if (slot.primary.attempts > 1) stats.retries += slot.primary.attempts - 1;
    if (slot.hedge.attempts > 1) stats.retries += slot.hedge.attempts - 1;
    stats.timeouts += slot.primary.timeouts + slot.hedge.timeouts;
    stats.faults_injected += slot.primary.faults + slot.hedge.faults;
    if (slot.hedge_launched) ++stats.hedges_launched;

    LegState* pick = nullptr;
    bool hedge_pick = false;
    if (slot.primary.clean) {
      pick = &slot.primary;
    } else if (slot.hedge.clean) {
      pick = &slot.hedge;
      hedge_pick = true;
    } else if (slot.primary.ok) {
      pick = &slot.primary;
    } else if (slot.hedge.ok) {
      pick = &slot.hedge;
      hedge_pick = true;
    }
    if (hedge_pick) ++stats.hedges_won;

    ShardPartial partial;
    partial.shard_id = s;
    if (pick != nullptr) {
      ShardRun& run = pick->run;
      partial.result.hits = exec::finalize(run.top);
      partial.result.status = run.status;
      partial.result.missed_bound = run.missed_bound;
      partial.result.bad_points = run.tally.bad_points;
      partial.pixels_visited = run.tally.pixels;
      partial.tiles_scanned = run.tiles_scanned;
      partial.tiles_pruned = run.tiles_pruned;
      meter.merge(run.meter);
      pixels_visited += run.tally.pixels;
      scan_ops += run.scan_ops;
      if (pick->widened) {
        ++stats.bounds_widened;
        ++stats.degraded_shards;
      }
    } else {
      // Both legs dead: the shard contributed nothing.  An empty partial
      // with the whole-shard bound is still sound — the merge widens and
      // the certified prefix shortens accordingly.
      partial.result.status = ResultStatus::kDegraded;
      partial.result.missed_bound = shard_bound(shard);
      ++stats.failed_shards;
      ++stats.bounds_widened;
      ++stats.degraded_shards;
    }
    partials.push_back(std::move(partial));
  }

  ShardedTopK out;
  out.merged = merge_shard_partials(partials, k);
  out.shard_status.reserve(count);
  for (const ShardPartial& partial : partials) out.shard_status.push_back(partial.result.status);
  out.fault_stats = stats;
  if (live_shards > 0 && stats.failed_shards == live_shards) {
    // Every live shard died: nothing was examined anywhere, which is load
    // shedding in effect — surface it as such, not as a degraded answer with
    // a merely-finite bound.
    out.merged.status = ResultStatus::kShed;
    out.merged.missed_bound = kPosInf;
  }
  exec::annotate_efficiency(span, sharded.archive(), model_terms, pixels_visited, scan_ops);
  span.annotate("shards", static_cast<double>(count));
  exec::annotate_result(span, out.merged, meter);
  if (options.metrics != nullptr) options.metrics->publish(stats);

  // A final "gather" child span, created after every shard/hedge span, so
  // EXPLAIN's last-status-note disposition reflects the *merged* verdict and
  // the report carries one fault-summary row per query.
  obs::Span gather = obs::Span::child_of(&span, "gather");
  if (gather.active()) {
    gather.annotate("attempts", static_cast<double>(stats.attempts));
    gather.annotate("retries", static_cast<double>(stats.retries));
    gather.annotate("timeouts", static_cast<double>(stats.timeouts));
    gather.annotate("faults_injected", static_cast<double>(stats.faults_injected));
    gather.annotate("hedges_launched", static_cast<double>(stats.hedges_launched));
    gather.annotate("hedges_won", static_cast<double>(stats.hedges_won));
    gather.annotate("bounds_widened", static_cast<double>(stats.bounds_widened));
    gather.annotate("shards_failed", static_cast<double>(stats.failed_shards));
    gather.note("status", to_string(out.merged.status));
  }
  return out;
}

/// The scatter-gather skeleton shared by the four sharded executors.
/// `scan_shard(shard, run, shared, ctx)` scans one shard with the serial
/// kernels and must leave run.status / run.missed_bound sound on truncation
/// (the context it receives is the global one on the plain path and a
/// chained per-attempt child on the fault-domain path);
/// `shard_bound(shard)` is the loosest sound missed bound over a whole
/// untouched shard (used when the context stopped before a shard started).
template <typename ShardScan, typename ShardBound>
ShardedTopK scatter_gather(const ShardedArchive& sharded, const char* stage, std::size_t k,
                           std::uint64_t model_terms, QueryContext& ctx, CostMeter& meter,
                           ThreadPool& pool, const ShardExecOptions* options,
                           ShardScan&& scan_shard, ShardBound&& shard_bound) {
  if (options != nullptr && options->active()) {
    return scatter_gather_faulted(sharded, stage, k, model_terms, ctx, meter, pool, *options,
                                  scan_shard, shard_bound);
  }
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), stage);
  const std::size_t count = sharded.shard_count();
  std::vector<ShardRun> runs;
  runs.reserve(count);
  for (std::size_t s = 0; s < count; ++s) runs.emplace_back(k);
  SharedThreshold shared;

  pool.parallel_for(0, count, 1, [&](std::size_t s0, std::size_t s1, std::size_t) {
    for (std::size_t s = s0; s < s1; ++s) {
      ShardRun& run = runs[s];
      const ShardInfo& shard = sharded.shard(s);
      // Trace has an internal mutex, so per-shard spans are safe to open
      // and close from pool workers.
      const std::string name = "shard_" + std::to_string(s);
      obs::Span shard_span = obs::Span::child_of(&span, name);
      if (!shard.tiles.empty()) {
        if (ctx.stopped()) {
          // Never started: the whole shard is unexamined.
          run.status = ctx.stop_reason();
          run.missed_bound = shard_bound(shard);
        } else {
          scan_shard(shard, run, shared, ctx);
        }
      }
      annotate_shard(shard_span, shard, run);
    }
  });

  // Gather on the caller, in shard-id order, so meter reduction and heap
  // merging are deterministic regardless of which slot ran which shard.
  std::vector<ShardPartial> partials;
  partials.reserve(count);
  std::uint64_t pixels_visited = 0;
  std::uint64_t scan_ops = 0;
  for (std::size_t s = 0; s < count; ++s) {
    ShardRun& run = runs[s];
    ShardPartial partial;
    partial.shard_id = s;
    partial.result.hits = exec::finalize(run.top);
    partial.result.status = run.status;
    partial.result.missed_bound = run.missed_bound;
    partial.result.bad_points = run.tally.bad_points;
    partial.pixels_visited = run.tally.pixels;
    partial.tiles_scanned = run.tiles_scanned;
    partial.tiles_pruned = run.tiles_pruned;
    meter.merge(run.meter);
    pixels_visited += run.tally.pixels;
    scan_ops += run.scan_ops;
    partials.push_back(std::move(partial));
  }

  ShardedTopK out;
  out.merged = merge_shard_partials(partials, k);
  out.shard_status.reserve(count);
  for (const ShardPartial& partial : partials) out.shard_status.push_back(partial.result.status);
  exec::annotate_efficiency(span, sharded.archive(), model_terms, pixels_visited, scan_ops);
  span.annotate("shards", static_cast<double>(count));
  exec::annotate_result(span, out.merged, meter);
  return out;
}

}  // namespace

RasterTopK merge_shard_partials(std::span<const ShardPartial> partials, std::size_t k) {
  MMIR_EXPECTS(k > 0);
  RasterTopK out;
  TopK<RasterHit> top(k);
  double missed = kNegInf;
  std::uint64_t bad_points = 0;
  bool any_degraded = false;
  bool all_shed = !partials.empty();
  ResultStatus truncated = ResultStatus::kComplete;
  for (const ShardPartial& partial : partials) {
    for (const RasterHit& hit : partial.result.hits) {
      top.offer_ranked(hit.score, exec::pixel_rank(hit.x, hit.y), hit);
    }
    missed = std::max(missed, partial.result.missed_bound);
    bad_points += partial.result.bad_points;
    const ResultStatus status = partial.result.status;
    if (status != ResultStatus::kShed) all_shed = false;
    if (status == ResultStatus::kDegraded) any_degraded = true;
    if (is_truncated(status) && truncated == ResultStatus::kComplete) truncated = status;
  }
  out.hits = exec::finalize(top);
  out.missed_bound = missed;
  out.bad_points = bad_points;
  if (all_shed) {
    // Nothing examined anywhere; surface back-pressure, not a bound artifact.
    out.status = ResultStatus::kShed;
    out.missed_bound = kPosInf;
  } else if (truncated != ResultStatus::kComplete) {
    out.status = truncated;
  } else if (any_degraded) {
    out.status = ResultStatus::kDegraded;
  } else {
    out.status = ResultStatus::kComplete;
  }
  return out;
}

ShardedTopK sharded_full_scan_top_k(const ShardedArchive& sharded, const RasterModel& model,
                                    std::size_t k, QueryContext& ctx, CostMeter& meter,
                                    ThreadPool& pool, const ShardExecOptions* options) {
  MMIR_EXPECTS(k > 0);
  const TiledArchive& archive = sharded.archive();
  MMIR_EXPECTS(model.bands() == archive.band_count());
  return scatter_gather(
      sharded, "sharded_full_scan", k, model.ops_per_evaluation(), ctx, meter, pool, options,
      [&](const ShardInfo& shard, ShardRun& run, SharedThreshold&, QueryContext& ctx) {
        full_scan_leg(archive, model, shard, run, ctx);
      },
      [&](const ShardInfo& shard) { return whole_shard_bound(model, shard); });
}

ShardedTopK sharded_progressive_model_top_k(const ShardedArchive& sharded,
                                            const ProgressiveLinearModel& model, std::size_t k,
                                            QueryContext& ctx, CostMeter& meter,
                                            ThreadPool& pool, const ShardExecOptions* options) {
  MMIR_EXPECTS(k > 0);
  const TiledArchive& archive = sharded.archive();
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  return scatter_gather(
      sharded, "sharded_progressive_model", k, model.order().size(), ctx, meter, pool, options,
      [&](const ShardInfo& shard, ShardRun& run, SharedThreshold& shared, QueryContext& ctx) {
        staged_scan_leg(archive, model, shard, run, shared, ctx);
      },
      [&](const ShardInfo& shard) { return whole_shard_bound(model, shard); });
}

namespace {

/// Screened scan of one shard: the charged per-shard metadata pass
/// (exec::screen_tiles), shard-local best-bound-first order, then
/// `scan_tile` over surviving tiles.  Shared by the tile-screened and
/// combined executors, which differ only in the per-tile scan kernel and the
/// screening model.
template <typename ScanTileFn>
void screened_shard_scan(const TiledArchive& archive, const RasterModel& screen_model,
                         const ShardInfo& shard, ShardRun& run, SharedThreshold& shared,
                         QueryContext& ctx, double whole_shard_bound, ScanTileFn&& scan_tile) {
  const auto tiles = archive.tiles();
  const auto screened = exec::screen_tiles(archive, screen_model, shard.tiles, ctx, run.meter);
  if (!screened) {
    run.status = ctx.stop_reason();
    run.missed_bound = whole_shard_bound;
    return;
  }
  const std::vector<exec::TileBound>& order = *screened;

  const std::uint64_t ops_before = run.meter.ops();
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const auto [hi, t] = order[pos];
    const double threshold = std::max(run.top.threshold(), shared.get());
    if (threshold > kNegInf && hi < threshold) {
      // Sound prune: the threshold is some full all-exact heap's K-th best,
      // a lower bound on the final global K-th best.  The order is bound-
      // descending and the threshold only rises, so the rest prune too.
      // Strictly-below only — an exact tie needs the rank evidence below.
      for (std::size_t rest = pos; rest < order.size(); ++rest) {
        run.meter.add_pruned();
        ++run.tiles_pruned;
      }
      break;
    }
    if (exec::screen_tile(run.top, hi, exec::tile_min_rank(tiles[t])) !=
        exec::TilePrune::kScan) {
      // Shard-local tie evidence: the tile ties this shard's own full heap
      // and cannot win the canonical rank tie-break, but a later equal-bound
      // tile with a smaller corner rank still could — prune one, keep going.
      run.meter.add_pruned();
      ++run.tiles_pruned;
      continue;
    }
    ++run.tiles_scanned;
    scan_tile(tiles[t], run);
    if (ctx.stopped()) {
      run.status = ctx.stop_reason();
      // This tile may be half-examined; its bound dominates every later
      // tile in the shard's descending order, so it covers the remainder.
      run.missed_bound = hi;
      run.scan_ops = run.meter.ops() - ops_before;
      return;
    }
    if (run.top.full()) shared.raise(run.top.threshold());
  }
  run.scan_ops = run.meter.ops() - ops_before;
  run.status = shard_completion_status(shard, run.tally.bad_points);
}

/// The tile-screened leg of one shard, in-process and remote alike.
void tile_screened_leg(const TiledArchive& archive, const RasterModel& model,
                       const ShardInfo& shard, ShardRun& run, SharedThreshold& shared,
                       QueryContext& ctx) {
  std::vector<double> scratch;  // scan_row_full's row buffer
  screened_shard_scan(archive, model, shard, run, shared, ctx, whole_shard_bound(model, shard),
                      [&](const TileSummary& tile, ShardRun& r) {
                        exec::scan_rect_full(archive, model, tile.x0, tile.x0 + tile.width,
                                             tile.y0, tile.y0 + tile.height, r.top, scratch,
                                             ctx, r.meter, r.tally);
                      });
}

/// The combined leg of one shard, in-process and remote alike: tiles
/// screened by `screen` (the linear model of `model`), then scanned staged.
void combined_leg(const TiledArchive& archive, const ProgressiveLinearModel& model,
                  const LinearRasterModel& screen, const ShardInfo& shard, ShardRun& run,
                  SharedThreshold& shared, QueryContext& ctx) {
  screened_shard_scan(archive, screen, shard, run, shared, ctx, whole_shard_bound(screen, shard),
                      [&](const TileSummary& tile, ShardRun& r) {
                        exec::scan_rect_staged(
                            archive, model, tile.x0, tile.x0 + tile.width, tile.y0,
                            tile.y0 + tile.height, r.top,
                            [&] { return std::max(r.top.threshold(), shared.get()); },
                            [&] {
                              if (r.top.full()) shared.raise(r.top.threshold());
                            },
                            ctx, r.meter, r.tally);
                      });
}

}  // namespace

ShardedTopK sharded_tile_screened_top_k(const ShardedArchive& sharded, const RasterModel& model,
                                        std::size_t k, QueryContext& ctx, CostMeter& meter,
                                        ThreadPool& pool, const ShardExecOptions* options) {
  MMIR_EXPECTS(k > 0);
  const TiledArchive& archive = sharded.archive();
  MMIR_EXPECTS(model.bands() == archive.band_count());
  return scatter_gather(
      sharded, "sharded_tile_screened", k, model.ops_per_evaluation(), ctx, meter, pool, options,
      [&](const ShardInfo& shard, ShardRun& run, SharedThreshold& shared, QueryContext& ctx) {
        tile_screened_leg(archive, model, shard, run, shared, ctx);
      },
      [&](const ShardInfo& shard) { return whole_shard_bound(model, shard); });
}

ShardedTopK sharded_progressive_combined_top_k(const ShardedArchive& sharded,
                                               const ProgressiveLinearModel& model,
                                               std::size_t k, QueryContext& ctx,
                                               CostMeter& meter, ThreadPool& pool,
                                               const ShardExecOptions* options) {
  MMIR_EXPECTS(k > 0);
  const TiledArchive& archive = sharded.archive();
  MMIR_EXPECTS(model.model().dim() == archive.band_count());
  const LinearRasterModel screen(model.model());
  return scatter_gather(
      sharded, "sharded_progressive_combined", k, model.order().size(), ctx, meter, pool, options,
      [&](const ShardInfo& shard, ShardRun& run, SharedThreshold& shared, QueryContext& ctx) {
        combined_leg(archive, model, screen, shard, run, shared, ctx);
      },
      [&](const ShardInfo& shard) { return whole_shard_bound(screen, shard); });
}

ShardScanResult scan_shard_partial(const ShardedArchive& sharded, std::size_t shard_id,
                                   ShardScanMode mode, const RasterModel* model,
                                   const ProgressiveLinearModel* progressive, std::size_t k,
                                   QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(k > 0);
  MMIR_EXPECTS(shard_id < sharded.shard_count());
  const bool model_leg =
      mode == ShardScanMode::kProgressiveModel || mode == ShardScanMode::kCombined;
  if (model_leg) {
    MMIR_EXPECTS(progressive != nullptr);
  } else {
    MMIR_EXPECTS(model != nullptr);
  }
  const TiledArchive& archive = sharded.archive();
  const ShardInfo& shard = sharded.shard(shard_id);

  const auto shard_bound = [&]() -> double {
    switch (mode) {
      case ShardScanMode::kFullScan:
      case ShardScanMode::kTileScreened:
        return whole_shard_bound(*model, shard);
      case ShardScanMode::kProgressiveModel:
        return whole_shard_bound(*progressive, shard);
      case ShardScanMode::kCombined:
        return whole_shard_bound(LinearRasterModel(progressive->model()), shard);
    }
    return kPosInf;
  };

  ShardScanResult out;
  out.model_terms =
      model_leg ? progressive->order().size() : model->ops_per_evaluation();
  ShardRun run(k);
  SharedThreshold shared;  // shard-local: remote legs share no threshold

  ScopedTimer timer(meter);
  const std::string name = "shard_" + std::to_string(shard_id);
  obs::Span span = obs::Span::child_of(ctx.span(), name);

  if (!shard.tiles.empty()) {
    if (ctx.stopped()) {
      run.status = ctx.stop_reason();
      run.missed_bound = shard_bound();
    } else {
      switch (mode) {
        case ShardScanMode::kFullScan:
          full_scan_leg(archive, *model, shard, run, ctx);
          break;
        case ShardScanMode::kProgressiveModel:
          staged_scan_leg(archive, *progressive, shard, run, shared, ctx);
          break;
        case ShardScanMode::kTileScreened:
          tile_screened_leg(archive, *model, shard, run, shared, ctx);
          break;
        case ShardScanMode::kCombined:
          combined_leg(archive, *progressive, LinearRasterModel(progressive->model()), shard,
                       run, shared, ctx);
          break;
      }
    }
  }
  annotate_shard(span, shard, run);

  out.partial.shard_id = shard_id;
  out.partial.result.hits = exec::finalize(run.top);
  out.partial.result.status = run.status;
  out.partial.result.missed_bound = run.missed_bound;
  out.partial.result.bad_points = run.tally.bad_points;
  out.partial.pixels_visited = run.tally.pixels;
  out.partial.tiles_scanned = run.tiles_scanned;
  out.partial.tiles_pruned = run.tiles_pruned;
  out.scan_ops = run.scan_ops;
  meter.merge(run.meter);
  return out;
}

// ------------------------------------------------------------ Onion / SPROC

OnionTopK sharded_onion_top_k(const ShardedOnionIndex& index, std::span<const double> weights,
                              std::size_t k, QueryContext& ctx, CostMeter& meter,
                              ThreadPool& pool) {
  MMIR_EXPECTS(k > 0);
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "sharded_onion");
  const std::size_t count = index.shard_count();
  std::vector<OnionTopK> partials(count);
  std::vector<CostMeter> meters(count);

  pool.parallel_for(0, count, 1, [&](std::size_t s0, std::size_t s1, std::size_t) {
    for (std::size_t s = s0; s < s1; ++s) {
      const std::string name = "shard_" + std::to_string(s);
      obs::Span shard_span = obs::Span::child_of(&span, name);
      partials[s] = index.shard(s).top_k(weights, k, ctx, meters[s]);
      // Remap shard-local tuple ids back into the global id space.
      for (ScoredId& hit : partials[s].hits) hit.id = index.global_id(s, hit.id);
      if (shard_span.active()) {
        shard_span.annotate("shard", static_cast<double>(s));
        shard_span.annotate("items_examined", static_cast<double>(meters[s].points()));
        shard_span.annotate("hits", static_cast<double>(partials[s].hits.size()));
        shard_span.note("status", to_string(partials[s].status));
      }
    }
  });

  for (const CostMeter& m : meters) meter.merge(m);
  const OnionTopK out = merge_onion_partials(partials, k);
  if (span.active()) {
    span.annotate("shards", static_cast<double>(count));
    span.annotate("hits", static_cast<double>(out.hits.size()));
    span.note("status", to_string(out.status));
  }
  return out;
}

CompositeTopK sharded_composite_top_k(const CartesianQuery& query, std::size_t shards,
                                      ShardedSprocProcessor processor, std::size_t k,
                                      QueryContext& ctx, CostMeter& meter, ThreadPool& pool) {
  query.validate();
  MMIR_EXPECTS(shards > 0);
  MMIR_EXPECTS(k > 0);
  ScopedTimer timer(meter);
  obs::Span span = obs::Span::child_of(ctx.span(), "sharded_composite");
  // More shards than component-0 items would leave empty slices; clamp.
  const std::size_t count = std::min(shards, query.library_size);
  std::vector<CompositeTopK> partials(count);
  std::vector<CostMeter> meters(count);
  std::vector<CartesianQuery> restricted;
  restricted.reserve(count);
  for (std::size_t s = 0; s < count; ++s) restricted.push_back(restrict_to_shard(query, s, count));

  pool.parallel_for(0, count, 1, [&](std::size_t s0, std::size_t s1, std::size_t) {
    for (std::size_t s = s0; s < s1; ++s) {
      const std::string name = "shard_" + std::to_string(s);
      obs::Span shard_span = obs::Span::child_of(&span, name);
      switch (processor) {
        case ShardedSprocProcessor::kFastSproc:
          partials[s] = fast_sproc_top_k(restricted[s], k, ctx, meters[s]);
          break;
        case ShardedSprocProcessor::kSproc:
          partials[s] = sproc_top_k(restricted[s], k, ctx, meters[s]);
          break;
        case ShardedSprocProcessor::kBruteForce:
          partials[s] = brute_force_top_k(restricted[s], k, ctx, meters[s]);
          break;
      }
      // The slices are disjoint by construction (out-of-shard component-0
      // items degrade to 0 and every processor drops zero-score matches);
      // the filter is defensive hardening against a processor that ever
      // starts reporting them.
      std::erase_if(partials[s].matches, [&](const CompositeMatch& match) {
        return match.items.empty() || match.items[0] % count != s;
      });
      if (shard_span.active()) {
        shard_span.annotate("shard", static_cast<double>(s));
        shard_span.annotate("items_examined", static_cast<double>(meters[s].points()));
        shard_span.annotate("hits", static_cast<double>(partials[s].matches.size()));
        shard_span.note("status", to_string(partials[s].status));
      }
    }
  });

  for (const CostMeter& m : meters) meter.merge(m);

  CompositeTopK out;
  out.missed_bound = 0.0;
  ResultStatus truncated = ResultStatus::kComplete;
  bool any_degraded = false;
  std::vector<const CompositeMatch*> pooled;
  for (const CompositeTopK& partial : partials) {
    for (const CompositeMatch& match : partial.matches) pooled.push_back(&match);
    out.missed_bound = std::max(out.missed_bound, partial.missed_bound);
    if (partial.status == ResultStatus::kDegraded) any_degraded = true;
    if (is_truncated(partial.status) && truncated == ResultStatus::kComplete) {
      truncated = partial.status;
    }
  }
  // A match's identity is its item assignment; its rank is the assignment's
  // lexicographic position among the pooled matches, so exact score ties
  // break toward the lexicographically smaller assignment — the order the
  // brute-force odometer visits them in — whatever the shard order.
  std::sort(pooled.begin(), pooled.end(), [](const CompositeMatch* a, const CompositeMatch* b) {
    return a->items < b->items;
  });
  TopK<CompositeMatch> top(k);
  for (std::size_t rank = 0; rank < pooled.size(); ++rank) {
    top.offer_ranked(pooled[rank]->score, rank, *pooled[rank]);
  }
  for (auto& entry : top.take_sorted()) out.matches.push_back(std::move(entry.item));
  out.status = truncated != ResultStatus::kComplete
                   ? truncated
                   : (any_degraded ? ResultStatus::kDegraded : ResultStatus::kComplete);
  if (span.active()) {
    span.annotate("shards", static_cast<double>(count));
    span.annotate("hits", static_cast<double>(out.matches.size()));
    span.note("status", to_string(out.status));
  }
  return out;
}

}  // namespace mmir
