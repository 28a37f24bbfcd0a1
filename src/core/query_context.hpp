#pragma once
// QueryContext: the fault-tolerance envelope of one query execution.
//
// A production archive serving millions of users cannot let a single query
// run unbounded.  Every budget-aware execution path (the four progressive
// raster executors, the three SPROC processors, Onion top-K, the Fig. 5
// workflow) threads a QueryContext carrying
//
//   * a *cost budget* in elementary work units (model term operations),
//   * a *wall-clock deadline* (checked with amortized frequency so the hot
//     path pays an add + compare, not a clock read, per unit), and
//   * a *cooperative cancellation flag* owned by the caller.
//
// Executors call charge(n) before doing n units of work; the first failed
// charge latches a stop reason and every later charge fails too, so inner
// loops unwind naturally.  Executors then return whatever top-K prefix they
// accumulated, tagged with the ResultStatus and a *sound upper bound* on the
// score of anything they did not examine — a partial answer the caller can
// still reason about instead of an exception or an unbounded stall.
//
// Concurrency: one context is shared by every worker of a tile-parallel or
// sharded execution (engine/parallel_exec.hpp, engine/shard_exec.hpp), so
// the mutable execution state — spent counter, check tick, bad-point tally,
// latched stop reason — lives in relaxed atomics.  The raster kernels do not
// charge it per pixel: each worker spends through its own ChargeLease (below),
// which draws allowance from the context a slice at a time and hands back
// what it did not spend.  The guarantees are:
//
//   * one worker — whether it calls charge() or spends through a lease —
//     trips on exactly the same unit, with the same final spent(): a lease's
//     last draw is whatever remains, and a refused request is booked like a
//     refused charge();
//   * several workers never do more work than the budget allows, and every
//     truncated answer keeps a sound certified prefix — but a worker may be
//     refused while a sibling still holds unspent allowance, so the trip
//     point is no longer a single global unit, and spent() may exceed
//     budget() by at most one refused request per worker;
//   * the stop reason latches via compare-exchange: exactly one cause wins
//     and is never overwritten by a concurrently detected one;
//   * relaxed ordering is sufficient because the context only *steers*
//     control flow; result data produced by workers is published by the
//     thread pool's join, never through the context.
//
// Configuration (with_*) and reset() are NOT thread-safe: configure before
// sharing, reset only after all workers have joined.
//
// The class is fully header-only so leaf libraries (sproc, index) can use it
// without linking mmir_core; only the cold deadline/cancel path touches the
// clock, and it is kept out of charge()'s inlined fast path.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/result_status.hpp"

namespace mmir {

/// Budget / deadline / cancellation envelope for one query (or one batch of
/// queries: spent work accumulates across calls that share a context).
/// Safe to share across the workers of one parallel execution; see the
/// header comment for the exact guarantees.
class QueryContext {
 public:
  /// Default: unbounded — charge() never fails, queries behave exactly like
  /// the budget-unaware code paths.
  QueryContext() = default;

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  // ------------------------------------------------------------- configuration

  /// Caps total charged work at `ops` elementary operations.
  QueryContext& with_op_budget(std::uint64_t ops) noexcept {
    budget_ = ops;
    return *this;
  }

  /// Stops the query once `deadline` passes (checked every check-interval
  /// charged units).
  QueryContext& with_deadline(std::chrono::steady_clock::time_point deadline) noexcept {
    deadline_ = deadline;
    has_deadline_ = true;
    return *this;
  }

  /// Convenience: deadline = now + d.
  QueryContext& with_timeout(std::chrono::nanoseconds d) noexcept {
    return with_deadline(std::chrono::steady_clock::now() + d);
  }

  /// Binds a caller-owned cancellation flag; the query stops soon after the
  /// flag becomes true.  The flag must outlive the context.
  QueryContext& with_cancel_flag(const std::atomic<bool>* flag) noexcept {
    cancel_ = flag;
    return *this;
  }

  /// Chains this context under `parent`: every charge is forwarded to the
  /// parent first, so the *global* budget/deadline/cancel envelope holds
  /// across any number of children (a ChargeLease on a child draws through
  /// the whole chain and never past its tightest budget), and a parent stop
  /// latches the parent's reason here so inner loops unwind with the global
  /// verdict.  The child may add its own (tighter) deadline and cancel flag
  /// — the per-shard sub-deadline and hedge-cancellation seams of the shard
  /// fault domains (engine/fault_domain.hpp).  The parent must outlive the
  /// child; work charged by a child that is later discarded (a failed shard
  /// attempt) stays charged to the parent — the work was really done.
  QueryContext& with_parent(QueryContext* parent) noexcept {
    parent_ = parent;
    return *this;
  }

  /// Binds the query's trace span: executors hang their stage spans off it
  /// (obs::Span::child_of(ctx.span(), ...)), and the first charge failure
  /// notes the latched stop reason on it.  The span must outlive the
  /// execution; null (the default) disables tracing.  Not thread-safe:
  /// configure before sharing, like every with_*.
  QueryContext& with_span(const obs::Span* span) noexcept {
    span_ = span;
    return *this;
  }

  /// The query's trace span; nullptr when untraced.
  [[nodiscard]] const obs::Span* span() const noexcept { return span_; }

  /// How many charged units elapse between deadline / cancellation checks
  /// (default 1024).  Lower values react faster and cost more clock reads.
  /// It is also the slice a ChargeLease draws per refill, and every refill
  /// checks the deadline and cancel flag: each worker holding a lease checks
  /// at least once per slice of its *own* work, however many share the
  /// context.
  QueryContext& with_check_interval(std::uint64_t units) {
    MMIR_EXPECTS(units > 0);
    check_interval_ = units;
    return *this;
  }

  // ------------------------------------------------------------------ execution

  /// Charges `units` of work.  Returns true when execution may proceed;
  /// false once the budget is exhausted, the deadline passed, or the caller
  /// cancelled.  The first failure latches: all later charges fail too.
  /// Safe to call concurrently from multiple workers (see header comment);
  /// per-pixel kernels spend through a ChargeLease instead.
  [[nodiscard]] bool charge(std::uint64_t units = 1) noexcept { return draw(units, units, 0); }

  /// Forces an immediate budget / deadline / cancellation check without
  /// charging work (used at coarse-grained checkpoints, e.g. between
  /// workflow iterations).  Latches like charge().
  [[nodiscard]] bool expired() noexcept {
    if (stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete) return true;
    if (parent_ != nullptr && parent_->expired()) {
      latch(parent_->stop_reason());
      return true;
    }
    if (spent_.load(std::memory_order_relaxed) > budget_) {
      latch(ResultStatus::kTruncatedBudget);
      return true;
    }
    if (cancel_ != nullptr || has_deadline_) return !check_slow();
    return false;
  }

  /// True once a charge has failed (or expired() observed a stop condition).
  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete;
  }

  /// Why the query stopped; kComplete while still running.
  [[nodiscard]] ResultStatus stop_reason() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Records `n` poisoned (non-finite) data points skipped during evaluation.
  /// Forwarded to the parent (when chained) so the global tally is complete.
  void note_bad_points(std::uint64_t n = 1) noexcept {
    if (parent_ != nullptr) parent_->note_bad_points(n);
    bad_points_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bad_points() const noexcept {
    return bad_points_.load(std::memory_order_relaxed);
  }

  /// Total charged work.  Concurrent failing charges may leave this slightly
  /// above budget(); remaining() clamps accordingly.
  [[nodiscard]] std::uint64_t spent() const noexcept {
    return spent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    const std::uint64_t spent = spent_.load(std::memory_order_relaxed);
    return spent >= budget_ ? 0 : budget_ - spent;
  }

  /// Clears spent work, the latched stop reason and the bad-point tally,
  /// keeping the configuration — for reusing one context across queries.
  /// Not thread-safe: call only when no worker is executing.
  void reset() noexcept {
    spent_.store(0, std::memory_order_relaxed);
    tick_.store(0, std::memory_order_relaxed);
    bad_points_.store(0, std::memory_order_relaxed);
    stop_.store(ResultStatus::kComplete, std::memory_order_relaxed);
  }

 private:
  friend class ChargeLease;

  /// charge() and the ChargeLease refill in one: charges `units` at every
  /// level of the parent chain, parents first.  `held` is allowance the
  /// caller already drew through the whole chain and offers toward this
  /// request.  On refusal the books read as if the request — `held` plus
  /// `keep` new units — had been one refused charge(): levels that accepted
  /// the add keep `held + keep` of it, levels it never reached refund
  /// `held`.  charge(n) is draw(n, n, 0), for which the refund branches
  /// fold away.
  [[nodiscard]] bool draw(std::uint64_t units, std::uint64_t keep, std::uint64_t held) noexcept {
    if (stop_.load(std::memory_order_relaxed) != ResultStatus::kComplete) {
      give_back(held);
      return false;
    }
    if (parent_ != nullptr && !parent_->draw(units, keep, held)) {
      latch(parent_->stop_reason());
      if (held > 0) spent_.fetch_sub(held, std::memory_order_relaxed);
      return false;
    }
    const std::uint64_t spent = spent_.fetch_add(units, std::memory_order_relaxed) + units;
    if (spent > budget_) {
      latch(ResultStatus::kTruncatedBudget);
      give_back(units - keep);
      return false;
    }
    if (has_deadline_ || cancel_ != nullptr) {
      const std::uint64_t tick = tick_.fetch_add(units, std::memory_order_relaxed) + units;
      if (tick >= check_interval_ && !check_slow()) {
        give_back(units - keep);
        return false;
      }
    }
    return true;
  }

  /// Returns `units` of drawn allowance to this level and every parent.
  void give_back(std::uint64_t units) noexcept {
    if (units == 0) return;
    spent_.fetch_sub(units, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->give_back(units);
  }

  /// The smallest remaining() along the parent chain.
  [[nodiscard]] std::uint64_t headroom() const noexcept {
    std::uint64_t room = remaining();
    for (const QueryContext* p = parent_; p != nullptr; p = p->parent_) {
      room = std::min(room, p->remaining());
    }
    return room;
  }

  /// True once this context or any parent has latched a stop.
  [[nodiscard]] bool chain_stopped() const noexcept {
    for (const QueryContext* c = this; c != nullptr; c = c->parent_) {
      if (c->stopped()) return true;
    }
    return false;
  }

  /// Latches the first stop reason; concurrent detections of a different
  /// cause lose the race and keep the original reason.  The winning latch is
  /// recorded on the trace span (exactly once, from the winning thread).
  void latch(ResultStatus reason) noexcept {
    ResultStatus expected = ResultStatus::kComplete;
    if (stop_.compare_exchange_strong(expected, reason, std::memory_order_relaxed,
                                      std::memory_order_relaxed) &&
        span_ != nullptr) {
      note_stop(reason);
    }
  }

  /// Cold: records the winning stop reason on the trace span.  Kept out of
  /// line so latch() — and through it charge()'s fail branch — stays small
  /// enough for charge() to inline into per-pixel loops; inlining the span
  /// note (string building + a mutex) there measurably slows the executors.
  [[gnu::noinline]] void note_stop(ResultStatus reason) const noexcept {
    span_->note("stop_reason", to_string(reason));
  }

  /// Cold path: consults the cancellation flag and the clock.  Marked
  /// noinline so the hot charge() stays small enough to inline.
  [[gnu::noinline]] bool check_slow() noexcept {
    tick_.store(0, std::memory_order_relaxed);
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      latch(ResultStatus::kCancelled);
      return false;
    }
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      latch(ResultStatus::kTruncatedDeadline);
      return false;
    }
    return true;
  }

  // Configuration: written before workers start, read-only afterwards.
  std::uint64_t budget_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t check_interval_ = 1024;
  std::chrono::steady_clock::time_point deadline_{};
  const std::atomic<bool>* cancel_ = nullptr;
  QueryContext* parent_ = nullptr;
  bool has_deadline_ = false;

  // Execution state: shared by workers, relaxed atomics (see header comment).
  std::atomic<std::uint64_t> spent_{0};
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> bad_points_{0};
  std::atomic<ResultStatus> stop_{ResultStatus::kComplete};

  // Tracing (cold: touched only at configuration and on the first failed
  // charge).  Kept after the hot atomics so adding it does not shift their
  // cache-line placement.
  const obs::Span* span_ = nullptr;
};

/// A worker-local allowance on a QueryContext: how a raster kernel spends
/// budget.  charge() spends from the allowance with a plain subtract (plus a
/// relaxed read of the stop latches, so a stop latched by a sibling is seen
/// on the next request); only a refill touches the context's shared
/// counter.  A refill counts the leftover toward the request and draws, in
/// one charge, max(need, min(slice, headroom)) — `need` being what the
/// leftover does not cover, `slice` the context's check interval and
/// `headroom` the smallest remaining budget along its parent chain — so a
/// single worker is refused on exactly the unit a per-unit charge() would
/// be, with the same final spent().  Each refill checks the deadline and
/// cancel flag.  Destruction (or release()) hands the unspent allowance back
/// to every level of the chain, so once all leases are gone spent() is the
/// work done plus any refused requests.  See the header comment for what
/// changes when several workers lease from one context.
///
/// take_runs() is the bulk form of charge() for kernels that work in runs
/// (the full-scan row kernel): it pays for as many requests as the held
/// allowance covers in one subtract, and a run it cannot start falls back to
/// one charge(), so a single worker still trips on exactly the per-request
/// unit.
///
/// charge() returning false implies the leased context is stopped().  Not
/// thread-safe: one lease per worker.  Release every lease before reset() or before
/// reading spent() as a final total.
class ChargeLease {
 public:
  explicit ChargeLease(QueryContext& ctx) noexcept : ctx_(&ctx) {}
  ChargeLease(ChargeLease&& other) noexcept
      : ctx_(other.ctx_), held_(std::exchange(other.held_, 0)) {}
  ChargeLease(const ChargeLease&) = delete;
  ChargeLease& operator=(const ChargeLease&) = delete;
  ChargeLease& operator=(ChargeLease&&) = delete;
  ~ChargeLease() { release(); }

  /// Spends `units` of work; false once the context (or a parent) stopped.
  [[nodiscard]] bool charge(std::uint64_t units = 1) noexcept {
    return take_held(units) || refill(units);
  }

  /// Bulk spend: spends the longest run of up to `max_n` requests of `unit`
  /// each that the allowance already held covers, and returns its length —
  /// exactly the run that successive charge(unit) calls would have granted
  /// before the first one needing a refill.  Never draws from the context
  /// and latches nothing; returns 0 once any stop has latched along the
  /// chain.  A caller that gets 0 spends its next request through charge(),
  /// so refills, deadline and cancel checks and refusals land on the same
  /// units as per-request charging; a stop latched elsewhere is seen at the
  /// next run rather than the next request.
  [[nodiscard]] std::size_t take_runs(std::size_t max_n, std::uint64_t unit) noexcept {
    if (ctx_->chain_stopped()) return 0;
    const std::size_t n =
        unit == 0 ? max_n : static_cast<std::size_t>(std::min<std::uint64_t>(max_n, held_ / unit));
    held_ -= n * unit;
    return n;
  }

  /// Returns the unspent allowance to the context chain.
  void release() noexcept { ctx_->give_back(std::exchange(held_, 0)); }

 private:
  /// Hot half of charge(): spends `units` only if the allowance already held
  /// covers them and no stop has latched; otherwise spends nothing and
  /// latches nothing.
  [[nodiscard]] bool take_held(std::uint64_t units) noexcept {
    if (units > held_ || ctx_->chain_stopped()) return false;
    held_ -= units;
    return true;
  }

  /// Cold: one draw from the context.  Kept out of line so charge() inlines
  /// into per-pixel loops as a compare and a subtract.
  [[gnu::noinline]] bool refill(std::uint64_t units) noexcept {
    const std::uint64_t need = units > held_ ? units - held_ : 0;
    const std::uint64_t grant =
        std::max(need, std::min(ctx_->check_interval_, ctx_->headroom()));
    if (!ctx_->draw(grant, need, std::exchange(held_, 0))) return false;
    held_ = grant - need;
    return true;
  }

  QueryContext* ctx_;
  std::uint64_t held_ = 0;
};

}  // namespace mmir
