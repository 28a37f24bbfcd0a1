#pragma once
// Concurrent query scheduler: bounded admission, priorities, futures.
//
// The paper frames model-based retrieval as a *server-side archive service*;
// PR 1 gave each query a fault envelope (QueryContext), and this scheduler
// runs many such queries at once:
//
//   * submit() enqueues a job into a bounded three-level priority queue and
//     returns a std::future.  When the queue is at capacity the job is
//     *shed* instead: the future completes immediately with an empty result
//     flagged ResultStatus::kShed and the loosest sound missed bound —
//     back-pressure expressed in the same vocabulary executors already use
//     for truncation, so callers handle overload and budget expiry with one
//     code path.
//   * a fixed set of dispatcher threads drains the queue highest priority
//     first (FIFO within a level).  Each dispatcher builds the query's
//     QueryContext (budget, the deadline anchored at *submission* so queue
//     wait counts against it, caller cancel flag) and runs the executor.
//   * raster jobs execute tile-parallel on a shared intra-query ThreadPool
//     (size 0 = serial); whole-query results flow through the sharded LRU
//     result cache (engine/cache.hpp).  Only Complete/Degraded results are
//     admitted — a truncated answer is an artifact of its budget, not of the
//     data.
//
// Outcomes carry the executor result, the merged CostMeter (including cache
// hits/misses), queue-wait and execution wall times, and a dispatch sequence
// number — enough for callers to build p50/p99 latency and shed-rate
// dashboards (see bench/bench_engine.cpp).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/progressive_exec.hpp"
#include "engine/cache.hpp"
#include "engine/parallel_exec.hpp"
#include "engine/shard_exec.hpp"
#include "engine/thread_pool.hpp"
#include "index/onion.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sproc/query.hpp"

namespace mmir::obs {
class StatsServer;
}  // namespace mmir::obs

namespace mmir {

/// Scheduling priority; lower value drains first.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::size_t kPriorityLevels = 3;

struct EngineConfig {
  std::size_t dispatchers = 2;          ///< concurrent queries in flight
  std::size_t intra_query_threads = 0;  ///< tile-parallel pool size (0 = serial execution)
  std::size_t queue_capacity = 64;      ///< pending jobs before shedding
  std::size_t result_cache_entries = 256;  ///< whole-query results (0 disables)
  std::size_t cache_shards = 8;
  /// Batched admission: raster / shard-scan jobs on the same archive that
  /// arrive while a group is open share ONE queue slot and run on one
  /// dispatcher, in arrival order.  Each run of consecutive linear full-scan
  /// RasterJobs shares one pass over the band planes and is answered when
  /// the pass ends; every other member runs the solo job body and is
  /// answered as soon as its own scan ends.  Either way a member keeps its
  /// own context, meter, cache probe and put, and its result is
  /// byte-identical to a solo run.  1 (the default) disables batching
  /// entirely; N > 1 caps the fan-in at N.
  std::size_t batch_max_fanin = 1;
  /// Once a dispatcher picks up an open group, how long it keeps waiting for
  /// batch-mates before running it.  0 runs it immediately — groups then form
  /// only out of queue pressure (jobs that joined while the group's task
  /// waited behind the dispatchers, or during an explicit pause()).
  std::chrono::nanoseconds batch_window{0};
  bool start_paused = false;  ///< admit but do not dispatch until resume()
  /// Registry receiving engine counters, gauges, latency histograms and each
  /// completed query's published CostMeter; null disables metrics entirely
  /// (every handle stays inert — the no-op build for overhead comparisons).
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
  /// Per-query trace sink; null (the default) disables tracing.
  obs::Tracer* tracer = nullptr;
  /// Port for the embedded operator stats server (obs/stats_server.hpp):
  /// -1 (the default) keeps the server off — no thread, no socket, zero
  /// overhead; 0 binds an ephemeral port (read it back via stats_port());
  /// >0 binds that port.  The server only listens on 127.0.0.1.
  int stats_port = -1;
  /// Per-shard fault envelope applied to every ShardedRasterJob
  /// (engine/fault_domain.hpp): sub-deadline, attempt budget, hedging.  The
  /// inert default keeps the plain scatter-gather path byte-for-byte.
  ShardFaultPolicy shard_fault_policy{};
  /// Deterministic chaos source injected into sharded executions (borrowed,
  /// must outlive the engine; null = no injection).  The test seam for the
  /// chaos battery — testing::ChaosPolicy is the canonical implementation.
  ShardChaos* shard_chaos = nullptr;
};

/// Shared fields of every job type.
struct JobLimits {
  Priority priority = Priority::kNormal;
  std::uint64_t op_budget = std::numeric_limits<std::uint64_t>::max();
  /// 0 = no deadline; otherwise the deadline is submission time + timeout,
  /// so time spent queued counts against it.
  std::chrono::nanoseconds timeout{0};
  const std::atomic<bool>* cancel = nullptr;  ///< caller-owned; must outlive the job
};

/// A raster top-K query over a tiled archive.
struct RasterJob {
  enum class Mode : std::uint32_t {
    kFullScan = 0,
    kProgressiveModel = 1,
    kTileScreened = 2,
    kCombined = 3,
  };

  Mode mode = Mode::kCombined;
  const TiledArchive* archive = nullptr;
  /// Required for kFullScan / kTileScreened.
  const RasterModel* model = nullptr;
  /// Required for kProgressiveModel / kCombined.
  const ProgressiveLinearModel* progressive = nullptr;
  std::size_t k = 10;
  JobLimits limits;
  /// Stable caller-assigned archive identity; 0 marks the job uncacheable.
  std::uint64_t archive_id = 0;
  /// Optional model fingerprint override; 0 = derive from the model when
  /// possible (progressive models and LinearRasterModel), else uncacheable.
  std::uint64_t model_fingerprint = 0;
};

/// A raster top-K query executed scatter-gather over a ShardedArchive.  The
/// same four modes as RasterJob; results equal the monolithic path modulo
/// exact ties, so the result cache qualifies the key with the shard layout.
struct ShardedRasterJob {
  RasterJob::Mode mode = RasterJob::Mode::kCombined;
  const ShardedArchive* sharded = nullptr;
  /// Required for kFullScan / kTileScreened.
  const RasterModel* model = nullptr;
  /// Required for kProgressiveModel / kCombined.
  const ProgressiveLinearModel* progressive = nullptr;
  std::size_t k = 10;
  JobLimits limits;
  /// Stable caller-assigned archive identity; 0 marks the job uncacheable.
  std::uint64_t archive_id = 0;
  /// Optional model fingerprint override; 0 = derive when possible.
  std::uint64_t model_fingerprint = 0;
};

/// One shard's slice of a distributed query — what a net::ShardServer
/// submits per wire request.  Runs scan_shard_partial on a dispatcher under
/// the engine's admission control, so remote load sheds with the same
/// back-pressure vocabulary as local jobs: a shed scan surfaces as a kShed
/// partial with a +inf bound, which the router folds into its fault algebra.
struct ShardScanJob {
  ShardScanMode mode = ShardScanMode::kCombined;
  const ShardedArchive* sharded = nullptr;
  std::size_t shard_id = 0;
  /// Required for kFullScan / kTileScreened.
  const RasterModel* model = nullptr;
  /// Required for kProgressiveModel / kCombined.
  const ProgressiveLinearModel* progressive = nullptr;
  std::size_t k = 10;
  JobLimits limits;
};

/// An Onion-index linear top-K query.
struct OnionJob {
  const OnionIndex* index = nullptr;
  std::vector<double> weights;
  std::size_t k = 10;
  JobLimits limits;
};

/// A fuzzy Cartesian composite query.
struct CompositeJob {
  enum class Processor : std::uint8_t { kFastSproc = 0, kSproc = 1, kBruteForce = 2 };

  const CartesianQuery* query = nullptr;
  Processor processor = Processor::kFastSproc;
  std::size_t k = 10;
  JobLimits limits;
};

/// Timing + accounting shared by every outcome type.
struct OutcomeInfo {
  CostMeter meter;
  bool cache_hit = false;
  std::uint64_t dispatch_order = 0;  ///< 0 for shed jobs (never dispatched)
  std::chrono::nanoseconds queue_wait{0};
  std::chrono::nanoseconds exec_time{0};
  /// Work units the query's context booked: what it spent, plus the request
  /// it was refused when its budget tripped.  0 for cache hits and shed jobs.
  std::uint64_t budget_spent = 0;
  /// The query's completed trace when the engine has a tracer; null
  /// otherwise.  Handed to the caller directly (not via Tracer::latest())
  /// so concurrent dispatchers can't hand back someone else's trace — the
  /// shard server serializes this tree into its reply.  A batched member
  /// gets its group's `batch` trace, which may still be recording the
  /// members after it when the member is answered.
  std::shared_ptr<const obs::Trace> trace;

  [[nodiscard]] std::chrono::nanoseconds latency() const noexcept {
    return queue_wait + exec_time;
  }
};

struct RasterOutcome : OutcomeInfo {
  RasterTopK result;
};
struct ShardedRasterOutcome : OutcomeInfo {
  /// On a result-cache hit only `result.merged` is restored; the per-shard
  /// dispositions belong to the execution that produced the entry and come
  /// back empty.
  ShardedTopK result;
};
struct ShardScanOutcome : OutcomeInfo {
  ShardScanResult result;
};
struct OnionOutcome : OutcomeInfo {
  OnionTopK result;
};
struct CompositeOutcome : OutcomeInfo {
  CompositeTopK result;
};

/// Rolling fault-domain health of one shard layout (archive/sharded.hpp
/// layout_tag()), aggregated over the engine's recent-executions window.
struct ShardLayoutHealth {
  std::uint64_t layout_tag = 0;
  std::size_t shard_count = 0;     ///< decoded from the tag
  std::uint64_t executions = 0;    ///< sharded runs of this layout in the window
  std::uint64_t timeouts = 0;      ///< per-shard sub-deadlines tripped
  std::uint64_t hedges = 0;        ///< hedge duplicates launched
  std::uint64_t failed_shards = 0; ///< shards that contributed nothing
};

/// Engine health verdict for /healthz: degraded when any recent sharded
/// execution tripped a shard timeout or lost a shard outright (hedges alone
/// do not degrade — a hedge that rescued a straggler is the system working).
struct EngineHealth {
  bool degraded = false;
  std::vector<ShardLayoutHealth> layouts;  ///< sorted by layout_tag
};

/// Snapshot of engine counters.
struct EngineStats {
  std::uint64_t submitted = 0;  ///< jobs offered (admitted + shed)
  std::uint64_t completed = 0;  ///< futures fulfilled by execution
  std::uint64_t shed = 0;       ///< rejected by admission control / shutdown
  std::uint64_t failed = 0;     ///< executions that ended in an exception
  std::size_t queue_depth = 0;  ///< currently queued
  std::size_t active = 0;       ///< currently executing
};

/// The engine facade: scheduler + intra-query thread pool + caches.
class QueryEngine {
 public:
  explicit QueryEngine(EngineConfig config = {});

  /// Stops dispatchers; jobs still queued are shed (their futures complete
  /// with ResultStatus::kShed).
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  [[nodiscard]] std::future<RasterOutcome> submit(RasterJob job);
  [[nodiscard]] std::future<ShardedRasterOutcome> submit(ShardedRasterJob job);
  [[nodiscard]] std::future<ShardScanOutcome> submit(ShardScanJob job);
  [[nodiscard]] std::future<OnionOutcome> submit(OnionJob job);
  [[nodiscard]] std::future<CompositeOutcome> submit(CompositeJob job);

  /// Holds dispatch (admission continues); resume() releases.  Used for
  /// deterministic queue build-up in tests and for maintenance windows.
  void pause();
  void resume();

  /// Blocks until the queue is empty and no query is executing.
  void drain();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] CacheStats result_cache_stats() const;

  /// Fault-domain health over the last kHealthWindow sharded executions,
  /// aggregated per shard layout; feeds the stats server's /healthz.
  [[nodiscard]] EngineHealth health() const;

  /// Actual TCP port of the embedded stats server (useful with
  /// EngineConfig::stats_port = 0), or -1 when the server is off.
  [[nodiscard]] int stats_port() const noexcept;

 private:
  using ResultCache =
      ShardedLruCache<QueryCacheKey, std::shared_ptr<const RasterTopK>, QueryCacheKeyHash>;

  /// A queued unit of work: run(false) executes, run(true) sheds.
  struct QueuedTask {
    std::function<void(bool shed)> run;
  };

  /// The trace a batch group's members run under: one `batch` root span, one
  /// `member` child per member.  Inert when the engine has no tracer.
  struct BatchTrace {
    std::shared_ptr<obs::Trace> trace;
    obs::Span root;
    std::size_t members_run = 0;
  };

  /// One admitted job, type-erased: run(shed, batch) sheds it, or executes
  /// it under its own `query` trace (batch null) or as the next member of
  /// `batch`.
  using JobRunner = std::function<void(bool shed, BatchTrace* batch)>;

  /// A full-scan RasterJob with a linear model over the archive's bands, as
  /// a batch member: what run_pass needs to score it in a shared pass
  /// instead of running it.
  struct PassScan {
    RasterJob job;
    std::shared_ptr<std::promise<RasterOutcome>> promise;
    std::chrono::steady_clock::time_point submitted_at;
  };

  /// One member of a batch group: its solo runner, and its PassScan when it
  /// may share a full-scan pass (null otherwise).
  struct BatchMember {
    JobRunner run;
    std::shared_ptr<const PassScan> scan;
  };

  /// A dispatched job's state between the two halves of its envelope: the
  /// outcome it builds, its start, its trace and span, and its context.
  template <typename Outcome>
  struct Envelope {
    Outcome out;
    std::chrono::steady_clock::time_point started;
    std::shared_ptr<obs::Trace> trace;
    obs::Span span;
    QueryContext ctx;
  };

  /// Admits `execute` (the job body: result cache, executor, cache put) as
  /// one job.  With batching on and a non-null `batch_key` (the archive the
  /// job scans), the job joins that key's open group instead of taking a
  /// queue slot of its own; `pass_scan`, when non-null, lets it share a
  /// full-scan pass there.
  template <typename Outcome, typename Execute>
  std::future<Outcome> enqueue(const char* kind, const JobLimits& limits, Execute execute,
                               const void* batch_key = nullptr,
                               const RasterJob* pass_scan = nullptr);

  /// The per-job envelope every job run on its own executes, solo or as a
  /// batch member: begin_job, the job body, finish_job, and the promise
  /// fulfilled with the outcome or the job's own exception.
  template <typename Outcome, typename Execute>
  void run_job(std::promise<Outcome>& promise, const char* kind, const JobLimits& limits,
               std::chrono::steady_clock::time_point submitted_at, const Execute& execute,
               bool shed, BatchTrace* batch);

  /// The begin half of the envelope: dispatch order, queue wait from
  /// submission to `started`, the job's own `query` trace (or a `member`
  /// span under `batch`), and its configured context.
  template <typename Outcome>
  void begin_job(Envelope<Outcome>& env, const char* kind, const JobLimits& limits,
                 std::chrono::steady_clock::time_point submitted_at,
                 std::chrono::steady_clock::time_point started, BatchTrace* batch);

  /// The finish half: budget books, exec time, meter publish, cache gauges,
  /// span and trace close, and the promise fulfilled with the outcome.
  template <typename Outcome>
  void finish_job(Envelope<Outcome>& env, std::promise<Outcome>& promise, BatchTrace* batch);

  /// Fulfils `promise` with the exception in flight and counts the failure.
  template <typename Outcome>
  void fail_job(std::promise<Outcome>& promise);

  /// Runs consecutive PassScan members of one group as one shared full
  /// scan: each member's begin half at one common start, in arrival order;
  /// a result-cache hit is answered at once and leaves the pass; the rest
  /// share one parallel_full_scan_top_k call, then each gets its cache put
  /// and finish half, in arrival order.  Every probe precedes every put, so
  /// members with one cacheable key all scan.
  void run_pass(std::span<BatchMember> members, BatchTrace* batch);

  /// The result-cache probe of a raster job: on a hit, answers `result`
  /// from the cache and returns true.  Counts the hit or miss on `info`.
  bool cached_result(const std::optional<QueryCacheKey>& key, RasterTopK& result,
                     OutcomeInfo& info);

  /// Caches `result` under `key` when it is admissible: not truncated, so it
  /// does not depend on the query's budget or deadline.
  void cache_result(const std::optional<QueryCacheKey>& key, const RasterTopK& result);

  /// Queues `task` at `priority`, or sheds it when the queue is full or the
  /// engine is stopping.
  void admit(Priority priority, QueuedTask task);

  void dispatcher_loop();
  void configure_context(QueryContext& ctx, const JobLimits& limits,
                         std::chrono::steady_clock::time_point submitted) const;
  /// Refreshes the cache hit-rate / occupancy gauges from CacheStats; called
  /// once per completed query (never per pixel) so the gauges track load
  /// without adding hot-path work.
  void refresh_cache_gauges();

  /// Appends one sharded execution's fault events to the rolling health
  /// window (bounded at kHealthWindow; oldest evicted).
  void record_shard_health(std::uint64_t layout_tag, const ShardFaultStats& stats);

  // ---- Batched admission (config_.batch_max_fanin > 1) -----------------
  // One open group per archive or sharded archive: the first member
  // registers the group and enqueues a single task (one queue slot per
  // group, however many members join); later submissions on the same
  // archive join for free until the fan-in cap closes the group.  The task
  // waits out batch_window for stragglers, then runs the members in arrival
  // order: each run of consecutive linear full-scan RasterJobs as one
  // shared pass (run_pass), every other member through run_job, answered as
  // its own scan ends.
  struct BatchGroup;

  void join_batch(const void* key, Priority priority,
                  std::chrono::steady_clock::time_point submitted_at, BatchMember member);
  void run_batch(const std::shared_ptr<BatchGroup>& group, bool shed);

  /// Result-cache key of a raster query, or nullopt when it is uncacheable:
  /// no archive id, no model fingerprint (the caller's override, else derived
  /// from progressive models in model-leg modes and from LinearRasterModel),
  /// or no result cache.  `shard_layout` is the sharded archive's
  /// layout_tag(), 0 for monolithic jobs.
  [[nodiscard]] std::optional<QueryCacheKey> result_key(RasterJob::Mode mode,
                                                        const RasterModel* model,
                                                        const ProgressiveLinearModel* progressive,
                                                        std::size_t k, std::uint64_t archive_id,
                                                        std::uint64_t fingerprint_override,
                                                        std::uint32_t shard_layout) const;

  EngineConfig config_;
  std::unique_ptr<ThreadPool> exec_pool_;
  std::unique_ptr<ResultCache> result_cache_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<QueuedTask> queues_[kPriorityLevels];
  std::size_t queued_ = 0;
  std::size_t active_ = 0;
  bool paused_ = false;
  bool stopping_ = false;

  // Batch formation state; groups live here between the first member's
  // admission and their task's execution.  batch_cv_ wakes tasks waiting
  // out their window when a group closes (fan-in reached) or the engine
  // stops.
  std::mutex batch_mutex_;
  std::condition_variable batch_cv_;
  std::atomic<bool> batch_stop_{false};
  std::unordered_map<const void*, std::shared_ptr<BatchGroup>> open_batches_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> dispatch_seq_{0};

  // Registry handles; inert (no-op) when config_.metrics is null.
  obs::Counter jobs_submitted_metric_;
  obs::Counter jobs_completed_metric_;
  obs::Counter jobs_shed_metric_;
  obs::Counter jobs_failed_metric_;
  obs::Gauge queue_depth_gauge_;
  obs::Gauge active_gauge_;
  obs::Histogram queue_wait_hist_;
  obs::Histogram exec_time_hist_;
  obs::Gauge result_cache_hit_ppm_gauge_;
  obs::Gauge result_cache_entries_gauge_;
  obs::Counter batch_batches_metric_;
  obs::Counter batch_members_metric_;
  obs::Histogram batch_fanin_hist_;
  MeterCounters meter_counters_;
  ShardFaultMetrics shard_fault_metrics_;

  // Rolling fault-domain window: one event per sharded execution, newest at
  // the back.  Small (kHealthWindow) and touched once per query, so a plain
  // mutex is fine.
  struct ShardHealthEvent {
    std::uint64_t layout_tag = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t hedges = 0;
    std::uint64_t failed_shards = 0;
  };
  static constexpr std::size_t kHealthWindow = 256;
  mutable std::mutex health_mutex_;
  std::deque<ShardHealthEvent> health_window_;

  std::vector<std::thread> dispatchers_;
  std::unique_ptr<obs::StatsServer> stats_server_;
};

}  // namespace mmir
