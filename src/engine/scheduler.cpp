#include "engine/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <utility>

#include "obs/stats_server.hpp"
#include "sproc/brute.hpp"
#include "sproc/fast_sproc.hpp"
#include "sproc/sproc.hpp"

namespace mmir {

namespace {

constexpr double kPosInf = std::numeric_limits<double>::infinity();

// A shed job examined nothing, so its empty result carries the loosest sound
// missed bound for its score domain.
void mark_shed(RasterTopK& result) {
  result.status = ResultStatus::kShed;
  result.missed_bound = kPosInf;
}
void mark_shed(ShardedTopK& result) {
  result.merged.status = ResultStatus::kShed;
  result.merged.missed_bound = kPosInf;
}
void mark_shed(OnionTopK& result) {
  result.status = ResultStatus::kShed;
  result.missed_bound = kPosInf;
}
void mark_shed(ShardScanResult& result) {
  result.partial.result.status = ResultStatus::kShed;
  result.partial.result.missed_bound = kPosInf;
}
void mark_shed(CompositeTopK& result) {
  result.status = ResultStatus::kShed;
  result.missed_bound = 1.0;  // fuzzy degrees live in [0, 1]
}

}  // namespace

/// A forming batch group on one archive (or sharded archive).  Lives in
/// open_batches_ from the first member's admission until its task drains
/// it; `closed` stops further joins (fan-in reached, window expired, or
/// engine stopping).
struct QueryEngine::BatchGroup {
  const void* key = nullptr;
  std::chrono::steady_clock::time_point deadline;
  bool closed = false;
  std::vector<BatchMember> members;  ///< in arrival order
};

QueryEngine::QueryEngine(EngineConfig config) : config_(config) {
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    jobs_submitted_metric_ = reg.counter("engine_jobs_submitted_total");
    jobs_completed_metric_ = reg.counter("engine_jobs_completed_total");
    jobs_shed_metric_ = reg.counter("engine_jobs_shed_total");
    jobs_failed_metric_ = reg.counter("engine_jobs_failed_total");
    queue_depth_gauge_ = reg.gauge("engine_queue_depth");
    active_gauge_ = reg.gauge("engine_active_queries");
    queue_wait_hist_ = reg.histogram("engine_queue_wait_ns");
    exec_time_hist_ = reg.histogram("engine_exec_time_ns");
    result_cache_hit_ppm_gauge_ = reg.gauge("engine_result_cache_hit_rate_ppm");
    result_cache_entries_gauge_ = reg.gauge("engine_result_cache_entries");
    batch_batches_metric_ = reg.counter("engine_batch_batches_total");
    batch_members_metric_ = reg.counter("engine_batch_members_total");
    batch_fanin_hist_ = reg.histogram("engine_batch_fanin");
    meter_counters_ = MeterCounters(reg);
    shard_fault_metrics_ = ShardFaultMetrics(reg);
  }
  exec_pool_ = std::make_unique<ThreadPool>(config_.intra_query_threads);
  if (config_.result_cache_entries > 0) {
    result_cache_ =
        std::make_unique<ResultCache>(config_.result_cache_entries, config_.cache_shards);
  }
  paused_ = config_.start_paused;
  const std::size_t dispatchers = std::max<std::size_t>(1, config_.dispatchers);
  dispatchers_.reserve(dispatchers);
  for (std::size_t i = 0; i < dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
  if (config_.stats_port >= 0) {
    obs::StatsSources sources;
    sources.metrics = config_.metrics;
    sources.tracer = config_.tracer;
    // Safe to capture `this`: the destructor stops the server before any
    // engine member is torn down.
    sources.health = [this] {
      const EngineHealth h = health();
      obs::HealthReport report;
      report.ok = !h.degraded;
      report.lines.reserve(h.layouts.size());
      for (const ShardLayoutHealth& layout : h.layouts) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "layout=0x%llx shards=%zu executions=%llu timeouts=%llu hedges=%llu "
                      "failed_shards=%llu",
                      static_cast<unsigned long long>(layout.layout_tag), layout.shard_count,
                      static_cast<unsigned long long>(layout.executions),
                      static_cast<unsigned long long>(layout.timeouts),
                      static_cast<unsigned long long>(layout.hedges),
                      static_cast<unsigned long long>(layout.failed_shards));
        report.lines.emplace_back(line);
      }
      return report;
    };
    stats_server_ = std::make_unique<obs::StatsServer>(sources);
    stats_server_->start(static_cast<std::uint16_t>(config_.stats_port));
  }
}

QueryEngine::~QueryEngine() {
  stats_server_.reset();  // stop serving before the sources drain away
  // Wake any batch task parked on its window so it executes (or sheds)
  // before the dispatchers join.  The empty critical section orders the store
  // against a waiter that just evaluated its predicate.
  batch_stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
  }
  batch_cv_.notify_all();
  std::vector<QueuedTask> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    for (auto& level : queues_) {
      for (QueuedTask& task : level) leftovers.push_back(std::move(task));
      level.clear();
    }
    queued_ = 0;
  }
  queue_cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  // Fulfil the futures of jobs that never ran.
  for (QueuedTask& task : leftovers) task.run(true);
  drain_cv_.notify_all();
}

void QueryEngine::pause() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  paused_ = true;
}

void QueryEngine::resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void QueryEngine::drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drain_cv_.wait(lock, [&] { return queued_ == 0 && active_ == 0; });
}

EngineStats QueryEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queued_;
    s.active = active_;
  }
  return s;
}

CacheStats QueryEngine::result_cache_stats() const {
  return result_cache_ ? result_cache_->stats() : CacheStats{};
}

void QueryEngine::record_shard_health(std::uint64_t layout_tag, const ShardFaultStats& stats) {
  std::lock_guard<std::mutex> lock(health_mutex_);
  if (health_window_.size() >= kHealthWindow) health_window_.pop_front();
  health_window_.push_back(
      {layout_tag, stats.timeouts, stats.hedges_launched, stats.failed_shards});
}

EngineHealth QueryEngine::health() const {
  EngineHealth out;
  std::lock_guard<std::mutex> lock(health_mutex_);
  for (const ShardHealthEvent& event : health_window_) {
    auto it = std::find_if(out.layouts.begin(), out.layouts.end(), [&](const auto& l) {
      return l.layout_tag == event.layout_tag;
    });
    if (it == out.layouts.end()) {
      ShardLayoutHealth layout;
      layout.layout_tag = event.layout_tag;
      // layout_tag is ((policy + 1) << 24) | shard_count (archive/sharded.hpp).
      layout.shard_count = static_cast<std::size_t>(event.layout_tag & 0xFFFFFFu);
      it = out.layouts.insert(out.layouts.end(), layout);
    }
    ++it->executions;
    it->timeouts += event.timeouts;
    it->hedges += event.hedges;
    it->failed_shards += event.failed_shards;
    if (event.timeouts > 0 || event.failed_shards > 0) out.degraded = true;
  }
  std::sort(out.layouts.begin(), out.layouts.end(),
            [](const auto& a, const auto& b) { return a.layout_tag < b.layout_tag; });
  return out;
}

int QueryEngine::stats_port() const noexcept {
  return stats_server_ != nullptr && stats_server_->running() ? stats_server_->port() : -1;
}

void QueryEngine::refresh_cache_gauges() {
  // ppm (parts per million) keeps a ratio on the integer gauge surface.
  constexpr double kPpm = 1e6;
  if (result_cache_ != nullptr) {
    const CacheStats s = result_cache_->stats();
    result_cache_hit_ppm_gauge_.set(static_cast<std::int64_t>(s.hit_rate() * kPpm));
    result_cache_entries_gauge_.set(static_cast<std::int64_t>(result_cache_->size()));
  }
}

void QueryEngine::configure_context(QueryContext& ctx, const JobLimits& limits,
                                    std::chrono::steady_clock::time_point submitted) const {
  ctx.with_op_budget(limits.op_budget);
  if (limits.timeout.count() > 0) ctx.with_deadline(submitted + limits.timeout);
  if (limits.cancel != nullptr) ctx.with_cancel_flag(limits.cancel);
}

void QueryEngine::dispatcher_loop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] { return stopping_ || (!paused_ && queued_ > 0); });
      if (stopping_) return;
      for (auto& level : queues_) {
        if (!level.empty()) {
          task = std::move(level.front());
          level.pop_front();
          break;
        }
      }
      --queued_;
      ++active_;
      queue_depth_gauge_.set(static_cast<std::int64_t>(queued_));
      active_gauge_.set(static_cast<std::int64_t>(active_));
    }
    task.run(false);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --active_;
      active_gauge_.set(static_cast<std::int64_t>(active_));
    }
    drain_cv_.notify_all();
  }
}

template <typename Outcome, typename Execute>
std::future<Outcome> QueryEngine::enqueue(const char* kind, const JobLimits& limits,
                                          Execute execute, const void* batch_key,
                                          const RasterJob* pass_scan) {
  auto promise = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> future = promise->get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  jobs_submitted_metric_.add();
  const auto submitted_at = std::chrono::steady_clock::now();

  auto run = [this, promise, execute = std::move(execute), kind, limits, submitted_at](
                 bool shed, BatchTrace* batch) {
    run_job(*promise, kind, limits, submitted_at, execute, shed, batch);
  };
  if (batch_key != nullptr && config_.batch_max_fanin > 1) {
    BatchMember member{JobRunner(std::move(run)), nullptr};
    if constexpr (std::is_same_v<Outcome, RasterOutcome>) {
      if (pass_scan != nullptr) {
        member.scan = std::make_shared<const PassScan>(PassScan{*pass_scan, promise, submitted_at});
      }
    }
    join_batch(batch_key, limits.priority, submitted_at, std::move(member));
  } else {
    QueuedTask task;
    task.run = [run = std::move(run)](bool shed) { run(shed, nullptr); };
    admit(limits.priority, std::move(task));
  }
  return future;
}

template <typename Outcome, typename Execute>
void QueryEngine::run_job(std::promise<Outcome>& promise, const char* kind,
                          const JobLimits& limits,
                          std::chrono::steady_clock::time_point submitted_at,
                          const Execute& execute, bool shed, BatchTrace* batch) {
  if (shed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    jobs_shed_metric_.add();
    Outcome out;
    mark_shed(out.result);
    promise.set_value(std::move(out));
    return;
  }
  try {
    Envelope<Outcome> env;
    begin_job(env, kind, limits, submitted_at, std::chrono::steady_clock::now(), batch);
    // Deeper layers (archive/io retries) reach the span through the
    // SpanScope's thread-local hook.
    obs::SpanScope scope(env.span);
    execute(env.ctx, env.out);
    finish_job(env, promise, batch);
  } catch (...) {
    fail_job(promise);
  }
}

template <typename Outcome>
void QueryEngine::begin_job(Envelope<Outcome>& env, const char* kind, const JobLimits& limits,
                            std::chrono::steady_clock::time_point submitted_at,
                            std::chrono::steady_clock::time_point started, BatchTrace* batch) {
  Outcome& out = env.out;
  out.dispatch_order = dispatch_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  env.started = started;
  out.queue_wait = std::chrono::duration_cast<std::chrono::nanoseconds>(started - submitted_at);
  queue_wait_hist_.observe_duration(out.queue_wait);
  // One trace per dispatched query, or one `member` span under its batch's
  // root: the span covers execution, with queue wait recorded as an
  // annotation (the span clock starts at dispatch, not submission).
  // Executors hang stage spans off it via ctx.span().
  if (batch != nullptr) {
    env.span = obs::Span::child_of(&batch->root, "member");
    env.span.annotate("member", static_cast<double>(batch->members_run++));
  } else if (config_.tracer != nullptr) {
    env.trace = config_.tracer->start_trace(kind);
    env.span = obs::Span(env.trace.get(), "query");
    env.span.annotate("query_id", static_cast<double>(env.trace->id()));
  }
  if (env.span.active()) {
    env.span.annotate("queue_wait_ns", static_cast<double>(out.queue_wait.count()));
    env.span.annotate("priority", static_cast<double>(limits.priority));
    env.span.annotate("dispatch_order", static_cast<double>(out.dispatch_order));
    if (limits.op_budget != std::numeric_limits<std::uint64_t>::max()) {
      env.span.annotate("op_budget", static_cast<double>(limits.op_budget));
    }
    if (limits.timeout.count() > 0) {
      env.span.annotate("timeout_ns", static_cast<double>(limits.timeout.count()));
    }
  }
  configure_context(env.ctx, limits, submitted_at);
  if (env.span.active()) env.ctx.with_span(&env.span);
}

template <typename Outcome>
void QueryEngine::finish_job(Envelope<Outcome>& env, std::promise<Outcome>& promise,
                             BatchTrace* batch) {
  Outcome& out = env.out;
  out.budget_spent = env.ctx.spent();
  out.exec_time = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - env.started);
  exec_time_hist_.observe_duration(out.exec_time);
  meter_counters_.publish(out.meter);
  if (config_.metrics != nullptr) refresh_cache_gauges();
  if (env.span.active()) {
    env.span.annotate("exec_ns", static_cast<double>(out.exec_time.count()));
    env.span.annotate("ops_spent", static_cast<double>(out.meter.ops()));
    env.span.annotate("cache_hits", static_cast<double>(out.meter.cache_hits()));
    env.span.annotate("cache_misses", static_cast<double>(out.meter.cache_misses()));
    if (out.cache_hit) env.span.note("result_cache", "hit");
    env.span.finish();
  }
  if (env.trace != nullptr) {
    out.trace = env.trace;
    config_.tracer->finish(std::move(env.trace));
  } else if (batch != nullptr) {
    out.trace = batch->trace;
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  jobs_completed_metric_.add();
  promise.set_value(std::move(out));
}

template <typename Outcome>
void QueryEngine::fail_job(std::promise<Outcome>& promise) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  jobs_failed_metric_.add();
  promise.set_exception(std::current_exception());
}

void QueryEngine::run_pass(std::span<BatchMember> members, BatchTrace* batch) {
  // One start for the whole pass: every member's queue wait runs to it.
  const auto started = std::chrono::steady_clock::now();
  struct Scanning {
    const PassScan* scan;
    std::unique_ptr<Envelope<RasterOutcome>> env;
    std::optional<QueryCacheKey> key;
  };
  std::vector<Scanning> scanning;
  scanning.reserve(members.size());
  for (const BatchMember& member : members) {
    const PassScan& scan = *member.scan;
    const RasterJob& job = scan.job;
    try {
      auto env = std::make_unique<Envelope<RasterOutcome>>();
      begin_job(*env, "raster", job.limits, scan.submitted_at, started, batch);
      auto key = result_key(job.mode, job.model, job.progressive, job.k, job.archive_id,
                            job.model_fingerprint, 0);
      if (cached_result(key, env->out.result, env->out)) {
        finish_job(*env, *scan.promise, batch);
        continue;
      }
      scanning.push_back({&scan, std::move(env), key});
    } catch (...) {
      fail_job(*scan.promise);
    }
  }
  if (scanning.empty()) return;
  std::vector<FullScanMember> pass;
  pass.reserve(scanning.size());
  for (const Scanning& s : scanning) {
    pass.push_back({s.scan->job.model, s.scan->job.k, &s.env->ctx, &s.env->out.meter,
                    &s.env->out.result});
  }
  try {
    parallel_full_scan_top_k(*scanning.front().scan->job.archive, pass, *exec_pool_);
  } catch (...) {
    for (const Scanning& s : scanning) fail_job(*s.scan->promise);
    return;
  }
  for (const Scanning& s : scanning) {
    try {
      cache_result(s.key, s.env->out.result);
      finish_job(*s.env, *s.scan->promise, batch);
    } catch (...) {
      fail_job(*s.scan->promise);
    }
  }
}

bool QueryEngine::cached_result(const std::optional<QueryCacheKey>& key, RasterTopK& result,
                                OutcomeInfo& info) {
  if (!key) return false;
  if (auto hit = result_cache_->get(*key)) {
    result = **hit;
    info.cache_hit = true;
    info.meter.add_cache_hits();
    return true;
  }
  info.meter.add_cache_misses();
  return false;
}

void QueryEngine::cache_result(const std::optional<QueryCacheKey>& key, const RasterTopK& result) {
  // Only answers that do not depend on this query's budget/deadline are
  // admissible: a truncated result would poison future lookups.
  if (key && !is_truncated(result.status)) {
    result_cache_->put(*key, std::make_shared<const RasterTopK>(result));
  }
}

void QueryEngine::admit(Priority priority, QueuedTask task) {
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!stopping_ && queued_ < config_.queue_capacity) {
      queues_[static_cast<std::size_t>(priority)].push_back(std::move(task));
      ++queued_;
      queue_depth_gauge_.set(static_cast<std::int64_t>(queued_));
      admitted = true;
    }
  }
  if (admitted) {
    queue_cv_.notify_one();
  } else {
    task.run(true);  // admission control: shed without dispatching
  }
}

std::optional<QueryCacheKey> QueryEngine::result_key(RasterJob::Mode mode,
                                                     const RasterModel* model,
                                                     const ProgressiveLinearModel* progressive,
                                                     std::size_t k, std::uint64_t archive_id,
                                                     std::uint64_t fingerprint_override,
                                                     std::uint32_t shard_layout) const {
  std::uint64_t fp = fingerprint_override;
  if (fp == 0) {
    if (mode == RasterJob::Mode::kProgressiveModel || mode == RasterJob::Mode::kCombined) {
      fp = model_fingerprint(*progressive);
    } else if (const auto* linear = dynamic_cast<const LinearRasterModel*>(model)) {
      fp = model_fingerprint(linear->linear());
    }
  }
  if (archive_id == 0 || fp == 0 || result_cache_ == nullptr) return std::nullopt;
  return QueryCacheKey{archive_id, fp, static_cast<std::uint32_t>(k),
                       static_cast<std::uint32_t>(mode), shard_layout};
}

std::future<RasterOutcome> QueryEngine::submit(RasterJob job) {
  MMIR_EXPECTS(job.archive != nullptr);
  MMIR_EXPECTS(job.k > 0);
  const bool model_leg =
      job.mode == RasterJob::Mode::kProgressiveModel || job.mode == RasterJob::Mode::kCombined;
  if (model_leg) {
    MMIR_EXPECTS(job.progressive != nullptr);
  } else {
    MMIR_EXPECTS(job.model != nullptr);
  }
  // A linear full scan may share a pass with its batch-mates.  Any other
  // model's evaluate() may stall or throw, and so may the executor on a
  // model whose band count is not the archive's; its batch-mates must
  // neither wait for it nor fail with it, so it runs on its own.
  const bool shares_scan = config_.batch_max_fanin > 1 && job.mode == RasterJob::Mode::kFullScan &&
                           job.model->bands() == job.archive->band_count() &&
                           exec::linear_model_of(*job.model) != nullptr;
  return enqueue<RasterOutcome>(
      "raster", job.limits,
      [this, job](QueryContext& ctx, RasterOutcome& out) {
        const auto key = result_key(job.mode, job.model, job.progressive, job.k, job.archive_id,
                                    job.model_fingerprint, 0);
        if (cached_result(key, out.result, out)) return;

        switch (job.mode) {
          case RasterJob::Mode::kFullScan:
            out.result = parallel_full_scan_top_k(*job.archive, *job.model, job.k, ctx,
                                                  out.meter, *exec_pool_);
            break;
          case RasterJob::Mode::kProgressiveModel:
            out.result = parallel_progressive_model_top_k(*job.archive, *job.progressive, job.k,
                                                          ctx, out.meter, *exec_pool_);
            break;
          case RasterJob::Mode::kTileScreened:
            out.result = parallel_tile_screened_top_k(*job.archive, *job.model, job.k, ctx,
                                                      out.meter, *exec_pool_);
            break;
          case RasterJob::Mode::kCombined:
            out.result = parallel_progressive_combined_top_k(*job.archive, *job.progressive,
                                                             job.k, ctx, out.meter, *exec_pool_);
            break;
        }
        cache_result(key, out.result);
      },
      job.archive, shares_scan ? &job : nullptr);
}

std::future<ShardedRasterOutcome> QueryEngine::submit(ShardedRasterJob job) {
  MMIR_EXPECTS(job.sharded != nullptr);
  MMIR_EXPECTS(job.k > 0);
  const bool model_leg =
      job.mode == RasterJob::Mode::kProgressiveModel || job.mode == RasterJob::Mode::kCombined;
  if (model_leg) {
    MMIR_EXPECTS(job.progressive != nullptr);
  } else {
    MMIR_EXPECTS(job.model != nullptr);
  }

  return enqueue<ShardedRasterOutcome>(
      "sharded_raster", job.limits, [this, job](QueryContext& ctx, ShardedRasterOutcome& out) {
        const ShardedArchive& sharded = *job.sharded;
        const auto key = result_key(job.mode, job.model, job.progressive, job.k, job.archive_id,
                                    job.model_fingerprint, sharded.layout_tag());
        if (cached_result(key, out.result.merged, out)) return;

        // The engine-wide fault envelope: per-shard sub-deadlines, retries,
        // hedging, chaos injection.  Inactive options pass through to the
        // plain scatter-gather path unchanged.
        ShardExecOptions shard_options;
        shard_options.policy = config_.shard_fault_policy;
        shard_options.chaos = config_.shard_chaos;
        shard_options.metrics = config_.metrics != nullptr ? &shard_fault_metrics_ : nullptr;
        const ShardExecOptions* options = shard_options.active() ? &shard_options : nullptr;

        switch (job.mode) {
          case RasterJob::Mode::kFullScan:
            out.result = sharded_full_scan_top_k(sharded, *job.model, job.k, ctx, out.meter,
                                                 *exec_pool_, options);
            break;
          case RasterJob::Mode::kProgressiveModel:
            out.result = sharded_progressive_model_top_k(sharded, *job.progressive, job.k, ctx,
                                                         out.meter, *exec_pool_, options);
            break;
          case RasterJob::Mode::kTileScreened:
            out.result = sharded_tile_screened_top_k(sharded, *job.model, job.k, ctx, out.meter,
                                                     *exec_pool_, options);
            break;
          case RasterJob::Mode::kCombined:
            out.result = sharded_progressive_combined_top_k(sharded, *job.progressive, job.k,
                                                            ctx, out.meter, *exec_pool_, options);
            break;
        }
        if (options != nullptr) {
          record_shard_health(sharded.layout_tag(), out.result.fault_stats);
        }

        // A fault-widened (degraded) merge is also inadmissible: the widened
        // bound is an artifact of this execution's faults, not of the data.
        if (!out.result.fault_stats.any_fault()) cache_result(key, out.result.merged);
      });
}

std::future<ShardScanOutcome> QueryEngine::submit(ShardScanJob job) {
  MMIR_EXPECTS(job.sharded != nullptr);
  MMIR_EXPECTS(job.k > 0);
  MMIR_EXPECTS(job.shard_id < job.sharded->shard_count());
  const bool model_leg =
      job.mode == ShardScanMode::kProgressiveModel || job.mode == ShardScanMode::kCombined;
  if (model_leg) {
    MMIR_EXPECTS(job.progressive != nullptr);
  } else {
    MMIR_EXPECTS(job.model != nullptr);
  }
  return enqueue<ShardScanOutcome>(
      "shard_scan", job.limits,
      [job](QueryContext& ctx, ShardScanOutcome& out) {
        out.result = scan_shard_partial(*job.sharded, job.shard_id, job.mode, job.model,
                                        job.progressive, job.k, ctx, out.meter);
      },
      job.sharded);
}

void QueryEngine::join_batch(const void* key, Priority priority,
                             std::chrono::steady_clock::time_point submitted_at,
                             BatchMember member) {
  std::shared_ptr<BatchGroup> group;
  {
    std::lock_guard<std::mutex> lock(batch_mutex_);
    auto it = open_batches_.find(key);
    if (it != open_batches_.end()) {
      BatchGroup& open = *it->second;
      open.members.push_back(std::move(member));
      if (open.members.size() >= config_.batch_max_fanin) {
        open.closed = true;
        open_batches_.erase(it);
        batch_cv_.notify_all();
      }
      return;
    }
    // First member on this key: open a group and enqueue ONE task for the
    // whole group; joiners ride along without consuming queue slots.
    group = std::make_shared<BatchGroup>();
    group->key = key;
    group->deadline = submitted_at + config_.batch_window;
    group->members.push_back(std::move(member));
    open_batches_.emplace(key, group);
  }
  QueuedTask task;
  task.run = [this, group](bool shed) { run_batch(group, shed); };
  admit(priority, std::move(task));
}

void QueryEngine::run_batch(const std::shared_ptr<BatchGroup>& group, bool shed) {
  std::vector<BatchMember> members;
  {
    std::unique_lock<std::mutex> lock(batch_mutex_);
    if (!shed && !group->closed && config_.batch_window.count() > 0) {
      batch_cv_.wait_until(lock, group->deadline, [&] {
        return group->closed || batch_stop_.load(std::memory_order_relaxed);
      });
    }
    group->closed = true;
    auto it = open_batches_.find(group->key);
    if (it != open_batches_.end() && it->second == group) open_batches_.erase(it);
    members = std::move(group->members);
  }
  if (members.empty()) return;
  if (shed) {
    for (BatchMember& member : members) member.run(true, nullptr);
    return;
  }

  batch_batches_metric_.add();
  batch_members_metric_.add(members.size());
  batch_fanin_hist_.observe(members.size());
  // One trace for the whole group: the root "batch" span carries the fan-in
  // and each member hangs its own child span (the solo span vocabulary) off
  // it.  Members go in arrival order: each run of consecutive linear full
  // scans shares one pass (run_pass), and every other member runs on its
  // own through the solo job body, answered the moment its own scan ends.
  BatchTrace batch;
  if (config_.tracer != nullptr) {
    batch.trace = config_.tracer->start_trace("batch");
    batch.root = obs::Span(batch.trace.get(), "batch");
    batch.root.annotate("query_id", static_cast<double>(batch.trace->id()));
    batch.root.annotate("fan_in", static_cast<double>(members.size()));
  }
  for (std::size_t i = 0; i < members.size();) {
    std::size_t end = i + 1;
    if (members[i].scan != nullptr) {
      while (end < members.size() && members[end].scan != nullptr) ++end;
    }
    if (end - i > 1) {
      run_pass(std::span(members).subspan(i, end - i), &batch);
    } else {
      members[i].run(false, &batch);
    }
    i = end;
  }
  batch.root.finish();
  if (batch.trace != nullptr) config_.tracer->finish(std::move(batch.trace));
}

std::future<OnionOutcome> QueryEngine::submit(OnionJob job) {
  MMIR_EXPECTS(job.index != nullptr);
  MMIR_EXPECTS(job.k > 0);
  MMIR_EXPECTS(!job.weights.empty());
  return enqueue<OnionOutcome>(
      "onion", job.limits, [job = std::move(job)](QueryContext& ctx, OnionOutcome& out) {
        out.result = job.index->top_k(job.weights, job.k, ctx, out.meter);
      });
}

std::future<CompositeOutcome> QueryEngine::submit(CompositeJob job) {
  MMIR_EXPECTS(job.query != nullptr);
  MMIR_EXPECTS(job.k > 0);
  return enqueue<CompositeOutcome>(
      "composite", job.limits, [job](QueryContext& ctx, CompositeOutcome& out) {
        switch (job.processor) {
          case CompositeJob::Processor::kFastSproc:
            out.result = fast_sproc_top_k(*job.query, job.k, ctx, out.meter);
            break;
          case CompositeJob::Processor::kSproc:
            out.result = sproc_top_k(*job.query, job.k, ctx, out.meter);
            break;
          case CompositeJob::Processor::kBruteForce:
            out.result = brute_force_top_k(*job.query, job.k, ctx, out.meter);
            break;
        }
      });
}

}  // namespace mmir
