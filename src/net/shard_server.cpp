#include "net/shard_server.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "core/raster_model.hpp"
#include "linear/model.hpp"
#include "linear/progressive.hpp"
#include "util/error.hpp"

namespace mmir::net {

namespace {

Frame error_frame(std::uint32_t code, std::string message) {
  WireErrorMsg msg;
  msg.code = code;
  msg.message = std::move(message);
  return Frame{MsgType::kError, encode_error(msg)};
}

}  // namespace

ShardServer::ShardServer(ShardServerConfig config)
    : config_(std::move(config)), engine_([this] {
        if (config_.engine.tracer == nullptr) config_.engine.tracer = &tracer_;
        return config_.engine;
      }()) {}

ShardServer::~ShardServer() { stop(); }

void ShardServer::register_archive(std::uint64_t archive_id, const TiledArchive* archive,
                                   std::vector<Interval> progressive_ranges) {
  MMIR_EXPECTS(archive != nullptr);
  const std::lock_guard<std::mutex> lock(archives_mutex_);
  ArchiveEntry& entry = archives_[archive_id];
  entry.archive = archive;
  entry.ranges = std::move(progressive_ranges);
  entry.layouts.clear();
}

bool ShardServer::start() {
  stop();
  if (!listener_.listen(config_.port)) return false;
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void ShardServer::stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_connections(/*all=*/true);
  listener_.close();
}

bool ShardServer::running() const noexcept { return !stop_.load(std::memory_order_acquire); }

int ShardServer::port() const noexcept { return listener_.port(); }

std::uint64_t ShardServer::queries_served() const noexcept {
  return queries_served_.load(std::memory_order_relaxed);
}

std::uint64_t ShardServer::connections_accepted() const noexcept {
  return connections_accepted_.load(std::memory_order_relaxed);
}

const ShardedArchive* ShardServer::layout_for(ArchiveEntry& entry, std::uint32_t count,
                                              std::uint8_t policy) {
  const auto key = std::make_pair(count, policy);
  const auto it = entry.layouts.find(key);
  if (it != entry.layouts.end()) return it->second.get();
  auto layout = std::make_unique<ShardedArchive>(*entry.archive, count,
                                                 static_cast<ShardPolicy>(policy));
  const ShardedArchive* raw = layout.get();
  entry.layouts.emplace(key, std::move(layout));
  return raw;
}

Frame ShardServer::handle(const Frame& request) {
  switch (request.type) {
    case MsgType::kPing:
      return Frame{MsgType::kPong, {}};
    case MsgType::kQuery:
      return handle_query(request.payload);
    case MsgType::kDescribe:
      return handle_describe(request.payload);
    case MsgType::kStats:
      return handle_stats();
    default:
      return error_frame(kErrBadRequest, "unexpected message type");
  }
}

Frame ShardServer::handle_query(std::span<const std::uint8_t> payload) {
  // s_recv for the router's clock-offset sample: steady-clock time at which
  // this process took ownership of the request.
  const std::uint64_t recv_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  QuerySpec spec;
  try {
    spec = decode_query(payload);
  } catch (const WireError& err) {
    return error_frame(kErrBadRequest, err.what());
  }
  if (config_.shard_id != kAnyShard && spec.shard_id != config_.shard_id) {
    return error_frame(kErrBadRequest, "shard not served by this process");
  }
  try {
    const ShardedArchive* sharded = nullptr;
    std::vector<Interval> ranges;
    {
      const std::lock_guard<std::mutex> lock(archives_mutex_);
      const auto it = archives_.find(spec.archive_id);
      if (it == archives_.end()) return error_frame(kErrUnknownArchive, "archive not registered");
      ArchiveEntry& entry = it->second;
      if (spec.weights.size() != entry.archive->band_count()) {
        return error_frame(kErrBadRequest, "weight count != band count");
      }
      sharded = layout_for(entry, spec.shard_count, spec.shard_policy);
      ranges = entry.ranges;
    }
    if (spec.names.size() != spec.weights.size()) {
      return error_frame(kErrBadRequest, "name count != weight count");
    }

    const auto mode = static_cast<ShardScanMode>(spec.mode);
    const bool model_leg =
        mode == ShardScanMode::kProgressiveModel || mode == ShardScanMode::kCombined;
    const LinearModel linear(spec.weights, spec.bias, spec.names);
    const LinearRasterModel raster(linear);
    std::optional<ProgressiveLinearModel> progressive;
    if (model_leg) {
      if (ranges.size() != spec.weights.size()) {
        return error_frame(kErrBadRequest, "no registered ranges for progressive mode");
      }
      progressive.emplace(linear, std::move(ranges));
    }

    ShardScanJob job;
    job.mode = mode;
    job.sharded = sharded;
    job.shard_id = spec.shard_id;
    job.model = model_leg ? nullptr : &raster;
    job.progressive = model_leg ? &*progressive : nullptr;
    job.k = spec.k;
    job.limits.op_budget = spec.op_budget;
    if (spec.timeout_ns > 0) job.limits.timeout = std::chrono::nanoseconds(spec.timeout_ns);
    ShardScanOutcome outcome = engine_.submit(job).get();

    WirePartial reply;
    reply.query_id = spec.query_id;
    reply.partial = std::move(outcome.result.partial);
    // A shed scan never ran, so its partial carries the default shard id;
    // stamp the requested one so the router's sanity check holds.
    reply.partial.shard_id = spec.shard_id;
    reply.meter_points = outcome.meter.points();
    reply.meter_ops = outcome.meter.ops();
    reply.meter_bytes = outcome.meter.bytes();
    reply.meter_pruned = outcome.meter.pruned();
    reply.scan_ops = outcome.result.scan_ops;
    reply.model_terms = outcome.result.model_terms;
    // Traced request + traced engine: ship the span tree and the monotonic
    // timestamps the router's stitcher needs.  An untraced request (or a v1
    // router) costs nothing extra on the wire.
    if (spec.trace_id != 0 && outcome.trace != nullptr) {
      reply.has_trace = true;
      reply.trace.remote_trace_id = outcome.trace->id();
      reply.trace.trace_start_ns = outcome.trace->start_epoch_ns();
      reply.trace.queue_wait_ns = static_cast<std::uint64_t>(outcome.queue_wait.count());
      reply.trace.exec_ns = static_cast<std::uint64_t>(outcome.exec_time.count());
      const std::vector<obs::SpanRecord> spans = outcome.trace->spans();
      const std::size_t n = std::min<std::size_t>(spans.size(), kMaxWireSpans);
      reply.trace.spans.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        const obs::SpanRecord& record = spans[i];
        WireSpan span;
        span.name = record.name;
        span.parent = record.parent == obs::kNoSpan || record.parent >= n
                          ? kWireNoParent
                          : static_cast<std::uint32_t>(record.parent);
        span.start_ns = record.start_ns;
        span.duration_ns = record.duration_ns;
        span.attrs = record.attrs;
        span.notes = record.notes;
        reply.trace.spans.push_back(std::move(span));
      }
      reply.trace.server_recv_ns = recv_ns;
      reply.trace.server_send_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    }
    queries_served_.fetch_add(1, std::memory_order_relaxed);
    return Frame{MsgType::kResult, encode_partial(reply)};
  } catch (const Error& err) {
    return error_frame(kErrBadRequest, err.what());
  } catch (const std::exception& err) {
    return error_frame(kErrInternal, err.what());
  }
}

Frame ShardServer::handle_describe(std::span<const std::uint8_t> payload) {
  DescribeSpec spec;
  try {
    spec = decode_describe(payload);
  } catch (const WireError& err) {
    return error_frame(kErrBadRequest, err.what());
  }
  ShardDescription info;
  try {
    const std::lock_guard<std::mutex> lock(archives_mutex_);
    const auto it = archives_.find(spec.archive_id);
    if (it != archives_.end() && spec.shard_count > 0 && spec.shard_id < spec.shard_count &&
        spec.shard_policy <= static_cast<std::uint8_t>(ShardPolicy::kTileHash)) {
      const ShardedArchive* sharded =
          layout_for(it->second, spec.shard_count, spec.shard_policy);
      const ShardInfo& shard = sharded->shard(spec.shard_id);
      info.known = true;
      info.pixel_count = shard.pixel_count;
      info.tile_count = shard.tiles.size();
      info.archive_pixels = it->second.archive->pixel_count();
      info.band_ranges = shard.band_ranges;
    }
  } catch (const std::exception&) {
    info = ShardDescription{};
  }
  return Frame{MsgType::kShardInfo, encode_shard_info(info)};
}

Frame ShardServer::handle_stats() {
  WireStats stats;
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.uptime_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           started_at_)
          .count());
  if (config_.engine.metrics != nullptr) stats.snapshot = config_.engine.metrics->snapshot();
  return Frame{MsgType::kStatsReply, encode_stats(stats)};
}

void ShardServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    reap_connections(/*all=*/false);
    Socket client = listener_.accept(std::chrono::milliseconds(100));
    if (!client.valid()) continue;
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    {
      const std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread(
        [this, raw](Socket sock) { serve_connection(std::move(sock), raw); }, std::move(client));
  }
}

void ShardServer::serve_connection(Socket sock, Conn* conn) {
  while (!stop_.load(std::memory_order_acquire)) {
    Frame request;
    try {
      request = read_frame(sock, config_.read_timeout, &stop_);
    } catch (const WireError& err) {
      if (err.fault() != WireFault::kClosed) {
        // Hostile or corrupt frame: answer with a typed error, then drop the
        // connection — the byte stream is desynced past recovery.  The
        // server itself keeps serving.
        const Frame reply = error_frame(kErrBadRequest, err.what());
        (void)write_frame(sock, reply.type, reply.payload);
      }
      break;
    }
    const Frame reply = handle(request);
    if (!write_frame(sock, reply.type, reply.payload)) break;
  }
  conn->done.store(true, std::memory_order_release);
}

void ShardServer::reap_connections(bool all) {
  std::vector<std::unique_ptr<Conn>> finished;
  {
    const std::lock_guard<std::mutex> lock(conns_mutex_);
    if (all) {
      finished.swap(conns_);
    } else {
      auto it = conns_.begin();
      while (it != conns_.end()) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          finished.push_back(std::move(*it));
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

}  // namespace mmir::net
