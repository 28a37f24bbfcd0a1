#include "net/router.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "net/socket.hpp"
#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/backoff.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mmir::net {

namespace {

constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::size_t kHealthWindow = 256;

const char* fault_name(ShardFault fault) noexcept {
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

/// Sleeps `total` in short slices, returning early when the leg is
/// cancelled (hedge sibling won) or the global context stopped — the same
/// shape as the in-process fault path's interruptible wait.
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void interruptible_wait(std::chrono::nanoseconds total, const std::atomic<bool>& cancel,
                        QueryContext& ctx) {
  const auto deadline = std::chrono::steady_clock::now() + total;
  constexpr auto kSlice = std::chrono::microseconds(100);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancel.load(std::memory_order_acquire)) return;
    if (ctx.expired()) return;
    std::this_thread::sleep_for(kSlice);
  }
}

/// One wire leg's mutable state (primary or hedge of one shard).
struct Leg {
  WirePartial reply;
  bool ok = false;       ///< contributed a usable partial (clean or synthesized)
  bool clean = false;    ///< a real server reply, no fault-driven widening
  bool widened = false;  ///< synthesized with the whole-shard bound
  std::atomic<bool> cancel{false};
  std::uint32_t attempts = 0;
  std::uint32_t timeouts = 0;
  std::uint32_t faults = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  ShardFault last_fault = ShardFault::kNone;
  /// Stitched decomposition of the winning attempt (traced replies only):
  /// wire + queue_wait + scan must reconcile with the leg's wall time.
  bool traced = false;
  std::uint64_t wire_ns = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t scan_ns = 0;
  std::uint64_t wall_ns = 0;  ///< measured attempt window [attempt_start, t1]
  std::int64_t offset_ns = 0;
};

/// Primary + optional hedge legs of one shard; first clean reply wins.
struct Slot {
  Leg primary;
  Leg hedge;
  std::atomic<bool> primary_finished{false};
  std::atomic<int> winner{-1};
  bool hedge_launched = false;
};

void annotate_leg(const obs::Span& span, std::size_t shard, const Leg& leg) {
  if (!span.active()) return;
  span.annotate("shard", static_cast<double>(shard));
  span.annotate("hits", static_cast<double>(leg.reply.partial.result.hits.size()));
  span.annotate("items_examined", static_cast<double>(leg.reply.partial.pixels_visited));
  span.annotate("tiles_scanned", static_cast<double>(leg.reply.partial.tiles_scanned));
  span.annotate("tiles_pruned", static_cast<double>(leg.reply.partial.tiles_pruned));
  span.annotate("attempts", static_cast<double>(leg.attempts));
  span.annotate("timeouts", static_cast<double>(leg.timeouts));
  span.annotate("faults_injected", static_cast<double>(leg.faults));
  span.annotate("bound_widened", leg.widened ? 1.0 : 0.0);
  span.annotate("bytes_sent", static_cast<double>(leg.bytes_sent));
  span.annotate("bytes_received", static_cast<double>(leg.bytes_received));
  span.note("status", to_string(leg.reply.partial.result.status));
  if (leg.last_fault != ShardFault::kNone) span.note("fault", fault_name(leg.last_fault));
  if (!leg.ok) span.note("leg_outcome", "dead");
  if (leg.traced) {
    span.annotate("wire_ns", static_cast<double>(leg.wire_ns));
    span.annotate("queue_wait_ns", static_cast<double>(leg.queue_ns));
    span.annotate("scan_ns", static_cast<double>(leg.scan_ns));
    span.annotate("leg_wall_ns", static_cast<double>(leg.wall_ns));
    span.annotate("clock_offset_ns", static_cast<double>(leg.offset_ns));
  }
}

/// Grafts a traced reply under the still-open leg span: synthesizes the
/// wire / queue_wait / scan decomposition, then rebases the server's span
/// tree into router time (via the port's offset estimate) and nests it
/// under `scan`.  Every grafted time is clamped into the attempt's observed
/// wall window [attempt_start, t1], so the stitched trace stays
/// well_formed() whatever the offset error or a hostile peer claims.
/// Fills leg.wire_ns / queue_ns / scan_ns.
void stitch_remote_trace(const obs::Span& leg_span, std::size_t shard, const WireTrace& remote,
                         std::int64_t offset, std::int64_t attempt_start, std::int64_t t1,
                         Leg& leg) {
  obs::Trace* trace = leg_span.trace();
  if (trace == nullptr) return;
  const std::uint64_t epoch = trace->start_epoch_ns();
  const auto rel = [&](std::int64_t abs) -> std::uint64_t {
    return abs > static_cast<std::int64_t>(epoch)
               ? static_cast<std::uint64_t>(abs) - epoch
               : 0;
  };
  const std::uint64_t win_start = rel(attempt_start);
  const std::uint64_t win_end = std::max(rel(t1), win_start);

  // The three rows tile the attempt window *exactly*: wire is everything
  // the server did not hold the request, queue_wait the scheduler's
  // admission delay, and scan the rest of the server-held time (engine
  // execution plus request decode/encode — the engine-only number stays
  // visible as exec_ns on the grafted remote query span).  Clamping
  // server-held into the window keeps the identity under clock skew or a
  // hostile peer claiming to have held the request longer than the leg ran.
  const std::uint64_t leg_wall = win_end - win_start;
  const std::uint64_t server_held =
      std::min(remote.server_send_ns > remote.server_recv_ns
                   ? remote.server_send_ns - remote.server_recv_ns
                   : 0,
               leg_wall);
  leg.traced = true;
  leg.offset_ns = offset;
  leg.wall_ns = static_cast<std::uint64_t>(t1 - attempt_start > 0 ? t1 - attempt_start : 0);
  leg.wire_ns = leg_wall - server_held;
  leg.queue_ns = std::min(remote.queue_wait_ns, server_held);
  leg.scan_ns = server_held - leg.queue_ns;

  // wire: everything the server did NOT hold the request — any connect, both
  // frame transfers, kernel queues.  Rendered from the attempt's start so
  // the three rows tile the leg window.
  const std::size_t wire_idx =
      trace->add_completed_span("wire", leg_span.index(), win_start,
                                std::min(leg.wire_ns, win_end - win_start));
  trace->annotate(wire_idx, "wire_ns", static_cast<double>(leg.wire_ns));
  trace->annotate(wire_idx, "clock_offset_ns", static_cast<double>(offset));

  // queue_wait: the scheduler admitted the scan at (trace start - queue
  // wait) in server time; the engine trace clock starts at dispatch.
  const std::uint64_t q_start_server =
      remote.trace_start_ns > remote.queue_wait_ns ? remote.trace_start_ns - remote.queue_wait_ns
                                                   : 0;
  const RebasedInterval queued = rebase_interval(offset, q_start_server, remote.queue_wait_ns,
                                                 epoch, win_start, win_end);
  const std::size_t queue_idx = trace->add_completed_span("queue_wait", leg_span.index(),
                                                          queued.start_ns, queued.duration_ns);
  trace->annotate(queue_idx, "queue_wait_ns", static_cast<double>(remote.queue_wait_ns));

  // scan: the server-held processing window (dispatch-to-completion plus
  // decode/encode); the remote span tree nests under it.
  const RebasedInterval scan = rebase_interval(offset, remote.trace_start_ns, leg.scan_ns,
                                               epoch, win_start, win_end);
  const std::size_t scan_idx =
      trace->add_completed_span("scan", leg_span.index(), scan.start_ns, scan.duration_ns);
  trace->annotate(scan_idx, "scan_ns", static_cast<double>(leg.scan_ns));
  trace->annotate(scan_idx, "exec_ns", static_cast<double>(remote.exec_ns));
  const std::uint64_t remote_id =
      namespaced_remote_id(static_cast<std::uint32_t>(shard), remote.remote_trace_id);
  trace->note(scan_idx, "remote_query_id", std::to_string(remote_id));

  // Remote spans render under their own chrome pid, one per server.
  const double remote_pid = static_cast<double>(shard + 2);
  const std::uint64_t scan_end = scan.start_ns + scan.duration_ns;
  std::vector<std::size_t> grafted(remote.spans.size(), obs::kNoSpan);
  for (std::size_t i = 0; i < remote.spans.size(); ++i) {
    const WireSpan& span = remote.spans[i];
    const RebasedInterval when =
        rebase_interval(offset, remote.trace_start_ns + span.start_ns, span.duration_ns, epoch,
                        scan.start_ns, scan_end);
    // A parent that is missing, forward, or itself dropped demotes the span
    // to a child of `scan` — hostile trees cannot break the stitch.
    std::size_t parent = scan_idx;
    if (span.parent != kWireNoParent && span.parent < i &&
        grafted[span.parent] != obs::kNoSpan) {
      parent = grafted[span.parent];
    }
    const std::size_t idx =
        trace->add_completed_span(span.name, parent, when.start_ns, when.duration_ns);
    grafted[i] = idx;
    for (const auto& [key, value] : span.attrs) trace->annotate(idx, key, value);
    for (const auto& [key, value] : span.notes) trace->note(idx, key, value);
    trace->annotate(idx, "remote_pid", remote_pid);
    if (parent == scan_idx) {
      trace->note(idx, "remote_query_id", std::to_string(remote_id));
    }
  }
}

}  // namespace

Router::Router(RouterConfig config) : config_(std::move(config)) {
  MMIR_EXPECTS(!config_.ports.empty());
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    metrics_.queries = reg.counter("engine_net_queries_total");
    metrics_.attempts = reg.counter("engine_net_attempts_total");
    metrics_.retries = reg.counter("engine_net_retries_total");
    metrics_.timeouts = reg.counter("engine_net_timeouts_total");
    metrics_.faults_injected = reg.counter("engine_net_faults_injected_total");
    metrics_.hedges = reg.counter("engine_net_hedges_total");
    metrics_.hedge_wins = reg.counter("engine_net_hedge_wins_total");
    metrics_.bounds_widened = reg.counter("engine_net_bounds_widened_total");
    metrics_.legs_failed = reg.counter("engine_net_legs_failed_total");
    metrics_.bytes_sent = reg.counter("engine_net_bytes_sent_total");
    metrics_.bytes_received = reg.counter("engine_net_bytes_received_total");
    // Labeled family view of the same bytes (the exporter passes the label
    // block through verbatim), plus the per-leg wire-time distribution the
    // E14 overhead experiment and ROADMAP item 3 tuning read.
    metrics_.wire_bytes_sent = reg.counter("engine_net_wire_bytes{direction=\"sent\"}");
    metrics_.wire_bytes_received = reg.counter("engine_net_wire_bytes{direction=\"received\"}");
    metrics_.wire_time = reg.histogram("engine_net_wire_time_ns");
  }
}

Router::Connection Router::take_connection(std::uint16_t port, bool fresh) {
  while (!fresh) {
    Socket sock;
    {
      const std::lock_guard<std::mutex> lock(pool_mutex_);
      std::vector<Socket>& idle = idle_[port];
      if (idle.empty()) break;
      sock = std::move(idle.back());
      idle.pop_back();
    }
    if (sock.idle_open()) return Connection{std::move(sock), true};
  }
  return Connection{Socket::connect_loopback(port), false};
}

void Router::return_connection(std::uint16_t port, Socket sock) {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  idle_[port].push_back(std::move(sock));
}

Router::Exchange Router::round_trip(std::uint16_t port, MsgType type,
                                    std::span<const std::uint8_t> payload,
                                    std::chrono::steady_clock::time_point deadline,
                                    const std::atomic<bool>* cancel, RoundTrip& out) {
  Connection conn = take_connection(port);
  for (;;) {
    if (!conn.sock.valid()) return Exchange::kTransient;
    out.bytes_sent = 0;
    out.sent_ns = steady_now_ns();
    if (write_frame(conn.sock, type, payload)) {
      out.bytes_sent = payload.size() + kFrameHeaderBytes + kFrameTrailerBytes;
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (remaining.count() <= 0) return Exchange::kNoReply;
      try {
        out.raw = read_frame_bytes(conn.sock, remaining, cancel);
        out.recv_ns = steady_now_ns();
        out.sock = std::move(conn.sock);
        return Exchange::kReply;
      } catch (const WireError& err) {
        if (err.fault() != WireFault::kClosed) return Exchange::kTransient;
        // A silent peer (deadline) or a cancel is this attempt's answer;
        // only a reused connection whose peer hung up is stale.
        const bool cancelled = cancel != nullptr && cancel->load(std::memory_order_acquire);
        if (!conn.reused || cancelled || conn.sock.idle_open()) return Exchange::kNoReply;
      }
    } else if (!conn.reused) {
      return Exchange::kTransient;
    }
    // The pooled connection died between its liveness check and the
    // request, before any reply byte: reconnect and resend, once.
    conn = take_connection(port, /*fresh=*/true);
  }
}

ShardDescription Router::describe_shard(std::uint64_t archive_id, std::uint32_t shard_count,
                                        std::uint8_t policy, std::uint32_t shard) {
  const auto key = std::make_tuple(archive_id, shard_count, policy, shard);
  {
    const std::lock_guard<std::mutex> lock(meta_mutex_);
    const auto it = meta_cache_.find(key);
    if (it != meta_cache_.end()) return it->second;
  }
  DescribeSpec spec;
  spec.archive_id = archive_id;
  spec.shard_count = shard_count;
  spec.shard_policy = policy;
  spec.shard_id = shard;
  const std::uint16_t port = config_.ports[shard];
  RoundTrip trip;
  if (round_trip(port, MsgType::kDescribe, encode_describe(spec),
                 std::chrono::steady_clock::now() + config_.default_leg_timeout, nullptr,
                 trip) != Exchange::kReply) {
    return ShardDescription{};
  }
  ShardDescription info;
  try {
    const Frame frame = decode_frame(trip.raw);
    if (frame.type != MsgType::kShardInfo) return info;
    info = decode_shard_info(frame.payload);
  } catch (const WireError&) {
    return ShardDescription{};
  }
  return_connection(port, std::move(trip.sock));
  if (info.known) {
    const std::lock_guard<std::mutex> lock(meta_mutex_);
    meta_cache_.emplace(key, info);
  }
  return info;
}

RouterResult Router::execute(const RouterQuery& query, QueryContext& ctx, CostMeter& meter) {
  MMIR_EXPECTS(query.model != nullptr);
  MMIR_EXPECTS(query.k > 0);
  const std::size_t count =
      query.shard_count == 0 ? config_.ports.size() : static_cast<std::size_t>(query.shard_count);
  MMIR_EXPECTS(count >= 1 && count <= config_.ports.size());

  ScopedTimer timer(meter);
  const obs::Span span = obs::Span::child_of(ctx.span(), "router");
  const std::uint8_t policy8 = static_cast<std::uint8_t>(query.policy);
  const ShardFaultPolicy& policy = config_.policy;
  const int max_attempts = std::max(1, policy.max_attempts);

  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.initial_backoff = policy.retry_initial_backoff;
  retry.max_backoff = policy.retry_max_backoff;
  retry.jitter_seed = policy.jitter_seed;

  const auto leg_timeout = std::max(
      std::chrono::milliseconds(1),
      policy.shard_timeout.count() > 0
          ? std::chrono::duration_cast<std::chrono::milliseconds>(policy.shard_timeout)
          : config_.default_leg_timeout);

  // Shard metadata: dead-leg bounds, empty-shard skips, §4.2 totals.
  std::vector<ShardDescription> meta(count);
  for (std::size_t s = 0; s < count; ++s) {
    meta[s] = describe_shard(query.archive_id, static_cast<std::uint32_t>(count), policy8,
                             static_cast<std::uint32_t>(s));
  }

  // A leg the router could not hear from is covered by its whole-shard
  // bound; with no metadata at all the bound is +inf — maximally wide,
  // still sound.
  const auto shard_bound = [&](std::size_t s) -> double {
    if (!meta[s].known) return kPosInf;
    if (meta[s].pixel_count == 0) return kNegInf;
    if (meta[s].band_ranges.empty()) return kPosInf;
    return query.model->evaluate_interval(meta[s].band_ranges).hi;
  };

  // Static S-way budget split: remote processes share no atomic budget, so
  // each leg gets its slice up front.  Re-slices only where a budgeted scan
  // stops; every leg still bounds whatever it skipped.
  constexpr std::uint64_t kUnlimited = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> leg_budget(count, kUnlimited);
  if (query.op_budget != kUnlimited) {
    const std::uint64_t base = query.op_budget / count;
    const std::uint64_t rem = query.op_budget % count;
    for (std::size_t s = 0; s < count; ++s) leg_budget[s] = base + (s < rem ? 1 : 0);
  }

  const std::uint64_t query_id = query_seq_.fetch_add(1, std::memory_order_relaxed);
  std::vector<QuerySpec> specs(count);
  for (std::size_t s = 0; s < count; ++s) {
    QuerySpec& spec = specs[s];
    spec.query_id = query_id;
    spec.archive_id = query.archive_id;
    spec.shard_count = static_cast<std::uint32_t>(count);
    spec.shard_policy = policy8;
    spec.shard_id = static_cast<std::uint32_t>(s);
    spec.mode = static_cast<std::uint8_t>(query.mode);
    spec.k = static_cast<std::uint32_t>(query.k);
    spec.op_budget = leg_budget[s];
    spec.bias = query.model->bias();
    spec.weights.assign(query.model->weights().begin(), query.model->weights().end());
    spec.names.reserve(query.model->dim());
    for (std::size_t i = 0; i < query.model->dim(); ++i) spec.names.push_back(query.model->name(i));
    if (span.active()) {
      // Propagate trace context: servers run the scan traced and ship the
      // span tree back.  Manually-built traces may carry id 0; the wire
      // treats 0 as "untraced", so fall back to the router query sequence.
      const std::uint64_t trace_id = span.trace()->id();
      spec.trace_id = trace_id != 0 ? trace_id : query_id;
      spec.parent_span = static_cast<std::uint64_t>(span.index());
    }
  }

  std::vector<std::unique_ptr<Slot>> slots;
  slots.reserve(count);
  for (std::size_t s = 0; s < count; ++s) slots.push_back(std::make_unique<Slot>());

  // One attempt loop per leg, the remote twin of the in-process fault path:
  // chaos verdicts, per-attempt deadline, capped jittered backoff, and the
  // same dispositions (clean / stop-reason / degraded+widened / dead).
  const auto run_leg = [&](std::size_t s, int leg_id, Leg& leg, Slot& slot,
                           const obs::Span& leg_span) {
    const auto synth = [&](ResultStatus status, double bound) {
      leg.reply = WirePartial{};
      leg.reply.partial.shard_id = s;
      leg.reply.partial.result.status = status;
      leg.reply.partial.result.missed_bound = bound;
    };

    if (meta[s].known && meta[s].pixel_count == 0) {
      synth(ResultStatus::kComplete, kNegInf);
      leg.ok = leg.clean = true;
      return;
    }

    ExponentialBackoff backoff(
        retry, mix64(static_cast<std::uint64_t>(s) * 2 + static_cast<std::uint64_t>(leg_id)));
    const int attempt_base = leg_id == 0 ? 0 : kHedgeAttemptBase;
    const std::vector<std::uint8_t> payload = encode_query(specs[s]);

    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      if (leg.cancel.load(std::memory_order_acquire)) return;
      if (ctx.expired()) {
        synth(ctx.stop_reason(), shard_bound(s));
        leg.ok = true;
        return;
      }
      ++leg.attempts;

      ShardFaultAction action;
      if (config_.chaos != nullptr) {
        action = config_.chaos->on_attempt(s, attempt_base + attempt);
        if (action.kind != ShardFault::kNone) {
          ++leg.faults;
          leg.last_fault = action.kind;
        }
      }

      const auto deadline = std::chrono::steady_clock::now() + leg_timeout;
      bool transient = false;
      bool timed_out = false;

      if (action.kind == ShardFault::kDelay) {
        interruptible_wait(action.delay, leg.cancel, ctx);
        if (std::chrono::steady_clock::now() >= deadline) timed_out = true;
      } else if (action.kind == ShardFault::kFail) {
        transient = true;
      }

      if (!transient && !timed_out) {
        const std::int64_t attempt_start = steady_now_ns();
        RoundTrip trip;
        const Exchange sent =
            round_trip(config_.ports[s], MsgType::kQuery, payload, deadline, &leg.cancel, trip);
        leg.bytes_sent += trip.bytes_sent;
        if (sent == Exchange::kTransient) {
          transient = true;
        } else if (sent == Exchange::kNoReply) {
          // A lost hedge race or an expired query resolves just below;
          // otherwise the attempt timed out.
          timed_out = true;
        } else {
          std::vector<std::uint8_t>& raw = trip.raw;
          leg.bytes_received += raw.size();
          if (action.kind == ShardFault::kCorrupt &&
              raw.size() > kFrameHeaderBytes + kFrameTrailerBytes) {
            // Model wire corruption by flipping one deterministic payload
            // byte; decode_frame's checksum catches it below.
            const std::size_t len = raw.size() - kFrameHeaderBytes - kFrameTrailerBytes;
            const std::uint64_t mix = mix64(query_id ^ (static_cast<std::uint64_t>(s) << 32) ^
                                            static_cast<std::uint64_t>(attempt_base + attempt));
            raw[kFrameHeaderBytes + static_cast<std::size_t>(mix % len)] ^= 0x5a;
          }
          try {
            const Frame frame = decode_frame(raw);
            if (frame.type == MsgType::kResult) {
              WirePartial reply = decode_partial(frame.payload);
              if (reply.partial.shard_id != s) {
                transient = true;
              } else if (reply.partial.result.status == ResultStatus::kShed) {
                // Server back-pressure: the scan never ran; retry.
                transient = true;
              } else {
                return_connection(config_.ports[s], std::move(trip.sock));
                leg.reply = std::move(reply);
                leg.ok = leg.clean = true;
                if (leg.reply.has_trace && leg_span.active()) {
                  ClockSample sample;
                  sample.t0 = trip.sent_ns;
                  sample.t1 = trip.recv_ns;
                  sample.s_recv = static_cast<std::int64_t>(leg.reply.trace.server_recv_ns);
                  sample.s_send = static_cast<std::int64_t>(leg.reply.trace.server_send_ns);
                  const std::int64_t offset = update_clock(config_.ports[s], sample);
                  stitch_remote_trace(leg_span, s, leg.reply.trace, offset, attempt_start,
                                      trip.recv_ns, leg);
                }
                int expected = -1;
                if (slot.winner.compare_exchange_strong(expected, leg_id)) {
                  (leg_id == 0 ? slot.hedge : slot.primary)
                      .cancel.store(true, std::memory_order_release);
                }
                return;
              }
            } else {
              // kError (unknown archive, bad request, internal) or an
              // unexpected type: transient from the leg's perspective.
              transient = true;
            }
          } catch (const WireError&) {
            // Corrupt / skewed / malformed frame.
            transient = true;
          }
        }
      }

      if (leg.cancel.load(std::memory_order_acquire)) return;
      if (ctx.expired()) {
        synth(ctx.stop_reason(), shard_bound(s));
        leg.ok = true;
        return;
      }

      if (timed_out) {
        ++leg.timeouts;
        if (attempt + 1 < max_attempts) {
          interruptible_wait(backoff.next_delay(), leg.cancel, ctx);
          continue;
        }
        synth(ResultStatus::kDegraded, shard_bound(s));
        leg.ok = true;
        leg.widened = true;
        return;
      }
      if (attempt + 1 >= max_attempts) return;  // leg dead
      interruptible_wait(backoff.next_delay(), leg.cancel, ctx);
    }
  };

  std::mutex wait_mutex;
  std::condition_variable wait_cv;
  std::size_t primaries_left = count;

  const auto leg_task = [&](std::size_t s, int leg_id) {
    Slot& slot = *slots[s];
    Leg& leg = leg_id == 0 ? slot.primary : slot.hedge;
    const std::string name =
        "shard_" + std::to_string(s) + (leg_id == 0 ? "" : "_hedge");
    const obs::Span leg_span = obs::Span::child_of(&span, name);
    if (leg_id == 1) leg_span.note("leg", "hedge");
    run_leg(s, leg_id, leg, slot, leg_span);
    annotate_leg(leg_span, s, leg);
    if (leg_id == 0) {
      slot.primary_finished.store(true, std::memory_order_release);
      {
        const std::lock_guard<std::mutex> lock(wait_mutex);
        --primaries_left;
      }
      wait_cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(count * 2);
  for (std::size_t s = 0; s < count; ++s) {
    threads.emplace_back([&leg_task, s] { leg_task(s, 0); });
  }

  if (policy.hedge) {
    {
      std::unique_lock<std::mutex> lock(wait_mutex);
      wait_cv.wait_for(lock, policy.hedge_delay, [&] { return primaries_left == 0; });
    }
    for (std::size_t s = 0; s < count && !ctx.expired(); ++s) {
      Slot& slot = *slots[s];
      if (meta[s].known && meta[s].pixel_count == 0) continue;
      if (slot.primary_finished.load(std::memory_order_acquire) && slot.primary.clean) continue;
      slot.hedge_launched = true;
      threads.emplace_back([&leg_task, s] { leg_task(s, 1); });
    }
  }
  for (std::thread& t : threads) t.join();

  // Gather, in shard order for deterministic tie-breaks.
  RouterResult res;
  ShardedTopK& out = res.result;
  ShardFaultStats& stats = out.fault_stats;
  out.shard_status.assign(count, ResultStatus::kComplete);
  std::vector<ShardPartial> partials(count);
  std::vector<LegEvent> events(count);
  std::uint64_t pixels_visited = 0;
  std::uint64_t scan_ops = 0;
  std::uint64_t model_terms = 0;
  std::size_t live = 0;

  for (std::size_t s = 0; s < count; ++s) {
    Slot& slot = *slots[s];
    Leg& primary = slot.primary;
    Leg& hedge = slot.hedge;
    stats.attempts += primary.attempts + hedge.attempts;
    if (primary.attempts > 1) stats.retries += primary.attempts - 1;
    if (hedge.attempts > 1) stats.retries += hedge.attempts - 1;
    stats.timeouts += primary.timeouts + hedge.timeouts;
    stats.faults_injected += primary.faults + hedge.faults;
    if (slot.hedge_launched) ++stats.hedges_launched;
    res.bytes_sent += primary.bytes_sent + hedge.bytes_sent;
    res.bytes_received += primary.bytes_received + hedge.bytes_received;

    const bool empty_shard = meta[s].known && meta[s].pixel_count == 0;
    if (!empty_shard) ++live;

    events[s].shard = static_cast<std::uint32_t>(s);
    events[s].timeouts = primary.timeouts + hedge.timeouts;
    events[s].retries = (primary.attempts > 1 ? primary.attempts - 1 : 0) +
                        (hedge.attempts > 1 ? hedge.attempts - 1 : 0);

    Leg* pick = nullptr;
    if (primary.clean) {
      pick = &primary;
    } else if (hedge.clean) {
      pick = &hedge;
      ++stats.hedges_won;
    } else if (primary.ok) {
      pick = &primary;
    } else if (hedge.ok) {
      pick = &hedge;
      ++stats.hedges_won;
    }

    if (pick != nullptr) {
      partials[s] = std::move(pick->reply.partial);
      meter.add_points(pick->reply.meter_points);
      meter.add_ops(pick->reply.meter_ops);
      meter.add_bytes(pick->reply.meter_bytes);
      meter.add_pruned(pick->reply.meter_pruned);
      pixels_visited += partials[s].pixels_visited;
      scan_ops += pick->reply.scan_ops;
      model_terms = std::max(model_terms, pick->reply.model_terms);
      if (pick->widened) {
        ++stats.bounds_widened;
        ++stats.degraded_shards;
      }
    } else {
      partials[s].shard_id = s;
      partials[s].result.status = ResultStatus::kDegraded;
      partials[s].result.missed_bound = shard_bound(s);
      ++stats.failed_shards;
      ++stats.bounds_widened;
      ++stats.degraded_shards;
      events[s].failed = true;
    }
    out.shard_status[s] = partials[s].result.status;
  }

  out.merged = merge_shard_partials(partials, query.k);
  if (live > 0 && stats.failed_shards == live) {
    // Every live leg contributed nothing: the answer is no answer.
    out.merged.status = ResultStatus::kShed;
    out.merged.missed_bound = kPosInf;
  }

  if (span.active()) {
    std::uint64_t total_pixels = 0;
    for (const ShardDescription& m : meta) {
      if (m.known) {
        total_pixels = m.archive_pixels;
        break;
      }
    }
    if (model_terms == 0) model_terms = query.model->dim();
    span.annotate("total_pixels", static_cast<double>(total_pixels));
    span.annotate("model_terms", static_cast<double>(model_terms));
    span.annotate("pixels_visited", static_cast<double>(pixels_visited));
    span.annotate("scan_ops", static_cast<double>(scan_ops));
    span.annotate("shards", static_cast<double>(count));
    span.annotate("hits", static_cast<double>(out.merged.hits.size()));
    span.annotate("bad_points", static_cast<double>(out.merged.bad_points));
    span.annotate("meter_points", static_cast<double>(meter.points()));
    span.annotate("meter_ops", static_cast<double>(meter.ops()));
    span.annotate("meter_pruned", static_cast<double>(meter.pruned()));
    span.note("status", to_string(out.merged.status));

    const obs::Span gather = obs::Span::child_of(&span, "gather");
    gather.annotate("attempts", static_cast<double>(stats.attempts));
    gather.annotate("retries", static_cast<double>(stats.retries));
    gather.annotate("timeouts", static_cast<double>(stats.timeouts));
    gather.annotate("faults_injected", static_cast<double>(stats.faults_injected));
    gather.annotate("hedges_launched", static_cast<double>(stats.hedges_launched));
    gather.annotate("hedges_won", static_cast<double>(stats.hedges_won));
    gather.annotate("bounds_widened", static_cast<double>(stats.bounds_widened));
    gather.annotate("shards_failed", static_cast<double>(stats.failed_shards));
    gather.annotate("bytes_sent", static_cast<double>(res.bytes_sent));
    gather.annotate("bytes_received", static_cast<double>(res.bytes_received));
    gather.note("status", to_string(out.merged.status));
  }

  const Metrics& m = metrics_;
  m.queries.add();
  m.attempts.add(stats.attempts);
  m.retries.add(stats.retries);
  m.timeouts.add(stats.timeouts);
  m.faults_injected.add(stats.faults_injected);
  m.hedges.add(stats.hedges_launched);
  m.hedge_wins.add(stats.hedges_won);
  m.bounds_widened.add(stats.bounds_widened);
  m.legs_failed.add(stats.failed_shards);
  m.bytes_sent.add(res.bytes_sent);
  m.bytes_received.add(res.bytes_received);
  m.wire_bytes_sent.add(res.bytes_sent);
  m.wire_bytes_received.add(res.bytes_received);
  if (m.wire_time.valid()) {
    for (const std::unique_ptr<Slot>& slot : slots) {
      if (slot->primary.traced) m.wire_time.observe(slot->primary.wire_ns);
      if (slot->hedge.traced) m.wire_time.observe(slot->hedge.wire_ns);
    }
  }

  record_health(events);
  return res;
}

std::int64_t Router::update_clock(std::uint16_t port, const ClockSample& sample) {
  const std::lock_guard<std::mutex> lock(clock_mutex_);
  ClockOffsetEstimator& estimator = clock_[port];
  estimator.add_sample(sample);
  return estimator.offset_ns();
}

std::int64_t Router::clock_offset_ns(std::uint16_t port) const {
  const std::lock_guard<std::mutex> lock(clock_mutex_);
  const auto it = clock_.find(port);
  return it == clock_.end() ? 0 : it->second.offset_ns();
}

void Router::record_health(const std::vector<LegEvent>& events) {
  const std::lock_guard<std::mutex> lock(health_mutex_);
  for (const LegEvent& event : events) health_window_.push_back(event);
  while (health_window_.size() > kHealthWindow) health_window_.pop_front();
}

std::string Router::fleet_prometheus() {
  struct ShardStats {
    bool up = false;
    WireStats stats;
    double qps = 0;
  };
  const auto now = std::chrono::steady_clock::now();
  std::vector<ShardStats> fleet(config_.ports.size());
  for (std::size_t s = 0; s < config_.ports.size(); ++s) {
    ShardStats& entry = fleet[s];
    RoundTrip trip;
    if (round_trip(config_.ports[s], MsgType::kStats, {},
                   std::chrono::steady_clock::now() + config_.default_leg_timeout, nullptr,
                   trip) != Exchange::kReply) {
      continue;  // down; renders as fleet_up 0, page still serves
    }
    try {
      const Frame frame = decode_frame(trip.raw);
      if (frame.type != MsgType::kStatsReply) continue;  // v1 peer: kError
      entry.stats = decode_stats(frame.payload);
      entry.up = true;
    } catch (const WireError&) {
      continue;  // hostile; renders as fleet_up 0, page still serves
    }
    return_connection(config_.ports[s], std::move(trip.sock));
    const std::lock_guard<std::mutex> lock(fleet_mutex_);
    FleetPrev& prev = fleet_prev_[config_.ports[s]];
    if (prev.valid && entry.stats.queries_served >= prev.queries_served) {
      const double dt = std::chrono::duration<double>(now - prev.at).count();
      if (dt > 0) {
        entry.qps =
            static_cast<double>(entry.stats.queries_served - prev.queries_served) / dt;
      }
    }
    prev.queries_served = entry.stats.queries_served;
    prev.at = now;
    prev.valid = true;
  }

  // Router-side view of the same fleet: leg timeouts/failures over the
  // rolling health window, so /fleetz shows both what the servers report
  // and what the router experienced talking to them.
  std::vector<std::uint64_t> leg_timeouts(config_.ports.size(), 0);
  std::vector<std::uint64_t> leg_failures(config_.ports.size(), 0);
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (const LegEvent& event : health_window_) {
      if (event.shard < leg_timeouts.size()) {
        leg_timeouts[event.shard] += event.timeouts;
        if (event.failed) ++leg_failures[event.shard];
      }
    }
  }

  const auto find_counter = [](const WireStats& stats, std::string_view name) -> std::uint64_t {
    for (const obs::CounterSample& c : stats.snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  const auto find_histogram =
      [](const WireStats& stats, std::string_view name) -> const obs::HistogramSample* {
    for (const obs::HistogramSample& h : stats.snapshot.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };

  std::string out;
  char line[256];
  const auto emit = [&out, &line](const char* fmt, auto... args) {
    std::snprintf(line, sizeof line, fmt, args...);
    out += line;
  };
  const auto for_each_shard = [&](const char* help, const char* type, const char* family,
                                  auto value_fn) {
    out += "# HELP ";
    out += family;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += family;
    out += ' ';
    out += type;
    out += '\n';
    for (std::size_t s = 0; s < fleet.size(); ++s) value_fn(s, family);
  };

  for_each_shard("1 when the shard server answered the kStats poll.", "gauge", "fleet_up",
                 [&](std::size_t s, const char* family) {
                   emit("%s{shard=\"%zu\",port=\"%u\"} %d\n", family, s, config_.ports[s],
                        fleet[s].up ? 1 : 0);
                 });
  for_each_shard("Queries the server answered with a kResult frame since start.", "counter",
                 "fleet_queries_served_total", [&](std::size_t s, const char* family) {
                   if (!fleet[s].up) return;
                   emit("%s{shard=\"%zu\",port=\"%u\"} %llu\n", family, s, config_.ports[s],
                        static_cast<unsigned long long>(fleet[s].stats.queries_served));
                 });
  for_each_shard("Served-query rate since the previous /fleetz scrape.", "gauge", "fleet_qps",
                 [&](std::size_t s, const char* family) {
                   if (!fleet[s].up) return;
                   emit("%s{shard=\"%zu\",port=\"%u\"} %.3f\n", family, s, config_.ports[s],
                        fleet[s].qps);
                 });
  for_each_shard("Interpolated p99 of the server's engine_exec_time_ns histogram.", "gauge",
                 "fleet_exec_p99_ns", [&](std::size_t s, const char* family) {
                   if (!fleet[s].up) return;
                   const obs::HistogramSample* hist =
                       find_histogram(fleet[s].stats, "engine_exec_time_ns");
                   if (hist == nullptr || hist->count == 0) return;
                   emit("%s{shard=\"%zu\",port=\"%u\"} %.0f\n", family, s, config_.ports[s],
                        obs::interpolated_quantile(*hist, 0.99));
                 });
  for_each_shard("Jobs the server's engine shed under back-pressure.", "counter",
                 "fleet_shed_total", [&](std::size_t s, const char* family) {
                   if (!fleet[s].up) return;
                   emit("%s{shard=\"%zu\",port=\"%u\"} %llu\n", family, s, config_.ports[s],
                        static_cast<unsigned long long>(
                            find_counter(fleet[s].stats, "engine_jobs_shed_total")));
                 });
  for_each_shard("Server uptime in seconds at poll time.", "gauge", "fleet_uptime_seconds",
                 [&](std::size_t s, const char* family) {
                   if (!fleet[s].up) return;
                   emit("%s{shard=\"%zu\",port=\"%u\"} %.1f\n", family, s, config_.ports[s],
                        static_cast<double>(fleet[s].stats.uptime_ns) / 1e9);
                 });
  for_each_shard("Router-observed leg timeouts over the rolling health window.", "gauge",
                 "fleet_leg_timeouts", [&](std::size_t s, const char* family) {
                   emit("%s{shard=\"%zu\",port=\"%u\"} %llu\n", family, s, config_.ports[s],
                        static_cast<unsigned long long>(leg_timeouts[s]));
                 });
  for_each_shard("Router-observed leg failures over the rolling health window.", "gauge",
                 "fleet_leg_failures", [&](std::size_t s, const char* family) {
                   emit("%s{shard=\"%zu\",port=\"%u\"} %llu\n", family, s, config_.ports[s],
                        static_cast<unsigned long long>(leg_failures[s]));
                 });
  for_each_shard("Current clock-offset estimate toward the server (ns).", "gauge",
                 "fleet_clock_offset_ns", [&](std::size_t s, const char* family) {
                   emit("%s{shard=\"%zu\",port=\"%u\"} %lld\n", family, s, config_.ports[s],
                        static_cast<long long>(clock_offset_ns(config_.ports[s])));
                 });
  return out;
}

obs::HealthReport Router::health() const {
  struct Agg {
    std::uint64_t executions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t failures = 0;
  };
  std::map<std::uint32_t, Agg> per_shard;
  {
    const std::lock_guard<std::mutex> lock(health_mutex_);
    for (const LegEvent& event : health_window_) {
      Agg& agg = per_shard[event.shard];
      ++agg.executions;
      agg.timeouts += event.timeouts;
      agg.retries += event.retries;
      if (event.failed) ++agg.failures;
    }
  }
  obs::HealthReport report;
  for (const auto& [shard, agg] : per_shard) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "remote_shard=%u port=%u executions=%llu timeouts=%llu retries=%llu "
                  "failed=%llu",
                  shard, shard < config_.ports.size() ? config_.ports[shard] : 0,
                  static_cast<unsigned long long>(agg.executions),
                  static_cast<unsigned long long>(agg.timeouts),
                  static_cast<unsigned long long>(agg.retries),
                  static_cast<unsigned long long>(agg.failures));
    report.lines.emplace_back(line);
    if (agg.timeouts > 0 || agg.failures > 0) report.ok = false;
  }
  return report;
}

}  // namespace mmir::net
