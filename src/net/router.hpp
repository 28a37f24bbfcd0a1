#pragma once
// Scatter-gather over shard-server *processes* (DESIGN.md §6g): the Router
// fans one raster query out to N shard servers over the wire protocol,
// collects per-shard partials, and merges them under the same max-of-bounds
// rule as the in-process sharded executors (merge_shard_partials) — so with
// every leg healthy the answer is byte-identical to the monolithic serial
// run, and with legs failing it degrades exactly the way an in-process
// fault-domain execution does.
//
// Every wire-layer misfortune maps onto the existing Degraded/Shed status
// algebra, mirroring engine/shard_exec.cpp's fault path leg for leg:
//
//   * connect failure, kError reply, truncated/corrupt/version-skewed frame
//     -> transient fault: retried under the policy's capped backoff, and a
//        leg that exhausts its attempts contributes an empty kDegraded
//        partial whose missed bound is the *whole-shard* score bound — the
//        merged bound widens, the certified prefix shortens, soundness holds;
//   * per-attempt timeout -> retried, then kept as kDegraded + widened bound;
//   * a server kShed reply -> back-pressure, retried like a transient fault;
//   * hedging: a straggler primary leg gets a speculative duplicate after
//     hedge_delay; first clean reply wins and cancels the sibling.
//
// A slow or dead shard server therefore degrades its shard's bound — it
// never blocks the query and never poisons the merge with a truncated
// status.
//
// Connections are kept open between queries: every exchange (a query leg,
// a kDescribe, a kStats poll) takes a connection from a per-port idle pool
// and gives it back only after it read one complete, checksum-valid reply
// and used it as the exchange's answer.  Every other ending (timeout, lost
// hedge race, corrupt or truncated frame, kError or shed reply, write
// failure) closes the socket, so no desynced stream is ever reused.  A
// pooled connection the server closed while idle is found by a zero-timeout
// liveness check when taken; one that dies after the check, before any
// reply byte, is replaced by a fresh connect and the request resent once,
// inside the same attempt — that resend counts no attempt, retry, timeout
// or fault, so ShardFaultStats and chaos schedules see exactly what a
// fresh connection per leg saw.  The pool holds what peak leg concurrency
// opened; it has no cap and no knob.  Whole-shard bounds come from a cached kDescribe exchange (the
// shard's per-band ranges); when even describe failed, the bound is +inf —
// maximally wide, still sound.
//
// The op budget splits *statically* across legs (remote processes share no
// atomic budget), which only re-slices where a budgeted scan stops — each
// leg still reports a sound bound for whatever it skipped.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <span>
#include <tuple>
#include <vector>

#include "archive/sharded.hpp"
#include "core/query_context.hpp"
#include "engine/fault_domain.hpp"
#include "engine/shard_exec.hpp"
#include "linear/model.hpp"
#include "net/clock_sync.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/stats_server.hpp"
#include "util/cost.hpp"

namespace mmir::obs {
class MetricsRegistry;
}  // namespace mmir::obs

namespace mmir::net {

struct RouterConfig {
  /// Shard id -> loopback port of the server answering for that shard.
  std::vector<std::uint16_t> ports;
  /// The same fault envelope the in-process executors take: per-leg
  /// timeout, attempt budget, backoff, hedging.
  ShardFaultPolicy policy;
  /// Deterministic wire-fault source (delays, aborted attempts, corrupted
  /// reply frames); borrowed, may be null.
  ShardChaos* chaos = nullptr;
  /// engine_net_* counters; null disables metrics.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-attempt deadline when policy.shard_timeout is 0 — a remote leg
  /// must never wait forever on a dead socket.
  std::chrono::milliseconds default_leg_timeout{2000};
};

/// One distributed raster query.
struct RouterQuery {
  std::uint64_t archive_id = 0;
  /// 0 = one shard per configured port.
  std::uint32_t shard_count = 0;
  ShardPolicy policy = ShardPolicy::kRowBands;
  ShardScanMode mode = ShardScanMode::kCombined;
  const LinearModel* model = nullptr;
  std::size_t k = 10;
  std::uint64_t op_budget = std::numeric_limits<std::uint64_t>::max();
};

struct RouterResult {
  ShardedTopK result;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Router {
 public:
  explicit Router(RouterConfig config);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Scatter-gathers `query` over the configured shard servers.  Blocks
  /// until every leg resolved (reply, exhausted attempts, or global stop);
  /// ctx carries the global deadline/cancel/span exactly as for in-process
  /// execution.  EXPLAIN sees a "router" stage with one "shard_<i>" child
  /// per remote leg and a "gather" child, the same shape as the in-process
  /// scatter-gather.
  [[nodiscard]] RouterResult execute(const RouterQuery& query, QueryContext& ctx,
                                     CostMeter& meter);

  /// Rolling-window health of the remote legs, one line per shard — the
  /// /healthz hook, mirroring QueryEngine::health() for remote execution.
  [[nodiscard]] obs::HealthReport health() const;

  /// Federated fleet telemetry (the /fleetz hook): polls every configured
  /// shard server with a kStats message and renders one Prometheus page —
  /// per-shard up/qps/p99/shed plus the router's own leg-health view, every
  /// sample labeled {shard="i",port="p"}.  qps derives from the
  /// queries_served delta between successive calls (0 on the first scrape).
  /// A server that does not answer (down, or a v1 build without kStats)
  /// renders as fleet_up 0 — the page never fails outright.
  [[nodiscard]] std::string fleet_prometheus();

  /// Current clock-offset estimate toward the server on `port`
  /// (server_time + offset = router_time); 0 when no traced reply has been
  /// seen yet.  Test hook for the stitching battery.
  [[nodiscard]] std::int64_t clock_offset_ns(std::uint16_t port) const;

 private:
  struct LegEvent {
    std::uint32_t shard = 0;
    std::uint32_t timeouts = 0;
    std::uint32_t retries = 0;
    bool failed = false;
  };

  /// Cached kDescribe exchange; a ShardDescription with known=false means
  /// the describe failed (not cached — retried on the next query).
  [[nodiscard]] ShardDescription describe_shard(std::uint64_t archive_id,
                                                std::uint32_t shard_count, std::uint8_t policy,
                                                std::uint32_t shard);
  void record_health(const std::vector<LegEvent>& events);

  /// A connection from take_connection; `reused` when it came from the
  /// idle pool rather than a fresh connect.
  struct Connection {
    Socket sock;
    bool reused = false;
  };
  /// Pops an idle connection to `port` that is still open (closing the ones
  /// that are not), else — or when `fresh` — connects a new one; sock is
  /// invalid when the connect failed.
  [[nodiscard]] Connection take_connection(std::uint16_t port, bool fresh = false);
  /// Parks `sock` for the next exchange with `port`.  Only for a connection
  /// whose reply was read whole, checksum-valid, and used as the answer.
  void return_connection(std::uint16_t port, Socket sock);

  /// How one request/reply exchange ended.
  enum class Exchange {
    kReply,      ///< a whole raw reply frame is in RoundTrip::raw
    kTransient,  ///< connect or write failed, or the reply frame broke off
    kNoReply,    ///< no frame started before the deadline, or cancelled
  };
  struct RoundTrip {
    /// The connection the reply arrived on; return_connection it once the
    /// reply has been decoded and used, else let it close.
    Socket sock;
    std::vector<std::uint8_t> raw;  ///< reply frame, decode_frame-ready
    std::uint64_t bytes_sent = 0;   ///< request frame bytes written
    std::int64_t sent_ns = 0;       ///< steady clock before the answered write
    std::int64_t recv_ns = 0;       ///< steady clock after the reply was read
  };
  /// Writes one request frame to `port` over a taken connection and reads
  /// one raw reply frame by `deadline`.  A reused connection that fails
  /// before any reply byte (its server closed it while idle) is replaced by
  /// a fresh connect and the request resent, once.
  [[nodiscard]] Exchange round_trip(std::uint16_t port, MsgType type,
                                    std::span<const std::uint8_t> payload,
                                    std::chrono::steady_clock::time_point deadline,
                                    const std::atomic<bool>* cancel, RoundTrip& out);
  /// Feeds one traced reply's timing sample into the port's offset
  /// estimator and returns the refined estimate.
  [[nodiscard]] std::int64_t update_clock(std::uint16_t port, const ClockSample& sample);

  /// engine_net_* registry handles, resolved once at construction; inert
  /// when config_.metrics is null.
  struct Metrics {
    obs::Counter queries;
    obs::Counter attempts;
    obs::Counter retries;
    obs::Counter timeouts;
    obs::Counter faults_injected;
    obs::Counter hedges;
    obs::Counter hedge_wins;
    obs::Counter bounds_widened;
    obs::Counter legs_failed;
    obs::Counter bytes_sent;
    obs::Counter bytes_received;
    obs::Counter wire_bytes_sent;
    obs::Counter wire_bytes_received;
    obs::Histogram wire_time;
  };

  RouterConfig config_;
  Metrics metrics_;
  std::atomic<std::uint64_t> query_seq_{1};

  /// Idle keep-alive connections per shard port, most recently used last.
  std::mutex pool_mutex_;
  std::map<std::uint16_t, std::vector<Socket>> idle_;

  mutable std::mutex meta_mutex_;
  std::map<std::tuple<std::uint64_t, std::uint32_t, std::uint8_t, std::uint32_t>,
           ShardDescription>
      meta_cache_;

  mutable std::mutex health_mutex_;
  std::deque<LegEvent> health_window_;

  mutable std::mutex clock_mutex_;
  std::map<std::uint16_t, ClockOffsetEstimator> clock_;

  /// Previous kStats scrape per port, for the /fleetz qps delta.
  struct FleetPrev {
    std::uint64_t queries_served = 0;
    std::chrono::steady_clock::time_point at{};
    bool valid = false;
  };
  std::mutex fleet_mutex_;
  std::map<std::uint16_t, FleetPrev> fleet_prev_;
};

}  // namespace mmir::net
