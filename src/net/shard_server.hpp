#pragma once
// One process's side of distributed shard serving (DESIGN.md §6g): a
// ShardServer wraps a local QueryEngine plus the archives it has been handed
// and answers wire-protocol queries for *one shard slice at a time* over
// loopback TCP.
//
// The server is deliberately archive-shaped, not query-shaped: it registers
// whole TiledArchives and materializes ShardedArchive layouts lazily per
// (shard_count, policy) request, so one server process can serve any shard of
// any registered layout.  A production deployment pins a server to one shard
// id via ShardServerConfig::shard_id; the tests leave it open (kAnyShard) so
// a small process fleet can cover every layout in the parity battery.
//
// Scans run through the engine's scheduler (ShardScanJob), so remote queries
// get the same admission control, op budgets, deadlines, and shedding as
// local ones — a shed scan comes back as a kResult frame with status kShed,
// which the router treats as back-pressure and retries.
//
// Robustness contract (tests/test_net_wire.cpp): a malformed, truncated,
// corrupt, oversized, or version-skewed frame never hangs or kills the
// server.  The connection answers with a typed kError frame when it can,
// then closes (the stream is desynced past repair); the accept loop and all
// other connections keep serving.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "archive/sharded.hpp"
#include "archive/tiled.hpp"
#include "engine/scheduler.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace mmir::net {

/// shard_id pin wildcard: the server answers for any shard of any layout.
inline constexpr std::uint32_t kAnyShard = 0xFFFFFFFFu;

struct ShardServerConfig {
  /// TCP port to bind (loopback only); 0 = kernel-assigned ephemeral port,
  /// read it back via port().
  std::uint16_t port = 0;
  /// Only serve this shard id; queries for other shards get kErrBadRequest.
  /// kAnyShard (default) serves every shard of every layout.
  std::uint32_t shard_id = kAnyShard;
  /// The embedded engine the scans run through.
  EngineConfig engine;
  /// Per-connection idle read deadline; an idle client is disconnected (it
  /// can reconnect).  <= 0 waits forever.
  std::chrono::milliseconds read_timeout{30000};
};

class ShardServer {
 public:
  explicit ShardServer(ShardServerConfig config = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Makes `archive` servable under `archive_id`.  `progressive_ranges` are
  /// the per-band ranges that drive progressive stage ordering — they MUST
  /// equal the ranges the router's client used locally, or stage order (and
  /// therefore budgeted-scan answers) diverges from the monolithic run.
  /// The archive is borrowed and must outlive the server.
  void register_archive(std::uint64_t archive_id, const TiledArchive* archive,
                        std::vector<Interval> progressive_ranges);

  /// Binds the port and starts the accept thread; false when the socket
  /// layer is unavailable or the port cannot be bound.
  [[nodiscard]] bool start();

  /// Stops accepting, joins every connection thread, closes the listener.
  /// Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;
  /// The bound TCP port; -1 when not running.
  [[nodiscard]] int port() const noexcept;
  /// Queries answered with a kResult frame since start.
  [[nodiscard]] std::uint64_t queries_served() const noexcept;
  /// Connections accepted since construction: a router that keeps its
  /// connections open shows here as a count that stops growing.  Local
  /// only; not part of the kStats reply.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept;

  /// Routing table, exposed for tests: one request frame in, one reply frame
  /// out (exactly what a connection would write back).
  [[nodiscard]] Frame handle(const Frame& request);

 private:
  struct ArchiveEntry {
    const TiledArchive* archive = nullptr;
    std::vector<Interval> ranges;
    /// Lazily built layouts keyed by (shard_count, policy).
    std::map<std::pair<std::uint32_t, std::uint8_t>, std::unique_ptr<ShardedArchive>> layouts;
  };
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  [[nodiscard]] Frame handle_query(std::span<const std::uint8_t> payload);
  [[nodiscard]] Frame handle_describe(std::span<const std::uint8_t> payload);
  [[nodiscard]] Frame handle_stats();
  /// Finds/creates the (count, policy) layout of a registered entry; throws
  /// Error on an invalid policy byte.
  [[nodiscard]] const ShardedArchive* layout_for(ArchiveEntry& entry, std::uint32_t count,
                                                 std::uint8_t policy);
  void accept_loop();
  void serve_connection(Socket sock, Conn* conn);
  void reap_connections(bool all);

  ShardServerConfig config_;
  /// Owned tracer backing remote-scan traces when the caller's EngineConfig
  /// did not supply one: every served scan gets a span tree the reply can
  /// carry back, with zero setup on the embedding side.  Must be declared
  /// before engine_ (the engine config points at it).
  obs::Tracer tracer_{64};
  std::chrono::steady_clock::time_point started_at_{std::chrono::steady_clock::now()};
  QueryEngine engine_;
  std::mutex archives_mutex_;
  std::map<std::uint64_t, ArchiveEntry> archives_;

  Listener listener_;
  std::atomic<bool> stop_{true};
  std::thread accept_thread_;
  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> queries_served_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
};

}  // namespace mmir::net
