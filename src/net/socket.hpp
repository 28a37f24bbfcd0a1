#pragma once
// Blocking loopback TCP primitives shared by every in-process network
// surface: the operator stats server (obs/stats_server) and the shard
// serving plane (net/shard_server, net/router).  Promoted out of
// obs/stats_server.cpp so SO_REUSEADDR, ephemeral-port readback, and
// partial-read/partial-write handling live in exactly one place.
//
// Design points:
//   * loopback only — every bind and connect targets 127.0.0.1; this layer
//     serves co-located processes, not the open internet.
//   * Listener::accept() polls with a bounded timeout and returns an invalid
//     Socket on expiry, so accept loops re-check their stop flag promptly
//     without signals or shutdown() races (the stats-server pattern).
//   * Socket::read_exact() takes a deadline plus an optional cancel flag and
//     polls in short slices — a hung peer costs the caller its timeout, never
//     a wedged thread.  This is what lets a router leg treat a dead shard
//     server as a fault-domain event instead of a hang.
//   * Socket::idle_open() is the keep-alive liveness check: a zero-timeout
//     poll that says whether a connection nobody is reading from is still
//     open with nothing pending.  The router asks it before it reuses a
//     pooled connection, and after a failed read to tell a peer that hung
//     up from one that merely stayed silent.
//   * On platforms without BSD sockets every operation reports failure
//     (start returns false, reads/writes fail); nothing references the API
//     conditionally, so callers need no #ifdefs.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace mmir::net {

/// True when the platform provides BSD sockets (compile-time property).
[[nodiscard]] bool sockets_available() noexcept;

/// RAII wrapper over one connected TCP socket.  Move-only; closes on
/// destruction.  A default-constructed Socket is invalid.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Connects to 127.0.0.1:`port`; invalid Socket on failure.
  [[nodiscard]] static Socket connect_loopback(std::uint16_t port);

  /// Reads exactly `n` bytes.  Polls in short slices so the optional
  /// `cancel` flag and the deadline (now + `timeout`) are honored even when
  /// the peer stays silent; `timeout` <= 0 means no deadline.  Returns false
  /// on EOF, error, timeout, or cancellation.
  [[nodiscard]] bool read_exact(void* buf, std::size_t n, std::chrono::milliseconds timeout,
                                const std::atomic<bool>* cancel = nullptr);

  /// Zero-timeout liveness check of a connection with no request in flight:
  /// true when the socket is valid, the peer has not closed or reset it,
  /// and no unread byte is pending (a pending byte means the stream is no
  /// longer at a frame boundary).  Never blocks.
  [[nodiscard]] bool idle_open() const noexcept;

  /// One read(2) of at most `n` bytes; returns the byte count, 0 on EOF,
  /// -1 on error.  For protocols with their own head-scanning loop (HTTP).
  [[nodiscard]] std::ptrdiff_t read_some(void* buf, std::size_t n);

  /// Writes all `n` bytes, looping over partial writes; false on error.
  [[nodiscard]] bool write_all(const void* buf, std::size_t n);

 private:
  int fd_ = -1;
};

/// RAII loopback listener: SO_REUSEADDR, bind 127.0.0.1, listen(16), and
/// ephemeral-port readback via getsockname.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned; read back via port()).
  /// Returns false when the socket can't be created/bound/listened.
  [[nodiscard]] bool listen(std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// The bound TCP port; -1 when not listening.
  [[nodiscard]] int port() const noexcept { return port_; }
  void close() noexcept;

  /// Waits up to `timeout` for a connection; an invalid Socket means the
  /// timeout elapsed (re-check your stop flag and call again) or an error.
  [[nodiscard]] Socket accept(std::chrono::milliseconds timeout);

 private:
  int fd_ = -1;
  int port_ = -1;
};

}  // namespace mmir::net
