#include "net/socket.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MMIR_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define MMIR_HAVE_SOCKETS 0
#endif

#include <algorithm>

namespace mmir::net {

bool sockets_available() noexcept { return MMIR_HAVE_SOCKETS != 0; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Listener::Listener(Listener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = -1;
  }
  return *this;
}

#if MMIR_HAVE_SOCKETS

namespace {

/// Slice length for deadline/cancel polling: short enough that stop flags
/// are prompt, long enough that an idle wait costs nothing measurable.
constexpr int kPollSliceMs = 100;

}  // namespace

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket{};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return Socket{};
  }
  return Socket{fd};
}

bool Socket::read_exact(void* buf, std::size_t n, std::chrono::milliseconds timeout,
                        const std::atomic<bool>* cancel) {
  if (fd_ < 0) return false;
  auto* out = static_cast<unsigned char*>(buf);
  std::size_t got = 0;
  const bool bounded = timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (got < n) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return false;
    int wait_ms = kPollSliceMs;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;  // deadline elapsed
      wait_ms = static_cast<int>(std::min<long long>(left.count(), kPollSliceMs));
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) return false;
    if (ready == 0) continue;  // slice expired; re-check cancel/deadline
    const ssize_t r = ::read(fd_, out + got, n - got);
    if (r <= 0) return false;  // EOF or error
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool Socket::idle_open() const noexcept {
  if (fd_ < 0) return false;
  // EOF and pending bytes both show as POLLIN; a reset as POLLERR/POLLHUP.
  pollfd pfd{fd_, POLLIN, 0};
  return ::poll(&pfd, 1, 0) == 0;
}

std::ptrdiff_t Socket::read_some(void* buf, std::size_t n) {
  if (fd_ < 0) return -1;
  return ::read(fd_, buf, n);
}

bool Socket::write_all(const void* buf, std::size_t n) {
  if (fd_ < 0) return false;
  const auto* bytes = static_cast<const unsigned char*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that closed mid-write (a router cancelling a
    // hedged leg) must surface as a write error here, not as a SIGPIPE
    // that kills the whole server process.
#ifdef MSG_NOSIGNAL
    const ssize_t w = ::send(fd_, bytes + sent, n - sent, MSG_NOSIGNAL);
#else
    const ssize_t w = ::write(fd_, bytes + sent, n - sent);
#endif
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

bool Listener::listen(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd_, 16) != 0) {
    close();
    return false;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  } else {
    port_ = port;
  }
  return true;
}

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  port_ = -1;
}

Socket Listener::accept(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Socket{};
  pollfd pfd{fd_, POLLIN, 0};
  const int wait_ms = static_cast<int>(std::max<long long>(0, timeout.count()));
  const int ready = ::poll(&pfd, 1, wait_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return Socket{};
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return Socket{};
  return Socket{client};
}

#else  // !MMIR_HAVE_SOCKETS

void Socket::close() noexcept { fd_ = -1; }
Socket Socket::connect_loopback(std::uint16_t) { return Socket{}; }
bool Socket::read_exact(void*, std::size_t, std::chrono::milliseconds,
                        const std::atomic<bool>*) {
  return false;
}
bool Socket::idle_open() const noexcept { return false; }
std::ptrdiff_t Socket::read_some(void*, std::size_t) { return -1; }
bool Socket::write_all(const void*, std::size_t) { return false; }
bool Listener::listen(std::uint16_t) { return false; }
void Listener::close() noexcept {
  fd_ = -1;
  port_ = -1;
}
Socket Listener::accept(std::chrono::milliseconds) { return Socket{}; }

#endif

}  // namespace mmir::net
