#include "plbhec/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace plbhec::net {
namespace {

using Clock = std::chrono::steady_clock;

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Remaining poll budget in milliseconds; -1 for "forever" deadlines,
/// clamped to >= 0 otherwise (poll treats negative as infinite).
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  const long long ms = left.count();
  if (ms <= 0) return 0;
  return ms > 60'000 ? 60'000 : static_cast<int>(ms);
}

}  // namespace

TcpConn::TcpConn(int fd) : fd_(fd) { set_nodelay(fd_); }

TcpConn::~TcpConn() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpConn> TcpConn::connect(const std::string& host,
                                          std::uint16_t port,
                                          double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }

  // Non-blocking connect with a poll deadline, then back to blocking.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    const int ms = timeout_seconds < 0.0
                       ? -1
                       : static_cast<int>(timeout_seconds * 1000.0);
    if (::poll(&pfd, 1, ms) != 1) rc = -1;
    if (rc == 0 || (pfd.revents & POLLOUT) != 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      rc = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (rc == 0 && err != 0) rc = -1;
    } else {
      rc = -1;
    }
  }
  if (rc != 0) {
    ::close(fd);
    return nullptr;
  }
  ::fcntl(fd, F_SETFL, flags);
  return std::make_unique<TcpConn>(fd);
}

bool TcpConn::send_vectors(const iovec* iov, std::size_t count) {
  // Mutable copy so partial progress can advance base/len without
  // touching the caller's vectors. Frames are at most header + payload +
  // trailer, so a small fixed array suffices.
  constexpr std::size_t kMaxVectors = 8;
  if (count > kMaxVectors) return false;
  iovec local[kMaxVectors];
  std::memcpy(local, iov, count * sizeof(iovec));

  std::size_t first = 0;  // vectors fully transmitted so far
  while (first < count) {
    if (local[first].iov_len == 0) {
      ++first;
      continue;
    }
    if (cancelled()) return false;
    msghdr msg{};
    msg.msg_iov = local + first;
    msg.msg_iovlen = count - first;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    std::size_t advanced = static_cast<std::size_t>(n);
    while (first < count && advanced >= local[first].iov_len) {
      advanced -= local[first].iov_len;
      ++first;
    }
    if (first < count && advanced > 0) {
      local[first].iov_base =
          static_cast<std::uint8_t*>(local[first].iov_base) + advanced;
      local[first].iov_len -= advanced;
    }
  }
  return true;
}

bool TcpConn::recv_all(void* data, std::size_t size, double timeout_seconds) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  const bool has_deadline = timeout_seconds >= 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             has_deadline ? timeout_seconds : 0.0));
  while (got < size) {
    if (cancelled()) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, remaining_ms(has_deadline, deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) {
      if (has_deadline && Clock::now() >= deadline) return false;  // timeout
      continue;  // clamped slice of an infinite/long deadline
    }
    if (rc < 0) return false;
    const ssize_t n = ::recv(fd_, p + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error
  }
  return true;
}

long TcpConn::recv_nonblocking(void* data, std::size_t cap) {
  while (true) {
    if (cancelled()) return -1;
    const ssize_t n = ::recv(fd_, data, cap, MSG_DONTWAIT);
    if (n > 0) return static_cast<long>(n);
    if (n == 0) return -1;  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

long TcpConn::send_nonblocking(const void* data, std::size_t size) {
  while (true) {
    if (cancelled()) return -1;
    const ssize_t n = ::send(fd_, data, size, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

bool TcpConn::readable(double timeout_seconds) {
  if (cancelled()) return false;
  pollfd pfd{fd_, POLLIN, 0};
  const int ms = timeout_seconds < 0.0
                     ? -1
                     : static_cast<int>(timeout_seconds * 1000.0);
  return ::poll(&pfd, 1, ms) == 1;
}

void TcpConn::cancel() {
  if (!cancelled_.exchange(true, std::memory_order_acq_rel))
    ::shutdown(fd_, SHUT_RDWR);
}

TcpListener::~TcpListener() {
  close();
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpListener> TcpListener::bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return nullptr;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(bound.sin_port)));
}

std::unique_ptr<TcpConn> TcpListener::accept(double timeout_seconds) {
  const bool has_deadline = timeout_seconds >= 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             has_deadline ? timeout_seconds : 0.0));
  while (true) {
    if (closed_.load(std::memory_order_acquire)) return nullptr;
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, remaining_ms(has_deadline, deadline));
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) {
      if (has_deadline && Clock::now() >= deadline) return nullptr;
      continue;
    }
    if (rc < 0) return nullptr;
    const int conn_fd = ::accept(fd_, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return nullptr;
    }
    return std::make_unique<TcpConn>(conn_fd);
  }
}

void TcpListener::close() {
  if (!closed_.exchange(true, std::memory_order_acq_rel))
    ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace plbhec::net
