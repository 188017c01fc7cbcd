#pragma once
/// \file socket.hpp
/// Thin RAII layer over POSIX TCP sockets for the cluster transport:
/// a loopback/any-address listener and a connection with whole-buffer
/// send/recv, deadlines, and asynchronous cancellation. cancel() uses
/// ::shutdown so a blocked recv on another thread wakes immediately —
/// the heartbeat monitor relies on that to fail a dead worker's
/// in-flight block without waiting for a kernel-level TCP timeout.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

struct iovec;  // <sys/uio.h>; forward-declared to keep this header light

namespace plbhec::net {

/// One established, bidirectional TCP connection. Thread model: one
/// reader and one writer thread may use it concurrently; cancel() may be
/// called from any thread.
class TcpConn {
 public:
  /// Wraps an accepted/connected fd (takes ownership; sets TCP_NODELAY).
  explicit TcpConn(int fd);
  ~TcpConn();
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  /// Connects to host:port; nullptr on refusal/timeout.
  [[nodiscard]] static std::unique_ptr<TcpConn> connect(
      const std::string& host, std::uint16_t port, double timeout_seconds);

  /// Scatter-gather send: transmits the concatenation of `iov[0..count)`
  /// in order without first copying the pieces into one contiguous
  /// buffer (the framed-write hot path relies on this to ship
  /// header + payload + trailer as three vectors). Resumes across iovec
  /// boundaries on short writes; false on error or cancellation.
  [[nodiscard]] bool send_vectors(const iovec* iov, std::size_t count);

  /// The raw socket fd (ownership stays with the connection). Exposed
  /// for poll()-style readiness integration and for tests that shrink
  /// kernel buffers to force partial send/recv progress.
  [[nodiscard]] int native_handle() const { return fd_; }

  /// Receives exactly `size` bytes. `timeout_seconds` < 0 waits forever
  /// (until the peer closes or cancel()). False on EOF, error, timeout,
  /// or cancellation.
  [[nodiscard]] bool recv_all(void* data, std::size_t size,
                              double timeout_seconds = -1.0);

  /// True when at least one byte (or EOF) is ready to read within the
  /// timeout — lets a server loop poll for traffic without consuming the
  /// ability to distinguish "idle" from "dead".
  [[nodiscard]] bool readable(double timeout_seconds);

  /// Non-blocking receive for readiness-driven (epoll) reactors: reads
  /// whatever the kernel has, up to `cap` bytes. Returns the byte count
  /// (> 0), 0 when the socket has nothing buffered (would block), or -1
  /// on EOF, error, or cancellation.
  [[nodiscard]] long recv_nonblocking(void* data, std::size_t cap);

  /// Non-blocking send counterpart: writes as much of [data, data+size)
  /// as the kernel accepts. Returns bytes written (>= 0; 0 = send buffer
  /// full) or -1 on error/cancellation. The caller keeps the unsent tail
  /// and retries on the next writability notification.
  [[nodiscard]] long send_nonblocking(const void* data, std::size_t size);

  /// Permanently wakes and fails all in-flight and future I/O on this
  /// connection. Safe from any thread, idempotent.
  void cancel();

  [[nodiscard]] bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  int fd_ = -1;
  std::atomic<bool> cancelled_{false};
};

/// A listening TCP socket bound to 127.0.0.1 (the transport is built for
/// trusted cluster interconnects and the tests run over loopback).
class TcpListener {
 public:
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral); nullptr on
  /// failure.
  [[nodiscard]] static std::unique_ptr<TcpListener> bind_loopback(
      std::uint16_t port);

  /// The bound port (resolved when constructed with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The listening fd (ownership stays here) — for epoll registration.
  [[nodiscard]] int native_handle() const { return fd_; }

  /// Accepts one connection; nullptr on timeout or after close().
  /// `timeout_seconds` < 0 waits forever.
  [[nodiscard]] std::unique_ptr<TcpConn> accept(double timeout_seconds);

  /// Stops accepting: wakes a blocked accept() and fails future ones.
  /// Safe from any thread, idempotent.
  void close();

 private:
  TcpListener(int fd, std::uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> closed_{false};
};

}  // namespace plbhec::net
