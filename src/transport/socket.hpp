// RAII TCP sockets over IPv4 loopback (the engine's real-network substrate).
//
// Deliberately small: connect/accept/read/write with EINTR handling and
// whole-buffer semantics, plus the non-blocking surface the epoll reactor
// (transport/internal/event_server.hpp) is built on: set_nonblocking, EAGAIN-aware
// try_read_some / try_write_some / try_accept, and RAII wrappers for the
// two kernel primitives a reactor needs (Epoll, EventFd).
#pragma once

#include <sys/epoll.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace bxsoap::obs {
struct IoStats;
}

namespace bxsoap::transport {

/// Transport failures reuse the shared error hierarchy; the alias lets
/// callers write transport::TransportError at the point of use.
using bxsoap::TransportError;

/// Owns a file descriptor; closes on destruction. Movable, not copyable.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Shut down both directions (unblocks a peer's read and our own).
  void shutdown_both() noexcept;

 private:
  int fd_ = -1;
};

/// A connected TCP stream.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(Socket s) : sock_(std::move(s)) {}

  /// Connect to 127.0.0.1:port (throws TransportError on failure).
  static TcpStream connect(std::uint16_t port);

  bool valid() const noexcept { return sock_.valid(); }
  int fd() const noexcept { return sock_.fd(); }
  void close() noexcept { sock_.close(); }
  void shutdown_both() noexcept { sock_.shutdown_both(); }

  /// Write the whole buffer; throws TransportError on error/peer close.
  void write_all(std::span<const std::uint8_t> data);
  void write_all(std::string_view s);

  /// Write `bufs` in order as one gathered stream: one sendmsg per round
  /// over up to IOV_MAX buffers, resuming mid-buffer after a partial
  /// write, so a frame header and its payload pieces leave in one segment
  /// instead of Nagle-split writes, and borrowed payload runs are sent from
  /// where they live. Throws TransportError on error/peer close.
  void write_vectored(std::span<const std::span<const std::uint8_t>> bufs);

  /// Read exactly n bytes; throws TransportError on EOF/error.
  std::vector<std::uint8_t> read_exact(std::size_t n);
  void read_exact(std::uint8_t* out, std::size_t n);

  /// Read at most n bytes (one recv); 0 = orderly EOF.
  std::size_t read_some(std::uint8_t* out, std::size_t n);

  /// Non-blocking read: bytes read (0 = orderly EOF), or nullopt when the
  /// socket has no data right now (EAGAIN). Requires set_nonblocking(true);
  /// any other error throws TransportError.
  std::optional<std::size_t> try_read_some(std::uint8_t* out, std::size_t n);

  /// Non-blocking write of at most data.size() bytes: bytes accepted by the
  /// kernel, or nullopt when the send buffer is full (EAGAIN).
  std::optional<std::size_t> try_write_some(std::span<const std::uint8_t> data);

  /// Switch the fd between blocking (default) and non-blocking mode.
  void set_nonblocking(bool on);

  /// Read until the delimiter appears (inclusive) or max_bytes is hit;
  /// returns everything read. Used by the HTTP header parser.
  std::string read_until(std::string_view delimiter, std::size_t max_bytes);

  /// Disable Nagle (small-message latency, as any SOAP stack would).
  void set_no_delay(bool on);

  /// Bound every read: after `ms` milliseconds without data, reads throw
  /// TransportError instead of blocking forever (0 = no timeout). Guards
  /// servers against stalled or malicious peers.
  void set_read_timeout(int ms);

  /// Attach byte/syscall counters (obs/metrics.hpp); every recv/send on
  /// this stream tallies into them. Pass nullptr to detach. The stats
  /// object must outlive the stream; unattached streams pay one pointer
  /// test per syscall.
  void set_io_stats(obs::IoStats* io) noexcept { io_ = io; }

 private:
  Socket sock_;
  std::string pushback_;  // bytes read past a delimiter, served first
  obs::IoStats* io_ = nullptr;
};

/// A listening socket on 127.0.0.1 (port 0 = kernel-assigned).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port = 0, int backlog = 64);

  std::uint16_t port() const noexcept { return port_; }

  /// Blocks until a client connects; throws TransportError when the
  /// listener has been shut down (the server-stop path).
  TcpStream accept();

  /// Non-blocking accept: the next pending connection, or nullopt when none
  /// is queued (EAGAIN). Requires set_nonblocking(true).
  std::optional<TcpStream> try_accept();

  /// Switch the listening fd between blocking and non-blocking mode.
  void set_nonblocking(bool on);

  int fd() const noexcept { return sock_.fd(); }

  /// Unblock any pending accept() and refuse new connections.
  void shutdown() noexcept { sock_.shutdown_both(); }
  void close() noexcept { sock_.close(); }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// RAII epoll instance. Interest registration carries the fd in
/// event.data.fd; the owner maps fds back to its own connection state.
class Epoll {
 public:
  Epoll();
  ~Epoll();
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  void add(int fd, std::uint32_t events);
  void mod(int fd, std::uint32_t events);
  /// Remove interest; ignores ENOENT/EBADF so teardown paths can call it
  /// unconditionally (closing an fd also drops it from the set).
  void del(int fd) noexcept;

  /// EINTR-retrying epoll_wait; returns the number of ready events
  /// (0 on timeout). timeout_ms = -1 blocks indefinitely.
  int wait(epoll_event* events, int max_events, int timeout_ms);

 private:
  int fd_ = -1;
};

/// RAII eventfd used to wake a reactor parked in epoll_wait from another
/// thread (worker completions, stop()). Non-blocking on both ends.
class EventFd {
 public:
  EventFd();
  ~EventFd();
  EventFd(const EventFd&) = delete;
  EventFd& operator=(const EventFd&) = delete;

  int fd() const noexcept { return fd_; }
  /// Post one wakeup; safe from any thread, never blocks.
  void signal() noexcept;
  /// Consume all pending wakeups (called by the reactor after waking).
  void drain() noexcept;

 private:
  int fd_ = -1;
};

}  // namespace bxsoap::transport
