#include "transport/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "obs/metrics.hpp"

namespace bxsoap::transport {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void set_fd_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) < 0) throw_errno("fcntl(F_SETFL)");
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpStream TcpStream::connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  Socket sock(fd);
  const sockaddr_in addr = loopback(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) throw_errno("connect to 127.0.0.1:" + std::to_string(port));
  return TcpStream(std::move(sock));
}

void TcpStream::write_all(std::span<const std::uint8_t> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(sock_.fd(), data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    if (io_ != nullptr) {
      io_->write_calls.add();
      io_->bytes_out.add(static_cast<std::uint64_t>(n));
    }
    sent += static_cast<std::size_t>(n);
  }
}

void TcpStream::write_all(std::string_view s) {
  write_all(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

void TcpStream::write_vectored(
    std::span<const std::span<const std::uint8_t>> bufs) {
  // The next unsent byte: offset `skip` into bufs[next].
  std::size_t next = 0;
  std::size_t skip = 0;
  iovec iov[IOV_MAX];
  for (;;) {
    // Up to IOV_MAX non-empty pieces from the cursor on: sendmsg refuses
    // more, and a longer list simply takes further rounds.
    std::size_t count = 0;
    for (std::size_t i = next; i < bufs.size() && count < IOV_MAX; ++i) {
      const std::size_t from = i == next ? skip : 0;
      if (bufs[i].size() == from) continue;
      iov[count].iov_base = const_cast<std::uint8_t*>(bufs[i].data() + from);
      iov[count].iov_len = bufs[i].size() - from;
      ++count;
    }
    if (count == 0) return;
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(sock_.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("sendmsg");
    }
    if (io_ != nullptr) {
      io_->write_calls.add();
      io_->bytes_out.add(static_cast<std::uint64_t>(n));
    }
    // Advance the cursor past the bytes sent; a partial write may stop in
    // the middle of a piece.
    for (std::size_t left = static_cast<std::size_t>(n); left > 0;) {
      const std::size_t avail = bufs[next].size() - skip;
      if (left < avail) {
        skip += left;
        break;
      }
      left -= avail;
      ++next;
      skip = 0;
    }
  }
}

std::size_t TcpStream::read_some(std::uint8_t* out, std::size_t n) {
  if (!pushback_.empty()) {
    const std::size_t take = std::min(n, pushback_.size());
    std::memcpy(out, pushback_.data(), take);
    pushback_.erase(0, take);
    return take;
  }
  ssize_t r;
  do {
    r = ::recv(sock_.fd(), out, n, 0);
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw TransportError("read timed out");
    }
    throw_errno("recv");
  }
  if (io_ != nullptr) {
    io_->read_calls.add();
    io_->bytes_in.add(static_cast<std::uint64_t>(r));
  }
  return static_cast<std::size_t>(r);
}

std::optional<std::size_t> TcpStream::try_read_some(std::uint8_t* out,
                                                    std::size_t n) {
  if (!pushback_.empty()) {
    const std::size_t take = std::min(n, pushback_.size());
    std::memcpy(out, pushback_.data(), take);
    pushback_.erase(0, take);
    return take;
  }
  ssize_t r;
  do {
    r = ::recv(sock_.fd(), out, n, 0);
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("recv");
  }
  if (io_ != nullptr) {
    io_->read_calls.add();
    io_->bytes_in.add(static_cast<std::uint64_t>(r));
  }
  return static_cast<std::size_t>(r);
}

std::optional<std::size_t> TcpStream::try_write_some(
    std::span<const std::uint8_t> data) {
  ssize_t n;
  do {
    n = ::send(sock_.fd(), data.data(), data.size(), MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("send");
  }
  if (io_ != nullptr) {
    io_->write_calls.add();
    io_->bytes_out.add(static_cast<std::uint64_t>(n));
  }
  return static_cast<std::size_t>(n);
}

void TcpStream::set_nonblocking(bool on) {
  set_fd_nonblocking(sock_.fd(), on);
}

void TcpStream::read_exact(std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const std::size_t r = read_some(out + got, n - got);
    if (r == 0) {
      throw TransportError("connection closed mid-message (got " +
                           std::to_string(got) + " of " + std::to_string(n) +
                           " bytes)");
    }
    got += r;
  }
}

std::vector<std::uint8_t> TcpStream::read_exact(std::size_t n) {
  std::vector<std::uint8_t> buf(n);
  read_exact(buf.data(), n);
  return buf;
}

std::string TcpStream::read_until(std::string_view delimiter,
                                  std::size_t max_bytes) {
  std::string buf;
  std::uint8_t chunk[4096];
  for (;;) {
    const auto found = buf.find(delimiter);
    if (found != std::string::npos) {
      const std::size_t keep = found + delimiter.size();
      // Anything past the delimiter belongs to the next read.
      pushback_.insert(0, buf.substr(keep));
      buf.resize(keep);
      return buf;
    }
    if (buf.size() >= max_bytes) {
      throw TransportError("delimiter not found within " +
                           std::to_string(max_bytes) + " bytes");
    }
    // Strict cap: never buffer more than max_bytes, even transiently, so an
    // endless unterminated header costs max_bytes of memory, not
    // max_bytes + one chunk per hostile peer.
    const std::size_t take = std::min(sizeof(chunk), max_bytes - buf.size());
    const std::size_t r = read_some(chunk, take);
    if (r == 0) {
      throw TransportError("connection closed while waiting for delimiter");
    }
    buf.append(reinterpret_cast<const char*>(chunk), r);
  }
}

void TcpStream::set_read_timeout(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(sock_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) <
      0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

void TcpStream::set_no_delay(bool on) {
  const int flag = on ? 1 : 0;
  if (::setsockopt(sock_.fd(), IPPROTO_TCP, TCP_NODELAY, &flag,
                   sizeof(flag)) < 0) {
    throw_errno("setsockopt(TCP_NODELAY)");
  }
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sock_ = Socket(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, backlog) < 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

TcpStream TcpListener::accept() {
  int fd;
  do {
    fd = ::accept(sock_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) throw_errno("accept");
  return TcpStream(Socket(fd));
}

std::optional<TcpStream> TcpListener::try_accept() {
  int fd;
  do {
    fd = ::accept(sock_.fd(), nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    throw_errno("accept");
  }
  return TcpStream(Socket(fd));
}

void TcpListener::set_nonblocking(bool on) {
  set_fd_nonblocking(sock_.fd(), on);
}

Epoll::Epoll() {
  fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd_ < 0) throw_errno("epoll_create1");
}

Epoll::~Epoll() {
  if (fd_ >= 0) ::close(fd_);
}

void Epoll::add(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(ADD)");
  }
}

void Epoll::mod(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw_errno("epoll_ctl(MOD)");
  }
}

void Epoll::del(int fd) noexcept {
  ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr);
}

int Epoll::wait(epoll_event* events, int max_events, int timeout_ms) {
  int n;
  do {
    n = ::epoll_wait(fd_, events, max_events, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("epoll_wait");
  return n;
}

EventFd::EventFd() {
  fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (fd_ < 0) throw_errno("eventfd");
}

EventFd::~EventFd() {
  if (fd_ >= 0) ::close(fd_);
}

void EventFd::signal() noexcept {
  const std::uint64_t one = 1;
  // A full counter (EAGAIN) already guarantees a pending wakeup; any other
  // failure here is unrecoverable and the reactor's timeout still saves us.
  [[maybe_unused]] const ssize_t rc = ::write(fd_, &one, sizeof(one));
}

void EventFd::drain() noexcept {
  std::uint64_t count;
  [[maybe_unused]] const ssize_t rc = ::read(fd_, &count, sizeof(count));
}

}  // namespace bxsoap::transport
