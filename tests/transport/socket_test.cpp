#include "transport/socket.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <climits>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "obs/metrics.hpp"

namespace bxsoap::transport {
namespace {

TEST(TcpSocket, ConnectAcceptExchange) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread server([&] {
    TcpStream conn = listener.accept();
    auto data = conn.read_exact(5);
    EXPECT_EQ(std::string(data.begin(), data.end()), "hello");
    conn.write_all(std::string_view("world!"));
  });

  TcpStream client = TcpStream::connect(listener.port());
  client.write_all(std::string_view("hello"));
  auto reply = client.read_exact(6);
  EXPECT_EQ(std::string(reply.begin(), reply.end()), "world!");
  server.join();
}

TEST(TcpSocket, ReadExactOnClosedPeerThrows) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpStream conn = listener.accept();
    conn.write_all(std::string_view("ab"));
    // closes on scope exit
  });
  TcpStream client = TcpStream::connect(listener.port());
  server.join();
  EXPECT_THROW(client.read_exact(10), TransportError);
}

TEST(TcpSocket, ReadUntilDelimiterWithPushback) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpStream conn = listener.accept();
    conn.write_all(std::string_view("HEADER\r\n\r\nBODYBYTES"));
  });
  TcpStream client = TcpStream::connect(listener.port());
  const std::string head = client.read_until("\r\n\r\n", 1024);
  EXPECT_EQ(head, "HEADER\r\n\r\n");
  auto body = client.read_exact(9);
  EXPECT_EQ(std::string(body.begin(), body.end()), "BODYBYTES");
  server.join();
}

TEST(TcpSocket, ReadUntilRespectsLimit) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpStream conn = listener.accept();
    std::string big(5000, 'x');
    conn.write_all(big);
  });
  TcpStream client = TcpStream::connect(listener.port());
  EXPECT_THROW(client.read_until("\r\n\r\n", 1000), TransportError);
  server.join();
}

TEST(TcpSocket, ConnectToClosedPortThrows) {
  // Bind then immediately close to get a port that is very likely free.
  std::uint16_t dead_port;
  {
    TcpListener l(0);
    dead_port = l.port();
  }
  EXPECT_THROW(TcpStream::connect(dead_port), TransportError);
}

TEST(TcpSocket, ShutdownUnblocksAccept) {
  TcpListener listener(0);
  std::thread blocked([&] {
    EXPECT_THROW(listener.accept(), TransportError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.shutdown();
  blocked.join();
}

TEST(TcpSocket, ReadTimeoutFires) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpStream conn = listener.accept();
    // Never send anything; hold the connection open until the client is
    // done timing out.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  });
  TcpStream client = TcpStream::connect(listener.port());
  client.set_read_timeout(50);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.read_exact(1), TransportError);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::milliseconds(250))
      << "timeout must fire well before the peer closes";
  server.join();
}

TEST(TcpSocket, LargeTransferIntegrity) {
  TcpListener listener(0);
  std::vector<std::uint8_t> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  std::thread server([&] {
    TcpStream conn = listener.accept();
    conn.write_all(payload);
  });
  TcpStream client = TcpStream::connect(listener.port());
  auto got = client.read_exact(payload.size());
  EXPECT_EQ(got, payload);
  server.join();
}

/// Pieces of 0-997 bytes (some empty) and a few of 200,000 (several
/// partial writes stop inside one), more of them than one sendmsg takes,
/// and their concatenation.
struct Pieces {
  std::vector<std::vector<std::uint8_t>> storage;
  std::vector<std::span<const std::uint8_t>> spans;
  std::vector<std::uint8_t> joined;
};

Pieces make_pieces(std::size_t count) {
  Pieces p;
  SplitMix64 rng(count);
  p.storage.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    p.storage[i].resize(i % 11 == 0    ? 0
                        : i % 512 == 5 ? 200'000
                                       : (i * 37) % 998);
    for (auto& b : p.storage[i]) b = static_cast<std::uint8_t>(rng.next());
    p.spans.emplace_back(p.storage[i]);
    p.joined.insert(p.joined.end(), p.storage[i].begin(), p.storage[i].end());
  }
  return p;
}

/// A reader that drains `n` bytes in small bites with pauses between them.
std::vector<std::uint8_t> read_slowly(TcpStream& conn, std::size_t n) {
  std::vector<std::uint8_t> got(n);
  for (std::size_t at = 0; at < n;) {
    const std::size_t r =
        conn.read_some(got.data() + at, std::min<std::size_t>(8192, n - at));
    if (r == 0) break;
    at += r;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return got;
}

extern "C" void ignore_signal(int) {}

/// Install a do-nothing handler for `sig`, without SA_RESTART, so the
/// signal interrupts a blocked syscall; the old action is restored.
class ScopedInterrupt {
 public:
  explicit ScopedInterrupt(int sig) : sig_(sig) {
    struct sigaction sa {};
    sa.sa_handler = ignore_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(sig_, &sa, &old_);
  }
  ~ScopedInterrupt() { ::sigaction(sig_, &old_, nullptr); }

 private:
  int sig_;
  struct sigaction old_ {};
};

TEST(WriteVectored, ResumesMidPieceAfterPartialWritesAcrossIovMaxBatches) {
  // A blocking sendmsg that has sent part of its data returns that count
  // when a signal interrupts it (and EINTR when it has sent nothing). A
  // small send buffer on the writer's own socket, a slow reader and a
  // steady stream of signals at the writer give many partial writes, each
  // stopping wherever the buffer filled: mostly inside a piece.
  const Pieces p = make_pieces(3 * IOV_MAX);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TcpStream writer{Socket(fds[0])};
  TcpStream peer{Socket(fds[1])};
  const int sndbuf = 16 * 1024;
  ASSERT_EQ(::setsockopt(writer.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  obs::IoStats io;
  writer.set_io_stats(&io);

  const ScopedInterrupt interrupt(SIGUSR1);
  const pthread_t writer_thread = ::pthread_self();
  std::atomic<bool> done{false};
  std::vector<std::uint8_t> received;
  std::thread reader([&] {
    received = read_slowly(peer, p.joined.size());
    peer.shutdown_both();  // a writer that overshoots fails, not hangs
  });
  std::thread interrupter([&] {
    while (!done.load()) {
      ::pthread_kill(writer_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_NO_THROW(writer.write_vectored(p.spans));
  done = true;
  interrupter.join();
  writer.shutdown_both();  // a failed write must not strand the reader
  reader.join();

  EXPECT_EQ(received, p.joined);
  EXPECT_EQ(io.bytes_out.value(), p.joined.size());
  // At least one sendmsg per IOV_MAX batch, and more: the writer resumed
  // after partial writes, each one counted.
  EXPECT_GT(io.write_calls.value(), 3u);
  EXPECT_EQ(io.read_calls.value(), 0u);
}

TEST(WriteVectored, EmptyPiecesAndNothingToSend) {
  TcpListener listener(0);
  std::vector<std::uint8_t> received;
  std::thread reader([&] {
    TcpStream conn = listener.accept();
    received = conn.read_exact(5);
  });
  TcpStream writer = TcpStream::connect(listener.port());
  obs::IoStats io;
  writer.set_io_stats(&io);
  const std::uint8_t a[] = {1, 2}, b[] = {3, 4, 5};
  writer.write_vectored({});
  const std::span<const std::uint8_t> none[] = {{}, {}};
  writer.write_vectored(none);
  EXPECT_EQ(io.write_calls.value(), 0u) << "nothing to send, no syscall";
  const std::span<const std::uint8_t> parts[] = {{}, a, {}, {}, b, {}};
  writer.write_vectored(parts);
  reader.join();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(io.write_calls.value(), 1u);
  EXPECT_EQ(io.bytes_out.value(), 5u);
}

}  // namespace
}  // namespace bxsoap::transport
