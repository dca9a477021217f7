// Chaos against streaming authentication (FORMAT.md §"Auth trailer"):
// single-byte corruption of the tag, the first data chunk, and the last
// data chunk; truncation exactly at the Auth boundary; a stream that ends
// WITHOUT its trailer (the strip-the-tag attack); and the signed ×
// compressed × corrupted matrix. The invariant everywhere: the server
// detects the damage BEFORE its handler observes End — no corrupted
// stream ever completes as an exchange — and the connection dies alone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "soap/security.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/compress.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/stream.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

constexpr const char* kKey = "chaos-shared-key";

/// A valid SIGNED chunked transfer recorded off the wire, with the byte
/// ranges an attacker would aim at.
struct SignedWire {
  std::vector<std::uint8_t> bytes;
  std::size_t first_body = 0;  // offset into the first data chunk's body
  std::size_t last_body = 0;   // offset into the last data chunk's body
  std::size_t auth_start = 0;  // offset of the Auth trailer chunk frame
  std::size_t tag_byte = 0;    // offset of a byte inside the MAC tag
};

SignedWire record_signed_wire(std::uint8_t transforms) {
  MemoryStream out;
  BufferPool pool;
  SignedWire wire;
  StreamAuth auth = make_hmac_stream_auth(kKey);
  std::unique_ptr<StreamAuthenticator> tx =
      auth.make(authalgs::kHmacSha256);
  ChunkedFrameWriter<MemoryStream> writer(out, "application/x-chaos");
  if (transforms != 0) {
    writer.set_compression({transforms, CompressPolicy{}, &pool, {}});
  }
  writer.set_auth(tx.get(), authalgs::kHmacSha256);
  for (int i = 0; i < 4; ++i) {
    const std::size_t before = out.pending();
    // Low-entropy bodies so the compressed variant actually compresses.
    writer.write_data(std::vector<std::uint8_t>(
        512, static_cast<std::uint8_t>(0x20 + i)));
    if (i == 0) wire.first_body = before + 9 + 3;
    wire.last_body = before + 9 + 3;
  }
  wire.auth_start = out.pending();
  wire.tag_byte = wire.auth_start + 9 + 1 + 5;  // hdr, algo byte, tag[5]
  writer.finish();
  wire.bytes = out.read_exact(out.pending());
  return wire;
}

/// An UNSIGNED but otherwise identical transfer: what a tag-stripping
/// attacker would forward on an authenticated connection.
std::vector<std::uint8_t> record_unsigned_wire() {
  MemoryStream out;
  ChunkedFrameWriter<MemoryStream> writer(out, "application/x-chaos");
  for (int i = 0; i < 4; ++i) {
    writer.write_data(std::vector<std::uint8_t>(
        512, static_cast<std::uint8_t>(0x20 + i)));
  }
  writer.finish();
  return out.read_exact(out.pending());
}

struct ChaosServer {
  std::unique_ptr<obs::Registry> registry = std::make_unique<obs::Registry>();
  /// True only if a handler ever saw a stream END cleanly.
  std::shared_ptr<std::atomic<bool>> end_seen =
      std::make_shared<std::atomic<bool>>(false);
  std::unique_ptr<SoapServer> server;

  ChaosServer(ServerLeg leg, std::uint8_t transforms) {
    ServerConfig cfg;
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = [](SoapEnvelope env) { return env; };
    struct Echo final : StreamCallbacks {
      explicit Echo(std::shared_ptr<std::atomic<bool>> s) : seen(std::move(s)) {}
      void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
        out.write_chunk(std::move(chunk));
      }
      void on_end(ResponseWriter& out) override {
        // The framing layer surfaced End, which on a signed stream means
        // the trailer already verified.
        seen->store(true, std::memory_order_release);
        out.finish();
      }
      std::shared_ptr<std::atomic<bool>> seen;
    };
    cfg.stream_handler = [seen = end_seen](const std::string&) {
      return std::make_unique<Echo>(seen);
    };
    cfg.stream_chunk_bytes = 1024;
    cfg.read_timeout_ms = 400;
    cfg.registry = registry.get();
    cfg.metrics_prefix = "chaos";
    cfg.stream_auth = make_hmac_stream_auth(kKey);
    cfg.compress_transforms = transforms;
    server = create_server(leg, std::move(cfg));
  }

  std::uint64_t tag_failures() const {
    return registry->counter("chaos.sec.tag_failures").value();
  }

  void expect_drained() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server->active_connections() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(server->active_connections(), 0u);
  }
};

/// Negotiate v3 + auth (and optionally compression) by hand, then deliver
/// raw attacker-controlled bytes.
void deliver(std::uint16_t port, std::span<const std::uint8_t> bytes,
             std::uint8_t transforms) {
  TcpStream conn = TcpStream::connect(port);
  HelloFrame hello;
  hello.max_version = kFrameVersionNegotiated;
  hello.transforms = transforms;
  hello.auth = authalgs::kHmacSha256;
  write_hello(conn, hello);
  const AcceptFrame accept = read_accept(conn);
  ASSERT_EQ(accept.auth, authalgs::kHmacSha256);
  if (transforms != 0) {
    ASSERT_NE(accept.transforms, 0);
  }
  conn.write_all(bytes);
  // Drain the echoed response until the server cuts (corrupted wires) or
  // goes quiet after finishing (valid ones). Closing with unread response
  // bytes in our receive buffer would RST the connection, and an RST can
  // destroy request bytes the server has not consumed yet — racing the
  // very detection the tests observe.
  conn.set_read_timeout(300);
  std::uint8_t sink[4096];
  try {
    while (conn.read_some(sink, sizeof(sink)) != 0) {
    }
  } catch (const TransportError&) {
    // Timeout or reset: either way the server is done with our bytes.
  }
  conn.close();
}

class SignedStreamChaos : public ::testing::TestWithParam<ServerLeg> {
};

INSTANTIATE_TEST_SUITE_P(BothModels, SignedStreamChaos,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_title);

TEST_P(SignedStreamChaos, ValidSignedWireIsAcceptedBaseline) {
  // Control experiment: the hand-rolled handshake + recorded wire is
  // valid, so every corruption below fails because of the corruption.
  ChaosServer srv(GetParam(), 0);
  const SignedWire wire = record_signed_wire(0);
  deliver(srv.server->port(), wire.bytes, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!srv.end_seen->load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(srv.end_seen->load(std::memory_order_acquire));
  EXPECT_EQ(srv.tag_failures(), 0u);
  srv.expect_drained();
}

TEST_P(SignedStreamChaos, SingleByteFlipsAreDetectedBeforeEnd) {
  ChaosServer srv(GetParam(), 0);
  const SignedWire wire = record_signed_wire(0);
  // One flipped byte in each attack surface: the MAC tag itself, the
  // first data chunk, the last data chunk.
  for (const std::size_t target :
       {wire.tag_byte, wire.first_body, wire.last_body}) {
    SCOPED_TRACE("flip at offset " + std::to_string(target));
    std::vector<std::uint8_t> corrupted = wire.bytes;
    corrupted[target] ^= 0x01;
    deliver(srv.server->port(), corrupted, 0);
  }
  // Every flip must land as a tag failure, with End never surfaced.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (srv.tag_failures() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(srv.tag_failures(), 3u);
  EXPECT_FALSE(srv.end_seen->load(std::memory_order_acquire));
  EXPECT_EQ(srv.server->exchanges(), 0u);
  srv.expect_drained();

  // The server survives: a fresh honest client round-trips.
  TcpClientBinding client(srv.server->port());
  client.enable_stream_auth(make_hmac_stream_auth(kKey));
  std::size_t got = 0;
  client.stream_exchange(
      "application/x-chaos", 1024,
      [&](ResponseWriter& tx) {
        tx.write_data(std::vector<std::uint8_t>(2048, 0x5A));
        tx.finish();
      },
      [&](StreamRequest& rx) {
        while (auto d = rx.next_data()) got += d->size();
      });
  EXPECT_EQ(got, 2048u);
}

TEST_P(SignedStreamChaos, TruncationAtAuthBoundaryNeverSurfacesEnd) {
  ChaosServer srv(GetParam(), 0);
  const SignedWire wire = record_signed_wire(0);
  // Everything up to — but not including — the Auth trailer, then silence.
  deliver(srv.server->port(),
          std::span(wire.bytes.data(), wire.auth_start), 0);
  srv.expect_drained();  // read timeout reaps the half-stream
  EXPECT_FALSE(srv.end_seen->load(std::memory_order_acquire));
  EXPECT_EQ(srv.server->exchanges(), 0u);
}

TEST_P(SignedStreamChaos, StrippedTrailerIsRejectedAtEnd) {
  // An attacker who strips the Auth trailer and forwards the End chunk
  // must be caught by the receiver's armed-but-unverified check.
  ChaosServer srv(GetParam(), 0);
  const std::vector<std::uint8_t> wire = record_unsigned_wire();
  deliver(srv.server->port(), wire, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (srv.tag_failures() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(srv.tag_failures(), 1u);
  EXPECT_FALSE(srv.end_seen->load(std::memory_order_acquire));
  EXPECT_EQ(srv.server->exchanges(), 0u);
  srv.expect_drained();
}

TEST_P(SignedStreamChaos, CompressedSignedFlipMatrixIsDetected) {
  // The full matrix: signed × compressed × corrupted. The MAC covers the
  // PLAINTEXT chunk order, so whether a flip breaks the decompressor or
  // slips through as plausible-but-wrong plaintext, the stream must die
  // before End — never complete with corrupt data.
  ChaosServer srv(GetParam(), transforms::kAll);
  const SignedWire wire = record_signed_wire(transforms::kAll);

  // Baseline first: the compressed signed wire verifies as recorded.
  deliver(srv.server->port(), wire.bytes, transforms::kAll);
  const auto ok_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!srv.end_seen->load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < ok_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(srv.end_seen->load(std::memory_order_acquire));
  srv.end_seen->store(false, std::memory_order_release);
  const std::size_t baseline_exchanges = srv.server->exchanges();

  for (const std::size_t target :
       {wire.tag_byte, wire.first_body, wire.last_body}) {
    SCOPED_TRACE("flip at offset " + std::to_string(target));
    std::vector<std::uint8_t> corrupted = wire.bytes;
    corrupted[target] ^= 0x01;
    deliver(srv.server->port(), corrupted, transforms::kAll);
  }
  srv.expect_drained();
  EXPECT_FALSE(srv.end_seen->load(std::memory_order_acquire));
  EXPECT_EQ(srv.server->exchanges(), baseline_exchanges);
}

}  // namespace
}  // namespace bxsoap::transport
