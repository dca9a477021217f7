// End-to-end streaming authentication (FORMAT.md §"Auth trailer",
// DESIGN.md §15): signed chunked exchanges on both dispatch legs, the
// downgrade matrix (either side unsigned -> plain streams), composition
// with per-chunk compression, key mismatch cutting the stream with a
// retryable fault, the FNV differential algorithm behind its test-only
// bit, and the signed large-stream residency gate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "soap/engine.hpp"
#include "soap/security.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/compress.hpp"
#include "transport/server.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

constexpr std::size_t kChunk = 64 * 1024;

struct EchoStream final : StreamCallbacks {
  void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
    out.write_chunk(std::move(chunk));
  }
  void on_end(ResponseWriter& out) override { out.finish(); }
};

std::unique_ptr<StreamCallbacks> echo_handler(const std::string&) {
  return std::make_unique<EchoStream>();
}

ServerConfig make_config(obs::Registry* registry, const std::string& prefix,
                         StreamAuth auth) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope env) { return env; };
  cfg.stream_handler = echo_handler;
  cfg.stream_chunk_bytes = kChunk;
  cfg.registry = registry;
  cfg.metrics_prefix = prefix;
  cfg.stream_auth = std::move(auth);
  return cfg;
}

/// One signed echo exchange; returns the number of payload bytes echoed.
std::size_t run_signed_echo(TcpClientBinding& client, std::size_t chunks) {
  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> received;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        for (std::size_t i = 0; i < chunks; ++i) {
          std::vector<std::uint8_t> chunk(kChunk / 2);
          for (std::size_t j = 0; j < chunk.size(); ++j) {
            chunk[j] = static_cast<std::uint8_t>(i * 131 + j * 7);
          }
          sent.insert(sent.end(), chunk.begin(), chunk.end());
          tx.write_data(std::move(chunk));
        }
        tx.finish();
      },
      [&](StreamRequest& rx) {
        while (auto data = rx.next_data()) {
          received.insert(received.end(), data->begin(), data->end());
        }
      });
  EXPECT_EQ(received, sent);
  return received.size();
}

class SignedStream : public ::testing::TestWithParam<ServerLeg> {};

INSTANTIATE_TEST_SUITE_P(BothModels, SignedStream,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_title);

TEST_P(SignedStream, HmacRoundTripsAndCountsAuthenticatedBytes) {
  obs::Registry registry;
  auto server = create_server(
      GetParam(),
      make_config(&registry, "srv", make_hmac_stream_auth("sh4red-k3y")));

  TcpClientBinding client(server->port());
  client.enable_stream_auth(make_hmac_stream_auth("sh4red-k3y"));
  const std::size_t bytes = run_signed_echo(client, 12);
  EXPECT_EQ(client.negotiated_auth(), authalgs::kHmacSha256);
  // The server authenticated at least the request AND the response.
  EXPECT_GE(registry.counter("srv.sec.bytes_authenticated").value(),
            2 * bytes);
  EXPECT_EQ(registry.counter("srv.sec.tag_failures").value(), 0u);
  EXPECT_GT(registry.counter("srv.sec.verify.ns").value(), 0u);
}

TEST_P(SignedStream, FnvDifferentialAlgorithmRoundTrips) {
  // The FNV-1a demo digest survives behind its test-only algorithm bit:
  // same framing, same trailer discipline, 8-byte tag — a differential
  // check that the Auth plumbing is algorithm-agnostic.
  auto server = create_server(
      GetParam(), make_config(nullptr, "srv", make_fnv_stream_auth("fnv-k")));

  TcpClientBinding client(server->port());
  client.enable_stream_auth(make_fnv_stream_auth("fnv-k"));
  run_signed_echo(client, 6);
  EXPECT_EQ(client.negotiated_auth(), authalgs::kFnv1a64);
}

TEST_P(SignedStream, UnsignedServerDowngradesClientToPlainStreams) {
  auto server = create_server(GetParam(), make_config(nullptr, "srv", {}));

  TcpClientBinding client(server->port());
  client.enable_stream_auth(make_hmac_stream_auth("k"));
  run_signed_echo(client, 4);
  EXPECT_EQ(client.negotiated_auth(), 0);  // sticky downgrade: no overlap
}

TEST_P(SignedStream, UnsignedClientIsServedPlainBySigningServer) {
  obs::Registry registry;
  auto server = create_server(
      GetParam(), make_config(&registry, "srv", make_hmac_stream_auth("k")));

  TcpClientBinding client(server->port());
  client.enable_v3({});  // v3, but no auth offer in the Hello
  run_signed_echo(client, 4);
  EXPECT_EQ(client.negotiated_auth(), 0);
  EXPECT_EQ(registry.counter("srv.sec.bytes_authenticated").value(), 0u);
}

TEST_P(SignedStream, KeyMismatchCutsStreamWithRetryableFault) {
  obs::Registry registry;
  auto server = create_server(
      GetParam(),
      make_config(&registry, "srv", make_hmac_stream_auth("server-key")));

  TcpClientBinding client(server->port());
  client.enable_stream_auth(make_hmac_stream_auth("client-key"));
  // Same algorithm negotiates, but the keys disagree: the server's verify
  // of the request trailer fails, the connection is cut, and the client
  // sees TransportError — the retryable taxonomy ReliableCaller acts on.
  EXPECT_THROW(run_signed_echo(client, 4), TransportError);
  // Poll: the failure count is committed after the socket is cut.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (registry.counter("srv.sec.tag_failures").value() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(registry.counter("srv.sec.tag_failures").value(), 1u);
}

TEST_P(SignedStream, ComposesWithPerChunkCompression) {
  obs::Registry registry;
  ServerConfig cfg =
      make_config(&registry, "srv", make_hmac_stream_auth("both-k"));
  cfg.compress_transforms = transforms::kAll;
  auto server = create_server(GetParam(), std::move(cfg));

  TcpClientBinding client(server->port());
  client.enable_stream_auth(make_hmac_stream_auth("both-k"));
  client.enable_compression(transforms::kAll, {});
  // Compressible payload: the MAC covers the PLAINTEXT chunk order, so
  // the echo verifies even though the wire carries CompressedData frames.
  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> received;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        for (int i = 0; i < 8; ++i) {
          std::vector<std::uint8_t> chunk(kChunk / 2);
          for (std::size_t j = 0; j < chunk.size(); ++j) {
            chunk[j] = static_cast<std::uint8_t>(j % 17);  // low entropy
          }
          sent.insert(sent.end(), chunk.begin(), chunk.end());
          tx.write_data(std::move(chunk));
        }
        tx.finish();
      },
      [&](StreamRequest& rx) {
        while (auto data = rx.next_data()) {
          received.insert(received.end(), data->begin(), data->end());
        }
      });
  EXPECT_EQ(received, sent);
  EXPECT_EQ(client.negotiated_auth(), authalgs::kHmacSha256);
  EXPECT_GT(registry.counter("srv.compress.chunks").value(), 0u);
  EXPECT_EQ(registry.counter("srv.sec.tag_failures").value(), 0u);
  EXPECT_GE(registry.counter("srv.sec.bytes_authenticated").value(),
            2 * sent.size());
}

TEST_P(SignedStream, EngineWiresPolicyStreamAuthAutomatically) {
  // The MessageSecurity policy is the engine's ONE security hook: handing
  // BodyDigestSignature to the engine arms the binding's chunked path
  // under the same key, with no transport-level calls in user code.
  auto server = create_server(
      GetParam(),
      make_config(nullptr, "srv",
                  BodyDigestSignature("one-hook").stream_auth()));

  SoapEngine<BxsaEncoding, TcpClientBinding, BodyDigestSignature> engine(
      BxsaEncoding{}, TcpClientBinding(server->port()),
      BodyDigestSignature("one-hook"));
  std::size_t echoed = 0;
  engine.call_streamed(
      [&](bxsa::StreamWriter& w) {
        w.start_document();
        w.start_element(xdm::QName("urn:s", "bulk", "s"),
                        std::array<xdm::NamespaceDecl, 1>{{{"s", "urn:s"}}});
        const std::vector<double> xs(20'000, 2.5);
        w.array(xdm::QName("xs"), std::span<const double>(xs));
        w.end_element();
        w.end_document();
      },
      [&](auto& rx) {
        while (auto data = rx.next_data()) echoed += data->size();
      },
      kChunk);
  EXPECT_GT(echoed, 20'000 * sizeof(double));
  EXPECT_EQ(engine.binding().negotiated_auth(), authalgs::kHmacSha256);
}

TEST_P(SignedStream, SignedAndMaterializedInterleaveOnOneConnection) {
  auto server = create_server(
      GetParam(), make_config(nullptr, "srv", make_hmac_stream_auth("mix")));

  TcpClientBinding client(server->port());
  client.enable_stream_auth(make_hmac_stream_auth("mix"));
  // Two signed streams back to back on one negotiated connection: the
  // authenticator re-arms per stream, so the second exchange must verify
  // with a fresh MAC, not a continuation of the first.
  run_signed_echo(client, 3);
  run_signed_echo(client, 5);
  EXPECT_EQ(client.negotiated_auth(), authalgs::kHmacSha256);
}

/// Signed twin of the residency tentpole gate: BXSOAP_STREAM_MIB=256
/// streams the full 256 MiB with HMAC-SHA-256 on both directions;
/// verification is overlapped (per surfaced chunk), so peak queue
/// residency must STILL be ≤ 2 chunks — authentication adds zero
/// buffering.
TEST(StreamingResidency, SignedLargeEchoStaysWithinTwoChunks) {
  std::size_t mib = 8;
  if (const char* env = std::getenv("BXSOAP_STREAM_MIB")) {
    mib = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    if (mib == 0) mib = 8;
  }
  const std::size_t chunk = 1u << 20;
  const std::size_t total = mib << 20;

  obs::Registry registry;
  ServerConfig cfg =
      make_config(&registry, "big", make_hmac_stream_auth("residency-key"));
  cfg.stream_chunk_bytes = chunk;
  cfg.frame_limits.max_stream_bytes = 2ull << 30;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  TcpClientBinding client(server->port());
  client.enable_stream_auth(make_hmac_stream_auth("residency-key"));
  FrameLimits client_limits;
  client_limits.max_stream_bytes = 2ull << 30;
  client.set_frame_limits(client_limits);

  std::uint64_t received = 0;
  client.stream_exchange(
      "application/x-test", chunk,
      [&](ResponseWriter& tx) {
        BufferPool& pool = tx.pool();
        for (std::size_t off = 0; off < total; off += chunk) {
          std::vector<std::uint8_t> data = pool.acquire(chunk);
          data.resize(chunk);
          std::fill(data.begin(), data.end(),
                    static_cast<std::uint8_t>(off >> 20));
          tx.write_data(std::move(data));
        }
        tx.finish();
      },
      [&](StreamRequest& rx) {
        BufferPool& pool = BufferPool::global();
        while (auto data = rx.next_data()) {
          received += data->size();
          pool.release(std::move(*data));
        }
      });

  EXPECT_EQ(received, total);
  EXPECT_EQ(client.negotiated_auth(), authalgs::kHmacSha256);
  const std::uint64_t peak =
      registry.waterline("big.stream.buffered_bytes").peak();
  EXPECT_LE(peak, 2 * chunk);
  EXPECT_LE(peak, 8u << 20);
  // Both directions were authenticated end to end.
  EXPECT_GE(registry.counter("big.sec.bytes_authenticated").value(),
            2 * static_cast<std::uint64_t>(total));
  EXPECT_EQ(registry.counter("big.sec.tag_failures").value(), 0u);
}

}  // namespace
}  // namespace bxsoap::transport
