// Negotiated adaptive compression (FORMAT.md §"Transform negotiation"):
// the transform offer rides the v3 Hello/Accept, every downgrade pairing
// stays byte-identical to the uncompressed channel, compressible traffic
// shrinks the wire on both the message and the streamed path, and the
// entropy probe keeps incompressible traffic out of the codec — on both
// server dispatch legs (worker pool and inline).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "obs/metrics.hpp"
#include "services/verification.hpp"
#include "soap/channel_pool.hpp"
#include "soap/engine.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/compress.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

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

std::unique_ptr<StreamCallbacks> echo_stream(const std::string&) {
  return std::make_unique<EchoStream>();
}

/// An envelope whose serialization is dominated by a long repetitive text
/// leaf: far past CompressPolicy::min_bytes and trivially below its
/// entropy ceiling, so the adaptive path MUST compress it.
SoapEnvelope make_text_request(std::size_t repeats) {
  std::string text;
  text.reserve(repeats * 26);
  for (std::size_t i = 0; i < repeats; ++i) {
    text += "the quick brown fox jumps ";
  }
  auto root = xdm::make_element(xdm::QName("urn:t", "blob", "t"));
  root->declare_namespace("t", "urn:t");
  root->add_child(xdm::make_leaf<std::string>(xdm::QName("text"),
                                              std::move(text)));
  return SoapEnvelope::wrap(std::move(root));
}

struct CompressChannel : ::testing::TestWithParam<ServerLeg> {
  static std::unique_ptr<SoapServer> make_server(ServerConfig cfg = {}) {
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    if (!cfg.handler) cfg.handler = services::verification_handler;
    cfg.reactor_threads = 2;
    return create_server(GetParam(), std::move(cfg));
  }

  static std::vector<std::uint8_t> encode_request(std::size_t count) {
    const SoapEnvelope env =
        services::make_data_request(workload::make_lead_dataset(count));
    return BxsaEncoding{}.serialize(env.document());
  }

  /// One raw exchange: send `payload`, return the CANONICAL response bytes
  /// (post-decompression, post-dictionary).
  static std::vector<std::uint8_t> exchange(TcpClientBinding& binding,
                                            std::vector<std::uint8_t> payload) {
    soap::WireMessage m;
    m.content_type = std::string(BxsaEncoding::content_type());
    m.payload = std::move(payload);
    binding.send_request(std::move(m));
    return binding.receive_response().payload;
  }
};

// ---- negotiation and the downgrade matrix -----------------------------------

TEST_P(CompressChannel, EveryDowngradePairingIsByteIdentical) {
  ServerConfig legacy_cfg;
  legacy_cfg.accept_v3 = false;
  auto legacy = make_server(std::move(legacy_cfg));
  auto plain_v3 = make_server();  // v3, but no transform offer
  ServerConfig comp_cfg;
  comp_cfg.compress_transforms = transforms::kAll;
  auto compressing = make_server(std::move(comp_cfg));

  const auto request = encode_request(17);

  // Baseline: plain client, pre-v3 server.
  TcpClientBinding plain(legacy->port());
  const auto baseline = exchange(plain, request);

  // A compressing client against the pre-v3 server: the probe costs one
  // cut connection, then the channel is plain v1 — byte-identical.
  TcpClientBinding probe(legacy->port());
  probe.enable_v3();
  probe.enable_compression();
  EXPECT_EQ(exchange(probe, request), baseline);
  EXPECT_FALSE(probe.v3_active());
  EXPECT_EQ(probe.negotiated_transforms(), 0);

  // A compressing client against a v3 server with NO transform offer:
  // the intersection is empty and the channel is plain v3.
  TcpClientBinding v3_only(plain_v3->port());
  v3_only.enable_v3();
  v3_only.enable_compression();
  EXPECT_EQ(exchange(v3_only, request), baseline);
  EXPECT_TRUE(v3_only.v3_active());
  EXPECT_EQ(v3_only.negotiated_transforms(), 0);

  // A client that never offered transforms against a compressing server:
  // the server must not compress at it.
  TcpClientBinding no_offer(compressing->port());
  no_offer.enable_v3();
  EXPECT_EQ(exchange(no_offer, request), baseline);
  EXPECT_TRUE(no_offer.v3_active());
  EXPECT_EQ(no_offer.negotiated_transforms(), 0);

  // And a fully negotiated compressed channel still decodes to the same
  // canonical bytes, first exchange and steady state alike.
  TcpClientBinding full(compressing->port());
  full.enable_v3();
  full.enable_compression();
  EXPECT_EQ(exchange(full, request), baseline);
  EXPECT_EQ(exchange(full, request), baseline);
  EXPECT_TRUE(full.v3_active());
  EXPECT_EQ(full.negotiated_transforms(), transforms::kAll);

  // A pre-v3 client against the compressing server, for completeness.
  TcpClientBinding old(compressing->port());
  EXPECT_EQ(exchange(old, request), baseline);
}

TEST_P(CompressChannel, AcceptIsTheIntersectionOfTheOffers) {
  ServerConfig cfg;
  cfg.compress_transforms = transforms::kLzss;  // no shuffle on this server
  auto server = make_server(std::move(cfg));

  TcpClientBinding all(server->port());
  all.enable_v3();
  all.enable_compression(transforms::kAll);
  exchange(all, encode_request(5));
  EXPECT_EQ(all.negotiated_transforms(), transforms::kLzss);

  TcpClientBinding shuffle_only(server->port());
  shuffle_only.enable_v3();
  shuffle_only.enable_compression(transforms::kShuffleLzss);
  exchange(shuffle_only, encode_request(5));
  EXPECT_EQ(shuffle_only.negotiated_transforms(), 0);
}

// ---- the message path actually compresses -----------------------------------

TEST_P(CompressChannel, CompressibleMessagesShrinkBothDirections) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.compress_transforms = transforms::kAll;
  cfg.registry = &registry;
  cfg.metrics_prefix = "srv";
  cfg.handler = [](SoapEnvelope env) { return env; };  // echo: big both ways
  auto server = make_server(std::move(cfg));

  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  client.binding().enable_v3();
  client.binding().enable_compression();
  CompressStats client_stats;
  client_stats.chunks = &registry.counter("cli.compress.chunks");
  client_stats.bytes_in = &registry.counter("cli.compress.bytes_in");
  client_stats.bytes_out = &registry.counter("cli.compress.bytes_out");
  client.binding().set_compress_stats(client_stats);

  const SoapEnvelope request = make_text_request(4096);  // ~100 KiB of text
  const SoapEnvelope response = client.call(request);
  ASSERT_TRUE(client.binding().v3_active());
  EXPECT_EQ(client.binding().negotiated_transforms(), transforms::kAll);
  // The echo survived the compressed round trip intact.
  const auto* root =
      dynamic_cast<const xdm::Element*>(response.body_payload());
  ASSERT_NE(root, nullptr);
  const auto* leaf = dynamic_cast<const xdm::LeafElement<std::string>*>(
      root->find_child("text"));
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->get().size(), 4096u * 26);

  // The client compressed the request, the server the response, and both
  // came out well under half the canonical size.
  EXPECT_GE(registry.counter("cli.compress.chunks").value(), 1u);
  EXPECT_LT(registry.counter("cli.compress.bytes_out").value() * 2,
            registry.counter("cli.compress.bytes_in").value());
  EXPECT_GE(registry.counter("srv.compress.chunks").value(), 1u);
  EXPECT_LT(registry.counter("srv.compress.bytes_out").value() * 2,
            registry.counter("srv.compress.bytes_in").value());
}

// ---- the streamed path: adaptivity per chunk --------------------------------

TEST_P(CompressChannel, StreamedCompressibleChunksShrinkTheWire) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.stream_handler = echo_stream;
  cfg.compress_transforms = transforms::kAll;
  cfg.registry = &registry;
  cfg.metrics_prefix = "srv";
  auto server = make_server(std::move(cfg));

  TcpClientBinding client(server->port());
  client.enable_v3();
  client.enable_compression();
  CompressStats stats;
  stats.chunks = &registry.counter("cli.compress.chunks");
  stats.skipped = &registry.counter("cli.compress.skipped");
  stats.bytes_in = &registry.counter("cli.compress.bytes_in");
  stats.bytes_out = &registry.counter("cli.compress.bytes_out");
  client.set_compress_stats(stats);
  obs::IoStats& io = registry.io("cli.io");
  client.set_io_stats(&io);

  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> received;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        for (int i = 0; i < 8; ++i) {
          // Single-byte runs: near-zero entropy, the probe must admit them.
          std::vector<std::uint8_t> chunk(kChunk / 2,
                                          static_cast<std::uint8_t>('a' + i));
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
  ASSERT_TRUE(client.v3_active());

  // Every request chunk compressed, none skipped, and the whole exchange
  // (both directions of ~256 KiB logical data) fit in a fraction of it.
  EXPECT_EQ(registry.counter("cli.compress.chunks").value(), 8u);
  EXPECT_EQ(registry.counter("cli.compress.skipped").value(), 0u);
  EXPECT_LT(registry.counter("cli.compress.bytes_out").value() * 10,
            registry.counter("cli.compress.bytes_in").value());
  EXPECT_GE(registry.counter("srv.compress.chunks").value(), 8u);
  EXPECT_LT(io.bytes_out.value(), sent.size() / 4);
  EXPECT_LT(io.bytes_in.value(), sent.size() / 4);
}

TEST_P(CompressChannel, IncompressibleChunksAreSentVerbatim) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.stream_handler = echo_stream;
  cfg.compress_transforms = transforms::kAll;
  auto server = make_server(std::move(cfg));

  TcpClientBinding client(server->port());
  client.enable_v3();
  client.enable_compression();
  CompressStats stats;
  stats.chunks = &registry.counter("cli.compress.chunks");
  stats.skipped = &registry.counter("cli.compress.skipped");
  client.set_compress_stats(stats);

  std::mt19937 rng(77);
  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> received;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        for (int i = 0; i < 6; ++i) {
          std::vector<std::uint8_t> chunk(kChunk / 2);
          for (auto& b : chunk) b = static_cast<std::uint8_t>(rng());
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
  // The entropy probe priced every random chunk out of the codec.
  EXPECT_EQ(registry.counter("cli.compress.chunks").value(), 0u);
  EXPECT_EQ(registry.counter("cli.compress.skipped").value(), 6u);
}

// ---- pooled channels --------------------------------------------------------

TEST_P(CompressChannel, ChannelPoolNegotiatesCompressionOnEveryChannel) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.compress_transforms = transforms::kAll;
  cfg.handler = [](SoapEnvelope env) { return env; };
  auto server = make_server(std::move(cfg));

  TcpChannelPool<BxsaEncoding>::Config pool_cfg;
  pool_cfg.port = server->port();
  pool_cfg.channels = 2;
  pool_cfg.enable_v3 = true;
  pool_cfg.compress_transforms = transforms::kAll;
  pool_cfg.registry = &registry;
  pool_cfg.metrics_prefix = "pool";
  TcpChannelPool<BxsaEncoding> channels(pool_cfg);

  for (int i = 0; i < 4; ++i) {
    const SoapEnvelope resp = channels.call(make_text_request(2048));
    const auto* root =
        dynamic_cast<const xdm::Element*>(resp.body_payload());
    ASSERT_NE(root, nullptr);
    const auto* leaf = dynamic_cast<const xdm::LeafElement<std::string>*>(
        root->find_child("text"));
    ASSERT_NE(leaf, nullptr);
    EXPECT_EQ(leaf->get().size(), 2048u * 26);
  }
  EXPECT_GE(registry.counter("pool.compress.chunks").value(), 4u);
  EXPECT_LT(registry.counter("pool.compress.bytes_out").value() * 2,
            registry.counter("pool.compress.bytes_in").value());
}

INSTANTIATE_TEST_SUITE_P(Models, CompressChannel,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_name);

}  // namespace
}  // namespace bxsoap::transport
