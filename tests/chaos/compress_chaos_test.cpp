// Chaos against the negotiated-compression layer: corrupt transform ids,
// compressed frames on channels that never negotiated any transform,
// truncated compressed chunks, and decompressed-size bombs. The contract
// is the same strict validation as the rest of BXTP: every violation cuts
// exactly the offending connection, allocates nothing the declared sizes
// ask for, and the server keeps serving everyone else.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/lzss.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/compress.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/stream.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

struct EchoStream final : StreamCallbacks {
  void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
    out.write_chunk(std::move(chunk));
  }
  void on_end(ResponseWriter& out) override { out.finish(); }
};

std::unique_ptr<StreamCallbacks> echo_stream(const std::string&) {
  return std::make_unique<EchoStream>();
}

class CompressChaos : public ::testing::TestWithParam<ServerLeg> {
 protected:
  static std::unique_ptr<SoapServer> start() {
    ServerConfig cfg;
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = services::verification_handler;
    cfg.stream_handler = echo_stream;
    cfg.compress_transforms = transforms::kAll;
    cfg.reactor_threads = 2;
    return create_server(GetParam(), std::move(cfg));
  }

  /// Hello/Accept by hand, offering `offer`; returns the negotiated set.
  static std::uint8_t handshake(TcpStream& stream, std::uint8_t offer) {
    HelloFrame hello;
    hello.transforms = offer;
    write_hello(stream, hello);
    const AcceptFrame accept = read_accept(stream);
    EXPECT_EQ(accept.version, kFrameVersionNegotiated);
    return accept.transforms;
  }

  /// The connection was cut if the next read sees EOF/reset instead of
  /// bytes. The 2 s read timeout is a hang detector, not the contract.
  static bool cut(TcpStream& stream) {
    try {
      std::uint8_t byte;
      stream.set_read_timeout(2000);
      stream.read_exact(&byte, 1);
      return false;
    } catch (const TransportError&) {
      return true;
    }
  }

  /// The server still serves well-formed traffic after the abuse.
  static void expect_still_serving(SoapServer& server) {
    SoapEngine<BxsaEncoding, TcpClientBinding> client(
        BxsaEncoding{}, TcpClientBinding(server.port()));
    const SoapEnvelope resp = client.call(
        services::make_data_request(workload::make_lead_dataset(9)));
    const auto outcome = services::parse_verify_response(resp);
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.count, 9u);
  }

  /// A v3 Message frame with the compressed flag and the given body.
  static std::vector<std::uint8_t> compressed_frame(
      std::vector<std::uint8_t> body) {
    ByteWriter w;
    const std::size_t len_pos = begin_frame_v3(w, v3flags::kCompressed,
                                               BxsaEncoding::content_type());
    w.write_bytes(body);
    end_frame(w, len_pos);
    return w.take();
  }

  /// A v2 chunked header plus one kCompressedData chunk with `body`.
  static std::vector<std::uint8_t> compressed_chunk(
      std::vector<std::uint8_t> body) {
    ByteWriter w;
    w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
    w.write_u8(kFrameVersionChunked);
    const std::string_view ct = BxsaEncoding::content_type();
    vls_write(w, ct.size());
    w.write_string(ct);
    w.write_u8(static_cast<std::uint8_t>(ChunkKind::kCompressedData));
    w.write<std::uint64_t>(body.size(), ByteOrder::kBig);
    w.write_bytes(body);
    return w.take();
  }
};

}  // namespace

TEST_P(CompressChaos, CorruptTransformIdCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ASSERT_EQ(handshake(stream, transforms::kAll), transforms::kAll);
  // Transform id 9 exists in no negotiation; the server must not guess.
  stream.write_all(compressed_frame({9, 1, 2, 3, 4}));
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(CompressChaos, NonNegotiatedTransformIdCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  // Offer (and so negotiate) lzss only; then send a shuffle+lzss frame.
  ASSERT_EQ(handshake(stream, transforms::kLzss), transforms::kLzss);
  std::vector<std::uint8_t> body = {
      static_cast<std::uint8_t>(Transform::kShuffleLzss), 8};
  const auto packed =
      lzss_compress(std::vector<std::uint8_t>(64, std::uint8_t{0}));
  body.insert(body.end(), packed.begin(), packed.end());
  stream.write_all(compressed_frame(std::move(body)));
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(CompressChaos, CompressedFrameWithoutNegotiationCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  // Hello with an EMPTY offer: the channel is plain-v3 and the compressed
  // flag is meaningless on it.
  ASSERT_EQ(handshake(stream, 0), 0);
  std::vector<std::uint8_t> body = {static_cast<std::uint8_t>(
      Transform::kLzss)};
  const auto packed =
      lzss_compress(std::vector<std::uint8_t>(64, std::uint8_t{0}));
  body.insert(body.end(), packed.begin(), packed.end());
  stream.write_all(compressed_frame(std::move(body)));
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(CompressChaos, TruncatedCompressedChunkCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ASSERT_EQ(handshake(stream, transforms::kAll), transforms::kAll);
  // A valid lzss stream cut in half: the declared decompressed size can
  // never be reached, and the declared chunk length is honest — only the
  // compressed payload itself is torn.
  const auto whole =
      lzss_compress(std::vector<std::uint8_t>(4096, std::uint8_t{'x'}));
  std::vector<std::uint8_t> body = {
      static_cast<std::uint8_t>(Transform::kLzss)};
  body.insert(body.end(), whole.begin(), whole.begin() + whole.size() / 2);
  stream.write_all(compressed_chunk(std::move(body)));
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(CompressChaos, ChunkSizeBombIsRejectedWithoutAllocating) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ASSERT_EQ(handshake(stream, transforms::kAll), transforms::kAll);
  // A forged lzss header declaring 1 GiB decompressed, in a chunk whose
  // wire size is a few dozen bytes. The per-chunk ceiling (max_chunk_bytes)
  // must reject the declaration before any allocation happens.
  ByteWriter forged;
  forged.write_u8(static_cast<std::uint8_t>(Transform::kLzss));
  forged.write_bytes(reinterpret_cast<const std::uint8_t*>("LZS1"), 4);
  forged.write<std::uint64_t>(std::uint64_t{1} << 30, ByteOrder::kLittle);
  for (int i = 0; i < 32; ++i) forged.write_u8(0);
  stream.write_all(compressed_chunk(forged.take()));
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(CompressChaos, MessageSizeBombIsRejectedWithoutAllocating) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ASSERT_EQ(handshake(stream, transforms::kAll), transforms::kAll);
  // Same forgery on the v1-shaped message path: 16 GiB declared, capped
  // by max_message_bytes (and the absolute 8 GiB sanity bound).
  ByteWriter forged;
  forged.write_u8(static_cast<std::uint8_t>(Transform::kLzss));
  forged.write_bytes(reinterpret_cast<const std::uint8_t*>("LZS1"), 4);
  forged.write<std::uint64_t>(std::uint64_t{1} << 34, ByteOrder::kLittle);
  for (int i = 0; i < 32; ++i) forged.write_u8(0);
  stream.write_all(compressed_frame(forged.take()));
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

INSTANTIATE_TEST_SUITE_P(Models, CompressChaos,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_name);

}  // namespace bxsoap::transport
