// Differential test of the two BXTP v2 chunk-stream writers: the event
// server's response stream and the client's ChunkedFrameWriter must put
// byte-identical streams on the wire for the same chunk sequence,
// negotiated transforms and key. An echo handler forwards a fixed request
// (compressible data, incompressible data, a patch chunk) and an empty
// one; the raw response bytes, captured off a v3 connection, are compared
// with what ChunkedFrameWriter<MemoryStream> writes for that sequence.
// Every negotiation (none, compression, HMAC auth, both) runs on both
// server dispatch legs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "soap/encoding.hpp"
#include "soap/security.hpp"
#include "support/server_legs.hpp"
#include "transport/compress.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/stream.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

constexpr const char* kKey = "chunk-diff-key";

struct Negotiation {
  const char* name;
  std::uint8_t transforms;
  std::uint8_t auth;
};

constexpr Negotiation kNegotiations[] = {
    {"none", 0, 0},
    {"compress", transforms::kAll, 0},
    {"auth", 0, authalgs::kHmacSha256},
    {"both", transforms::kAll, authalgs::kHmacSha256},
};

/// The fixed request: one chunk lzss wins on, one it must ship plain.
std::vector<std::uint8_t> compressible() {
  std::vector<std::uint8_t> out(8192);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>("chunk stream "[i % 13]);
  }
  return out;
}

std::vector<std::uint8_t> incompressible() {
  std::vector<std::uint8_t> out(8192);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

std::vector<bxsa::PatchRecord> patches() {
  bxsa::PatchRecord p{};
  p.offset = 3;
  p.len = 4;
  for (std::uint8_t i = 0; i < p.len; ++i) p.bytes[i] = 0xC0 + i;
  return {p};
}

/// Write the chunk sequence (or nothing, for the empty stream) through a
/// ChunkedFrameWriter armed for `transforms` and `auth`.
template <FrameStream S>
void write_sequence(S& out, std::uint8_t transforms, std::uint8_t auth,
                    bool empty) {
  BufferPool pool;
  std::unique_ptr<StreamAuthenticator> tx;
  ChunkedFrameWriter<S> w(out, BxsaEncoding::content_type());
  if (transforms != 0) {
    w.set_compression({transforms, CompressPolicy{}, &pool, {}});
  }
  if (auth != 0) {
    tx = make_hmac_stream_auth(kKey).make(auth);
    w.set_auth(tx.get(), auth);
  }
  if (!empty) {
    w.write_data(compressible());
    w.write_data(incompressible());
    w.write_patches(patches());
  }
  w.finish();
}

std::vector<std::uint8_t> expected_wire(std::uint8_t transforms,
                                        std::uint8_t auth, bool empty) {
  MemoryStream out;
  write_sequence(out, transforms, auth, empty);
  return out.read_exact(out.pending());
}

void echo(StreamRequest& req, ResponseWriter& resp) {
  while (auto c = req.next_chunk()) resp.write_chunk(std::move(*c));
  resp.finish();
}

class ChunkStreamDiff
    : public ::testing::TestWithParam<std::tuple<ServerLeg, Negotiation>> {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = [](SoapEnvelope env) { return env; };
    cfg.stream_handler = echo;
    cfg.compress_transforms = transforms::kAll;
    cfg.stream_auth = make_hmac_stream_auth(kKey);
    server_ = create_server(std::get<0>(GetParam()), std::move(cfg));
  }

  const Negotiation& negotiation() const { return std::get<1>(GetParam()); }

  /// One echo exchange on a hand-negotiated v3 connection; returns the
  /// response stream exactly as it came off the socket.
  std::vector<std::uint8_t> echoed_wire(bool empty) {
    TcpStream conn = TcpStream::connect(server_->port());
    conn.set_no_delay(true);
    conn.set_read_timeout(5000);
    HelloFrame hello;
    hello.transforms = negotiation().transforms;
    hello.auth = negotiation().auth;
    write_hello(conn, hello);
    const AcceptFrame accept = read_accept(conn);
    EXPECT_EQ(accept.version, kFrameVersionNegotiated);
    EXPECT_EQ(accept.transforms, negotiation().transforms);
    EXPECT_EQ(accept.auth, negotiation().auth);

    write_sequence(conn, accept.transforms, accept.auth, empty);

    // Parse the response as a client would, keeping every byte read.
    BufferPool pool;
    FrameAssembler parser({}, &pool);
    parser.set_transforms(accept.transforms);
    std::unique_ptr<StreamAuthenticator> rx;
    if (accept.auth != 0) {
      rx = make_hmac_stream_auth(kKey).make(accept.auth);
      parser.set_auth(rx.get(), accept.auth);
    }
    std::vector<std::uint8_t> wire;
    for (;;) {
      while (parser.need() != 0) {
        const std::size_t at = wire.size();
        wire.resize(at + parser.need());
        conn.read_exact(wire.data() + at, wire.size() - at);
        parser.feed(std::span<const std::uint8_t>(wire).subspan(at));
      }
      if (parser.take_chunk().kind == ChunkKind::kEnd) return wire;
    }
  }

  std::unique_ptr<SoapServer> server_;
};

}  // namespace

TEST_P(ChunkStreamDiff, EchoedSequenceMatchesChunkedFrameWriter) {
  const std::vector<std::uint8_t> want =
      expected_wire(negotiation().transforms, negotiation().auth, false);
  EXPECT_EQ(echoed_wire(false), want);
  if (negotiation().transforms != 0) {
    // The compressible chunk really went out compressed.
    EXPECT_LT(want.size(), expected_wire(0, negotiation().auth, false).size());
  }
}

TEST_P(ChunkStreamDiff, EmptyStreamMatchesChunkedFrameWriter) {
  EXPECT_EQ(echoed_wire(true),
            expected_wire(negotiation().transforms, negotiation().auth,
                          true));
}

INSTANTIATE_TEST_SUITE_P(
    LegsByNegotiation, ChunkStreamDiff,
    ::testing::Combine(::testing::Values(ServerLeg::kWorkerPool,
                                         ServerLeg::kInline),
                       ::testing::ValuesIn(kNegotiations)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == ServerLeg::kWorkerPool
                             ? "pool_"
                             : "event_") +
             std::get<1>(info.param).name;
    });

}  // namespace bxsoap::transport
