// Chaos against the BXTP v3 negotiation and dictionary layer: truncated
// and corrupt Hellos, unknown message flags, dictionary references into a
// table the server never admitted, and handshake replays. The contract is
// strict validation (FORMAT.md §"BXTP v3"): every violation cuts exactly
// the offending connection, synchronously, and the server keeps serving
// everyone else.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bxsa/dict.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

class V3Chaos : public ::testing::TestWithParam<ServerLeg> {
 protected:
  static std::unique_ptr<SoapServer> start() {
    ServerConfig cfg;
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = services::verification_handler;
    cfg.reactor_threads = 2;
    return create_server(GetParam(), std::move(cfg));
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

  static std::vector<std::uint8_t> request_payload(std::size_t n) {
    const SoapEnvelope env =
        services::make_data_request(workload::make_lead_dataset(n));
    return BxsaEncoding{}.serialize(env.document());
  }
};

TEST_P(V3Chaos, TruncatedHelloNeverWedgesTheServer) {
  auto server = start();
  {
    // A full Hello is 18 bytes (12-byte body since the auth flag); abandon
    // it mid-body.
    TcpStream stream = TcpStream::connect(server->port());
    ByteWriter hello;
    encode_hello(hello, HelloFrame{});
    ASSERT_EQ(hello.size(), 18u);
    stream.write_all(std::span(hello.bytes()).first(9));
  }  // close with the handshake half-sent
  expect_still_serving(*server);
}

TEST_P(V3Chaos, CorruptHelloKindCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  ByteWriter w;
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(9);  // no such frame kind
  stream.write_all(w.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, UnknownMessageFlagsCutTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  write_hello(stream, HelloFrame{});
  ASSERT_EQ(read_accept(stream).version, kFrameVersionNegotiated);
  ByteWriter w;
  const std::size_t len_pos =
      begin_frame_v3(w, 0x80, BxsaEncoding::content_type());
  const auto payload = request_payload(4);
  w.write_bytes(payload);
  end_frame(w, len_pos);
  stream.write_all(w.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, DictReferenceBeyondTheMirrorCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  HelloFrame hello;
  hello.dict_max_entries = bxsa::DictLimits{}.max_entries;
  hello.dict_max_bytes = bxsa::DictLimits{}.max_bytes;
  write_hello(stream, hello);
  const AcceptFrame accept = read_accept(stream);
  ASSERT_EQ(accept.version, kFrameVersionNegotiated);
  ASSERT_GT(accept.dict_max_entries, 0u);

  // Encode the same request twice through a LOCAL dictionary, then send
  // only the second output: it references table entries the server's
  // mirror never saw admitted. Strict validation must cut, not guess.
  bxsa::DictEncoder enc({accept.dict_max_entries, accept.dict_max_bytes});
  const auto payload = request_payload(11);
  ByteWriter warmup;
  ASSERT_FALSE(enc.encode(payload, warmup));
  ByteWriter frame;
  const std::size_t len_pos = begin_frame_v3(frame, v3flags::kDictEncoded,
                                             BxsaEncoding::content_type());
  ASSERT_FALSE(enc.encode(payload, frame));
  end_frame(frame, len_pos);
  stream.write_all(frame.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, DictCodedMessageWithoutANegotiatedTableCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  // No Hello at all: kDictEncoded is meaningless and must not be guessed
  // around.
  ByteWriter frame;
  const std::size_t len_pos = begin_frame_v3(frame, v3flags::kDictEncoded,
                                             BxsaEncoding::content_type());
  bxsa::DictEncoder enc(bxsa::DictLimits{});
  enc.encode(request_payload(5), frame);
  end_frame(frame, len_pos);
  stream.write_all(frame.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

TEST_P(V3Chaos, SecondHelloCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  write_hello(stream, HelloFrame{});
  ASSERT_EQ(read_accept(stream).version, kFrameVersionNegotiated);
  write_hello(stream, HelloFrame{});  // renegotiation is not a thing
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

// Only a client may receive an Accept: the server's parser decodes one
// like any v3 frame, and its call site refuses it.
TEST_P(V3Chaos, AcceptSentToTheServerCutsTheConnection) {
  auto server = start();
  TcpStream stream = TcpStream::connect(server->port());
  write_hello(stream, HelloFrame{});
  ASSERT_EQ(read_accept(stream).version, kFrameVersionNegotiated);
  ByteWriter accept;
  encode_accept(accept, AcceptFrame{});
  stream.write_all(accept.bytes());
  EXPECT_TRUE(cut(stream));
  expect_still_serving(*server);
}

INSTANTIATE_TEST_SUITE_P(Models, V3Chaos,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_name);

}  // namespace
}  // namespace bxsoap::transport
