#include "transport/striped.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/prng.hpp"
#include "common/vls.hpp"
#include "transport/framing.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

soap::WireMessage random_message(SplitMix64& rng, std::size_t size) {
  soap::WireMessage m;
  m.content_type = "application/bxsa";
  m.payload.resize(size);
  for (auto& b : m.payload) b = static_cast<std::uint8_t>(rng.next());
  return m;
}

void run_exchange(int streams, std::size_t payload_size) {
  StripedServerBinding server;
  const std::uint16_t port = server.port();
  SplitMix64 rng(payload_size + static_cast<std::size_t>(streams));
  const soap::WireMessage request = random_message(rng, payload_size);
  const soap::WireMessage response = random_message(rng, payload_size / 2);

  std::thread service([&] {
    soap::WireMessage got = server.receive_request();
    EXPECT_EQ(got.payload, request.payload);
    EXPECT_EQ(got.content_type, request.content_type);
    server.send_response(response);
  });

  StripedClientBinding client(port, streams);
  client.send_request(request);
  soap::WireMessage got = client.receive_response();
  service.join();
  EXPECT_EQ(got.payload, response.payload);
}

TEST(StripedBinding, SingleStream) { run_exchange(1, 100000); }
TEST(StripedBinding, FourStreams) { run_exchange(4, 2000000); }
TEST(StripedBinding, SixteenStreams) { run_exchange(16, 3000000); }

TEST(StripedBinding, TinyAndEmptyPayloads) {
  run_exchange(4, 0);
  run_exchange(4, 1);
  run_exchange(4, kStripeBlockSize);      // exactly one block
  run_exchange(4, kStripeBlockSize + 1);  // one block + 1 byte
}

TEST(StripedBinding, MultipleExchangesOnOneSession) {
  StripedServerBinding server;
  const std::uint16_t port = server.port();
  std::thread service([&] {
    for (int i = 0; i < 3; ++i) {
      soap::WireMessage got = server.receive_request();
      server.send_response(std::move(got));  // echo
    }
  });

  StripedClientBinding client(port, 4);
  SplitMix64 rng(1);
  for (int i = 0; i < 3; ++i) {
    const auto m = random_message(rng, 500000 + i);
    client.send_request(m);
    EXPECT_EQ(client.receive_response().payload, m.payload);
  }
  service.join();
}

TEST(StripedBinding, WorksAsSoapEnginePolicy) {
  // The paper's conclusion, end to end: SOAP over BXSA over 8 TCP streams.
  StripedServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<BxsaEncoding, StripedServerBinding> server(
      {}, std::move(server_binding));
  std::thread service([&] {
    server.serve_once(services::verification_handler);
  });

  SoapEngine<BxsaEncoding, StripedClientBinding> client(
      {}, StripedClientBinding(port, 8));
  const auto dataset = workload::make_lead_dataset(200000);  // 2.4 MB
  SoapEnvelope resp = client.call(services::make_data_request(dataset));
  service.join();
  const auto outcome = services::parse_verify_response(resp);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.count, 200000u);
}

TEST(StripedBinding, OverflowingContentTypeVlsIsRejected) {
  // "BXSM", then a content-type length whose tenth VLS byte carries bits
  // past bit 63, then a zero payload length: the shared VLS rule refuses
  // the length instead of wrapping it to 0.
  TcpListener listener(0);
  std::thread peer([&] {
    TcpStream conn = listener.accept();
    std::vector<std::uint8_t> bytes = {'B', 'X', 'S', 'M'};
    bytes.insert(bytes.end(), 9, 0x80);
    bytes.push_back(0x02);
    bytes.resize(bytes.size() + 8, 0);
    conn.write_all(bytes);
  });
  std::vector<TcpStream> streams;
  streams.push_back(TcpStream::connect(listener.port()));
  detail::StripedChannel channel(std::move(streams));
  EXPECT_THROW(channel.receive(), TransportError);
  peer.join();
}

TEST(StripedBinding, OverLimitPayloadLengthIsRejectedBeforeSizing) {
  // A peer declares one byte more than the message limit and then holds
  // the connection open: the receiver must refuse the length at once,
  // not size a buffer for it and wait for bytes that never come.
  TcpListener listener(0);
  std::thread peer([&] {
    TcpStream conn = listener.accept();
    ByteWriter w;
    w.write_bytes("BXSM", 4);
    vls_write(w, 2);
    w.write_string("ct");
    w.write<std::uint64_t>(kDefaultMaxMessageBytes + 1, ByteOrder::kBig);
    conn.write_all(w.bytes());
    try {
      std::uint8_t byte;
      conn.read_exact(&byte, 1);  // until the receiver hangs up
    } catch (const TransportError&) {
    }
  });
  std::vector<TcpStream> streams;
  streams.push_back(TcpStream::connect(listener.port()));
  streams.front().set_read_timeout(5000);  // a hang detector only
  {
    detail::StripedChannel channel(std::move(streams));
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(channel.receive(), TransportError);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(2500))
        << "refused only by the read timeout";
  }
  peer.join();
}

TEST(StripedBinding, InvalidStreamCountRejected) {
  EXPECT_THROW(StripedClientBinding(1, 0), TransportError);
  EXPECT_THROW(StripedClientBinding(1, 65), TransportError);
}

TEST(StripedBinding, WrongRoleOperationsThrow) {
  StripedServerBinding server;
  StripedClientBinding client(server.port(), 2);
  EXPECT_THROW(client.receive_request(), TransportError);
  EXPECT_THROW(client.send_response({}), TransportError);
  EXPECT_THROW(server.send_request({}), TransportError);
  EXPECT_THROW(server.receive_response(), TransportError);
}

}  // namespace
}  // namespace bxsoap::transport
