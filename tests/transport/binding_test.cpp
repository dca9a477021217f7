// End-to-end SOAP exchanges over REAL sockets, for all four
// encoding x binding combinations from the paper's §5:
//
//   SoapEngine<XmlEncoding,  HttpBinding>
//   SoapEngine<BxsaEncoding, TcpBinding>
//   SoapEngine<XmlEncoding,  TcpBinding>
//   SoapEngine<BxsaEncoding, HttpBinding>
#include <gtest/gtest.h>

#include <thread>

#include "soap/engine.hpp"
#include "transport/bindings.hpp"
#include "transport/fault.hpp"
#include "xdm/equal.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::xdm;
using namespace bxsoap::soap;

SoapEnvelope sum_request(const std::vector<double>& values) {
  auto payload = make_element(QName("urn:calc", "Sum", "c"));
  payload->declare_namespace("c", "urn:calc");
  payload->add_child(
      make_array<double>(QName("urn:calc", "values", "c"), values));
  return SoapEnvelope::wrap(std::move(payload));
}

SoapEnvelope sum_handler(SoapEnvelope request) {
  const auto* payload = static_cast<const Element*>(request.body_payload());
  if (payload == nullptr || payload->name().local != "Sum") {
    throw SoapFaultError("soap:Client", "expected Sum request");
  }
  const ElementBase* values = payload->find_child("values");
  if (values == nullptr || values->kind() != NodeKind::kArrayElement) {
    throw SoapFaultError("soap:Client", "expected typed values array");
  }
  const auto& arr = static_cast<const ArrayElement<double>&>(*values);
  double sum = 0;
  for (double v : arr.view()) sum += v;
  auto out = make_element(QName("urn:calc", "SumResponse", "c"));
  out->add_child(make_leaf<double>(QName("urn:calc", "total", "c"), sum));
  return SoapEnvelope::wrap(std::move(out));
}

double extract_total(const SoapEnvelope& response) {
  const auto* payload = static_cast<const Element*>(response.body_payload());
  const ElementBase* total = payload->find_child("total");
  return static_cast<const LeafElement<double>&>(*total).get();
}

template <typename Encoding>
void run_over_tcp(int exchanges) {
  TcpServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<Encoding, TcpServerBinding> server({},
                                                std::move(server_binding));
  std::thread server_thread([&] {
    for (int i = 0; i < exchanges; ++i) server.serve_once(sum_handler);
  });

  SoapEngine<Encoding, TcpClientBinding> client({}, TcpClientBinding(port));
  for (int i = 0; i < exchanges; ++i) {
    SoapEnvelope resp = client.call(sum_request({1.5, 2.5, static_cast<double>(i)}));
    resp.throw_if_fault();
    EXPECT_DOUBLE_EQ(extract_total(resp), 4.0 + i);
  }
  server_thread.join();
}

template <typename Encoding>
void run_over_http(int exchanges) {
  HttpServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<Encoding, HttpServerBinding> server({},
                                                 std::move(server_binding));
  std::thread server_thread([&] {
    for (int i = 0; i < exchanges; ++i) server.serve_once(sum_handler);
  });

  for (int i = 0; i < exchanges; ++i) {
    // HTTP is one exchange per connection: fresh client binding each time.
    SoapEngine<Encoding, HttpClientBinding> client(
        {}, HttpClientBinding(port));
    SoapEnvelope resp = client.call(sum_request({10.0, static_cast<double>(i)}));
    resp.throw_if_fault();
    EXPECT_DOUBLE_EQ(extract_total(resp), 10.0 + i);
  }
  server_thread.join();
}

TEST(SoapOverSockets, BxsaOverTcp) { run_over_tcp<BxsaEncoding>(3); }
TEST(SoapOverSockets, XmlOverTcp) { run_over_tcp<XmlEncoding>(3); }
TEST(SoapOverSockets, BxsaOverHttp) { run_over_http<BxsaEncoding>(3); }
TEST(SoapOverSockets, XmlOverHttp) { run_over_http<XmlEncoding>(3); }

TEST(SoapOverSockets, LargeArrayOverTcp) {
  TcpServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<BxsaEncoding, TcpServerBinding> server(
      {}, std::move(server_binding));
  std::thread server_thread([&] { server.serve_once(sum_handler); });

  std::vector<double> big(200000);
  double expected = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = 0.001 * static_cast<double>(i);
    expected += big[i];
  }
  SoapEngine<BxsaEncoding, TcpClientBinding> client({},
                                                    TcpClientBinding(port));
  SoapEnvelope resp = client.call(sum_request(big));
  resp.throw_if_fault();
  EXPECT_DOUBLE_EQ(extract_total(resp), expected);
  server_thread.join();
}

TEST(SoapOverSockets, FaultTravelsOverHttp) {
  HttpServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<XmlEncoding, HttpServerBinding> server(
      {}, std::move(server_binding));
  std::thread server_thread([&] {
    server.serve_once([](SoapEnvelope) -> SoapEnvelope {
      throw SoapFaultError("soap:Server", "no such dataset");
    });
  });

  SoapEngine<XmlEncoding, HttpClientBinding> client({},
                                                    HttpClientBinding(port));
  SoapEnvelope resp = client.call(sum_request({1.0}));
  server_thread.join();
  ASSERT_TRUE(resp.is_fault());
  EXPECT_EQ(resp.fault().reason, "no such dataset");
}

TEST(SoapOverSockets, TcpServerSurvivesClientDisconnect) {
  TcpServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<BxsaEncoding, TcpServerBinding> server(
      {}, std::move(server_binding));
  std::thread server_thread([&] {
    for (int i = 0; i < 2; ++i) server.serve_once(sum_handler);
  });

  {
    // First client connects and vanishes without sending anything.
    TcpStream ghost = TcpStream::connect(port);
    ghost.close();
  }
  {
    SoapEngine<BxsaEncoding, TcpClientBinding> c1({}, TcpClientBinding(port));
    SoapEnvelope resp = c1.call(sum_request({2.0, 3.0}));
    EXPECT_DOUBLE_EQ(extract_total(resp), 5.0);
  }
  {
    SoapEngine<BxsaEncoding, TcpClientBinding> c2({}, TcpClientBinding(port));
    SoapEnvelope resp = c2.call(sum_request({4.0}));
    EXPECT_DOUBLE_EQ(extract_total(resp), 4.0);
  }
  server_thread.join();
}

TEST(Framing, RoundTripOverSocketPair) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpStream conn = listener.accept();
    soap::WireMessage m = read_frame(conn);
    EXPECT_EQ(m.content_type, "application/bxsa");
    ASSERT_EQ(m.payload.size(), 3u);
    write_frame(conn, m);  // echo
  });
  TcpStream client = TcpStream::connect(listener.port());
  soap::WireMessage m;
  m.content_type = "application/bxsa";
  m.payload = {1, 2, 3};
  write_frame(client, m);
  soap::WireMessage back = read_frame(client);
  EXPECT_EQ(back.payload, m.payload);
  server.join();
}

TEST(Framing, BadMagicRejected) {
  TcpListener listener(0);
  std::thread server([&] {
    TcpStream conn = listener.accept();
    conn.write_all(std::string_view("JUNKJUNKJUNKJUNKJUNK"));
  });
  TcpStream client = TcpStream::connect(listener.port());
  EXPECT_THROW(read_frame(client), TransportError);
  server.join();
}

// The blocking reader never negotiates: on a v3 channel a Hello where a
// response belongs is an unexpected frame kind, a TransportError.
TEST(Framing, HelloInAResponseSlotIsRejected) {
  MemoryStream in;
  ByteWriter hello;
  encode_hello(hello, HelloFrame{});
  in.write_all(hello.bytes());
  try {
    read_frame_start(in, FrameLimits{}, /*accept_v3=*/true);
    FAIL() << "a Hello was read as a frame start";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("unexpected v3 frame kind"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bxsoap::transport
