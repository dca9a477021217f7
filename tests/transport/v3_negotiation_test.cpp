// The BXTP v3 negotiation rule end to end (FORMAT.md §"BXTP v3"): the
// effective table is the element-wise min of both offers, the transform
// and auth sets are their intersections, and the auth algorithm is the
// lowest bit of the auth set. V3Matrix pairs client and server offers
// across every value of each term, on both dispatch legs, and checks that
// the client reads back exactly the rule's terms and that one exchange on
// the negotiated channel yields the same canonical response bytes as a
// plain v1 channel. V3OverGrant checks that a server granting more than
// the client offered widens nothing.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bxsa/dict.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "soap/security.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

/// One side's offer, as the public surfaces take it.
struct Offer {
  bxsa::DictLimits dict;
  std::uint8_t transforms = 0;
  std::uint8_t auth = 0;
};

// Each list holds every value of each term once, so the 3 x 3 pairings
// cover every (client value, server value) pair of every term. The
// asymmetric tables differ in which bound is the tighter one.
const Offer kClientOffers[] = {
    {bxsa::DictLimits{}, 0, 0},
    {{0, 0}, transforms::kLzss, authalgs::kHmacSha256},
    {{1024, 2048}, transforms::kAll, authalgs::kAllKnown},
};
const Offer kServerOffers[] = {
    {bxsa::DictLimits{}, transforms::kAll, authalgs::kHmacSha256},
    {{0, 0}, 0, authalgs::kAllKnown},
    {{32, 1u << 20}, transforms::kLzss, 0},
};

/// A stream-auth offer for `algos` (HMAC, FNV or both) under one key.
StreamAuth auth_offer(std::uint8_t algos) {
  if (algos == 0) return {};
  const StreamAuth hmac = make_hmac_stream_auth("matrix-key");
  const StreamAuth fnv = make_fnv_stream_auth("matrix-key");
  return {algos, [hmac, fnv](std::uint8_t algo) {
            return algo == authalgs::kHmacSha256 ? hmac.make(algo)
                                                 : fnv.make(algo);
          }};
}

std::unique_ptr<SoapServer> start(ServerLeg leg,
                                  std::unique_ptr<AnyEncoding> encoding,
                                  const Offer& offer, bool accept_v3 = true) {
  ServerConfig cfg;
  cfg.encoding = std::move(encoding);
  cfg.handler = services::verification_handler;
  cfg.reactor_threads = 2;
  cfg.accept_v3 = accept_v3;
  cfg.dict_limits = offer.dict;
  cfg.compress_transforms = offer.transforms;
  cfg.stream_auth = auth_offer(offer.auth);
  return create_server(leg, std::move(cfg));
}

void make_offer(TcpClientBinding& binding, const Offer& offer) {
  binding.enable_v3(offer.dict);
  if (offer.transforms != 0) binding.enable_compression(offer.transforms);
  if (offer.auth != 0) binding.enable_stream_auth(auth_offer(offer.auth));
}

/// One exchange; returns the canonical response payload.
std::vector<std::uint8_t> exchange(TcpClientBinding& binding,
                                   std::string_view content_type,
                                   std::vector<std::uint8_t> payload) {
  WireMessage m;
  m.content_type = std::string(content_type);
  m.payload = std::move(payload);
  binding.send_request(std::move(m));
  return binding.receive_response().payload;
}

template <typename Enc>
std::vector<std::uint8_t> request_payload() {
  // Large enough that a compressing channel compresses the request.
  return Enc{}.serialize(
      services::make_data_request(workload::make_lead_dataset(200))
          .document());
}

class V3Matrix : public ::testing::TestWithParam<ServerLeg> {
 protected:
  /// Every client offer against `server`: the channel runs v3 iff `v3`,
  /// the negotiated terms are `expect(client offer)` and the response
  /// matches plain v1's.
  template <typename Enc, typename Expect>
  static void check_pairings(SoapServer& server, bool v3, Expect&& expect) {
    const auto request = request_payload<Enc>();
    TcpClientBinding plain(server.port());
    const auto baseline = exchange(plain, Enc::content_type(), request);
    for (const Offer& c : kClientOffers) {
      SCOPED_TRACE("client offer dict {" + std::to_string(c.dict.max_entries) +
                   ", " + std::to_string(c.dict.max_bytes) + "} transforms " +
                   std::to_string(c.transforms) + " auth " +
                   std::to_string(c.auth));
      TcpClientBinding binding(server.port());
      make_offer(binding, c);
      EXPECT_EQ(exchange(binding, Enc::content_type(), request), baseline);
      const Offer want = expect(c);
      EXPECT_EQ(binding.v3_active(), v3);
      EXPECT_EQ(binding.negotiated_dict(), want.dict);
      EXPECT_EQ(binding.negotiated_transforms(), want.transforms);
      EXPECT_EQ(binding.negotiated_auth(), authalgs::pick(want.auth));
      // The steady state agrees too.
      EXPECT_EQ(exchange(binding, Enc::content_type(), request), baseline);
    }
  }
};

TEST_P(V3Matrix, ClientReadsBackTheRuleAndServesPlainBytes) {
  for (const Offer& s : kServerOffers) {
    SCOPED_TRACE("server offer dict {" + std::to_string(s.dict.max_entries) +
                 ", " + std::to_string(s.dict.max_bytes) + "} transforms " +
                 std::to_string(s.transforms) + " auth " +
                 std::to_string(s.auth));
    auto server = start(GetParam(), AnyEncoding::from(BxsaEncoding{}), s);
    check_pairings<BxsaEncoding>(*server, true, [&](const Offer& c) {
      return Offer{c.dict.min_with(s.dict),
                   static_cast<std::uint8_t>(c.transforms & s.transforms),
                   static_cast<std::uint8_t>(c.auth & s.auth)};
    });
  }
}

TEST_P(V3Matrix, NonBxsaServerNegotiatesNoTable) {
  const Offer s = kServerOffers[0];
  auto server = start(GetParam(), AnyEncoding::from(XmlEncoding{}), s);
  check_pairings<XmlEncoding>(*server, true, [&](const Offer& c) {
    return Offer{{0, 0},
                 static_cast<std::uint8_t>(c.transforms & s.transforms),
                 static_cast<std::uint8_t>(c.auth & s.auth)};
  });
}

TEST_P(V3Matrix, ServerWithoutV3DowngradesEveryOffer) {
  // Compression and auth offers need accept_v3 (ServerConfig refuses
  // them without it), so this server offers only a table.
  auto server = start(GetParam(), AnyEncoding::from(BxsaEncoding{}),
                      {bxsa::DictLimits{}, 0, 0}, /*accept_v3=*/false);
  check_pairings<BxsaEncoding>(*server, false, [](const Offer&) {
    return Offer{{0, 0}, 0, 0};
  });
}

INSTANTIATE_TEST_SUITE_P(Models, V3Matrix,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_name);

// A server that grants table bounds above the client's offer: the client
// keeps its own bounds, and a response that admits entries past them is a
// TransportError, not a table the client never agreed to hold.
TEST(V3OverGrant, ClientClampsTheGrantToItsOffer) {
  const bxsa::DictLimits offer{4, 64};
  const bxsa::DictLimits grant{1u << 20, 1u << 30};
  TcpListener listener(0);
  std::thread server([&] {
    try {
      TcpStream conn = listener.accept();
      FrameAssembler hello_parser({}, nullptr, /*accept_v3=*/true);
      read_until(conn, hello_parser, [] { return false; });
      hello_parser.take_hello();
      ByteWriter accept;
      encode_accept(accept, AcceptFrame{kFrameVersionNegotiated,
                                        grant.max_entries, grant.max_bytes,
                                        0, 0});
      conn.write_all(accept.bytes());
      // Take the request, then answer with a response coded against the
      // granted table: it admits far more than four entries.
      read_frame_body(conn, read_frame_start(conn, {}, true));
      const auto response = BxsaEncoding{}.serialize(
          services::make_verify_response({true, 3, 42}).document());
      std::optional<bxsa::DictEncoder> dict(grant);
      ByteWriter frame;
      frame_v3_payload(frame, response, BxsaEncoding::content_type(), dict);
      ASSERT_GT(dict->dict().size(), offer.max_entries);
      conn.write_all(frame.bytes());
      // Hold the connection open until the client hangs up.
      std::uint8_t byte;
      conn.read_exact(&byte, 1);
    } catch (const TransportError&) {
    }
  });

  TcpClientBinding binding(listener.port());
  binding.enable_v3(offer);
  WireMessage m;
  m.content_type = std::string(BxsaEncoding::content_type());
  m.payload = request_payload<BxsaEncoding>();
  binding.send_request(std::move(m));
  EXPECT_TRUE(binding.v3_active());
  EXPECT_EQ(binding.negotiated_dict(), offer);
  EXPECT_THROW(binding.receive_response(), TransportError);
  binding.close();
  server.join();
}

}  // namespace
}  // namespace bxsoap::transport
