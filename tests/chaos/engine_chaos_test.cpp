// Full-engine chaos: injected transport faults against live engines and
// the hardened event server. Every scenario is seeded and replayable; the
// invariant everywhere is the resilience contract — an exchange either
// succeeds (possibly after retry) or surfaces a typed error / fault
// envelope. Never a crash, a hang, or a wedged server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "soap/reliable.hpp"
#include "transport/bindings.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

SoapEnvelope data_request(std::size_t n) {
  return services::make_data_request(workload::make_lead_dataset(n));
}

// Byte-level chaos against the hardened server: each seed derives one
// fault spec, applies it to a raw framed exchange, and the outcome must be
// a clean response, a fault envelope, or a typed Error. After the storm
// the server must still serve.
TEST(EngineChaos, RawStreamFaultMatrixNeverWedgesTheServer) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.read_timeout_ms = 250;  // a stalled or short-counted frame times out
  cfg.frame_limits.max_message_bytes = 1u << 20;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  BxsaEncoding enc;
  const SoapEnvelope req = data_request(20);
  const std::vector<std::uint8_t> payload = enc.serialize(req.document());

  int clean = 0;
  int faulted = 0;
  constexpr std::uint64_t kSeeds = 120;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultPlanConfig pc;
    pc.max_offset = payload.size() + 32;  // faults land across the frame
    pc.max_delay_ms = 3;
    const FaultSpec spec = FaultPlan(seed, pc).for_connection(seed);
    try {
      FaultyStream<TcpStream> fs(TcpStream::connect(server->port()), spec);
      fs.inner().set_read_timeout(2000);  // hang detector, not the contract
      soap::WireMessage m;
      m.content_type = std::string(BxsaEncoding::content_type());
      m.payload = payload;
      write_frame(fs, m);
      const soap::WireMessage resp = read_frame(fs);
      const SoapEnvelope env(enc.deserialize(resp.payload));
      env.is_fault() ? ++faulted : ++clean;
    } catch (const Error&) {
      ++faulted;  // typed failure: the contract holds
    }
  }
  // The seeded mix must have produced both outcomes, or the matrix tested
  // nothing.
  EXPECT_GT(clean, 0);
  EXPECT_GT(faulted, 0);

  // The server survived all of it.
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  EXPECT_TRUE(services::parse_verify_response(client.call(req)).ok);
}

// Message-level chaos behind the retry layer: every exchange must resolve
// to a response, a fault envelope, or a typed give-up.
TEST(EngineChaos, RetryingClientResolvesEveryExchange) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  const SoapEnvelope req = data_request(10);
  int ok = 0;
  int faulted = 0;
  int gave_up = 0;
  constexpr std::uint64_t kSeeds = 100;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultPlanConfig pc;
    pc.max_delay_ms = 2;
    SoapEngine<BxsaEncoding, FaultyBinding<TcpClientBinding>> client(
        BxsaEncoding{},
        FaultyBinding<TcpClientBinding>(TcpClientBinding(server->port()),
                                        FaultPlan(seed, pc)));
    RetryPolicy policy;
    policy.max_attempts = 8;
    policy.initial_backoff = std::chrono::milliseconds(0);
    policy.jitter_seed = seed;
    ReliableCaller caller(client, policy);
    try {
      const SoapEnvelope resp = caller.call(req);
      resp.is_fault() ? ++faulted : ++ok;
    } catch (const TransportError&) {
      ++gave_up;  // bounded retries exhausted: a typed outcome
    }
  }
  EXPECT_EQ(ok + faulted + gave_up, static_cast<int>(kSeeds));
  EXPECT_GT(ok, 0);        // clean traffic flows
  EXPECT_GT(faulted, 0);   // corrupted payloads answered in-band

  // Server still healthy.
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  EXPECT_TRUE(services::parse_verify_response(client.call(req)).ok);
}

// One client opens a frame and stalls forever; the server's read timeout
// must cut it while other clients are served untouched.
TEST(EngineChaos, MisbehavingClientCannotStallOthers) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.read_timeout_ms = 150;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  // The slowloris: valid magic, then silence.
  TcpStream slow = TcpStream::connect(server->port());
  slow.write_all(std::string_view("BXT"));

  // Meanwhile, honest clients hammer the server.
  constexpr int kClients = 4;
  constexpr int kCallsEach = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        SoapEngine<BxsaEncoding, TcpClientBinding> client(
            BxsaEncoding{}, TcpClientBinding(server->port()));
        for (int i = 0; i < kCallsEach; ++i) {
          const SoapEnvelope resp =
              client.call(data_request(5 + static_cast<std::size_t>(c)));
          if (!services::parse_verify_response(resp).ok) ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->exchanges(),
            static_cast<std::size_t>(kClients * kCallsEach));

  // The stalled connection gets cut by the read timeout: our next read
  // sees the server's FIN instead of blocking forever.
  slow.set_read_timeout(2000);
  std::uint8_t b;
  EXPECT_THROW(slow.read_exact(&b, 1), TransportError);
}

// Fault coverage across all four Encoding x Binding stacks: a truncated
// and a bit-flipped message must surface as fault envelopes / typed
// errors through the full engine, and the stack must keep working after.
template <typename Encoding, typename ServerBinding, typename ClientBinding>
void stack_fault_roundtrip() {
  SoapEngine<Encoding, ServerBinding> server;
  const std::uint16_t port = server.binding().port();
  std::thread srv([&server] {
    for (int i = 0; i < 3; ++i) {
      server.serve_once(services::verification_handler);
    }
  });

  const FaultPlan plan = FaultPlan::script({
      {FaultKind::kTruncate, 3, 0, 0},   // message 0: 3-byte payload
      {FaultKind::kCorrupt, 17, 2, 0},   // message 1: one flipped bit
      {FaultKind::kNone, 0, 0, 0},       // message 2: clean
  });
  SoapEngine<Encoding, FaultyBinding<ClientBinding>> client(
      {}, FaultyBinding<ClientBinding>(ClientBinding(port), plan));
  const SoapEnvelope req = data_request(8);

  // Truncated payload: undecodable on any stack -> fault envelope.
  const SoapEnvelope r0 = client.call(req);
  EXPECT_TRUE(r0.is_fault());
  // Bit flip: either rejected (fault) or survives as a decodable request;
  // the contract is a well-formed response either way.
  const SoapEnvelope r1 = client.call(req);
  (void)r1;
  // Clean message: the stack must have fully recovered.
  const SoapEnvelope r2 = client.call(req);
  EXPECT_FALSE(r2.is_fault());
  EXPECT_TRUE(services::parse_verify_response(r2).ok);
  srv.join();
}

TEST(EngineChaos, AllFourStacksSurfaceTypedFailures) {
  stack_fault_roundtrip<BxsaEncoding, TcpServerBinding, TcpClientBinding>();
  stack_fault_roundtrip<XmlEncoding, TcpServerBinding, TcpClientBinding>();
  stack_fault_roundtrip<BxsaEncoding, HttpServerBinding, HttpClientBinding>();
  stack_fault_roundtrip<XmlEncoding, HttpServerBinding, HttpClientBinding>();
}

}  // namespace
}  // namespace bxsoap::transport
