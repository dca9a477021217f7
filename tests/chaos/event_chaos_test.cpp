// Chaos against the epoll event server: truncations, resets and delays
// mid-frame, pipelined bursts abandoned by the client, and slowloris
// peers. The invariant is the server's resilience contract —
// every exchange ends in a clean response, an in-band soap:Client fault,
// or a clean disconnect. Never a hang, a wedged reactor, or a leaked
// connection.
//
// The whole matrix runs at reactor_threads = 1, 2 and one-per-core: the
// sharded topology (PR 6) must uphold the contract whether a connection
// lives on the accepting reactor or crossed a handoff to another shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "transport/bindings.hpp"
#include "transport/server.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

/// The reactor-shard matrix: 1 (the pre-shard topology), 2 (cross-reactor
/// handoff guaranteed), one-per-core (the default deployment). Deduped so
/// single- and dual-core hosts don't run identical legs twice.
std::vector<std::size_t> shard_matrix() {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> m = {1, 2};
  if (cores != 1 && cores != 2) m.push_back(cores);
  return m;
}

class EventChaos : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Finish a chaos config with this leg's shard count and build the
  /// server through the one public construction path.
  static std::unique_ptr<SoapServer> start(ServerConfig cfg) {
    cfg.reactor_threads = GetParam();
    return SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
  }
};

INSTANTIATE_TEST_SUITE_P(Reactors, EventChaos,
                         ::testing::ValuesIn(shard_matrix()),
                         [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

SoapEnvelope data_request(std::size_t n) {
  return services::make_data_request(workload::make_lead_dataset(n));
}

std::vector<std::uint8_t> framed_request(std::size_t n) {
  BxsaEncoding enc;
  const SoapEnvelope req = data_request(n);
  ByteWriter w;
  const std::size_t len_pos = begin_frame(w, BxsaEncoding::content_type());
  enc.serialize_into(req.document(), w);
  end_frame(w, len_pos);
  return w.take();
}

/// Wait until the server has no registered connections (the reactor reaps
/// asynchronously after a peer vanishes). Fails the test on timeout.
void expect_drains_to_zero(SoapServer& server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.active_connections(), 0u);
}

// Byte-level chaos matrix, shared with EngineChaos: each seed derives
// one fault spec applied to a raw framed exchange.
TEST_P(EventChaos, RawStreamFaultMatrixNeverWedgesTheServer) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.read_timeout_ms = 250;  // a stalled or short-counted frame times out
  cfg.frame_limits.max_message_bytes = 1u << 20;
  auto server = start(std::move(cfg));

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
  EXPECT_GT(clean, 0);
  EXPECT_GT(faulted, 0);

  // The server survived all of it and leaked nothing.
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  EXPECT_TRUE(services::parse_verify_response(client.call(req)).ok);
  client.binding().close();
  expect_drains_to_zero(*server);
}

// Truncation sweep: a client that sends the first k bytes of a valid frame
// and disconnects must produce a clean server-side drop at EVERY cut
// point — inside the magic, the VLS length, the content type, the declared
// length, or the payload body.
TEST_P(EventChaos, MidFrameTruncationAtEveryOffsetDisconnectsCleanly) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  auto server = start(std::move(cfg));

  const std::vector<std::uint8_t> frame = framed_request(8);
  // Every header offset, then strides through the payload.
  std::vector<std::size_t> cuts;
  for (std::size_t k = 1; k < 32 && k < frame.size(); ++k) cuts.push_back(k);
  for (std::size_t k = 32; k < frame.size(); k += 97) cuts.push_back(k);

  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    TcpStream conn = TcpStream::connect(server->port());
    conn.write_all(std::span(frame.data(), cut));
    conn.close();
  }
  expect_drains_to_zero(*server);

  // No exchange ever completed from a truncated frame, and the server
  // still serves full ones.
  EXPECT_EQ(server->exchanges(), 0u);
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  EXPECT_TRUE(
      services::parse_verify_response(client.call(data_request(3))).ok);
}

// A pipelined burst abandoned mid-read: the client writes several requests
// and vanishes without reading a single response. Workers complete into a
// dead connection; the reactor must discard those responses (returning
// their buffers) without wedging or leaking the connection.
TEST_P(EventChaos, AbandonedPipelineBurstIsDiscarded) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return services::verification_handler(std::move(req));
  };
  auto server = start(std::move(cfg));

  for (int round = 0; round < 8; ++round) {
    TcpStream conn = TcpStream::connect(server->port());
    for (int i = 0; i < 4; ++i) {
      const auto frame = framed_request(5 + static_cast<std::size_t>(i));
      conn.write_all(std::span(frame.data(), frame.size()));
    }
    conn.close();  // gone before any response lands
  }
  expect_drains_to_zero(*server);

  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  EXPECT_TRUE(
      services::parse_verify_response(client.call(data_request(2))).ok);
}

// Slowloris: a peer that opens a frame and stalls is disconnected by the
// reactor's idle sweep instead of holding its connection slot forever.
TEST_P(EventChaos, SlowlorisPeerIsSweptOut) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.read_timeout_ms = 100;
  auto server = start(std::move(cfg));

  TcpStream sly = TcpStream::connect(server->port());
  const std::vector<std::uint8_t> frame = framed_request(8);
  sly.write_all(std::span(frame.data(), 7));  // magic + version + a dribble
  // The server must cut us loose: the next read sees EOF/reset, bounded by
  // the client-side timeout below (the hang detector).
  sly.set_read_timeout(3000);
  std::uint8_t b;
  EXPECT_THROW(sly.read_exact(&b, 1), TransportError);
  expect_drains_to_zero(*server);

  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  EXPECT_TRUE(
      services::parse_verify_response(client.call(data_request(3))).ok);
}

// Delay chaos on a pipelined connection: requests dribble in with pauses
// shorter than the idle timeout; every one must still be answered in
// order (the sweep must not cut an active-but-slow pipeliner).
TEST_P(EventChaos, SlowButLivePipelinerIsServedNotSwept) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.read_timeout_ms = 500;
  auto server = start(std::move(cfg));

  TcpStream conn = TcpStream::connect(server->port());
  BxsaEncoding enc;
  constexpr std::size_t kRequests = 5;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto frame = framed_request(30 + i);
    // Split each frame into two writes with a sub-timeout pause between.
    const std::size_t half = frame.size() / 2;
    conn.write_all(std::span(frame.data(), half));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    conn.write_all(std::span(frame.data() + half, frame.size() - half));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    const soap::WireMessage resp = read_frame(conn);
    const SoapEnvelope env(enc.deserialize(resp.payload));
    EXPECT_EQ(services::parse_verify_response(env).count, 30 + i);
  }
  EXPECT_EQ(server->exchanges(), kRequests);
}

}  // namespace
}  // namespace bxsoap::transport
