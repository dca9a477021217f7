// The bulk path's two copy-free halves.
//
// Receive: FrameAssembler reads a payload into a recycled pool buffer in
// place, overwriting the bytes the buffer held instead of zero-filling
// them first. The pool here hands out buffers filled with a sentinel, and
// the suite checks that nothing of it ever surfaces: a frame cut mid-body
// never completes, a completed one is exactly the bytes sent, and a length
// over the cap throws before any buffer is acquired. The same runs through
// the event server on both dispatch legs.
//
// Send: a TcpClientBinding on v1 sends a request's large arrays straight
// from the envelope (GatherMessage). The bytes on the wire equal the
// contiguous frame, and a steady-state bulk call takes no large buffer
// from the client's pool and leaves the pool as it found it.
//
// Pool reach: the server's small response buffers never take a bulk
// request's recycled buffer, so a steady bulk exchange cycles the same
// bytes through the server's pool on both dispatch legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/prng.hpp"
#include "obs/metrics.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

constexpr std::uint8_t kSentinel = 0xAB;
constexpr std::string_view kType = "application/bxsa";

/// Release into `pool` one buffer of `size` sentinel bytes and `capacity`.
void seed_pool(BufferPool& pool, std::size_t size, std::size_t capacity) {
  std::vector<std::uint8_t> stale;
  stale.reserve(capacity);
  stale.assign(size, kSentinel);
  pool.release(std::move(stale));
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// A whole v1 frame carrying `payload`.
std::vector<std::uint8_t> v1_frame(std::span<const std::uint8_t> payload) {
  ByteWriter w;
  const std::size_t len_pos = begin_frame(w, kType);
  w.write_bytes(payload);
  end_frame(w, len_pos);
  return w.take();
}

/// Feed the frame's header and payload length, stopping where the
/// payload begins.
std::size_t feed_header(FrameAssembler& p, std::span<const std::uint8_t> f) {
  std::size_t at = 0;
  while (!p.at_body()) at += p.feed(f.subspan(at, 1));
  return at + p.feed(f.subspan(at, 8));
}

/// Receive `n` body bytes from `src` through body_space windows of
/// `window` bytes, committing each window in uneven parts the way short
/// recv()s would.
void receive_in_place(FrameAssembler& p, std::span<const std::uint8_t> src,
                      std::size_t n, std::size_t window) {
  std::size_t at = 0;
  while (at < n) {
    const std::span<std::uint8_t> into = p.body_space(window);
    ASSERT_FALSE(into.empty());
    const std::size_t take = std::min({into.size(), n - at, 7'777 + at % 5});
    std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(at), take,
                into.begin());
    p.commit(take);
    at += take;
  }
}

/// A v1 header declaring a `len`-byte payload.
std::vector<std::uint8_t> over_cap_header(std::uint64_t len) {
  ByteWriter w;
  const std::size_t len_pos = begin_frame(w, kType);
  std::uint8_t len_be[8];
  store<std::uint64_t>(len, ByteOrder::kBig, len_be);
  w.patch_bytes(len_pos, len_be, sizeof(len_be));
  return w.take();
}

TEST(ReadInPlace, RecycledBufferIsOverwrittenNotFilled) {
  BufferPool pool;
  seed_pool(pool, 1u << 20, 1u << 20);
  const auto payload = random_bytes(300'000, 1);
  const auto frame = v1_frame(payload);
  FrameAssembler p({}, &pool);
  const std::size_t header = feed_header(p, frame);

  // The first window is the recycled buffer as it was: no fill ran.
  const std::span<std::uint8_t> first = p.body_space(64 * 1024);
  ASSERT_EQ(first.size(), 64u * 1024);
  EXPECT_TRUE(std::all_of(first.begin(), first.end(),
                          [](std::uint8_t b) { return b == kSentinel; }));

  const auto body = std::span<const std::uint8_t>(frame).subspan(header);
  receive_in_place(p, body, body.size() - 1, 64 * 1024);
  EXPECT_FALSE(p.ready()) << "one byte short of the declared length";
  receive_in_place(p, body.subspan(body.size() - 1), 1, 64 * 1024);
  ASSERT_TRUE(p.ready());
  EXPECT_EQ(p.take().payload, payload);
}

TEST(ReadInPlace, FrameCutMidBodyNeverBecomesReady) {
  BufferPool pool;
  seed_pool(pool, 1u << 20, 1u << 20);
  const auto payload = random_bytes(200'000, 2);
  const auto frame = v1_frame(payload);
  FrameAssembler p({}, &pool);
  const std::size_t header = feed_header(p, frame);
  receive_in_place(p, std::span<const std::uint8_t>(frame).subspan(header),
                   payload.size() / 2, 256 * 1024);
  // The peer closes here: the stale rest of the buffer is unreachable.
  EXPECT_FALSE(p.ready());
  EXPECT_EQ(p.need(), payload.size() - payload.size() / 2);
  EXPECT_THROW(p.take(), TransportError);
}

TEST(ReadInPlace, SmallerRecycledBufferGrowsOnlyTheTail) {
  BufferPool pool;
  seed_pool(pool, 1000, 1u << 20);
  const auto payload = random_bytes(150'000, 3);
  const auto frame = v1_frame(payload);
  FrameAssembler p({}, &pool);
  const std::size_t header = feed_header(p, frame);
  const std::span<std::uint8_t> first = p.body_space(4096);
  ASSERT_EQ(first.size(), 4096u);
  EXPECT_TRUE(std::all_of(first.begin(), first.begin() + 1000,
                          [](std::uint8_t b) { return b == kSentinel; }));
  EXPECT_TRUE(std::all_of(first.begin() + 1000, first.end(),
                          [](std::uint8_t b) { return b == 0; }));
  receive_in_place(p, std::span<const std::uint8_t>(frame).subspan(header),
                   payload.size(), 4096);
  ASSERT_TRUE(p.ready());
  EXPECT_EQ(p.take().payload, payload);
}

TEST(ReadInPlace, FedBytesOverwriteARecycledBufferToo) {
  // The copying path (feed) over a recycled buffer longer than the body,
  // in uneven slices, with windows interleaved.
  BufferPool pool;
  seed_pool(pool, 1u << 20, 1u << 20);
  for (const std::size_t n : {0, 1, 4095, 100'000}) {
    const auto payload = random_bytes(n, n);
    const auto frame = v1_frame(payload);
    FrameAssembler p({}, &pool);
    std::size_t at = 0;
    for (std::size_t step = 1; at < frame.size(); step = step * 3 % 5000 + 1) {
      at += p.feed(std::span<const std::uint8_t>(frame).subspan(
          at, std::min(step, frame.size() - at)));
      const std::span<std::uint8_t> w =
          step % 2 == 0 ? p.body_space(step) : std::span<std::uint8_t>();
      if (!w.empty()) {
        const std::size_t k = std::min(w.size(), frame.size() - at);
        std::copy_n(frame.begin() + static_cast<std::ptrdiff_t>(at), k,
                    w.begin());
        p.commit(k);
        at += k;
      }
    }
    ASSERT_TRUE(p.ready()) << n;
    soap::WireMessage m = p.take();
    EXPECT_EQ(m.payload, payload) << n;
    pool.release(std::move(m.payload));  // the next size starts from it
  }
}

TEST(ReadInPlace, LengthOverTheCapThrowsBeforeAcquire) {
  BufferPool pool;
  seed_pool(pool, 1u << 20, 1u << 20);
  FrameLimits limits;
  limits.max_message_bytes = 1u << 20;
  const auto before = pool.stats();
  FrameAssembler p(limits, &pool);
  EXPECT_THROW(p.feed(over_cap_header(limits.max_message_bytes + 1)),
               TransportError);
  const auto after = pool.stats();
  EXPECT_EQ(after.hit, before.hit);
  EXPECT_EQ(after.miss, before.miss);
  EXPECT_EQ(pool.pooled_buffers(), 1u);
}

TEST(ReadInPlace, PoolLessParserStartsEveryChunkEmpty) {
  // Two v2 streams back to back through one parser without a pool: the
  // second stream's 3-byte chunk must not carry the first stream's 8-byte
  // End total behind it.
  MemoryStream wire;
  for (int s = 0; s < 2; ++s) {
    ChunkedFrameWriter<MemoryStream> writer(wire, kType);
    const std::uint8_t data[] = {1, 2, 3};
    writer.write_data(data);
    writer.finish();
  }
  FrameAssembler p;
  for (int s = 0; s < 2; ++s) {
    read_until(wire, p, [&] { return p.streaming(); });
    ASSERT_TRUE(p.streaming());
    read_until(wire, p, [] { return false; });
    EXPECT_EQ(p.take_chunk().bytes, (std::vector<std::uint8_t>{1, 2, 3}))
        << "stream " << s;
    read_until(wire, p, [] { return false; });
    EXPECT_EQ(p.take_chunk().kind, ChunkKind::kEnd);
  }
}

// ---- through the event server -----------------------------------------------

class ReadInPlaceServer : public ::testing::TestWithParam<ServerLeg> {};

/// Verify a dataset of `leads` through `port` and compare the outcome.
void expect_verified(std::uint16_t port, std::size_t leads,
                     std::uint64_t seed) {
  SoapEngine<BxsaEncoding, TcpClientBinding> client(BxsaEncoding{},
                                                    TcpClientBinding(port));
  const auto dataset = workload::make_lead_dataset(leads, seed);
  const SoapEnvelope resp = client.call(services::make_data_request(dataset));
  const services::VerificationOutcome expected{
      true, leads, workload::dataset_checksum(dataset)};
  EXPECT_EQ(services::parse_verify_response(resp), expected)
      << leads << " leads";
}

void wait_for_no_connections(const SoapServer& server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.active_connections(), 0u);
}

TEST_P(ReadInPlaceServer, StaleBytesNeverReachTheHandler) {
  std::atomic<std::size_t> handled{0};
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [&handled](SoapEnvelope request) {
    ++handled;
    return services::verification_handler(std::move(request));
  };
  cfg.frame_limits.max_message_bytes = 4u << 20;
  auto server = create_server(GetParam(), std::move(cfg));
  const std::uint16_t port = server->port();

  // Leave a large request's bytes in the server's pool.
  expect_verified(port, 80'000, 11);
  // A frame cut mid-body: the server drops it without dispatching.
  {
    const auto payload = BxsaEncoding{}.serialize(
        services::make_data_request(workload::make_lead_dataset(70'000, 12))
            .document());
    const auto frame = v1_frame(payload);
    TcpStream raw = TcpStream::connect(port);
    raw.write_all(std::span<const std::uint8_t>(frame).first(
        frame.size() - payload.size() / 2));
  }
  wait_for_no_connections(*server);
  EXPECT_EQ(handled.load(), 1u);
  // Shorter and longer bodies over the recycled buffers arrive intact.
  expect_verified(port, 30'000, 13);
  expect_verified(port, 120'000, 14);
  expect_verified(port, 1, 15);
  // A declared length over the cap cuts the connection, nothing else.
  {
    TcpStream raw = TcpStream::connect(port);
    raw.write_all(over_cap_header((4u << 20) + 1));
    std::uint8_t b;
    EXPECT_EQ(raw.read_some(&b, 1), 0u) << "the server closes";
  }
  expect_verified(port, 50'000, 16);
  EXPECT_EQ(handled.load(), 5u);
  EXPECT_EQ(server->faults(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Legs, ReadInPlaceServer,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_name);

// ---- gathered send ------------------------------------------------------------

TEST(GatherSend, WireBytesEqualTheContiguousFrame) {
  const auto dataset = workload::make_lead_dataset(100'000, 21);
  const auto expected = v1_frame(BxsaEncoding{}.serialize(
      services::make_data_request(dataset).document()));

  TcpListener listener(0);
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(listener.port()));
  ASSERT_TRUE(client.binding().sends_gathered());
  std::vector<std::uint8_t> received;
  std::thread peer([&] {
    TcpStream conn = listener.accept();
    received = conn.read_exact(expected.size());
  });
  client.send_request(services::make_data_request(dataset));
  peer.join();
  EXPECT_EQ(received, expected);
}

TEST(GatherSend, ChannelThatMayNegotiateV3SendsContiguous) {
  TcpClientBinding binding(1);
  EXPECT_TRUE(binding.sends_gathered());
  binding.enable_v3();
  EXPECT_FALSE(binding.sends_gathered());
}

TEST(GatherSend, SteadyBulkCallTakesNoLargeClientBuffer) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  BufferPool pool;
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  client.set_buffer_pool(pool);
  client.binding().set_buffer_pool(pool);
  const auto dataset = workload::make_lead_dataset(349'440);
  const services::VerificationOutcome expected{
      true, dataset.model_size(), workload::dataset_checksum(dataset)};
  // Warm up: the connection's receive buffer and the first small buffers.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(services::parse_verify_response(
                  client.call(services::make_data_request(dataset))),
              expected);
  }
  const std::size_t pooled = pool.pooled_buffers();
  const BufferPool::Stats before = pool.stats();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(services::parse_verify_response(
                  client.call(services::make_data_request(dataset))),
              expected);
  }
  const BufferPool::Stats after = pool.stats();
  // Every buffer the calls took came back, none was allocated, and what
  // cycled through the pool was framing and small responses: a 4 MiB
  // request's arrays never entered it.
  EXPECT_EQ(pool.pooled_buffers(), pooled);
  EXPECT_EQ(after.miss, before.miss);
  EXPECT_GT(after.hit, before.hit);
  EXPECT_LT(after.recycled_bytes - before.recycled_bytes, 1u << 20);
}

// ---- pool class reach ---------------------------------------------------------

/// The server's pool bytes recycled per steady 4 MiB bulk exchange on `leg`.
std::uint64_t recycled_per_bulk_exchange(ServerLeg leg) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.registry = &registry;
  auto server = create_server(leg, std::move(cfg));
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  const auto dataset = workload::make_lead_dataset(349'440);
  const services::VerificationOutcome expected{
      true, dataset.model_size(), workload::dataset_checksum(dataset)};
  const auto call = [&] {
    EXPECT_EQ(services::parse_verify_response(
                  client.call(services::make_data_request(dataset))),
              expected);
  };
  // A response buffer recycles a beat after the client has the reply;
  // wait for the counter to settle before reading it.
  const obs::Counter& recycled = registry.counter("event.pool.recycled_bytes");
  const auto settled = [&recycled] {
    std::uint64_t seen = recycled.value();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (recycled.value() == seen) return seen;
      seen = recycled.value();
    }
  };
  for (int i = 0; i < 2; ++i) call();  // warm up
  const std::uint64_t before = settled();
  constexpr int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) call();
  return (settled() - before) / kCalls;
}

TEST(PoolReach, SteadyBulkExchangeRecyclesTheSameOnBothLegs) {
  const std::uint64_t pooled = recycled_per_bulk_exchange(ServerLeg::kWorkerPool);
  const std::uint64_t inline_ = recycled_per_bulk_exchange(ServerLeg::kInline);
  EXPECT_EQ(pooled, inline_);
}

}  // namespace
}  // namespace bxsoap::transport
