// Chaos against the BXTP v2 streaming path: chunked transfers truncated
// at every chunk boundary (and mid-chunk), on both server dispatch legs.
// The invariant: a torn stream costs its own connection and nothing else —
// the server drops it cleanly, leaks no pooled buffer, and keeps serving
// fresh exchanges. Open streams cost the process no threads.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "bxsa/stream_writer.hpp"
#include "obs/metrics.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "transport/internal/event_server.hpp"
#include "transport/server.hpp"
#include "transport/stream.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

/// A valid whole chunked transfer on the wire, with the offset after the
/// v2 header and after every chunk frame recorded as a cut point.
struct RecordedWire {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> cuts;
};

RecordedWire record_stream_wire(std::size_t chunk_bytes,
                                std::size_t values) {
  MemoryStream out;
  RecordedWire wire;
  BufferPool pool;
  ChunkedFrameWriter<MemoryStream> writer(out, "application/x-chaos");
  wire.cuts.push_back(out.pending());  // right after the v2 header
  std::vector<bxsa::PatchRecord> patches;
  {
    bxsa::StreamWriter w(ByteOrder::kLittle, chunk_bytes, pool,
                         [&](std::vector<std::uint8_t> chunk) {
                           writer.write_data(chunk);
                           wire.cuts.push_back(out.pending());
                           pool.release(std::move(chunk));
                         });
    w.start_document();
    w.start_element(xdm::QName("urn:c", "blob", "c"),
                    std::array<xdm::NamespaceDecl, 1>{{{"c", "urn:c"}}});
    std::vector<double> xs(values, 2.25);
    w.array(xdm::QName("xs"), std::span<const double>(xs));
    w.end_element();
    w.end_document();
    patches = w.finish();
  }
  writer.write_patches(patches);
  wire.cuts.push_back(out.pending());
  writer.finish();
  wire.bytes = out.read_exact(out.pending());
  return wire;
}

/// The exchange counter is committed by the reactor a beat after the last
/// response byte reaches the client; poll instead of racing it.
void expect_exchanges(SoapServer& server, std::size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.exchanges() != want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.exchanges(), want);
}

void expect_drains_to_zero(SoapServer& server) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.active_connections(), 0u);
}

struct EchoStream final : StreamCallbacks {
  void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
    out.write_chunk(std::move(chunk));
  }
  void on_end(ResponseWriter& out) override { out.finish(); }
};

std::unique_ptr<StreamCallbacks> echo_handler(const std::string&) {
  return std::make_unique<EchoStream>();
}

class StreamChaos : public ::testing::TestWithParam<ServerLeg> {};

INSTANTIATE_TEST_SUITE_P(BothModels, StreamChaos,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_title);

TEST_P(StreamChaos, TruncationAtEveryChunkBoundaryDropsCleanly) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope env) { return env; };
  cfg.stream_handler = echo_handler;
  cfg.stream_chunk_bytes = 512;
  cfg.read_timeout_ms = 500;  // a cut stream must not linger past this
  auto server = create_server(GetParam(), std::move(cfg));

  const RecordedWire wire = record_stream_wire(512, 600);
  ASSERT_GT(wire.cuts.size(), 6u);  // several data chunks plus patches

  for (const std::size_t cut : wire.cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    TcpStream conn = TcpStream::connect(server->port());
    conn.write_all(std::span(wire.bytes.data(), cut));
    conn.close();
  }
  // Mid-chunk cuts too: inside the first chunk's body and inside the
  // 9-byte chunk header of the second.
  for (const std::size_t cut : {wire.cuts[0] + (wire.cuts[1] - wire.cuts[0]) / 2,
                                wire.cuts[1] + 4}) {
    SCOPED_TRACE("mid cut at " + std::to_string(cut));
    TcpStream conn = TcpStream::connect(server->port());
    conn.write_all(std::span(wire.bytes.data(), cut));
    conn.close();
  }
  expect_drains_to_zero(*server);
  // No truncated transfer ever completed as an exchange.
  EXPECT_EQ(server->exchanges(), 0u);

  // And the server still serves a full streamed echo afterwards.
  TcpClientBinding client(server->port());
  std::vector<std::uint8_t> got;
  client.stream_exchange(
      "application/x-chaos", 512,
      [&](ResponseWriter& tx) {
        tx.write_data(std::vector<std::uint8_t>(2048, 0x5A));
        tx.finish();
      },
      [&](StreamRequest& rx) {
        while (auto d = rx.next_data()) {
          got.insert(got.end(), d->begin(), d->end());
        }
      });
  EXPECT_EQ(got.size(), 2048u);
  expect_exchanges(*server, 1);
  client.close();
  expect_drains_to_zero(*server);
}

TEST_P(StreamChaos, AbandonedMidStreamClientsDoNotStarveOthers) {
  // Several clients start streams and vanish mid-transfer while a healthy
  // client keeps echoing; the healthy one must never fail.
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope env) { return env; };
  cfg.stream_handler = echo_handler;
  cfg.stream_chunk_bytes = 1024;
  cfg.read_timeout_ms = 300;
  auto server = create_server(GetParam(), std::move(cfg));

  const RecordedWire wire = record_stream_wire(1024, 2000);
  std::thread saboteur([&] {
    for (int i = 0; i < 8; ++i) {
      const std::size_t cut = wire.cuts[1 + (static_cast<std::size_t>(i) %
                                             (wire.cuts.size() - 1))];
      try {
        TcpStream conn = TcpStream::connect(server->port());
        conn.write_all(std::span(wire.bytes.data(), cut));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        conn.close();
      } catch (const Error&) {
        // Connection refused/reset under churn is the saboteur's problem.
      }
    }
  });

  TcpClientBinding client(server->port());
  for (int round = 0; round < 6; ++round) {
    std::size_t got = 0;
    client.stream_exchange(
        "application/x-chaos", 1024,
        [&](ResponseWriter& tx) {
          for (int i = 0; i < 4; ++i) {
            tx.write_data(std::vector<std::uint8_t>(1024, 0x11));
          }
          tx.finish();
        },
        [&](StreamRequest& rx) {
          while (auto d = rx.next_data()) got += d->size();
        });
    EXPECT_EQ(got, 4u * 1024u) << "round " << round;
  }
  saboteur.join();
  client.close();
  expect_drains_to_zero(*server);
}

/// Threads of this process right now.
std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST_P(StreamChaos, OpenStreamsTakeNoThreads) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope env) { return env; };
  cfg.stream_handler = echo_handler;
  cfg.stream_chunk_bytes = 512;
  cfg.reactor_threads = 2;
  cfg.registry = &registry;
  cfg.metrics_prefix = "srv";
  // Nothing released is turned away, so every buffer handed out is either
  // back in the pool or still held: held = misses - pooled + constant.
  cfg.buffer_pool.max_buffers_per_class = 4096;
  auto server = create_server(GetParam(), std::move(cfg));
  const BufferPool& pool =
      dynamic_cast<const SoapEventServer&>(*server).buffer_pool();
  const auto held = [&pool] {
    return static_cast<std::int64_t>(pool.stats().miss) -
           static_cast<std::int64_t>(pool.pooled_buffers());
  };
  const std::int64_t held_before = held();
  const std::size_t threads_before = thread_count();

  // 64 streams, each sent up to the end of its first chunk and held open.
  const RecordedWire wire = record_stream_wire(512, 600);
  const auto prefix = std::span(wire.bytes.data(), wire.cuts[1]);
  std::vector<TcpStream> open;
  for (int i = 0; i < 64; ++i) {
    open.push_back(TcpStream::connect(server->port()));
    open.back().write_all(prefix);
  }
  const obs::Counter& chunks = registry.counter("srv.stream.chunks");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (chunks.value() < 64 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(chunks.value(), 64u);
  EXPECT_EQ(thread_count(), threads_before);

  for (TcpStream& s : open) s.close();
  expect_drains_to_zero(*server);
  EXPECT_EQ(registry.waterline("srv.stream.buffered_bytes").value(), 0u);
  EXPECT_EQ(held(), held_before);
}

}  // namespace
}  // namespace bxsoap::transport
