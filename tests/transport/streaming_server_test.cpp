// End-to-end tests of the streaming message path (DESIGN.md §11) through
// the SoapServer interface: the same stream handler served on both
// dispatch legs, echo and typed round trips, the in-band fault
// fallback, and the bounded-memory contract verified via the
// stream.buffered_bytes waterline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bxsa/decoder.hpp"
#include "bxsa/stream_reader.hpp"
#include "obs/metrics.hpp"
#include "soap/engine.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/server.hpp"
#include "xdm/equal.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;
using namespace bxsoap::xdm;

constexpr std::size_t kChunk = 64 * 1024;

/// Pass-through echo: forwards every chunk (data and patch alike) without
/// decoding, the relay style the API is designed to make trivial.
struct EchoStream : StreamCallbacks {
  void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
    out.write_chunk(std::move(chunk));
  }
  void on_end(ResponseWriter& out) override { out.finish(); }
};

std::unique_ptr<StreamCallbacks> echo_handler(const std::string&) {
  return std::make_unique<EchoStream>();
}

ServerConfig make_config(obs::Registry* registry,
                         const std::string& prefix,
                         StreamHandler stream_handler) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope env) { return env; };  // v1 echo
  cfg.stream_handler = std::move(stream_handler);
  cfg.stream_chunk_bytes = kChunk;
  cfg.registry = registry;
  cfg.metrics_prefix = prefix;
  return cfg;
}

/// Stream exchange/fault counters are committed by the server a beat
/// after the last response byte reaches the client; poll, don't race.
void expect_counter(const std::function<std::size_t()>& read,
                    std::size_t want, const char* what) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (read() != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(read(), want) << what;
}

class StreamingServer : public ::testing::TestWithParam<ServerLeg> {};

INSTANTIATE_TEST_SUITE_P(BothModels, StreamingServer,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_title);

TEST_P(StreamingServer, RawChunkEchoRoundTrips) {
  obs::Registry registry;
  auto server = create_server(
      GetParam(), make_config(&registry, "srv", echo_handler));

  TcpClientBinding client(server->port());
  std::vector<std::uint8_t> sent;
  std::vector<std::uint8_t> received;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        for (int i = 0; i < 12; ++i) {
          std::vector<std::uint8_t> chunk(kChunk / 2);
          for (std::size_t j = 0; j < chunk.size(); ++j) {
            chunk[j] = static_cast<std::uint8_t>(i * 31 + j);
          }
          sent.insert(sent.end(), chunk.begin(), chunk.end());
          tx.write_data(std::move(chunk));
        }
        tx.finish();
      },
      [&](StreamRequest& rx) {
        while (auto data = rx.next_data()) {
          received.insert(received.end(), data->begin(), data->end());
        }
      });
  EXPECT_EQ(received, sent);
  EXPECT_EQ(server->faults(), 0u);
  expect_counter([&] { return server->exchanges(); }, 1, "exchanges");
  EXPECT_GT(registry.counter("srv.stream.chunks").value(), 0u);
  EXPECT_GT(registry.counter("srv.stream.flushes").value(), 0u);
  // The bounded-memory contract: queue residency never exceeded two
  // chunks' worth of buffers, no matter the message size.
  EXPECT_LE(registry.waterline("srv.stream.buffered_bytes").peak(),
            2 * kChunk);
}

TEST_P(StreamingServer, TypedStreamedCallRoundTrips) {
  // Server: assemble the streamed request (opting into message-sized
  // memory — fine, this test is small), decode it, then stream back a
  // response through the encoding's chunk-mode writer.
  struct Typed final : StreamCallbacks {
    std::vector<std::uint8_t> wire;
    std::vector<bxsa::PatchRecord> patches;

    void on_chunk(StreamChunk chunk, ResponseWriter&) override {
      if (chunk.kind == ChunkKind::kPatch) {
        const auto decoded = decode_patch_records(chunk.bytes);
        patches.insert(patches.end(), decoded.begin(), decoded.end());
      } else {
        wire.insert(wire.end(), chunk.bytes.begin(), chunk.bytes.end());
      }
    }
    void on_end(ResponseWriter& resp) override {
      apply_patches(wire, patches);
      const DocumentPtr doc = bxsa::decode_document(wire);
      const auto& root = static_cast<const Element&>(doc->root());
      const auto* arr = dynamic_cast<const ArrayElement<double>*>(
          root.find_child("values"));
      ASSERT_NE(arr, nullptr);
      double sum = 0;
      for (double v : arr->values()) sum += v;

      std::unique_ptr<bxsa::StreamWriter> w = resp.make_stream_writer();
      ASSERT_NE(w, nullptr);  // BXSA is a StreamingEncoding
      w->start_document();
      w->start_element(QName("urn:t", "reply", "t"),
                       std::array<NamespaceDecl, 1>{{{"t", "urn:t"}}});
      w->leaf(QName("sum"), sum);
      w->end_element();
      w->end_document();
      resp.finish_stream(*w);
    }
  };
  StreamHandler typed = [](const std::string&) {
    return std::make_unique<Typed>();
  };

  auto server = create_server(GetParam(), make_config(nullptr, "srv", typed));

  SoapEngine<BxsaEncoding, TcpClientBinding> engine(
      {}, TcpClientBinding(server->port()));
  std::vector<double> values(10'000);
  std::iota(values.begin(), values.end(), 0.0);
  const double expected = std::accumulate(values.begin(), values.end(), 0.0);

  double got = -1;
  engine.call_streamed(
      [&](bxsa::StreamWriter& w) {
        w.start_document();
        w.start_element(QName("urn:t", "req", "t"),
                        std::array<NamespaceDecl, 1>{{{"t", "urn:t"}}});
        w.array(QName("values"), std::span<const double>(values));
        w.end_element();
        w.end_document();
      },
      [&](auto& rx) {
        SharedBuffer wire = rx.assemble(engine.buffer_pool());
        const DocumentPtr doc = bxsa::decode_document(wire.bytes());
        const auto& root = static_cast<const Element&>(doc->root());
        const auto* leaf =
            dynamic_cast<const LeafElement<double>*>(root.find_child("sum"));
        ASSERT_NE(leaf, nullptr);
        got = leaf->get();
      },
      kChunk);
  EXPECT_EQ(got, expected);
}

TEST_P(StreamingServer, FaultBeforeFirstChunkArrivesInBand) {
  struct Failing final : StreamCallbacks {
    void on_chunk(StreamChunk, ResponseWriter&) override {
      // Read a little, write nothing.
      throw SoapFaultError("soap:Client", "stream rejected");
    }
    void on_end(ResponseWriter&) override {}
  };
  StreamHandler failing = [](const std::string&) {
    return std::make_unique<Failing>();
  };
  auto server = create_server(GetParam(), make_config(nullptr, "srv", failing));

  TcpClientBinding client(server->port());
  std::optional<SoapEnvelope> envelope;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        tx.write_data(std::vector<std::uint8_t>(1024, 0xAB));
        tx.finish();
      },
      [&](StreamRequest& rx) {
        // The v1 fault envelope arrives as a one-chunk stream.
        SharedBuffer wire = rx.assemble(BufferPool::global());
        BxsaEncoding enc;
        envelope.emplace(enc.deserialize(wire.bytes()));
      });
  ASSERT_TRUE(envelope.has_value());
  ASSERT_TRUE(envelope->is_fault());
  EXPECT_EQ(envelope->fault().code, "soap:Client");
  expect_counter([&] { return server->faults(); }, 1, "faults");
}

TEST_P(StreamingServer, MaterializedAndStreamedInterleaveOnOneConnection) {
  auto server = create_server(
      GetParam(), make_config(nullptr, "srv", echo_handler));

  SoapEngine<BxsaEncoding, TcpClientBinding> engine(
      {}, TcpClientBinding(server->port()));

  // v1 call, then a v2 streamed exchange, then v1 again — one connection,
  // both framings, order preserved.
  auto root = make_element(QName("urn:m", "ping", "m"));
  root->declare_namespace("m", "urn:m");
  root->add_child(make_leaf<std::int32_t>(QName("n"), 7));
  SoapEnvelope request = SoapEnvelope::wrap(std::move(root));
  SoapEnvelope r1 = engine.call(request);
  EXPECT_FALSE(r1.is_fault());

  std::size_t echoed = 0;
  engine.call_streamed(
      [&](bxsa::StreamWriter& w) {
        w.start_document();
        w.start_element(QName("urn:m", "bulk", "m"),
                        std::array<NamespaceDecl, 1>{{{"m", "urn:m"}}});
        const std::vector<double> xs(20'000, 1.5);
        w.array(QName("xs"), std::span<const double>(xs));
        w.end_element();
        w.end_document();
      },
      [&](auto& rx) {
        while (auto data = rx.next_data()) echoed += data->size();
      },
      kChunk);
  EXPECT_GT(echoed, 20'000 * sizeof(double));

  SoapEnvelope r2 = engine.call(request);
  EXPECT_FALSE(r2.is_fault());
  expect_counter([&] { return server->exchanges(); }, 3, "exchanges");
}

/// The chunk kinds a handler may not write: End and the Auth trailer are
/// the stream writer's to emit, and compression is a wire encoding of
/// Data, not a kind of its own.
const ChunkKind kNotWritable[] = {ChunkKind::kEnd, ChunkKind::kAuth,
                                  ChunkKind::kCompressedData};

/// Try each kind in kNotWritable; returns how many were refused.
int write_forbidden_kinds(ResponseWriter& w) {
  int refused = 0;
  for (const ChunkKind kind : kNotWritable) {
    try {
      w.write_chunk(StreamChunk{kind, std::vector<std::uint8_t>(9, 0x01)});
    } catch (const TransportError&) {
      ++refused;
    }
  }
  return refused;
}

TEST_P(StreamingServer, HandlerChunkOfOtherKindIsRefusedBeforeTheWire) {
  // Refused locally, the bad chunks leave no byte on the wire: the stream
  // that follows is a clean echo the client parses to its end.
  std::atomic<int> refused{0};
  struct RefusedThenEcho final : EchoStream {
    explicit RefusedThenEcho(std::atomic<int>& r) : refused(r) {}
    void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
      if (first) refused = write_forbidden_kinds(out);
      first = false;
      EchoStream::on_chunk(std::move(chunk), out);
    }
    std::atomic<int>& refused;
    bool first = true;
  };
  StreamHandler handler = [&](const std::string&) {
    return std::make_unique<RefusedThenEcho>(refused);
  };
  auto server =
      create_server(GetParam(), make_config(nullptr, "srv", handler));

  TcpClientBinding client(server->port());
  std::vector<std::uint8_t> received;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        tx.write_data(std::vector<std::uint8_t>(1024, 0x5A));
        tx.finish();
      },
      [&](StreamRequest& rx) {
        while (auto data = rx.next_data()) {
          received.insert(received.end(), data->begin(), data->end());
        }
      });
  EXPECT_EQ(refused.load(), 3);
  EXPECT_EQ(received, std::vector<std::uint8_t>(1024, 0x5A));
}

TEST_P(StreamingServer, ClientChunkOfOtherKindIsRefusedBeforeTheWire) {
  auto server = create_server(
      GetParam(), make_config(nullptr, "srv", echo_handler));

  TcpClientBinding client(server->port());
  int refused = 0;
  std::vector<std::uint8_t> received;
  client.stream_exchange(
      "application/x-test", kChunk,
      [&](ResponseWriter& tx) {
        refused = write_forbidden_kinds(tx);
        tx.write_data(std::vector<std::uint8_t>(1024, 0xA5));
        tx.finish();
      },
      [&](StreamRequest& rx) {
        while (auto data = rx.next_data()) {
          received.insert(received.end(), data->begin(), data->end());
        }
      });
  EXPECT_EQ(refused, 3);
  EXPECT_EQ(received, std::vector<std::uint8_t>(1024, 0xA5));
}

TEST_P(StreamingServer, ChunkedFrameWithoutStreamHandlerCutsConnection) {
  ServerConfig cfg = make_config(nullptr, "srv", StreamHandler{});
  auto server = create_server(GetParam(), std::move(cfg));

  TcpClientBinding client(server->port());
  EXPECT_THROW(
      client.stream_exchange(
          "application/x-test", kChunk,
          [&](ResponseWriter& tx) {
            tx.write_data(std::vector<std::uint8_t>(64, 1));
            tx.finish();
          },
          [&](StreamRequest& rx) { (void)rx.next_chunk(); }),
      TransportError);
}

/// The tentpole's acceptance gate, scaled by env so the default run stays
/// fast and sanitizer-friendly: BXSOAP_STREAM_MIB=256 streams the full
/// 256 MiB; default 8 MiB. Peak queue residency must stay ≤ 2 chunks
/// (and therefore ≤ 8 MiB) regardless.
TEST(StreamingResidency, LargeEchoStaysWithinTwoChunks) {
  std::size_t mib = 8;
  if (const char* env = std::getenv("BXSOAP_STREAM_MIB")) {
    mib = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    if (mib == 0) mib = 8;
  }
  const std::size_t chunk = 1u << 20;  // the default stream chunk size
  const std::size_t total = mib << 20;

  obs::Registry registry;
  ServerConfig cfg = make_config(&registry, "big", echo_handler);
  cfg.stream_chunk_bytes = chunk;
  cfg.frame_limits.max_stream_bytes = 2ull << 30;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));

  TcpClientBinding client(server->port());
  FrameLimits client_limits;
  client_limits.max_stream_bytes = 2ull << 30;
  client.set_frame_limits(client_limits);

  std::uint64_t received = 0;
  client.stream_exchange(
      "application/x-test", chunk,
      [&](ResponseWriter& tx) {
        BufferPool& pool = tx.pool();
        for (std::size_t off = 0; off < total; off += chunk) {
          std::vector<std::uint8_t> data = pool.acquire(chunk);
          data.resize(chunk);
          std::fill(data.begin(), data.end(),
                    static_cast<std::uint8_t>(off >> 20));
          tx.write_data(std::move(data));
        }
        tx.finish();
      },
      [&](StreamRequest& rx) {
        BufferPool& pool = BufferPool::global();
        while (auto data = rx.next_data()) {
          received += data->size();
          pool.release(std::move(*data));
        }
      });

  EXPECT_EQ(received, total);
  const std::uint64_t peak =
      registry.waterline("big.stream.buffered_bytes").peak();
  EXPECT_LE(peak, 2 * chunk);
  EXPECT_LE(peak, 8u << 20);  // the ISSUE's headline bound
  EXPECT_GE(registry.counter("big.stream.chunks").value(), mib);
}

}  // namespace
}  // namespace bxsoap::transport
