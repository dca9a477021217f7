#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "soap/overload.hpp"
#include "transport/bindings.hpp"
#include "transport/compress.hpp"
#include "transport/internal/event_server.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

std::unique_ptr<SoapServer> make_server(obs::Registry* registry = nullptr) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.registry = registry;
  return SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
}

/// Encode a verification request as a raw wire frame (for driving the
/// server below the engine layer, where pipelining is visible).
soap::WireMessage encode_request(std::size_t count) {
  BxsaEncoding enc;
  SoapEnvelope env =
      services::make_data_request(workload::make_lead_dataset(count));
  soap::WireMessage m;
  m.content_type = std::string(BxsaEncoding::content_type());
  m.payload = enc.serialize(env.document());
  return m;
}

services::VerificationOutcome decode_response(const soap::WireMessage& m) {
  BxsaEncoding enc;
  SoapEnvelope env(enc.deserialize(m.payload));
  return services::parse_verify_response(env);
}

TEST(EventServer, SingleClientExchange) {
  auto server = make_server();
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  const auto dataset = workload::make_lead_dataset(100);
  SoapEnvelope resp = client.call(services::make_data_request(dataset));
  EXPECT_TRUE(services::parse_verify_response(resp).ok);
  EXPECT_EQ(server->exchanges(), 1u);
  EXPECT_EQ(server->faults(), 0u);
}

TEST(EventServer, ManyConcurrentClients) {
  auto server = make_server();
  constexpr int kClients = 8;
  constexpr int kCallsEach = 5;

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        SoapEngine<BxsaEncoding, TcpClientBinding> client(
            {}, TcpClientBinding(server->port()));
        const auto dataset =
            workload::make_lead_dataset(100 + static_cast<std::size_t>(c));
        for (int i = 0; i < kCallsEach; ++i) {
          SoapEnvelope resp =
              client.call(services::make_data_request(dataset));
          const auto outcome = services::parse_verify_response(resp);
          if (!outcome.ok ||
              outcome.count != 100 + static_cast<std::size_t>(c)) {
            ++failures;
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->exchanges(),
            static_cast<std::size_t>(kClients * kCallsEach));
}

// M requests written back to back on ONE connection come back as M
// responses in request order, even though their handlers may run
// concurrently on different workers.
TEST(EventServer, PipelinedRequestsAnswerInOrder) {
  obs::Registry registry;
  auto server = make_server(&registry);
  constexpr std::size_t kRequests = 16;

  // One write carries every frame, so the reactor's reads find several
  // at once however the threads are scheduled.
  ByteWriter burst;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const soap::WireMessage m = encode_request(10 + i);
    const std::size_t len_pos = begin_frame(burst, m.content_type);
    burst.write_bytes(m.payload);
    end_frame(burst, len_pos);
  }
  TcpStream conn = TcpStream::connect(server->port());
  conn.write_all(burst.bytes());
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto outcome = decode_response(read_frame(conn));
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.count, 10 + i) << "response " << i << " out of order";
  }
  EXPECT_EQ(server->exchanges(), kRequests);
  // The burst must actually have overlapped on the connection.
  EXPECT_GT(registry.counter("event.pipelined.exchanges").value(), 0u);
}

// Responses must come back in request order even when an early request is
// much slower than the ones behind it (out-of-order completion is the rule,
// not the exception, with concurrent workers).
TEST(EventServer, SlowFirstRequestDoesNotReorderResponses) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope req) {
    SoapEnvelope resp = services::verification_handler(std::move(req));
    // Invert the natural completion order: earlier = slower.
    const auto n = services::parse_verify_response(resp).count;
    if (n == 50) std::this_thread::sleep_for(std::chrono::milliseconds(80));
    if (n == 51) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return resp;
  };
  cfg.reactor_threads = 1;
  cfg.worker_threads = 4;  // enough to run the whole burst concurrently
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));
  EXPECT_EQ(server->serving_threads(), 5u);  // 1 reactor + 4 workers

  TcpStream conn = TcpStream::connect(server->port());
  for (std::size_t i = 0; i < 4; ++i) {
    write_frame(conn, encode_request(50 + i));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(decode_response(read_frame(conn)).count, 50 + i);
  }
}

// Graceful stop: requests already assembled when stop() lands finish their
// handlers and their responses drain before the connection closes.
TEST(EventServer, GracefulStopDrainsPipelinedResponses) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return services::verification_handler(std::move(req));
  };
  cfg.drain_timeout = std::chrono::seconds(5);
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));
  constexpr std::size_t kRequests = 3;

  TcpStream conn = TcpStream::connect(server->port());
  for (std::size_t i = 0; i < kRequests; ++i) {
    write_frame(conn, encode_request(20 + i));
  }
  // Give the reactor a moment to assemble all three requests, then shut
  // down around them.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread stopper([&] { server->stop(); });
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto outcome = decode_response(read_frame(conn));
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.count, 20 + i);
  }
  stopper.join();
  EXPECT_EQ(server->exchanges(), kRequests);
}

TEST(EventServer, StopWithLiveIdleConnections) {
  auto server = make_server();
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  client.call(services::make_data_request(workload::make_lead_dataset(10)));
  EXPECT_EQ(server->active_connections(), 1u);
  // stop() must cut the idle connection instead of waiting on it.
  server->stop();
  EXPECT_EQ(server->active_connections(), 0u);
}

TEST(EventServer, MalformedBytesBecomeFaultNotDisconnect) {
  auto server = make_server();
  TcpStream raw = TcpStream::connect(server->port());
  soap::WireMessage junk;
  junk.content_type = "application/bxsa";
  junk.payload = {0xDE, 0xAD};
  write_frame(raw, junk);
  soap::WireMessage resp = read_frame(raw);
  BxsaEncoding enc;
  SoapEnvelope env(enc.deserialize(resp.payload));
  ASSERT_TRUE(env.is_fault());
  EXPECT_EQ(env.fault().code, "soap:Client");
  // The connection survived the in-band fault; a good request follows.
  write_frame(raw, encode_request(5));
  EXPECT_TRUE(decode_response(read_frame(raw)).ok);
}

// A frame declaring an over-limit payload is refused before allocation and
// the connection is cut; the server keeps serving everyone else.
TEST(EventServer, OversizedFrameRefusedAndServerSurvives) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.frame_limits.max_message_bytes = 1024;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));

  ByteWriter header;
  header.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  header.write_u8(kFrameVersion);
  const std::string_view ct = "application/bxsa";
  vls_write(header, ct.size());
  header.write_string(ct);
  header.write<std::uint64_t>(1u << 30, ByteOrder::kBig);

  TcpStream hostile = TcpStream::connect(server->port());
  hostile.write_all(header.bytes());
  hostile.set_read_timeout(2000);
  std::uint8_t b;
  EXPECT_THROW(hostile.read_exact(&b, 1), TransportError);

  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  SoapEnvelope resp = client.call(
      services::make_data_request(workload::make_lead_dataset(5)));
  EXPECT_TRUE(services::parse_verify_response(resp).ok);
  EXPECT_EQ(server->exchanges(), 1u);
}

// The registry view: pool-compatible counters plus the reactor-specific
// ones, and the zero-copy buffer pool actually taking hits on this path.
TEST(EventServer, MetricsAgreeWithTraffic) {
  obs::Registry registry;
  auto server = make_server(&registry);
  constexpr std::size_t kCalls = 12;

  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  for (std::size_t i = 0; i < kCalls; ++i) {
    SoapEnvelope resp = client.call(
        services::make_data_request(workload::make_lead_dataset(10 + i)));
    EXPECT_TRUE(services::parse_verify_response(resp).ok);
  }

  EXPECT_EQ(server->exchanges(), kCalls);
  EXPECT_EQ(registry.counter("event.exchanges").value(), kCalls);
  EXPECT_EQ(registry.counter("event.connections.accepted").value(), 1u);
  EXPECT_EQ(registry.gauge("event.connections.active").value(), 1);
  EXPECT_GT(registry.counter("event.reactor.wakeups").value(), 0u);
  EXPECT_GT(registry.histogram("event.reactor.loop.ns").count(), 0u);
  // The round-robin cursor starts at shard 0, so the run's single
  // connection was dealt there — whatever the shard count.
  EXPECT_EQ(registry.counter("event.reactor.0.connections").value(), 1u);
  EXPECT_GT(registry.histogram("event.reactor.0.loop.ns").count(), 0u);
  EXPECT_GT(registry.io("event.io").bytes_in.value(), 0u);
  EXPECT_GT(registry.io("event.io").bytes_out.value(), 0u);
  // Per-stage timings saw every exchange.
  for (const char* stage :
       {"deserialize", "handler", "serialize"}) {
    EXPECT_EQ(
        registry.histogram("event.stage." + std::string(stage) + ".ns")
            .count(),
        kCalls)
        << stage;
  }
  // The PR 3 zero-copy path: after warmup, receive payloads and response
  // buffers recycle through the pool instead of malloc.
  EXPECT_GT(registry.counter("event.pool.hit").value(), 0u);
  EXPECT_GT(registry.counter("event.pool.recycled_bytes").value(), 0u);

  server->stop();
  EXPECT_EQ(registry.gauge("event.connections.active").value(), 0);
}

// max_connections is the connection ceiling: at the limit the listener
// parks, excess clients queue in the kernel backlog, and everyone is
// eventually served without concurrency ever exceeding the cap.
TEST(EventServer, ConnectionCeilingAppliesBackpressure) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return services::verification_handler(std::move(req));
  };
  cfg.max_connections = 2;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      try {
        SoapEngine<BxsaEncoding, TcpClientBinding> client(
            {}, TcpClientBinding(server->port()));
        SoapEnvelope resp = client.call(
            services::make_data_request(workload::make_lead_dataset(3)));
        if (!services::parse_verify_response(resp).ok) ++failures;
        // Closing promptly frees the slot for a queued client.
        client.binding().close();
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  std::size_t max_active = 0;
  std::thread sampler([&] {
    while (!done.load()) {
      max_active = std::max(max_active, server->active_connections());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : clients) t.join();
  done.store(true);
  sampler.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->exchanges(), static_cast<std::size_t>(kClients));
  EXPECT_LE(max_active, 2u);
}

TEST(EventServer, XmlEncodingServed) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(XmlEncoding{});
  cfg.handler = services::verification_handler;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));
  SoapEngine<XmlEncoding, TcpClientBinding> client(
      {}, TcpClientBinding(server->port()));
  const auto dataset = workload::make_lead_dataset(10);
  SoapEnvelope resp = client.call(services::make_data_request(dataset));
  EXPECT_TRUE(services::parse_verify_response(resp).ok);
}

TEST(EventServer, HandlerFaultsPropagate) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope) -> SoapEnvelope {
    throw SoapFaultError("soap:Client", "nope");
  };
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  SoapEnvelope resp = client.call(
      SoapEnvelope::wrap(xdm::make_element(xdm::QName("x"))));
  ASSERT_TRUE(resp.is_fault());
  EXPECT_EQ(resp.fault().code, "soap:Client");
  EXPECT_EQ(server->faults(), 1u);
}

// N parallel clients, a handler that faults on a known subset of requests,
// and a Registry hooked into the server. The server's own tallies, the
// registry's counters, the JSON snapshot and the clients' view of the
// traffic must all agree.
TEST(EventServer, ConcurrentMetricsAgreeWithClientTallies) {
  constexpr int kClients = 6;
  constexpr int kCallsEach = 8;

  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  // Faults on request #0 of every client's batch (payload count == 7).
  cfg.handler = [](SoapEnvelope req) -> SoapEnvelope {
    SoapEnvelope resp = services::verification_handler(std::move(req));
    if (services::parse_verify_response(resp).count == 7) {
      throw SoapFaultError("soap:Client", "seven refused");
    }
    return resp;
  };
  cfg.registry = &registry;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  std::atomic<int> ok_responses{0};
  std::atomic<int> fault_responses{0};
  // Engines live past the join so every connection is still open while
  // the gauges and histograms are checked.
  using Client = SoapEngine<BxsaEncoding, TcpClientBinding>;
  std::vector<std::unique_ptr<Client>> engines;
  for (int c = 0; c < kClients; ++c) {
    engines.push_back(std::make_unique<Client>(
        BxsaEncoding{}, TcpClientBinding(server->port())));
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client& client = *engines[c];
      for (int i = 0; i < kCallsEach; ++i) {
        // One poisoned request (count 7) per client, the rest normal.
        const std::size_t n = (i == 0) ? 7 : 10 + static_cast<std::size_t>(i);
        SoapEnvelope resp = client.call(
            services::make_data_request(workload::make_lead_dataset(n)));
        if (resp.is_fault()) {
          ++fault_responses;
        } else {
          ++ok_responses;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  const std::size_t total = kClients * kCallsEach;
  EXPECT_EQ(ok_responses.load() + fault_responses.load(),
            static_cast<int>(total));
  EXPECT_EQ(fault_responses.load(), kClients);

  // Server-native counters.
  EXPECT_EQ(server->exchanges(), total);
  EXPECT_EQ(server->faults(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(server->active_connections(),
            static_cast<std::size_t>(kClients));

  // Registry view must match the server and the clients.
  EXPECT_EQ(registry.counter("event.exchanges").value(), total);
  EXPECT_EQ(registry.counter("event.faults").value(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(registry.counter("event.connections.accepted").value(),
            static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(registry.gauge("event.connections.active").value(),
            static_cast<std::int64_t>(kClients));

  // Per-stage timings. Decode, handler and encode run once per exchange,
  // and so does frame_write: each small reply leaves in one write. The
  // timer records just after the bytes reach the client, so give the
  // reactor a moment to finish its last write. frame_read also counts
  // reads that ended mid-frame, so it is only a floor.
  const std::vector<std::string> stages = {"deserialize", "handler",
                                           "serialize", "frame_write"};
  const auto stage_count = [&](const std::string& stage) {
    return registry.histogram("event.stage." + stage + ".ns").count();
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline &&
         std::any_of(stages.begin(), stages.end(), [&](const auto& s) {
           return stage_count(s) < total;
         })) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& stage : stages) {
    EXPECT_EQ(stage_count(stage), total) << stage;
  }
  EXPECT_GE(stage_count("frame_read"), total);
  EXPECT_GT(registry.histogram("event.stage.handler.ns").sum(), 0u);

  // Socket and codec tallies moved.
  EXPECT_GT(registry.io("event.io").bytes_in.value(), 0u);
  EXPECT_GT(registry.io("event.io").bytes_out.value(), 0u);
  EXPECT_GT(registry.io("event.io").read_calls.value(), 0u);
  const auto& codec = registry.codec("event.bxsa");
  EXPECT_GT(codec.frames_by_type[1].value(), 0u);  // documents

  // The JSON snapshot carries the same numbers.
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"event.exchanges\":" + std::to_string(total)),
            std::string::npos);
  EXPECT_NE(json.find("\"event.faults\":" + std::to_string(kClients)),
            std::string::npos);
  EXPECT_NE(json.find("event.stage.frame_write.ns"), std::string::npos);

  server->stop();
  EXPECT_EQ(registry.gauge("event.connections.active").value(), 0);
}

// ---- sharded-reactor behavior (PR 6 tentpole) -------------------------------

std::unique_ptr<SoapServer> make_sharded(std::size_t reactors,
                                         obs::Registry* registry = nullptr) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.reactor_threads = reactors;
  cfg.worker_threads = 2;
  cfg.registry = registry;
  return SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
}

// The accept loop deals connections round-robin: under 4xN sequential
// clients every one of the N shards must end up owning exactly 4.
TEST(EventShard, ConnectionsDistributeRoundRobinAcrossReactors) {
  constexpr std::size_t kReactors = 3;
  obs::Registry registry;
  auto server = make_sharded(kReactors, &registry);

  std::vector<std::unique_ptr<SoapEngine<BxsaEncoding, TcpClientBinding>>>
      clients;
  for (std::size_t c = 0; c < 4 * kReactors; ++c) {
    // Sequential connect + call: each socket is accepted (and dealt)
    // before the next connect, so the deal order is deterministic.
    clients.push_back(
        std::make_unique<SoapEngine<BxsaEncoding, TcpClientBinding>>(
            BxsaEncoding{}, TcpClientBinding(server->port())));
    SoapEnvelope resp = clients.back()->call(
        services::make_data_request(workload::make_lead_dataset(5)));
    EXPECT_TRUE(services::parse_verify_response(resp).ok);
  }

  EXPECT_EQ(server->exchanges(), 4 * kReactors);
  for (std::size_t i = 0; i < kReactors; ++i) {
    EXPECT_EQ(registry
                  .counter("event.reactor." + std::to_string(i) +
                           ".connections")
                  .value(),
              4u)
        << "shard " << i;
  }
}

// serving_threads() is exactly reactors + fixed workers, independent of
// clients.
TEST(EventShard, ServingThreadsIsReactorsPlusWorkers) {
  auto server = make_sharded(3);
  EXPECT_EQ(server->serving_threads(), 5u);  // 3 reactors + 2 workers
}

// Pipelining still holds when the connection lives on a non-accepting
// shard: the handoff must not reorder or drop back-to-back requests.
TEST(EventShard, PipeliningSurvivesCrossReactorHandoff) {
  auto server = make_sharded(2);
  constexpr std::size_t kRequests = 8;

  // Two connections: with round-robin they land on DIFFERENT shards, and
  // the second one's socket crossed the reactor-0 -> reactor-1 handoff.
  TcpStream first = TcpStream::connect(server->port());
  TcpStream second = TcpStream::connect(server->port());
  for (std::size_t i = 0; i < kRequests; ++i) {
    write_frame(first, encode_request(30 + i));
    write_frame(second, encode_request(60 + i));
  }
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(decode_response(read_frame(first)).count, 30 + i);
    EXPECT_EQ(decode_response(read_frame(second)).count, 60 + i);
  }
  EXPECT_EQ(server->exchanges(), 2 * kRequests);
}

// The connection ceiling spans shards: a drop on one shard must un-park
// the listener owned by another.
TEST(EventShard, ConnectionCeilingSpansShards) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.reactor_threads = 2;
  cfg.worker_threads = 2;
  cfg.max_connections = 2;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      try {
        SoapEngine<BxsaEncoding, TcpClientBinding> client(
            {}, TcpClientBinding(server->port()));
        SoapEnvelope resp = client.call(
            services::make_data_request(workload::make_lead_dataset(3)));
        if (!services::parse_verify_response(resp).ok) ++failures;
        client.binding().close();
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->exchanges(), static_cast<std::size_t>(kClients));
}

// ---- dispatch modes: run-to-completion (default) vs worker pool ------------

enum class Dispatch { kInline, kWorkers };

/// Build a BXSA event server on two reactors in the given dispatch mode;
/// `cfg` supplies everything else (the handler defaults to the
/// verification service).
std::unique_ptr<SoapServer> make_dispatch(Dispatch mode,
                                          ServerConfig cfg = {}) {
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  if (!cfg.handler) cfg.handler = services::verification_handler;
  cfg.reactor_threads = 2;
  cfg.worker_threads = mode == Dispatch::kWorkers ? 2 : 0;
  return SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
}

/// Frames concatenated into ONE write, so the server reads them in one
/// recv and the requests sit pipelined in one read buffer.
std::vector<std::uint8_t> frames_of(
    const std::vector<soap::WireMessage>& messages) {
  ByteWriter w;
  for (const soap::WireMessage& m : messages) {
    const std::size_t len_pos = begin_frame(w, m.content_type);
    w.write_bytes(m.payload.data(), m.payload.size());
    end_frame(w, len_pos);
  }
  return w.take();
}

/// A verification request stamped with `budget_ms` of deadline, written as
/// a raw header value: "0" is already expired on arrival (set_deadline
/// floors at 1 ms).
soap::WireMessage encode_request_with_budget(std::size_t count,
                                             std::string budget_ms) {
  SoapEnvelope env =
      services::make_data_request(workload::make_lead_dataset(count));
  auto block = xdm::make_leaf<std::string>(
      xdm::QName(std::string(kOverloadUri), "Deadline", "ctl"),
      std::move(budget_ms));
  block->declare_namespace("ctl", std::string(kOverloadUri));
  env.header().add_child(std::move(block));
  soap::WireMessage m;
  m.content_type = std::string(BxsaEncoding::content_type());
  m.payload = BxsaEncoding{}.serialize(env.document());
  return m;
}

/// Handler gate: a request for `gated_count` leads blocks in the handler
/// until the gate opens; every other request passes straight through.
struct Gate {
  std::size_t gated_count = 0;
  std::atomic<bool> open{false};
  std::atomic<int> entered{0};

  ServerConfig::Handler handler() {
    return [this](SoapEnvelope env) {
      SoapEnvelope resp = services::verification_handler(std::move(env));
      if (services::parse_verify_response(resp).count == gated_count) {
        entered.fetch_add(1, std::memory_order_acq_rel);
        while (!open.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      return resp;
    };
  }
};

template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct EventServerDispatch : ::testing::TestWithParam<Dispatch> {};

TEST_P(EventServerDispatch, PipelinedBurstAnswersInOrder) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.registry = &registry;
  auto server = make_dispatch(GetParam(), std::move(cfg));
  constexpr std::size_t kRequests = 16;

  std::vector<soap::WireMessage> burst;
  for (std::size_t i = 0; i < kRequests; ++i) {
    burst.push_back(encode_request(40 + i));
  }
  TcpStream conn = TcpStream::connect(server->port());
  conn.write_all(frames_of(burst));
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(decode_response(read_frame(conn)).count, 40 + i)
        << "response " << i << " out of order";
  }
  EXPECT_EQ(server->exchanges(), kRequests);
  EXPECT_GT(registry.counter("event.pipelined.exchanges").value(), 0u);
  // Every admitted request left the residency count again.
  EXPECT_EQ(registry.gauge("event.reactor.queue.depth").value(), 0);
}

// The v3 channel features in one connection: the dictionary codes both
// directions in wire order, compression applies to both, and the response
// cache answers a repeat without the handler.
TEST_P(EventServerDispatch, V3DictionaryCompressionAndCacheOnOneConnection) {
  obs::Registry registry;
  std::atomic<int> handled{0};
  ServerConfig cfg;
  cfg.registry = &registry;
  cfg.compress_transforms = transforms::kAll;
  cfg.idempotent_ops = {"blob"};
  cfg.handler = [&handled](SoapEnvelope env) {
    ++handled;
    return env;  // echo: large and compressible both ways
  };
  auto server = make_dispatch(GetParam(), std::move(cfg));

  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  client.binding().enable_v3();
  client.binding().enable_compression();
  const auto text_of = [](const SoapEnvelope& env) {
    const auto* root = dynamic_cast<const xdm::Element*>(env.body_payload());
    const auto* leaf =
        root == nullptr ? nullptr
                        : dynamic_cast<const xdm::LeafElement<std::string>*>(
                              root->find_child("text"));
    return leaf == nullptr ? std::string() : leaf->get();
  };
  const auto make_blob = [](std::size_t repeats) {
    std::string text;
    for (std::size_t i = 0; i < repeats; ++i) text += "a pipelined reactor ";
    auto root = xdm::make_element(xdm::QName("urn:t", "blob", "t"));
    root->declare_namespace("t", "urn:t");
    root->add_child(
        xdm::make_leaf<std::string>(xdm::QName("text"), std::string(text)));
    return std::make_pair(SoapEnvelope::wrap(std::move(root)), text);
  };

  const auto [big, big_text] = make_blob(2048);
  const auto [small, small_text] = make_blob(1024);
  EXPECT_EQ(text_of(client.call(big)), big_text);
  EXPECT_EQ(text_of(client.call(big)), big_text);  // cache hit
  EXPECT_EQ(text_of(client.call(small)), small_text);
  ASSERT_TRUE(client.binding().v3_active());
  EXPECT_EQ(client.binding().negotiated_transforms(), transforms::kAll);

  EXPECT_EQ(handled.load(), 2);
  EXPECT_EQ(registry.counter("event.respcache.hits").value(), 1u);
  EXPECT_GT(registry.counter("event.dict.bytes_saved").value(), 0u);
  EXPECT_GE(registry.counter("event.compress.chunks").value(), 3u);
  EXPECT_EQ(server->exchanges(), 3u);
  EXPECT_EQ(server->faults(), 0u);
}

TEST_P(EventServerDispatch, ExpiredDeadlineIsDroppedBeforeTheHandler) {
  obs::Registry registry;
  std::atomic<int> handled{0};
  ServerConfig cfg;
  cfg.registry = &registry;
  cfg.handler = [&handled](SoapEnvelope env) {
    ++handled;
    return services::verification_handler(std::move(env));
  };
  auto server = make_dispatch(GetParam(), std::move(cfg));

  TcpStream conn = TcpStream::connect(server->port());
  conn.write_all(frames_of({encode_request_with_budget(7, "0"),
                            encode_request_with_budget(8, "60000")}));
  const SoapEnvelope dropped(
      BxsaEncoding{}.deserialize(read_frame(conn).payload));
  ASSERT_TRUE(dropped.is_fault());
  EXPECT_EQ(dropped.fault().reason, kDeadlineExpiredReason);
  EXPECT_EQ(decode_response(read_frame(conn)).count, 8u);
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(registry.counter("event.expired.dropped").value(), 1u);
}

TEST_P(EventServerDispatch, GracefulStopDrainsAPipelinedBurst) {
  Gate gate;
  gate.gated_count = 20;
  ServerConfig cfg;
  cfg.handler = gate.handler();
  cfg.drain_timeout = std::chrono::seconds(5);
  auto server = make_dispatch(GetParam(), std::move(cfg));

  TcpStream conn = TcpStream::connect(server->port());
  conn.write_all(frames_of(
      {encode_request(20), encode_request(21), encode_request(22)}));
  // Stop lands while the first request is inside its handler and the
  // other two are already read (behind it inline, queued with workers).
  ASSERT_TRUE(wait_until([&] { return gate.entered.load() == 1; }));
  std::thread stopper([&] { server->stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.open.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decode_response(read_frame(conn)).count, 20 + i);
  }
  stopper.join();
  EXPECT_EQ(server->exchanges(), 3u);
  EXPECT_EQ(server->active_connections(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, EventServerDispatch,
                         ::testing::Values(Dispatch::kInline,
                                           Dispatch::kWorkers),
                         [](const auto& info) {
                           return info.param == Dispatch::kInline
                                      ? "Inline"
                                      : "Workers";
                         });

// With no worker pool the reactors are the only serving threads.
TEST(EventServerInline, ServingThreadsAreTheReactors) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.reactor_threads = 3;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
  const auto* event = dynamic_cast<const SoapEventServer*>(server.get());
  ASSERT_NE(event, nullptr);
  EXPECT_EQ(event->reactor_count(), 3u);
  EXPECT_EQ(server->serving_threads(), event->reactor_count());
}

// Inline, max_queue_depth bounds the exchanges in progress across the
// reactors: with one reactor busy in a handler and a bound of 1, a request
// read by the OTHER reactor is shed — and nothing is parked.
TEST(EventServerInline, ShedsPastMaxQueueDepthWithoutParking) {
  Gate gate;
  gate.gated_count = 10;
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = gate.handler();
  cfg.registry = &registry;
  cfg.reactor_threads = 2;
  cfg.max_queue_depth = 1;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  // Round-robin deal: `busy` lands on reactor 0, `other` on reactor 1. A
  // first exchange on each proves both were adopted before reactor 0 (the
  // accepting one) blocks in the gate.
  TcpStream busy = TcpStream::connect(server->port());
  TcpStream other = TcpStream::connect(server->port());
  write_frame(busy, encode_request(1));
  EXPECT_EQ(decode_response(read_frame(busy)).count, 1u);
  write_frame(other, encode_request(2));
  EXPECT_EQ(decode_response(read_frame(other)).count, 2u);

  write_frame(busy, encode_request(10));
  ASSERT_TRUE(wait_until([&] { return gate.entered.load() == 1; }));
  // The exchange in the handler counts as resident.
  EXPECT_EQ(registry.gauge("event.reactor.queue.depth").value(), 1);

  write_frame(other, encode_request(11));
  const SoapEnvelope shed(BxsaEncoding{}.deserialize(read_frame(other).payload));
  ASSERT_TRUE(shed.is_fault());
  EXPECT_TRUE(is_overloaded(shed.fault()));
  EXPECT_EQ(registry.counter("event.shed").value(), 1u);

  gate.open.store(true, std::memory_order_release);
  EXPECT_EQ(decode_response(read_frame(busy)).count, 10u);
  write_frame(other, encode_request(12));
  EXPECT_EQ(decode_response(read_frame(other)).count, 12u);

  EXPECT_EQ(registry.waterline("event.queue.waterline").peak(), 1u);
  EXPECT_EQ(registry.counter("event.overload.parks").value(), 0u);
  EXPECT_EQ(registry.gauge("event.reactor.queue.depth").value(), 0);
}

// The event.stage.* histograms stay disjoint inline: frame reading stops
// at the assembled request, so a 20 ms handler run on the reactor is
// billed to the handler stage only.
TEST(EventServerInline, FrameReadStageExcludesTheInlineExchange) {
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [](SoapEnvelope env) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return services::verification_handler(std::move(env));
  };
  cfg.registry = &registry;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  SoapEngine<BxsaEncoding, TcpClientBinding> client(
      BxsaEncoding{}, TcpClientBinding(server->port()));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(services::parse_verify_response(
                    client.call(services::make_data_request(
                        workload::make_lead_dataset(5 + i))))
                    .ok);
  }
  const auto& frame_read = registry.histogram("event.stage.frame_read.ns");
  const auto& handler = registry.histogram("event.stage.handler.ns");
  EXPECT_GT(frame_read.count(), 0u);
  EXPECT_GE(handler.sum(), 3u * 20'000'000u);
  EXPECT_LT(frame_read.sum() * 20, handler.sum());
}

// The reason the worker pool stays: a handler that blocks on connection A
// ties up a worker, not the reactor, so connection B on the SAME reactor is
// still read and answered.
TEST(EventServerWorkers, BlockingHandlerDoesNotStallOtherConnections) {
  Gate gate;
  gate.gated_count = 30;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = gate.handler();
  cfg.reactor_threads = 1;
  cfg.worker_threads = 2;
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));

  TcpStream a = TcpStream::connect(server->port());
  TcpStream b = TcpStream::connect(server->port());
  write_frame(a, encode_request(30));
  ASSERT_TRUE(wait_until([&] { return gate.entered.load() == 1; }));
  for (std::size_t i = 0; i < 3; ++i) {
    write_frame(b, encode_request(31 + i));
    EXPECT_EQ(decode_response(read_frame(b)).count, 31 + i);
  }
  gate.open.store(true, std::memory_order_release);
  EXPECT_EQ(decode_response(read_frame(a)).count, 30u);
}

}  // namespace
}  // namespace bxsoap::transport
