// Ablation: what does the paper's compile-time policy binding buy?
//
// "Because the binding is at compile time, compiler optimizations are not
// impacted, and inlining is still enabled." We compare SoapEngine<...>
// (static policies) against AnySoapEngine (heap-allocated policy models,
// one virtual call per operation) on identical traffic over the in-memory
// binding, where transport cost is near zero and dispatch overhead shows.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>

#include "bench/harness.hpp"
#include "common/buffer_pool.hpp"
#include "obs/observer.hpp"
#include "soap/any_engine.hpp"
#include "soap/engine.hpp"
#include "transport/bindings.hpp"
#include "transport/inmemory.hpp"

using namespace bxsoap;
using namespace bxsoap::soap;
using transport::InMemoryBinding;

namespace {

SoapEnvelope tiny_request() {
  auto payload = xdm::make_element(xdm::QName("urn:b", "Ping", "b"));
  payload->add_child(
      xdm::make_leaf<std::int32_t>(xdm::QName("urn:b", "seq", "b"), 1));
  return SoapEnvelope::wrap(std::move(payload));
}

SoapEnvelope echo(SoapEnvelope req) { return req; }

// The zero-copy hot path's target traffic: one packed array of 128 Ki
// doubles (1 MiB on the wire).
constexpr std::size_t kLargeCount = 128 * 1024;

SoapEnvelope large_request() {
  std::vector<double> values(kLargeCount);
  for (std::size_t i = 0; i < kLargeCount; ++i) {
    values[i] = static_cast<double>(i) * 0.5;
  }
  auto payload = xdm::make_element(xdm::QName("urn:b", "Grid", "b"));
  payload->add_child(xdm::make_array<double>(
      xdm::QName("urn:b", "values", "b"), std::move(values)));
  return SoapEnvelope::wrap(std::move(payload));
}

/// BxsaEncoding with the historical copy-per-call semantics: serialize into
/// a fresh vector then append, deserialize without keeping array views.
/// The "before" leg of the zero-copy ablation below.
class CopyingBxsaEncoding {
 public:
  static constexpr std::string_view content_type() {
    return BxsaEncoding::content_type();
  }
  void serialize_into(const xdm::Document& d, ByteWriter& out) const {
    const std::vector<std::uint8_t> bytes = enc_.serialize(d);
    out.write_bytes(bytes.data(), bytes.size());
  }
  xdm::DocumentPtr deserialize_shared(const SharedBuffer& wire) const {
    return enc_.deserialize(wire.bytes());
  }

 private:
  BxsaEncoding enc_;
};
static_assert(Encoding<CopyingBxsaEncoding>);

// ---- zero-copy ablation: large-array echo over real TCP --------------------
//
// Same traffic, same sockets; the only variable is whether the encoding
// exposes the zero-copy extensions (pooled append-serialize + shared-buffer
// deserialize with array views) or forces the engines onto the copy path.
template <typename Encoding>
void large_array_tcp_round_trip(benchmark::State& state) {
  transport::TcpServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<Encoding, transport::TcpServerBinding> server(
      {}, std::move(server_binding));
  std::atomic<bool> stop{false};
  std::thread service([&] {
    try {
      while (!stop.load()) server.serve_once(echo);
    } catch (const TransportError&) {
    }
  });

  SoapEngine<Encoding, transport::TcpClientBinding> client(
      {}, transport::TcpClientBinding(port));
  const SoapEnvelope req = large_request();
  for (auto _ : state) {
    SoapEnvelope resp = client.call(req);
    benchmark::DoNotOptimize(resp.body_payload());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(kLargeCount * 8));
  stop.store(true);
  server.binding().shutdown();  // make the re-accept after close() throw
  client.binding().close();
  service.join();
}

void BM_LargeArrayTcpZeroCopy(benchmark::State& state) {
  large_array_tcp_round_trip<BxsaEncoding>(state);
}
BENCHMARK(BM_LargeArrayTcpZeroCopy)->Unit(benchmark::kMicrosecond);

void BM_LargeArrayTcpCopying(benchmark::State& state) {
  large_array_tcp_round_trip<CopyingBxsaEncoding>(state);
}
BENCHMARK(BM_LargeArrayTcpCopying)->Unit(benchmark::kMicrosecond);

void BM_StaticEngineRoundTrip(benchmark::State& state) {
  auto [client_end, server_end] = InMemoryBinding::make_pair();
  SoapEngine<BxsaEncoding, InMemoryBinding> client({}, std::move(client_end));
  SoapEngine<BxsaEncoding, InMemoryBinding> server({}, std::move(server_end));

  std::atomic<bool> stop{false};
  std::thread service([&] {
    try {
      while (!stop.load()) server.serve_once(echo);
    } catch (const TransportError&) {
    }
  });

  const SoapEnvelope req = tiny_request();
  for (auto _ : state) {
    SoapEnvelope resp = client.call(req);
    benchmark::DoNotOptimize(resp.body_payload());
  }
  stop.store(true);
  client.binding().close();  // unblock the server
  service.join();
}
BENCHMARK(BM_StaticEngineRoundTrip);

// Same round trip through the MessageSecurity hook with a real policy on
// both ends (sign + verify per direction). Against BM_StaticEngineRoundTrip
// this prices the hook: the NoSecurity default above must cost nothing —
// the concept's apply/verify are empty inlines and its stream offer is
// checked once at construction — while this leg pays four HMAC passes
// over the tiny envelope.
void BM_SignedEngineRoundTrip(benchmark::State& state) {
  auto [client_end, server_end] = InMemoryBinding::make_pair();
  SoapEngine<BxsaEncoding, InMemoryBinding, BodyDigestSignature> client(
      {}, std::move(client_end), BodyDigestSignature("ablation-key"));
  SoapEngine<BxsaEncoding, InMemoryBinding, BodyDigestSignature> server(
      {}, std::move(server_end), BodyDigestSignature("ablation-key"));

  std::atomic<bool> stop{false};
  std::thread service([&] {
    try {
      while (!stop.load()) server.serve_once(echo);
    } catch (const TransportError&) {
    }
  });

  const SoapEnvelope req = tiny_request();
  for (auto _ : state) {
    SoapEnvelope resp = client.call(req);
    benchmark::DoNotOptimize(resp.body_payload());
  }
  stop.store(true);
  client.binding().close();  // unblock the server
  service.join();
}
BENCHMARK(BM_SignedEngineRoundTrip);

// Same round trip with the MetricsObserver policy: the cost of full
// per-stage instrumentation relative to the NullObserver default above.
void BM_ObservedEngineRoundTrip(benchmark::State& state) {
  obs::Registry registry;
  auto [client_end, server_end] = InMemoryBinding::make_pair();
  SoapEngine<BxsaEncoding, InMemoryBinding, NoSecurity, obs::MetricsObserver>
      client({}, std::move(client_end), {},
             obs::MetricsObserver(registry, "client"));
  SoapEngine<BxsaEncoding, InMemoryBinding> server({}, std::move(server_end));

  std::atomic<bool> stop{false};
  std::thread service([&] {
    try {
      while (!stop.load()) server.serve_once(echo);
    } catch (const TransportError&) {
    }
  });

  const SoapEnvelope req = tiny_request();
  for (auto _ : state) {
    SoapEnvelope resp = client.call(req);
    benchmark::DoNotOptimize(resp.body_payload());
  }
  stop.store(true);
  client.binding().close();  // unblock the server
  service.join();
}
BENCHMARK(BM_ObservedEngineRoundTrip);

void BM_VirtualEngineRoundTrip(benchmark::State& state) {
  auto [client_end, server_end] = InMemoryBinding::make_pair();
  auto client_close = client_end;  // shares the channel, used to close it
  AnySoapEngine client(AnyEncoding::from(BxsaEncoding{}),
                       AnyBinding::from(std::move(client_end)));
  AnySoapEngine server(AnyEncoding::from(BxsaEncoding{}),
                       AnyBinding::from(std::move(server_end)));

  std::atomic<bool> stop{false};
  std::thread service([&] {
    try {
      while (!stop.load()) {
        SoapEnvelope req = server.receive_request();
        server.send_response(std::move(req));
      }
    } catch (const TransportError&) {
    }
  });

  const SoapEnvelope req = tiny_request();
  for (auto _ : state) {
    SoapEnvelope resp = client.call(req);
    benchmark::DoNotOptimize(resp.body_payload());
  }
  stop.store(true);
  client_close.close();
  service.join();
}
BENCHMARK(BM_VirtualEngineRoundTrip);

// Encoding-only comparison (no channel at all): the policy call itself.
void BM_StaticEncodePolicy(benchmark::State& state) {
  const SoapEnvelope env = tiny_request();
  BxsaEncoding enc;
  for (auto _ : state) {
    ByteWriter w;
    enc.serialize_into(env.document(), w);
    auto bytes = w.take();
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_StaticEncodePolicy);

void BM_VirtualEncodePolicy(benchmark::State& state) {
  const SoapEnvelope env = tiny_request();
  auto enc = AnyEncoding::from(BxsaEncoding{});
  for (auto _ : state) {
    ByteWriter w;
    enc->serialize_into(env.document(), w);
    auto bytes = w.take();
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_VirtualEncodePolicy);

// ---- per-stage breakdown dump ----------------------------------------------
//
// After the ablation numbers, run every Encoding x Binding stack of the
// paper over real sockets with MetricsObserver on both ends and persist
// the registry snapshot as BENCH_ablation_engine.json. This is the
// machine-readable companion to the stdout table: per-stage latency
// histograms (serialize/send/receive/deserialize/handler/security),
// payload byte counters and exchange counts for each stack.
template <typename Encoding, typename ClientBinding, typename ServerBinding>
void run_observed_stack(obs::Registry& registry, const std::string& prefix,
                        SoapEnvelope (*make_request)() = tiny_request,
                        int calls = 50) {
  ServerBinding server_binding;
  const std::uint16_t port = server_binding.port();
  SoapEngine<Encoding, ServerBinding, NoSecurity, obs::MetricsObserver>
      server({}, std::move(server_binding), {},
             obs::MetricsObserver(registry, prefix + ".server"));
  std::thread service([&server, calls] {
    for (int i = 0; i < calls; ++i) server.serve_once(echo);
  });
  SoapEngine<Encoding, ClientBinding, NoSecurity, obs::MetricsObserver>
      client({}, ClientBinding(port), {},
             obs::MetricsObserver(registry, prefix + ".client"));
  const SoapEnvelope req = make_request();
  for (int i = 0; i < calls; ++i) {
    SoapEnvelope resp = client.call(req);
    benchmark::DoNotOptimize(resp.body_payload());
  }
  service.join();
}

void dump_stage_breakdown() {
  using transport::HttpClientBinding;
  using transport::HttpServerBinding;
  using transport::TcpClientBinding;
  using transport::TcpServerBinding;

  obs::Registry registry;
  run_observed_stack<BxsaEncoding, TcpClientBinding, TcpServerBinding>(
      registry, "bxsa_tcp");
  run_observed_stack<BxsaEncoding, HttpClientBinding, HttpServerBinding>(
      registry, "bxsa_http");
  run_observed_stack<XmlEncoding, TcpClientBinding, TcpServerBinding>(
      registry, "xml_tcp");
  run_observed_stack<XmlEncoding, HttpClientBinding, HttpServerBinding>(
      registry, "xml_http");

  // Large-array legs with the global buffer pool's counters mirrored into
  // the registry, one counter set per leg: the per-leg pool.hit / pool.miss
  // / pool.recycled_bytes deltas in the snapshot quantify allocations saved
  // per call on the zero-copy path (a miss is the only place the pool
  // mallocs; the copying leg additionally allocates fresh serialize /
  // deserialize buffers the pool never sees).
  BufferPool::global().attach_counters(
      &registry.counter("bxsa_tcp_large_copy.pool.hit"),
      &registry.counter("bxsa_tcp_large_copy.pool.miss"),
      &registry.counter("bxsa_tcp_large_copy.pool.recycled_bytes"));
  run_observed_stack<CopyingBxsaEncoding, TcpClientBinding, TcpServerBinding>(
      registry, "bxsa_tcp_large_copy", large_request, 20);
  BufferPool::global().attach_counters(
      &registry.counter("bxsa_tcp_large_zerocopy.pool.hit"),
      &registry.counter("bxsa_tcp_large_zerocopy.pool.miss"),
      &registry.counter("bxsa_tcp_large_zerocopy.pool.recycled_bytes"));
  run_observed_stack<BxsaEncoding, TcpClientBinding, TcpServerBinding>(
      registry, "bxsa_tcp_large_zerocopy", large_request, 20);
  BufferPool::global().attach_counters(nullptr, nullptr, nullptr);

  const std::string path =
      bench::dump_registry_snapshot(registry, "ablation_engine");
  if (path.empty()) {
    std::fprintf(stderr, "could not write BENCH_ablation_engine.json\n");
  } else {
    std::printf("per-stage breakdown (4 stacks x 50 calls): %s\n",
                path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dump_stage_breakdown();
  return 0;
}
