// The three benchmark workloads, driven through the public API only:
// SoapServer::create(kEventLoop, ...), SoapEngine<..., TcpClientBinding>,
// services::verification_handler and the workload::make_lead_dataset
// generators. Every input comes from the run's seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "trace.hpp"
#include "transport/server.hpp"
#include "xdm/node.hpp"

namespace perfbench {

/// What a workload is; perfbench/workloads.json documents the same fields
/// and the self-test checks the two agree.
struct WorkloadInfo {
  std::string name;
  std::string framing;
  std::size_t clients = 1;
  /// Native dataset bytes one exchange delivers (markup and framing
  /// excluded).
  std::size_t native_bytes_per_op = 0;
  /// Exchanges in the warm-up (about one second at the reference rate).
  std::uint64_t warmup_exchanges = 0;
  /// Exchanges over which peak_rss_mib is sampled (about 10 s at the
  /// reference rate).
  std::uint64_t rss_exchanges = 0;
};

/// One exchange as the client saw it.
struct Sample {
  std::int64_t latency_ns = 0;
};

/// Server-side behaviour the bench defines: handler spans in the traced
/// run, and the deliberately corrupted response the self-test injects.
struct ServerHooks {
  SharedSpanLog* spans = nullptr;
  /// 1-based index of the served exchange whose response is corrupted;
  /// 0 = never.
  std::uint64_t corrupt_exchange = 0;
};

class Client {
 public:
  virtual ~Client() = default;
  /// Runs the client's exchange number `i` (0-based) and checks the reply.
  /// Returns false on a wrong reply; throws on a transport failure.
  virtual bool exchange(std::uint64_t i, Sample& out) = 0;
  /// Drops the connection after a failure; the next exchange redials.
  virtual void reset() = 0;
  /// This client's socket tallies (bytes and syscalls, both directions).
  virtual const bxsoap::obs::IoStats& io() const = 0;
  /// Span state in the traced run; null otherwise.
  virtual ClientTrace* trace() = 0;
};

/// The exact inputs a workload sends, for the bench's own timings of the
/// layers' public functions.
struct LayerInputs {
  enum class Framing { kV1, kV3Dict };
  Framing framing = Framing::kV1;
  std::string content_type;
  /// Plain BXSA request payloads in send order (one channel's stream).
  std::vector<std::vector<std::uint8_t>> bxsa_messages;
  /// The first request as a tree (what the codecs encode and decode).
  const bxsoap::xdm::Document* document = nullptr;
  std::size_t native_bytes = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const WorkloadInfo& info() const = 0;
  /// Builds this run's inputs from `seed`.
  virtual void generate(std::uint64_t seed) = 0;
  /// Starts the event-loop server with ServerConfig defaults except the
  /// fields this workload needs. `registry` is null in the untimed run.
  virtual std::unique_ptr<bxsoap::transport::SoapServer> start_server(
      bxsoap::obs::Registry* registry, ServerHooks& hooks) = 0;
  /// A client of the server on `port`. `registry` is set in the traced
  /// run only: the client then records spans and its channel counters.
  virtual std::unique_ptr<Client> connect(
      std::uint16_t port, std::size_t index,
      bxsoap::obs::Registry* registry) = 0;
  /// The current inputs for the layer timings (valid until the next
  /// generate()).
  virtual LayerInputs layer_inputs() = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::size_t nproc);

}  // namespace perfbench
