#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <type_traits>

#include "common/prng.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "soap/security.hpp"
#include "transport/bindings.hpp"
#include "workload/lead.hpp"

namespace perfbench {

namespace {

using namespace bxsoap;
using soap::SoapEnvelope;
using transport::ServerConfig;
using transport::SoapServer;
using transport::TcpClientBinding;

constexpr std::size_t kRpcLeads = 8;
constexpr std::size_t kBulkLeads = 349'440;
constexpr std::size_t kXmlLeads = 21'840;
/// How many of rpc_small's requests the layer timings replay.
constexpr std::size_t kRpcLayerMessages = 256;

/// Seed of one generated dataset: distinct per (run seed, client, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  SplitMix64 g(seed ^ (a * 0x9E3779B97F4A7C15ULL) ^
               (b * 0xC2B2AE3D27D4EB4FULL));
  return g.next();
}

services::VerificationOutcome expected_outcome(
    const workload::LeadDataset& d) {
  return {true, d.model_size(), workload::dataset_checksum(d)};
}

/// A request ready to send and the verifyResult it must produce.
struct Prepared {
  SoapEnvelope request;
  services::VerificationOutcome expected;
};

using RequestMaker = std::function<Prepared(std::uint64_t)>;

template <class Obs>
Obs make_observer(ClientTrace* trace) {
  if constexpr (std::is_same_v<Obs, SpanObserver>) {
    return SpanObserver(trace);
  } else {
    (void)trace;
    return Obs{};
  }
}

/// The unified-scheme client: one materialized call per exchange, reply
/// checked against the request's own checksum.
template <class Enc, class Obs>
class UnaryClient final : public Client {
 public:
  UnaryClient(TcpClientBinding binding, std::unique_ptr<ClientTrace> trace,
              RequestMaker make)
      : trace_(std::move(trace)),
        make_(std::move(make)),
        engine_(Enc{}, std::move(binding), soap::NoSecurity{},
                make_observer<Obs>(trace_.get())) {
    engine_.binding().set_io_stats(&io_);
  }

  bool exchange(std::uint64_t i, Sample& out) override {
    Prepared p = make_(i);
    if (trace_ != nullptr) {
      trace_->request = i + 1;
      trace_->root = new_span_id();
    }
    const std::int64_t t0 = now_ns();
    const SoapEnvelope response = engine_.call(std::move(p.request));
    const std::int64_t t1 = now_ns();
    if (trace_ != nullptr) {
      trace_->log.add(
          Span{"soap.client.call", t0, t1, trace_->root, 0, trace_->request});
    }
    out.latency_ns = t1 - t0;
    if (response.is_fault()) return false;
    return services::parse_verify_response(response) == p.expected;
  }

  void reset() override { engine_.binding().reset(); }
  const obs::IoStats& io() const override { return io_; }
  ClientTrace* trace() override { return trace_.get(); }

 private:
  obs::IoStats io_;
  std::unique_ptr<ClientTrace> trace_;
  RequestMaker make_;
  soap::SoapEngine<Enc, TcpClientBinding, soap::NoSecurity, Obs> engine_;
};

template <class Enc>
std::unique_ptr<Client> make_unary_client(TcpClientBinding binding,
                                          std::size_t index, bool traced,
                                          RequestMaker make) {
  if (!traced) {
    return std::make_unique<UnaryClient<Enc, soap::NullObserver>>(
        std::move(binding), nullptr, std::move(make));
  }
  return std::make_unique<UnaryClient<Enc, SpanObserver>>(
      std::move(binding),
      std::make_unique<ClientTrace>("client." + std::to_string(index)),
      std::move(make));
}

/// The unified-scheme server handler: services::verification_handler,
/// plus the bench's span and the self-test's corrupted reply.
ServerConfig::Handler verification_handler(ServerHooks& hooks) {
  auto served = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [&hooks, served](SoapEnvelope request) {
    const std::int64_t t0 = hooks.spans != nullptr ? now_ns() : 0;
    SoapEnvelope response = services::verification_handler(std::move(request));
    const std::uint64_t n = served->fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == hooks.corrupt_exchange) {
      services::VerificationOutcome o =
          services::parse_verify_response(response);
      o.checksum ^= 1;
      response = services::make_verify_response(o);
    }
    if (hooks.spans != nullptr) {
      hooks.spans->add(Span{"server.handler", t0, now_ns(), new_span_id(), 0, n});
    }
    return response;
  };
}

std::unique_ptr<SoapServer> start_event_server(ServerConfig cfg,
                                               obs::Registry* registry) {
  cfg.registry = registry;
  return SoapServer::create(transport::ConcurrencyModel::kEventLoop,
                            std::move(cfg));
}

// ---- rpc_small ------------------------------------------------------------

class RpcSmall final : public Workload {
 public:
  explicit RpcSmall(std::size_t nproc) {
    info_.name = "rpc_small";
    info_.framing = "BXTP v3, symbol dictionary negotiated";
    info_.clients = std::max<std::size_t>(1, nproc / 2);
    info_.native_bytes_per_op =
        workload::make_lead_dataset(kRpcLeads).native_bytes();
    info_.warmup_exchanges = 25'000;
    info_.rss_exchanges = 250'000;
  }
  const WorkloadInfo& info() const override { return info_; }

  void generate(std::uint64_t seed) override {
    seed_ = seed;
    first_ = services::make_data_request(dataset(0, 0));
  }

  std::unique_ptr<SoapServer> start_server(obs::Registry* registry,
                                           ServerHooks& hooks) override {
    ServerConfig cfg;
    cfg.encoding = soap::AnyEncoding::from(soap::BxsaEncoding{});
    cfg.handler = verification_handler(hooks);
    return start_event_server(std::move(cfg), registry);
  }

  std::unique_ptr<Client> connect(std::uint16_t port, std::size_t index,
                                  obs::Registry* registry) override {
    TcpClientBinding binding(port);
    binding.enable_v3();
    if (registry != nullptr) {
      binding.set_dict_stats({&registry->counter("client.dict.entries"),
                              &registry->counter("client.dict.bytes_saved"),
                              &registry->counter("client.dict.resets")});
    }
    return make_unary_client<soap::BxsaEncoding>(
        std::move(binding), index, registry != nullptr,
        [this, index](std::uint64_t i) {
          const workload::LeadDataset d = dataset(index, i);
          return Prepared{services::make_data_request(d), expected_outcome(d)};
        });
  }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.framing = LayerInputs::Framing::kV3Dict;
    in.content_type = std::string(soap::BxsaEncoding::content_type());
    for (std::uint64_t i = 0; i < kRpcLayerMessages; ++i) {
      in.bxsa_messages.push_back(soap::BxsaEncoding{}.serialize(
          services::make_data_request(dataset(0, i)).document()));
    }
    in.document = &first_.document();
    in.native_bytes = info_.native_bytes_per_op;
    return in;
  }

 private:
  workload::LeadDataset dataset(std::uint64_t client, std::uint64_t i) const {
    return workload::make_lead_dataset(kRpcLeads,
                                       derive_seed(seed_, client, i));
  }

  WorkloadInfo info_;
  std::uint64_t seed_ = 0;
  SoapEnvelope first_;
};

// ---- bulk_upload / xml_upload ---------------------------------------------

/// One client uploading the same seeded LEAD dataset on every call over
/// plain v1 framing; Enc is the encoding on both ends.
template <class Enc>
class Upload final : public Workload {
 public:
  Upload(std::string name, std::size_t leads, std::uint64_t warmup_exchanges)
      : leads_(leads) {
    info_.name = std::move(name);
    info_.framing = std::is_same_v<Enc, soap::XmlEncoding>
                        ? "BXTP v1, XML 1.0 payload"
                        : "BXTP v1, BXSA payload";
    info_.native_bytes_per_op = leads * 12;
    info_.warmup_exchanges = warmup_exchanges;
    info_.rss_exchanges = 10 * warmup_exchanges;
  }
  const WorkloadInfo& info() const override { return info_; }

  void generate(std::uint64_t seed) override {
    dataset_ = workload::make_lead_dataset(leads_, derive_seed(seed, 0, 0));
    expected_ = expected_outcome(dataset_);
    request_ = services::make_data_request(dataset_);
  }

  std::unique_ptr<SoapServer> start_server(obs::Registry* registry,
                                           ServerHooks& hooks) override {
    ServerConfig cfg;
    cfg.encoding = soap::AnyEncoding::from(Enc{});
    cfg.handler = verification_handler(hooks);
    return start_event_server(std::move(cfg), registry);
  }

  std::unique_ptr<Client> connect(std::uint16_t port, std::size_t index,
                                  obs::Registry* registry) override {
    return make_unary_client<Enc>(
        TcpClientBinding(port), index, registry != nullptr,
        [this](std::uint64_t) {
          return Prepared{services::make_data_request(dataset_), expected_};
        });
  }

  LayerInputs layer_inputs() override {
    LayerInputs in;
    in.framing = LayerInputs::Framing::kV1;
    in.content_type = std::string(Enc::content_type());
    in.bxsa_messages.push_back(
        soap::BxsaEncoding{}.serialize(request_.document()));
    in.document = &request_.document();
    in.native_bytes = info_.native_bytes_per_op;
    return in;
  }

 private:
  std::size_t leads_;
  WorkloadInfo info_;
  workload::LeadDataset dataset_;
  services::VerificationOutcome expected_;
  SoapEnvelope request_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::size_t nproc) {
  if (name == "rpc_small") return std::make_unique<RpcSmall>(nproc);
  if (name == "bulk_upload") {
    return std::make_unique<Upload<soap::BxsaEncoding>>(name, kBulkLeads, 200);
  }
  if (name == "xml_upload") {
    return std::make_unique<Upload<soap::XmlEncoding>>(name, kXmlLeads, 35);
  }
  return nullptr;
}

}  // namespace perfbench
