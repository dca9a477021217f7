// ServerConfig::validate — the up-front contract of the finalized
// SoapServer::create surface: every rejected config names what is wrong
// and what to do about it, and create() refuses to build a server from one.
#include <gtest/gtest.h>

#include "services/verification.hpp"
#include "soap/any_engine.hpp"
#include "transport/server.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

ServerConfig valid_config() {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  return cfg;
}

// Both dispatch modes: inline on the reactors and a worker pool.
TEST(ServerConfig, ValidConfigPassesBothModels) {
  EXPECT_EQ(valid_config().validate(), "");
  ServerConfig workers = valid_config();
  workers.worker_threads = 2;
  EXPECT_EQ(workers.validate(), "");
}

TEST(ServerConfig, MissingEncodingIsRejected) {
  ServerConfig cfg = valid_config();
  cfg.encoding = nullptr;
  const std::string errors = cfg.validate();
  EXPECT_NE(errors.find("encoding"), std::string::npos) << errors;
}

TEST(ServerConfig, MissingHandlersAreRejected) {
  ServerConfig cfg = valid_config();
  cfg.handler = nullptr;
  EXPECT_NE(cfg.validate().find("handler"),
            std::string::npos);
  // Either handler alone is enough.
  cfg.stream_handler = [](const std::string&) {
    return std::unique_ptr<StreamCallbacks>();
  };
  EXPECT_EQ(cfg.validate(), "");
}

// Inline dispatch (worker_threads = 0) serves one request per connection
// at a time, so a per-connection in-flight cap has nothing to bound.
TEST(ServerConfig, InflightCapRequiresWorkersOnEventLoop) {
  ServerConfig cfg = valid_config();
  cfg.max_inflight_per_conn = 4;
  const std::string errors = cfg.validate();
  EXPECT_NE(errors.find("max_inflight_per_conn"), std::string::npos)
      << errors;
  EXPECT_NE(errors.find("worker_threads"), std::string::npos) << errors;
  // With a worker pool the cap bounds real pipelined concurrency.
  cfg.worker_threads = 2;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(ServerConfig, StreamChunkLargerThanFrameLimitIsRejected) {
  ServerConfig cfg = valid_config();
  cfg.stream_chunk_bytes = cfg.frame_limits.max_chunk_bytes + 1;
  const std::string errors = cfg.validate();
  EXPECT_NE(errors.find("stream_chunk_bytes"), std::string::npos) << errors;
  EXPECT_NE(errors.find("max_chunk_bytes"), std::string::npos) << errors;
}

TEST(ServerConfig, ZeroCapacityPoolIsRejectedWithGuidance) {
  ServerConfig cfg = valid_config();
  cfg.buffer_pool.max_buffers_per_class = 0;
  const std::string errors = cfg.validate();
  EXPECT_NE(errors.find("max_buffers_per_class"), std::string::npos)
      << errors;
  // The error must point at the right knob for "disable caching".
  EXPECT_NE(errors.find("thread_cache_buffers_per_class"), std::string::npos)
      << errors;
}

TEST(ServerConfig, MultipleErrorsAreAllReported) {
  ServerConfig cfg;  // no encoding, no handler
  cfg.backlog = 0;
  const std::string errors = cfg.validate();
  EXPECT_NE(errors.find("encoding"), std::string::npos);
  EXPECT_NE(errors.find("handler"), std::string::npos);
  EXPECT_NE(errors.find("backlog"), std::string::npos);
  EXPECT_NE(errors.find("; "), std::string::npos) << errors;
}

TEST(ServerConfig, CreateThrowsOnInvalidConfig) {
  ServerConfig cfg;  // missing everything mandatory
  try {
    SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
    FAIL() << "create() accepted an invalid config";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("invalid ServerConfig"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("encoding"), std::string::npos);
  }
}

// An empty prefix becomes "event" (the namespace benches read), whatever
// the dispatch mode.
TEST(ServerConfig, EmptyPrefixDefaultsPerModel) {
  for (const std::size_t workers : {0u, 1u}) {
    obs::Registry registry;
    ServerConfig cfg = valid_config();
    cfg.registry = &registry;
    cfg.reactor_threads = 1;
    cfg.worker_threads = workers;
    auto server =
        SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
    // Read from the snapshot: a registry lookup would create the name.
    const std::string json = registry.to_json();
    EXPECT_NE(json.find("\"event.connections.active\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"event.reactor.0.loop.ns\""), std::string::npos)
        << json;
  }
}

TEST(ServerConfig, ExplicitPrefixIsKept) {
  obs::Registry registry;
  ServerConfig cfg = valid_config();
  cfg.registry = &registry;
  cfg.metrics_prefix = "custom";
  auto server =
      SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
  EXPECT_EQ(registry.counter("custom.connections.accepted").value(), 0u);
}

}  // namespace
}  // namespace bxsoap::transport
