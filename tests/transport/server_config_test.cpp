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

TEST(ServerConfig, ValidConfigPassesBothModels) {
  EXPECT_EQ(valid_config().validate(ConcurrencyModel::kThreadPerConnection),
            "");
  EXPECT_EQ(valid_config().validate(ConcurrencyModel::kEventLoop), "");
}

TEST(ServerConfig, MissingEncodingIsRejected) {
  ServerConfig cfg = valid_config();
  cfg.encoding = nullptr;
  const std::string errors = cfg.validate(ConcurrencyModel::kEventLoop);
  EXPECT_NE(errors.find("encoding"), std::string::npos) << errors;
}

TEST(ServerConfig, MissingHandlersAreRejected) {
  ServerConfig cfg = valid_config();
  cfg.handler = nullptr;
  EXPECT_NE(cfg.validate(ConcurrencyModel::kEventLoop).find("handler"),
            std::string::npos);
  // Either handler alone is enough.
  cfg.stream_handler = [](StreamRequest&, ResponseWriter&) {};
  EXPECT_EQ(cfg.validate(ConcurrencyModel::kEventLoop), "");
}

TEST(ServerConfig, ReactorKnobsRejectedOnThreadPerConnection) {
  ServerConfig cfg = valid_config();
  cfg.reactor_threads = 4;
  const std::string errors =
      cfg.validate(ConcurrencyModel::kThreadPerConnection);
  EXPECT_NE(errors.find("reactor_threads"), std::string::npos) << errors;
  // The same knob is fine on the model it belongs to.
  EXPECT_EQ(cfg.validate(ConcurrencyModel::kEventLoop), "");

  ServerConfig workers = valid_config();
  workers.worker_threads = 4;
  EXPECT_NE(workers.validate(ConcurrencyModel::kThreadPerConnection)
                .find("worker_threads"),
            std::string::npos);

  ServerConfig rp = valid_config();
  rp.reuse_port = true;
  EXPECT_NE(
      rp.validate(ConcurrencyModel::kThreadPerConnection).find("reuse_port"),
      std::string::npos);
  EXPECT_EQ(rp.validate(ConcurrencyModel::kEventLoop), "");
}

// Inline dispatch (worker_threads = 0) serves one request per connection
// at a time, so a per-connection in-flight cap has nothing to bound — the
// same reason the thread-per-connection check gives.
TEST(ServerConfig, InflightCapRequiresWorkersOnEventLoop) {
  ServerConfig cfg = valid_config();
  cfg.max_inflight_per_conn = 4;
  const std::string errors = cfg.validate(ConcurrencyModel::kEventLoop);
  EXPECT_NE(errors.find("max_inflight_per_conn"), std::string::npos)
      << errors;
  EXPECT_NE(errors.find("worker_threads"), std::string::npos) << errors;
  // With a worker pool the cap bounds real pipelined concurrency.
  cfg.worker_threads = 2;
  EXPECT_EQ(cfg.validate(ConcurrencyModel::kEventLoop), "");
}

TEST(ServerConfig, StreamChunkLargerThanFrameLimitIsRejected) {
  ServerConfig cfg = valid_config();
  cfg.stream_chunk_bytes = cfg.frame_limits.max_chunk_bytes + 1;
  const std::string errors = cfg.validate(ConcurrencyModel::kEventLoop);
  EXPECT_NE(errors.find("stream_chunk_bytes"), std::string::npos) << errors;
  EXPECT_NE(errors.find("max_chunk_bytes"), std::string::npos) << errors;
}

TEST(ServerConfig, ZeroCapacityPoolIsRejectedWithGuidance) {
  ServerConfig cfg = valid_config();
  cfg.buffer_pool.max_buffers_per_class = 0;
  const std::string errors = cfg.validate(ConcurrencyModel::kEventLoop);
  EXPECT_NE(errors.find("max_buffers_per_class"), std::string::npos)
      << errors;
  // The error must point at the right knob for "disable caching".
  EXPECT_NE(errors.find("thread_cache_buffers_per_class"), std::string::npos)
      << errors;
}

TEST(ServerConfig, MultipleErrorsAreAllReported) {
  ServerConfig cfg;  // no encoding, no handler
  cfg.backlog = 0;
  const std::string errors = cfg.validate(ConcurrencyModel::kEventLoop);
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

TEST(ServerConfig, EmptyPrefixDefaultsPerModel) {
  obs::Registry registry;
  {
    ServerConfig cfg = valid_config();
    cfg.registry = &registry;
    auto pool = SoapServer::create(ConcurrencyModel::kThreadPerConnection,
                                   std::move(cfg));
    auto event =
        [&] {
          ServerConfig e = valid_config();
          e.registry = &registry;
          e.reactor_threads = 1;
          e.worker_threads = 1;
          return SoapServer::create(ConcurrencyModel::kEventLoop,
                                    std::move(e));
        }();
    // Each model registered under its own canonical namespace, so the two
    // servers' metrics cannot collide.
    EXPECT_EQ(registry.gauge("pool.connections.active").value(), 0);
    EXPECT_EQ(registry.gauge("event.connections.active").value(), 0);
    EXPECT_GE(registry.histogram("event.reactor.0.loop.ns").count(), 0u);
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
