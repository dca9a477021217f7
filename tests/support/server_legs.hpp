// The SOAP server's two dispatch paths as a test-matrix parameter. Suites
// that check a wire feature run it on both: exchanges handed to a worker
// pool (worker_threads = 2, the mode for blocking handlers) and exchanges
// served inline by the reactor that owns the connection (worker_threads =
// 0, the default).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "transport/server.hpp"

namespace bxsoap::transport {

enum class ServerLeg { kWorkerPool, kInline };

/// The server for `leg`: `cfg` with the leg's worker_threads applied.
inline std::unique_ptr<SoapServer> create_server(ServerLeg leg,
                                                 ServerConfig cfg) {
  cfg.worker_threads = leg == ServerLeg::kWorkerPool ? 2 : 0;
  return SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
}

/// Test-name suffixes: "pool" / "event" ...
inline std::string leg_name(const ::testing::TestParamInfo<ServerLeg>& info) {
  return info.param == ServerLeg::kWorkerPool ? "pool" : "event";
}

/// ... or "Pool" / "EventLoop", the spelling the streaming suites use.
inline std::string leg_title(const ::testing::TestParamInfo<ServerLeg>& info) {
  return info.param == ServerLeg::kWorkerPool ? "Pool" : "EventLoop";
}

}  // namespace bxsoap::transport
