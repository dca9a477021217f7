// End-to-end overload control on the event server (DESIGN.md §12):
// bounded admission (queue bound, per-connection inflight cap), shed
// requests answered in their pipeline slot with the retryable Overloaded
// fault, kernel-window backpressure parks, and deadline-expired drops
// that never reach a handler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>

#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "soap/overload.hpp"
#include "support/server_legs.hpp"
#include "transport/bindings.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;
using std::chrono::milliseconds;

SoapEnvelope data_request(std::size_t n) {
  return services::make_data_request(workload::make_lead_dataset(n));
}

soap::WireMessage to_wire(const SoapEnvelope& env) {
  BxsaEncoding enc;
  soap::WireMessage m;
  m.content_type = std::string(BxsaEncoding::content_type());
  m.payload = enc.serialize(env.document());
  return m;
}

soap::WireMessage encode_request(std::size_t n) {
  return to_wire(data_request(n));
}

soap::WireMessage encode_request_deadline(std::size_t n, milliseconds budget) {
  SoapEnvelope env = data_request(n);
  set_deadline(env, budget);
  return to_wire(env);
}

/// A request whose stamped budget is ALREADY zero — the deterministic
/// expiry case (set_deadline itself floors at 1 ms, so build the block by
/// hand the way a hostile or hopelessly-late client would).
soap::WireMessage encode_request_expired(std::size_t n) {
  SoapEnvelope env = data_request(n);
  auto block = xdm::make_leaf<std::string>(
      xdm::QName(std::string(kOverloadUri), "Deadline", "ctl"), "0");
  block->declare_namespace("ctl", std::string(kOverloadUri));
  env.header().add_child(std::move(block));
  return to_wire(env);
}

SoapEnvelope decode(const soap::WireMessage& m) {
  BxsaEncoding enc;
  return SoapEnvelope(enc.deserialize(m.payload));
}

std::size_t ok_count(const SoapEnvelope& env) {
  const auto outcome = services::parse_verify_response(env);
  EXPECT_TRUE(outcome.ok);
  return outcome.count;
}

/// Gate for handlers: requests entering the handler block until opened,
/// so tests can pin work in flight deterministically.
struct Gate {
  std::atomic<bool> open{false};
  std::atomic<int> entered{0};

  ServerConfig::Handler handler() {
    return [this](SoapEnvelope env) {
      entered.fetch_add(1, std::memory_order_acq_rel);
      while (!open.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(milliseconds(1));
      }
      return services::verification_handler(std::move(env));
    };
  }
};

template <typename Pred>
bool wait_until(Pred pred, milliseconds timeout = milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

// ---- event server ---------------------------------------------------------

TEST(EventOverload, FullQueueShedsOtherConnectionsAndParksTheFiller) {
  Gate gate;
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = gate.handler();
  cfg.registry = &registry;
  cfg.reactor_threads = 1;
  cfg.worker_threads = 1;
  cfg.max_queue_depth = 1;
  cfg.shed_retry_after = milliseconds(25);
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));

  // Request 1 pins the single worker; request 2 fills the depth-1 queue,
  // which parks the filler's read tap.
  TcpStream filler = TcpStream::connect(server->port());
  write_frame(filler, encode_request(10));
  ASSERT_TRUE(wait_until([&] { return gate.entered.load() == 1; }));
  write_frame(filler, encode_request(11));
  ASSERT_TRUE(wait_until([&] {
    return registry.gauge("event.reactor.queue.depth").value() == 1;
  }));
  ASSERT_TRUE(wait_until([&] {
    return registry.counter("event.overload.parks").value() >= 1;
  }));

  // A request from ANOTHER connection now meets a full queue: shed with
  // the retryable fault (carrying the configured Retry-After hint), not
  // dropped, not hung.
  TcpStream other = TcpStream::connect(server->port());
  write_frame(other, encode_request(12));
  const SoapEnvelope shed = decode(read_frame(other));
  ASSERT_TRUE(shed.is_fault());
  EXPECT_TRUE(is_overloaded(shed.fault()));
  const auto hint = retry_after_hint(shed.fault());
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(hint->count(), 25);
  EXPECT_EQ(registry.counter("event.shed").value(), 1u);

  // Open the gate: the admitted requests drain IN ORDER on the filler.
  gate.open.store(true, std::memory_order_release);
  EXPECT_EQ(ok_count(decode(read_frame(filler))), 10u);
  EXPECT_EQ(ok_count(decode(read_frame(filler))), 11u);

  // The acceptance bound: the worker queue never exceeded its depth.
  EXPECT_LE(registry.waterline("event.queue.waterline").peak(), 1u);
  EXPECT_EQ(registry.counter("event.expired.dropped").value(), 0u);

  // Both connections were unparked once the queue drained: still usable.
  write_frame(filler, encode_request(13));
  EXPECT_EQ(ok_count(decode(read_frame(filler))), 13u);
  write_frame(other, encode_request(14));
  EXPECT_EQ(ok_count(decode(read_frame(other))), 14u);
}

// Satellite of the ordering contract: a pipeline that runs into its
// inflight allowance gets Overloaded faults in the shed requests' OWN
// slots, after the earlier in-order responses — never reordered, never a
// cut connection.
TEST(EventOverload, InflightCapShedsMidPipelineInOrder) {
  Gate gate;
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = gate.handler();
  cfg.registry = &registry;
  cfg.reactor_threads = 1;
  cfg.worker_threads = 1;
  cfg.max_inflight_per_conn = 2;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));

  TcpStream conn = TcpStream::connect(server->port());
  for (std::size_t i = 0; i < 4; ++i) {
    write_frame(conn, encode_request(20 + i));
  }
  // With the gate closed nothing completes, so requests 3 and 4 are over
  // the allowance of 2 the moment they are pumped. Their shed faults wait
  // in the completion map until the earlier responses release.
  ASSERT_TRUE(wait_until(
      [&] { return registry.counter("event.shed").value() == 2; }));
  gate.open.store(true, std::memory_order_release);

  EXPECT_EQ(ok_count(decode(read_frame(conn))), 20u);
  EXPECT_EQ(ok_count(decode(read_frame(conn))), 21u);
  for (int i = 0; i < 2; ++i) {
    const SoapEnvelope shed = decode(read_frame(conn));
    ASSERT_TRUE(shed.is_fault()) << "slot " << (2 + i);
    EXPECT_TRUE(is_overloaded(shed.fault()));
  }

  // The connection shed on is still a working connection.
  write_frame(conn, encode_request(24));
  EXPECT_EQ(ok_count(decode(read_frame(conn))), 24u);
  EXPECT_EQ(server->exchanges(), 5u);
  EXPECT_EQ(server->faults(), 2u);
}

TEST(EventOverload, DeadlineExpiredWhileQueuedNeverReachesTheHandler) {
  Gate gate;
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = gate.handler();
  cfg.registry = &registry;
  cfg.reactor_threads = 1;
  cfg.worker_threads = 1;
  auto server = SoapServer::create(ConcurrencyModel::kEventLoop,
                                   std::move(cfg));

  TcpStream conn = TcpStream::connect(server->port());
  write_frame(conn, encode_request(30));  // no deadline: pins the worker
  ASSERT_TRUE(wait_until([&] { return gate.entered.load() == 1; }));
  // 30 ms of budget, spent entirely in the queue behind the gated worker.
  write_frame(conn, encode_request_deadline(31, milliseconds(30)));
  std::this_thread::sleep_for(milliseconds(60));
  gate.open.store(true, std::memory_order_release);

  EXPECT_EQ(ok_count(decode(read_frame(conn))), 30u);
  const SoapEnvelope dropped = decode(read_frame(conn));
  ASSERT_TRUE(dropped.is_fault());
  EXPECT_EQ(dropped.fault().reason, kDeadlineExpiredReason);
  EXPECT_FALSE(is_overloaded(dropped.fault()));  // the budget was OURS
  // The expired request was dropped after decode, BEFORE the handler.
  EXPECT_EQ(gate.entered.load(), 1);
  EXPECT_EQ(registry.counter("event.expired.dropped").value(), 1u);
}

// The zero-budget drop must behave identically on both dispatch legs: decoded,
// counted, answered with DeadlineExpired, handler never entered.
class ExpiredDrop : public ::testing::TestWithParam<ServerLeg> {};

INSTANTIATE_TEST_SUITE_P(Models, ExpiredDrop,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_name);

TEST_P(ExpiredDrop, ZeroBudgetRequestIsDroppedBeforeTheHandler) {
  std::atomic<int> handled{0};
  obs::Registry registry;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [&handled](SoapEnvelope env) {
    handled.fetch_add(1);
    return services::verification_handler(std::move(env));
  };
  cfg.registry = &registry;
  auto server = create_server(GetParam(), std::move(cfg));

  TcpStream conn = TcpStream::connect(server->port());
  write_frame(conn, encode_request_expired(50));
  const SoapEnvelope dropped = decode(read_frame(conn));
  ASSERT_TRUE(dropped.is_fault());
  EXPECT_EQ(dropped.fault().reason, kDeadlineExpiredReason);
  EXPECT_EQ(handled.load(), 0);
  EXPECT_EQ(registry.counter("event.expired.dropped").value(), 1u);

  // The connection survives the drop and the deadline context is cleared:
  // a fresh no-deadline request serves normally.
  write_frame(conn, encode_request(51));
  EXPECT_EQ(ok_count(decode(read_frame(conn))), 51u);
  EXPECT_EQ(handled.load(), 1);
}

// Deadline propagation all the way into the handler: remaining_deadline()
// reports the stamped budget (minus queueing) inside, and nothing outside.
class DeadlineContext : public ::testing::TestWithParam<ServerLeg> {};

INSTANTIATE_TEST_SUITE_P(Models, DeadlineContext,
                         ::testing::Values(ServerLeg::kWorkerPool,
                                           ServerLeg::kInline),
                         leg_name);

TEST_P(DeadlineContext, HandlerSeesTheRemainingBudget) {
  std::mutex mu;
  std::vector<std::optional<milliseconds>> seen;
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = [&](SoapEnvelope env) {
    {
      std::lock_guard lock(mu);
      seen.push_back(remaining_deadline());
    }
    return services::verification_handler(std::move(env));
  };
  auto server = create_server(GetParam(), std::move(cfg));

  TcpStream conn = TcpStream::connect(server->port());
  write_frame(conn, encode_request_deadline(60, milliseconds(400)));
  EXPECT_EQ(ok_count(decode(read_frame(conn))), 60u);
  write_frame(conn, encode_request(61));  // no deadline stamped
  EXPECT_EQ(ok_count(decode(read_frame(conn))), 61u);

  std::lock_guard lock(mu);
  ASSERT_EQ(seen.size(), 2u);
  ASSERT_TRUE(seen[0].has_value());
  EXPECT_GT(seen[0]->count(), 0);
  EXPECT_LE(seen[0]->count(), 400);
  EXPECT_FALSE(seen[1].has_value());
}

TEST(OverloadConfig, ValidationRejectsTheMeaninglessCombinations) {
  ServerConfig bad;
  bad.encoding = AnyEncoding::from(BxsaEncoding{});
  bad.handler = services::verification_handler;
  bad.max_inflight_per_conn = 4;  // inline serves serially: depth is already 1
  EXPECT_THROW(SoapServer::create(ConcurrencyModel::kEventLoop,
                                  std::move(bad)),
               TransportError);

  ServerConfig negative;
  negative.encoding = AnyEncoding::from(BxsaEncoding{});
  negative.handler = services::verification_handler;
  negative.shed_retry_after = milliseconds(-1);
  EXPECT_THROW(SoapServer::create(ConcurrencyModel::kEventLoop,
                                  std::move(negative)),
               TransportError);
}

}  // namespace
}  // namespace bxsoap::transport
