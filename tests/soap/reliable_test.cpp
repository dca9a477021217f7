#include "soap/reliable.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "soap/overload.hpp"

#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "transport/bindings.hpp"
#include "transport/fault.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace bxsoap::soap {
namespace {

SoapEnvelope probe_request() {
  return SoapEnvelope::wrap(xdm::make_element(xdm::QName("probe")));
}

/// Engine stub: fails the first `failures_remaining` calls with a
/// TransportError, then answers the next `overloaded_remaining` with the
/// retryable shed fault, then echoes the request (or a fault /
/// DecodeError, per flags). Optionally burns real time per call and
/// records each request's stamped Deadline header.
struct FlakyEngine {
  int failures_remaining = 0;
  int overloaded_remaining = 0;
  std::chrono::milliseconds shed_retry_after{0};
  bool return_fault = false;
  bool throw_decode = false;
  std::chrono::milliseconds delay_per_call{0};
  int calls = 0;
  std::vector<std::chrono::milliseconds> seen_deadlines;

  SoapEnvelope call(SoapEnvelope request) {
    ++calls;
    if (const auto d = get_deadline(request)) seen_deadlines.push_back(*d);
    if (delay_per_call.count() > 0) {
      std::this_thread::sleep_for(delay_per_call);
    }
    if (failures_remaining > 0) {
      --failures_remaining;
      throw TransportError("synthetic transport failure");
    }
    if (overloaded_remaining > 0) {
      --overloaded_remaining;
      return SoapEnvelope::make_fault(make_overloaded_fault(shed_retry_after));
    }
    if (throw_decode) throw DecodeError("synthetic decode failure");
    if (return_fault) {
      return SoapEnvelope::make_fault({"soap:Server", "declined", ""});
    }
    return request;
  }
};

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.initial_backoff = std::chrono::milliseconds(0);  // tests never sleep
  return p;
}

TEST(ReliableCaller, FirstAttemptSuccessIsPassthrough) {
  FlakyEngine engine;
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, fast_policy(), &registry);
  const SoapEnvelope resp = caller.call(probe_request());
  EXPECT_FALSE(resp.is_fault());
  EXPECT_EQ(engine.calls, 1);
  EXPECT_EQ(registry.counter("client.retry.attempts").value(), 1u);
  EXPECT_EQ(registry.counter("client.retry.retries").value(), 0u);
  EXPECT_EQ(registry.counter("client.retry.successes").value(), 1u);
  EXPECT_EQ(registry.counter("client.retry.giveups").value(), 0u);
}

TEST(ReliableCaller, RetriesTransportFailuresUntilSuccess) {
  FlakyEngine engine;
  engine.failures_remaining = 2;
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, fast_policy(), &registry);
  const SoapEnvelope resp = caller.call(probe_request());
  EXPECT_FALSE(resp.is_fault());
  EXPECT_EQ(engine.calls, 3);
  EXPECT_EQ(registry.counter("client.retry.attempts").value(), 3u);
  EXPECT_EQ(registry.counter("client.retry.retries").value(), 2u);
  EXPECT_EQ(registry.counter("client.retry.successes").value(), 1u);
}

TEST(ReliableCaller, GivesUpAfterMaxAttempts) {
  FlakyEngine engine;
  engine.failures_remaining = 100;
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, fast_policy(), &registry);
  EXPECT_THROW(caller.call(probe_request()), TransportError);
  EXPECT_EQ(engine.calls, 3);
  EXPECT_EQ(registry.counter("client.retry.giveups").value(), 1u);
  EXPECT_EQ(registry.counter("client.retry.successes").value(), 0u);
}

TEST(ReliableCaller, SoapFaultIsAnAnswerNotARetry) {
  FlakyEngine engine;
  engine.return_fault = true;
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, fast_policy(), &registry);
  const SoapEnvelope resp = caller.call(probe_request());
  ASSERT_TRUE(resp.is_fault());
  EXPECT_EQ(resp.fault().code, "soap:Server");
  EXPECT_EQ(engine.calls, 1);  // never retried
  EXPECT_EQ(registry.counter("client.retry.retries").value(), 0u);
}

TEST(ReliableCaller, DecodeErrorPropagatesWithoutRetry) {
  FlakyEngine engine;
  engine.throw_decode = true;
  ReliableCaller<FlakyEngine> caller(engine, fast_policy());
  EXPECT_THROW(caller.call(probe_request()), DecodeError);
  EXPECT_EQ(engine.calls, 1);  // the transport worked; retry can't help
}

TEST(ReliableCaller, BackoffScheduleIsDeterministic) {
  const auto schedule_for = [](std::uint64_t seed) {
    FlakyEngine engine;
    engine.failures_remaining = 100;
    RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff = std::chrono::milliseconds(16);
    policy.backoff_multiplier = 2.0;
    policy.max_backoff = std::chrono::milliseconds(50);
    policy.jitter_seed = seed;
    ReliableCaller<FlakyEngine> caller(engine, policy);
    std::vector<std::int64_t> delays;
    caller.set_sleep_hook([&delays](std::chrono::milliseconds d) {
      delays.push_back(d.count());
    });
    EXPECT_THROW(caller.call(probe_request()), TransportError);
    return delays;
  };

  const auto a = schedule_for(11);
  const auto b = schedule_for(11);
  EXPECT_EQ(a, b);  // same seed, same failure sequence -> same delays
  ASSERT_EQ(a.size(), 5u);  // 6 attempts = 5 backoffs

  // Equal jitter: each delay lies in [base/2, base], base doubling to the
  // 50 ms cap: 16, 32, 50, 50, 50.
  const std::int64_t bases[] = {16, 32, 50, 50, 50};
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], bases[i] / 2) << i;
    EXPECT_LE(a[i], bases[i]) << i;
  }
}

TEST(ReliableCaller, OvershootingBackoffIsTruncatedForOneFinalAttempt) {
  FlakyEngine engine;
  engine.failures_remaining = 100;
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::milliseconds(400);
  policy.deadline = std::chrono::milliseconds(100);
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, policy, &registry);
  std::vector<std::int64_t> delays;
  caller.set_sleep_hook([&delays](std::chrono::milliseconds d) {
    delays.push_back(d.count());
  });
  // The first backoff (>= 200 ms jittered) overshoots the 100 ms budget;
  // instead of giving up with budget on the table, the sleep is truncated
  // to half the remainder and ONE final attempt runs. It also fails, and
  // a final attempt never retries again.
  EXPECT_THROW(caller.call(probe_request()), TransportError);
  EXPECT_EQ(engine.calls, 2);
  ASSERT_EQ(delays.size(), 1u);
  EXPECT_LE(delays[0], 50);  // half of (at most) the full 100 ms budget
  EXPECT_EQ(registry.counter("client.retry.giveups").value(), 1u);
  EXPECT_EQ(registry.counter("client.retry.retries").value(), 1u);
}

TEST(ReliableCaller, NeverRetriesPastAnExpiredDeadline) {
  FlakyEngine engine;
  engine.failures_remaining = 100;
  engine.delay_per_call = std::chrono::milliseconds(10);  // burns the budget
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::milliseconds(0);
  policy.deadline = std::chrono::milliseconds(5);
  ReliableCaller<FlakyEngine> caller(engine, policy);
  caller.set_sleep_hook([](std::chrono::milliseconds) {});
  // The attempt itself outlives the deadline: by the time it fails the
  // budget is spent, and an expired deadline NEVER retries.
  EXPECT_THROW(caller.call(probe_request()), TransportError);
  EXPECT_EQ(engine.calls, 1);
}

TEST(ReliableCaller, DeadlineIsRestampedWithRemainingBudget) {
  FlakyEngine engine;
  engine.failures_remaining = 1;
  engine.delay_per_call = std::chrono::milliseconds(10);
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = std::chrono::milliseconds(0);
  policy.deadline = std::chrono::milliseconds(200);
  ReliableCaller<FlakyEngine> caller(engine, policy);
  caller.set_sleep_hook([](std::chrono::milliseconds) {});
  const SoapEnvelope resp = caller.call(probe_request());
  EXPECT_FALSE(resp.is_fault());
  // Both attempts carried a Deadline header; the retry's stamp is the
  // REMAINING budget (>= 10 ms already burned), not a stale fresh one.
  ASSERT_EQ(engine.seen_deadlines.size(), 2u);
  EXPECT_LE(engine.seen_deadlines[0].count(), 200);
  EXPECT_LT(engine.seen_deadlines[1], engine.seen_deadlines[0]);
  EXPECT_GE(engine.seen_deadlines[1].count(), 1);
}

TEST(ReliableCaller, OverloadedFaultIsRetried) {
  FlakyEngine engine;
  engine.overloaded_remaining = 1;
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, fast_policy(), &registry);
  caller.set_sleep_hook([](std::chrono::milliseconds) {});
  // Unlike other faults, the shed fault means "I never looked": retry.
  const SoapEnvelope resp = caller.call(probe_request());
  EXPECT_FALSE(resp.is_fault());
  EXPECT_EQ(engine.calls, 2);
  EXPECT_EQ(registry.counter("client.retry.overloaded").value(), 1u);
  EXPECT_EQ(registry.counter("client.retry.retries").value(), 1u);
  EXPECT_EQ(registry.counter("client.retry.successes").value(), 1u);
}

TEST(ReliableCaller, ExhaustedAttemptsReturnTheOverloadedFault) {
  FlakyEngine engine;
  engine.overloaded_remaining = 100;
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, fast_policy(), &registry);
  caller.set_sleep_hook([](std::chrono::milliseconds) {});
  // A shed fault that survives the whole policy is still the server's
  // answer: returned, not thrown.
  const SoapEnvelope resp = caller.call(probe_request());
  ASSERT_TRUE(resp.is_fault());
  EXPECT_TRUE(is_overloaded(resp.fault()));
  EXPECT_EQ(engine.calls, 3);
  EXPECT_EQ(registry.counter("client.retry.giveups").value(), 1u);
}

TEST(ReliableCaller, RetryAfterHintFloorsTheBackoff) {
  FlakyEngine engine;
  engine.overloaded_remaining = 1;
  engine.shed_retry_after = std::chrono::milliseconds(40);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(0);
  ReliableCaller<FlakyEngine> caller(engine, policy);
  std::vector<std::int64_t> delays;
  caller.set_sleep_hook([&delays](std::chrono::milliseconds d) {
    delays.push_back(d.count());
  });
  EXPECT_FALSE(caller.call(probe_request()).is_fault());
  // The server asked for 40 ms of air; a 0 ms policy backoff must not
  // undercut it.
  ASSERT_EQ(delays.size(), 1u);
  EXPECT_GE(delays[0], 40);
}

TEST(ReliableCaller, RetryBudgetStopsARetryStorm) {
  FlakyEngine engine;
  engine.failures_remaining = 100;
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = std::chrono::milliseconds(0);
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, policy, &registry);
  caller.set_sleep_hook([](std::chrono::milliseconds) {});
  OverloadControl control(/*max_tokens=*/2.0, /*credit_per_success=*/0.1);
  caller.attach_overload_control(&control);
  // Two tokens buy two retries; the third is refused and the caller fails
  // fast instead of hammering a dead dependency 50 times.
  EXPECT_THROW(caller.call(probe_request()), TransportError);
  EXPECT_EQ(engine.calls, 3);
  EXPECT_EQ(registry.counter("client.retry.budget_exhausted").value(), 1u);
}

TEST(ReliableCaller, SuccessesRefillTheRetryBudget) {
  FlakyEngine engine;
  OverloadControl control(/*max_tokens=*/2.0, /*credit_per_success=*/0.5);
  ReliableCaller<FlakyEngine> caller(engine, fast_policy());
  caller.set_sleep_hook([](std::chrono::milliseconds) {});
  caller.attach_overload_control(&control);
  EXPECT_TRUE(control.budget.try_spend());
  EXPECT_TRUE(control.budget.try_spend());
  EXPECT_FALSE(control.budget.try_spend());  // drained
  caller.call(probe_request());              // a success credits 0.5
  caller.call(probe_request());              // ... and another 0.5
  EXPECT_TRUE(control.budget.try_spend());   // one retry earned back
}

TEST(ReliableCaller, OpenCircuitBreakerFailsFastWithoutTouchingTheWire) {
  FlakyEngine engine;
  engine.failures_remaining = 100;
  RetryPolicy policy;
  policy.max_attempts = 1;  // isolate the breaker from the retry loop
  policy.initial_backoff = std::chrono::milliseconds(0);
  obs::Registry registry;
  ReliableCaller<FlakyEngine> caller(engine, policy, &registry);
  caller.set_sleep_hook([](std::chrono::milliseconds) {});
  CircuitBreakerConfig breaker;
  breaker.window = 4;
  breaker.failure_threshold = 2;
  breaker.cooldown = std::chrono::hours(1);  // never half-opens in-test
  OverloadControl control(10.0, 0.1, breaker);
  caller.attach_overload_control(&control);
  EXPECT_THROW(caller.call(probe_request()), TransportError);
  EXPECT_THROW(caller.call(probe_request()), TransportError);
  // Two failures tripped the breaker: further calls are rejected before
  // the engine is touched.
  EXPECT_THROW(caller.call(probe_request()), TransportError);
  EXPECT_EQ(engine.calls, 2);
  EXPECT_EQ(registry.counter("client.retry.breaker.rejected").value(), 1u);
}

// ---- end to end: retry over a real server with injected faults -------------

TEST(ReliableCaller, RecoversFromInjectedConnectionReset) {
  using transport::FaultKind;
  using transport::FaultPlan;
  using transport::FaultyBinding;
  using transport::TcpClientBinding;

  transport::ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  auto server = transport::SoapServer::create(
      transport::ConcurrencyModel::kEventLoop, std::move(cfg));

  // First message dies before it leaves; the retry must reconnect and win.
  const FaultPlan plan = FaultPlan::script({{FaultKind::kReset, 0, 0, 0}});
  SoapEngine<BxsaEncoding, FaultyBinding<TcpClientBinding>> client(
      BxsaEncoding{},
      FaultyBinding<TcpClientBinding>(TcpClientBinding(server->port()), plan));

  obs::Registry registry;
  ReliableCaller caller(client, fast_policy(), &registry);
  const auto dataset = workload::make_lead_dataset(25);
  const SoapEnvelope resp = caller.call(services::make_data_request(dataset));
  EXPECT_TRUE(services::parse_verify_response(resp).ok);
  EXPECT_EQ(registry.counter("client.retry.attempts").value(), 2u);
  EXPECT_EQ(registry.counter("client.retry.retries").value(), 1u);
  EXPECT_EQ(server->exchanges(), 1u);
}

TEST(ReliableCaller, InjectedCorruptionComesBackAsClientFault) {
  using transport::FaultKind;
  using transport::FaultPlan;
  using transport::FaultyBinding;
  using transport::TcpClientBinding;

  transport::ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  auto server = transport::SoapServer::create(
      transport::ConcurrencyModel::kEventLoop, std::move(cfg));

  // Truncate the first request's payload: the frame arrives intact, the
  // BXSA bytes inside don't decode, and the server answers with a fault the
  // retry layer must NOT retry.
  const FaultPlan plan = FaultPlan::script({{FaultKind::kTruncate, 4, 0, 0}});
  SoapEngine<BxsaEncoding, FaultyBinding<TcpClientBinding>> client(
      BxsaEncoding{},
      FaultyBinding<TcpClientBinding>(TcpClientBinding(server->port()), plan));

  obs::Registry registry;
  ReliableCaller caller(client, fast_policy(), &registry);
  const SoapEnvelope resp = caller.call(probe_request());
  ASSERT_TRUE(resp.is_fault());
  EXPECT_EQ(resp.fault().code, "soap:Client");
  EXPECT_EQ(registry.counter("client.retry.retries").value(), 0u);
  EXPECT_EQ(server->faults(), 1u);
}

}  // namespace
}  // namespace bxsoap::soap
