// Crash-proofing tests for the explanation service: fault injection (forced
// NaNs, simulated allocation failure, slow ops), per-request deadlines,
// hostile inputs, oversized payloads, and overload shedding. The common
// assertion everywhere: the request gets a structured error response and the
// engine keeps serving other tenants.

#include "service/service_engine.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace dpclustx::service {
namespace {

JsonValue Parse(const std::string& text) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " in: " << text;
  return std::move(*parsed);
}

JsonValue Call(ServiceEngine& engine, const std::string& request) {
  return Parse(engine.Handle(request));
}

void ExpectOk(const JsonValue& response) {
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  EXPECT_TRUE(response.at("ok").AsBool()) << response.Dump();
}

void ExpectError(const JsonValue& response, const std::string& code) {
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  ASSERT_FALSE(response.at("ok").AsBool()) << response.Dump();
  EXPECT_EQ(response.at("error").at("code").AsString(), code)
      << response.Dump();
}

/// The engine's registry as the `metrics` op returns it.
JsonValue Registry(ServiceEngine& engine) {
  return Call(engine, R"({"op":"metrics"})").at("metrics");
}

/// True when the fault point belongs to a request from `session`.
bool FromSession(const FaultPoint& fault, const std::string& session) {
  if (!fault.request->Has("session")) return false;
  const StatusOr<std::string> id = fault.request->GetString("session");
  return id.ok() && *id == session;
}

/// Loads a small synthetic dataset, clusters it, and opens a session.
void SetUpSession(ServiceEngine& engine, const std::string& session,
                  double epsilon = 2.0) {
  if (!engine.registry().Get("d").ok()) {
    ExpectOk(Call(engine,
                  R"({"op":"load_dataset","name":"d","source":"synthetic",)"
                  R"("generator":"diabetes","rows":1500,"seed":7})"));
    ExpectOk(Call(engine,
                  R"({"op":"cluster","dataset":"d","method":"k-means",)"
                  R"("k":3,"seed":3})"));
  }
  ExpectOk(Call(engine, R"({"op":"create_session","session":")" + session +
                            R"(","dataset":"d","epsilon":)" +
                            std::to_string(epsilon) + "}"));
}

double SpentEpsilon(ServiceEngine& engine, const std::string& session) {
  const JsonValue budget = Call(
      engine, R"({"op":"budget","session":")" + session + R"("})");
  EXPECT_TRUE(budget.at("ok").AsBool()) << budget.Dump();
  return budget.at("spent").AsNumber();
}

// A fault that forces a NaN into the explain response body must come back as
// a structured Internal error — never a crash, never a NaN on the wire —
// while a concurrent well-formed tenant is served normally.
TEST(ServiceRobustnessTest, InjectedNanYieldsInternalErrorAndServerSurvives) {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  options.fault_injector = [](const FaultPoint& fault) {
    if (fault.point == "explain:finish" && FromSession(fault, "victim")) {
      fault.body->Set("epsilon_remaining", JsonValue::Number(std::nan("")));
    }
    return Status::OK();
  };
  ServiceEngine engine(options);
  SetUpSession(engine, "victim");
  SetUpSession(engine, "bystander");

  const JsonValue poisoned = Call(
      engine, R"({"op":"explain","session":"victim","epsilon":0.3,"seed":1})");
  ExpectError(poisoned, "Internal");
  // The response body was suppressed wholesale: no partial release leaks.
  EXPECT_FALSE(poisoned.Has("explanation")) << poisoned.Dump();

  const JsonValue clean = Call(
      engine,
      R"({"op":"explain","session":"bystander","epsilon":0.4,"seed":2})");
  ExpectOk(clean);
  ExpectOk(Call(engine, R"({"op":"ping"})"));
}

// An injected failure before the handler runs (simulating an allocation
// failure at admission) is propagated verbatim and charges nothing.
TEST(ServiceRobustnessTest, InjectedAllocationFailureChargesNothing) {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  options.fault_injector = [](const FaultPoint& fault) {
    if (fault.point == "explain:start") {
      return Status::ResourceExhausted("simulated allocation failure");
    }
    return Status::OK();
  };
  ServiceEngine engine(options);
  SetUpSession(engine, "alice");
  ExpectError(
      Call(engine,
           R"({"op":"explain","session":"alice","epsilon":0.3,"seed":1})"),
      "ResourceExhausted");
  EXPECT_EQ(SpentEpsilon(engine, "alice"), 0.0);
  ExpectOk(Call(engine, R"({"op":"ping"})"));
}

// A hook that stalls between the ε charge and the compute (a slow op) trips
// the post-spend deadline checkpoint: the request fails DeadlineExceeded and
// the charge is NOT refunded — the ledger may overstate, never understate,
// released ε.
TEST(ServiceRobustnessTest, SlowComputeHitsDeadlineWithoutRefund) {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  options.fault_injector = [](const FaultPoint& fault) {
    if (fault.point == "explain:compute") {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    return Status::OK();
  };
  ServiceEngine engine(options);
  SetUpSession(engine, "alice");
  ExpectError(Call(engine, R"({"op":"explain","session":"alice",)"
                           R"("epsilon":0.3,"seed":1,"deadline_ms":20})"),
              "DeadlineExceeded");
  EXPECT_NEAR(SpentEpsilon(engine, "alice"), 0.3, 1e-9);

  // The failure is visible in the per-op counters.
  const JsonValue counters = Registry(engine).at("counters");
  EXPECT_GE(counters.at(R"(dpclustx_op_deadline_exceeded_total{op="explain"})")
                .AsNumber(),
            1.0);
  EXPECT_GE(
      counters.at(R"(dpclustx_op_errors_total{op="explain"})").AsNumber(),
      1.0);
}

// A request whose deadline expired before the handler ran (stalled at the
// ":start" hook, standing in for queue wait) is dropped for free: the
// expiry check precedes the ε charge.
TEST(ServiceRobustnessTest, ExpiredBeforeSpendChargesNothing) {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  options.fault_injector = [](const FaultPoint& fault) {
    if (fault.point == "explain:start") {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    return Status::OK();
  };
  ServiceEngine engine(options);
  SetUpSession(engine, "alice");
  ExpectError(Call(engine, R"({"op":"explain","session":"alice",)"
                           R"("epsilon":0.3,"seed":1,"deadline_ms":20})"),
              "DeadlineExceeded");
  EXPECT_EQ(SpentEpsilon(engine, "alice"), 0.0);
}

// The engine-wide default deadline applies when a request carries none; a
// request can override it either way (longer, or 0 = none).
TEST(ServiceRobustnessTest, DefaultDeadlineAppliesAndIsOverridable) {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  options.default_deadline_ms = 20;
  options.fault_injector = [](const FaultPoint& fault) {
    if (fault.point == "explain:compute") {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    return Status::OK();
  };
  ServiceEngine engine(options);
  SetUpSession(engine, "alice");
  ExpectError(
      Call(engine,
           R"({"op":"explain","session":"alice","epsilon":0.3,"seed":1})"),
      "DeadlineExceeded");
  ExpectOk(Call(engine, R"({"op":"explain","session":"alice",)"
                        R"("epsilon":0.3,"seed":1,"deadline_ms":60000})"));
  ExpectOk(Call(engine, R"({"op":"explain","session":"alice",)"
                        R"("epsilon":0.4,"seed":1,"deadline_ms":0})"));
}

// Hostile request parameters: every one must produce a structured error
// response (correct code, server alive), never an abort.
TEST(ServiceRobustnessTest, HostileInputsGetStructuredErrors) {
  ServiceEngine engine;
  SetUpSession(engine, "alice", /*epsilon=*/1.0);

  // Non-finite epsilon cannot even be expressed in JSON — the parser
  // rejects the literal, so it dies at the protocol boundary.
  ExpectError(Call(engine, R"({"op":"explain","session":"alice",)"
                           R"("epsilon":NaN})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"create_session","session":"b",)"
                           R"("dataset":"d","epsilon":Infinity})"),
              "InvalidArgument");
  // Zero/negative epsilon.
  ExpectError(Call(engine, R"({"op":"explain","session":"alice",)"
                           R"("epsilon":0})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"hist","session":"alice",)"
                           R"("attribute":"diab_0","epsilon":-1})"),
              "InvalidArgument");
  // k = 0 and an empty dataset.
  ExpectError(Call(engine, R"({"op":"cluster","dataset":"d",)"
                           R"("method":"k-means","k":0})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"load_dataset","name":"empty",)"
                           R"("source":"synthetic","generator":"diabetes",)"
                           R"("rows":0})"),
              "InvalidArgument");
  // Out-of-range cluster and unknown attribute.
  ExpectError(Call(engine, R"({"op":"size","session":"alice",)"
                           R"("cluster":99,"epsilon":0.01})"),
              "InvalidArgument");
  const JsonValue bad_attr =
      Call(engine, R"({"op":"hist","session":"alice",)"
                   R"("attribute":"no_such_attr","epsilon":0.01})");
  ASSERT_FALSE(bad_attr.at("ok").AsBool()) << bad_attr.Dump();
  // Malformed deadline_ms values.
  ExpectError(Call(engine, R"({"op":"ping","deadline_ms":-5})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"ping","deadline_ms":"soon"})"),
              "InvalidArgument");

  // None of the refusals charged the session.
  EXPECT_EQ(SpentEpsilon(engine, "alice"), 0.0);
  ExpectOk(Call(engine, R"({"op":"ping"})"));
}

// Oversized payloads are rejected before the parser touches them.
TEST(ServiceRobustnessTest, OversizedPayloadRejectedBeforeParse) {
  ServiceEngineOptions options;
  options.max_request_bytes = 256;
  ServiceEngine engine(options);
  std::string big = R"({"op":"ping","padding":")";
  big.append(1024, 'x');
  big += R"("})";
  const JsonValue response = Call(engine, big);
  ExpectError(response, "InvalidArgument");
  EXPECT_NE(response.at("error").at("message").AsString().find(
                "max_request_bytes"),
            std::string::npos);
  ExpectOk(Call(engine, R"({"op":"ping"})"));
}

// When the bounded queue is full, HandleAsync sheds: the rejection response
// carries a retry_after_ms hint and the shed counter moves.
TEST(ServiceRobustnessTest, ShedRequestsCarryRetryAfterHint) {
  ServiceEngineOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.retry_after_ms = 75;
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  options.fault_injector = [&](const FaultPoint& fault) {
    if (fault.point == "ping:start") {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
    return Status::OK();
  };
  ServiceEngine engine(options);

  std::atomic<int> completed{0};
  const auto done = [&](std::string) { completed.fetch_add(1); };
  // First occupies the worker (blocked on the gate), second fills the
  // queue; the engine may briefly leave the queue slot occupied while the
  // worker dequeues, so submit until one sheds.
  ASSERT_TRUE(engine.HandleAsync(R"({"op":"ping","id":"a"})", done).ok());
  Status shed = Status::OK();
  int accepted = 1;
  while (shed.ok()) {
    shed = engine.HandleAsync(R"({"op":"ping","id":"b"})", done);
    if (shed.ok()) ++accepted;
    ASSERT_LE(accepted, 3) << "queue bound never enforced";
  }
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  const JsonValue rejection = Parse(ServiceEngine::RejectionResponse(
      R"({"op":"ping","id":"c"})", shed, options.retry_after_ms));
  ExpectError(rejection, "ResourceExhausted");
  EXPECT_EQ(rejection.at("error").at("retry_after_ms").AsNumber(), 75.0);
  EXPECT_EQ(rejection.at("id").AsString(), "c");

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.Shutdown();  // drains the accepted requests
  EXPECT_EQ(completed.load(), accepted);
  // Handle() does not use the pool, so metrics and stats stay reachable
  // after Shutdown.
  EXPECT_GE(
      Registry(engine).at("counters").at("dpclustx_requests_shed_total")
          .AsNumber(),
      1.0);
  const JsonValue stats = Call(engine, R"({"op":"stats"})");
  EXPECT_EQ(stats.at("retry_after_ms").AsNumber(), 75.0);
}

// Per-op counters accumulate across a mixed workload.
TEST(ServiceRobustnessTest, OpMetricsTrackLatencyAndErrors) {
  ServiceEngine engine;
  ExpectOk(Call(engine, R"({"op":"ping"})"));
  ExpectOk(Call(engine, R"({"op":"ping"})"));
  ExpectError(Call(engine, R"({"op":"budget","session":"ghost"})"),
              "NotFound");
  // Unknown op names must not grow the metrics map (hostile clients can
  // invent unboundedly many).
  ExpectError(Call(engine, R"({"op":"zzz_not_an_op"})"), "NotFound");

  const JsonValue registry = Registry(engine);
  const JsonValue& counters = registry.at("counters");
  EXPECT_EQ(
      counters.at(R"(dpclustx_op_requests_total{op="ping"})").AsNumber(),
      2.0);
  EXPECT_EQ(counters.at(R"(dpclustx_op_errors_total{op="ping"})").AsNumber(),
            0.0);
  EXPECT_EQ(
      counters.at(R"(dpclustx_op_requests_total{op="budget"})").AsNumber(),
      1.0);
  EXPECT_EQ(
      counters.at(R"(dpclustx_op_errors_total{op="budget"})").AsNumber(),
      1.0);
  EXPECT_EQ(registry.Dump().find("zzz_not_an_op"), std::string::npos);
  EXPECT_GE(registry.at("histograms")
                .at(R"(dpclustx_op_latency_micros{op="ping"})")
                .at("max_micros")
                .AsNumber(),
            0.0);
}

// The acceptance scenario: while one tenant's requests are being forced to
// fail (injected NaNs), concurrent well-formed requests from other tenants
// all complete successfully.
TEST(ServiceRobustnessTest, FaultyTenantDoesNotDisturbConcurrentTenants) {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  options.num_threads = 4;
  options.fault_injector = [](const FaultPoint& fault) {
    if (fault.point == "explain:finish" && FromSession(fault, "victim")) {
      fault.body->Set("epsilon_remaining", JsonValue::Number(std::nan("")));
    }
    return Status::OK();
  };
  ServiceEngine engine(options);
  SetUpSession(engine, "victim", /*epsilon=*/50.0);
  constexpr int kTenants = 3;
  constexpr int kRequests = 4;
  for (int t = 0; t < kTenants; ++t) {
    SetUpSession(engine, "tenant" + std::to_string(t), /*epsilon=*/50.0);
  }

  std::atomic<int> tenant_ok{0};
  std::atomic<int> victim_internal{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < kRequests; ++i) {
      const JsonValue response = Call(
          engine, R"({"op":"explain","session":"victim","epsilon":0.3,)"
                      R"("seed":)" +
                      std::to_string(i + 1) + "}");
      if (!response.at("ok").AsBool() &&
          response.at("error").at("code").AsString() == "Internal") {
        victim_internal.fetch_add(1);
      }
    }
  });
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const JsonValue response = Call(
            engine, R"({"op":"explain","session":"tenant)" +
                        std::to_string(t) + R"(","epsilon":0.3,"seed":)" +
                        std::to_string(i + 1) + "}");
        if (response.at("ok").AsBool()) tenant_ok.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(victim_internal.load(), kRequests);
  EXPECT_EQ(tenant_ok.load(), kTenants * kRequests);
  ExpectOk(Call(engine, R"({"op":"ping"})"));
}

}  // namespace
}  // namespace dpclustx::service
