// End-to-end tests for the explanation service: protocol round-trips,
// post-processing-free cache hits, multi-tenant budget isolation, the
// cross-session dataset cap, and queue backpressure.

#include "service/service_engine.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/explainer.h"
#include "core/serialization.h"
#include "data/columnar_format.h"
#include "data/dataset.h"
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

/// Engine options for tests that pin mechanism seeds. Deterministic noise
/// is a test-only configuration: a default-configured engine rejects
/// client-supplied seeds on noisy ops (see SeedsAreRejectedInSecureMode).
ServiceEngineOptions DebugNoise() {
  ServiceEngineOptions options;
  options.insecure_deterministic_noise = true;
  return options;
}

/// Loads a small synthetic dataset and clusters it (k-means, free).
void SetUpDataset(ServiceEngine& engine, double cap_epsilon = 0.0) {
  JsonValue load = Call(engine,
                        R"({"op":"load_dataset","name":"d","source":"synthetic",)"
                        R"("generator":"diabetes","rows":1500,"seed":7,)"
                        R"("cap_epsilon":)" +
                            std::to_string(cap_epsilon) + "}");
  ExpectOk(load);
  ExpectOk(Call(engine,
                R"({"op":"cluster","dataset":"d","method":"k-means","k":3,)"
                R"("seed":3})"));
}

TEST(ServiceTest, PingRoundTripEchoesId) {
  ServiceEngine engine;
  const JsonValue response = Call(engine, R"({"op":"ping","id":"abc"})");
  ExpectOk(response);
  EXPECT_EQ(response.at("id").AsString(), "abc");
  EXPECT_TRUE(response.at("pong").AsBool());
}

TEST(ServiceTest, MalformedRequestsGetErrorResponsesNotCrashes) {
  ServiceEngine engine;
  ExpectError(Call(engine, "this is not json"), "InvalidArgument");
  ExpectError(Call(engine, "[1,2,3]"), "InvalidArgument");
  ExpectError(Call(engine, R"({"no_op_field":1})"), "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"frobnicate"})"), "NotFound");
  ExpectError(Call(engine, R"({"op":"explain","session":"ghost"})"),
              "NotFound");
}

TEST(ServiceTest, ExplainProtocolRoundTrip) {
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":1.0})"));
  const JsonValue response =
      Call(engine, R"({"op":"explain","session":"alice","epsilon":0.3,)"
                   R"("seed":11})");
  ExpectOk(response);
  EXPECT_FALSE(response.at("cache_hit").AsBool());
  EXPECT_NEAR(response.at("epsilon_charged").AsNumber(), 0.3, 1e-12);
  EXPECT_NEAR(response.at("epsilon_remaining").AsNumber(), 0.7, 1e-12);
  ASSERT_TRUE(response.Has("explanation"));
  EXPECT_FALSE(response.at("text").AsString().empty());

  // The ledger reflects the single atomic charge.
  const JsonValue budget =
      Call(engine, R"({"op":"budget","session":"alice"})");
  ExpectOk(budget);
  EXPECT_NEAR(budget.at("spent").AsNumber(), 0.3, 1e-12);
  ASSERT_EQ(budget.at("ledger").size(), 1u);
  EXPECT_EQ(budget.at("ledger").at(0).at("count").AsNumber(), 1.0);
}

TEST(ServiceTest, CacheHitIsByteIdenticalAndFree) {
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":1.0})"));
  const std::string request =
      R"({"op":"explain","session":"alice","epsilon":0.3,"seed":11})";
  const JsonValue first = Call(engine, request);
  ExpectOk(first);
  ASSERT_FALSE(first.at("cache_hit").AsBool());

  const JsonValue second = Call(engine, request);
  ExpectOk(second);
  EXPECT_TRUE(second.at("cache_hit").AsBool());
  // The release itself is byte-identical post-processing...
  EXPECT_EQ(second.at("explanation").Dump(), first.at("explanation").Dump());
  EXPECT_EQ(second.at("text").AsString(), first.at("text").AsString());
  // ...and costs zero additional ε.
  EXPECT_EQ(second.at("epsilon_charged").AsNumber(), 0.0);
  EXPECT_EQ(second.at("epsilon_remaining").AsNumber(),
            first.at("epsilon_remaining").AsNumber());
  EXPECT_EQ(engine.cache().hits(), 1u);

  // A different seed is a different release: fresh noise, fresh charge.
  const JsonValue third = Call(
      engine,
      R"({"op":"explain","session":"alice","epsilon":0.3,"seed":12})");
  ExpectOk(third);
  EXPECT_FALSE(third.at("cache_hit").AsBool());
  EXPECT_NEAR(third.at("epsilon_remaining").AsNumber(), 0.4, 1e-12);
}

/// `line` parsed, without the members a repeat may change: the cache
/// envelope and the trace members.
std::string WithoutRepeatEnvelope(const std::string& line) {
  JsonValue reply = Parse(line);
  for (const char* key : {"cache_hit", "epsilon_charged", "epsilon_remaining",
                          "trace", "trace_id"}) {
    reply.Remove(key);
  }
  return reply.Dump();
}

// A hit is answered from the stored release bytes, not from a parsed tree.
// Its reply must still be canonical Dump text, and equal the first reply
// but for the cache envelope and the trace — traced or not.
TEST(ServiceTest, RepeatRepliesAreCanonicalAndDifferOnlyInTheEnvelope) {
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":10.0})"));
  const std::vector<std::string> modes = {
      "", R"(,"trace":true)", R"(,"_tc":{"pid":"r1","tid":"t1"})"};
  for (size_t m = 0; m < modes.size(); ++m) {
    // A fresh ε per mode, so each mode's first reply is a miss.
    const std::string eps = std::to_string(0.3 + 0.01 * m);
    for (const std::string& request :
         {R"({"op":"explain","session":"alice","seed":11,"id":"e","epsilon":)" +
              eps + modes[m] + "}",
          R"({"op":"hist","session":"alice","attribute":"diab_0","seed":5,)"
          R"("id":7,"epsilon":)" + eps + modes[m] + "}"}) {
      const std::string first = engine.Handle(request);
      const std::string repeat = engine.Handle(request);
      for (const std::string* line : {&first, &repeat}) {
        EXPECT_EQ(*line, Parse(*line).Dump()) << request;
      }
      const JsonValue first_reply = Parse(first);
      const JsonValue repeat_reply = Parse(repeat);
      ExpectOk(first_reply);
      ExpectOk(repeat_reply);
      EXPECT_FALSE(first_reply.at("cache_hit").AsBool()) << request;
      EXPECT_TRUE(repeat_reply.at("cache_hit").AsBool()) << request;
      EXPECT_EQ(repeat_reply.at("epsilon_charged").AsNumber(), 0.0);
      EXPECT_EQ(repeat_reply.Has("trace"), !modes[m].empty()) << request;
      EXPECT_EQ(WithoutRepeatEnvelope(repeat), WithoutRepeatEnvelope(first))
          << request;
    }
  }
}

// Releases saved in a snapshot come back as the same bytes: a restored
// engine, and a read-only replica, answer repeats exactly as the engine
// that paid for them did.
TEST(ServiceTest, RestoredReleasesServeTheSameHitBytes) {
  const std::vector<std::string> requests = {
      R"({"op":"explain","session":"s","epsilon":0.3,"seed":11,"id":"e"})",
      R"({"op":"hist","session":"s","attribute":"diab_0","epsilon":0.1,)"
      R"("seed":5,"id":"h"})",
      R"({"op":"hist","session":"s","attribute":"diab_1","epsilon":0.1,)"
      R"("seed":5})"};
  const std::string path = ::testing::TempDir() + "/restored_hits.snap";
  std::vector<std::string> hits;
  {
    ServiceEngine primary(DebugNoise());
    SetUpDataset(primary);
    ExpectOk(Call(primary, R"({"op":"create_session","session":"s",)"
                           R"("dataset":"d","epsilon":5.0})"));
    for (const std::string& request : requests) {
      ExpectOk(Call(primary, request));
    }
    // Every charge is in, so each hit reads the final epsilon_remaining.
    for (const std::string& request : requests) {
      hits.push_back(primary.Handle(request));
      EXPECT_TRUE(Parse(hits.back()).at("cache_hit").AsBool());
    }
    ASSERT_TRUE(primary.SaveSnapshotToFile(path).ok());
  }
  for (const bool read_only : {false, true}) {
    ServiceEngineOptions options = DebugNoise();
    options.read_only = read_only;
    ServiceEngine restored(options);
    ASSERT_TRUE(restored.RestoreFromFiles(path, "").ok());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(restored.Handle(requests[i]), hits[i])
          << "read_only=" << read_only;
    }
  }
  std::remove(path.c_str());
}

TEST(ServiceTest, ExplainResponseEmbedsTheSerializedExplanationVerbatim) {
  // The explain op embeds ExplanationToJsonValue's tree. Its response bytes
  // must equal the Parse→Dump of ExplanationToJson over the same release,
  // recomputed here from the engine's own stats and pinned seed.
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":10.0})"));
  const std::shared_ptr<DatasetEntry> entry = *engine.registry().Get("d");
  const std::shared_ptr<const ClusteringView> view =
      *entry->GetClustering("default");
  for (uint64_t seed = 21; seed < 26; ++seed) {
    const std::string response = engine.Handle(
        R"({"op":"explain","session":"alice","epsilon_cand_set":0.1,)"
        R"("epsilon_top_comb":0.2,"epsilon_hist":0.3,"num_candidates":3,)"
        R"("seed":)" + std::to_string(seed) + "}");
    DpClustXOptions options;
    options.epsilon_cand_set = 0.1;
    options.epsilon_top_comb = 0.2;
    options.epsilon_hist = 0.3;
    options.num_candidates = 3;
    options.seed = seed;
    const StatusOr<GlobalExplanation> explanation =
        ExplainDpClustXWithStats(*view->stats, options, nullptr);
    ASSERT_TRUE(explanation.ok()) << explanation.status();
    const StatusOr<JsonValue> old_form = JsonValue::Parse(
        ExplanationToJson(*explanation, entry->dataset()->schema()));
    ASSERT_TRUE(old_form.ok()) << old_form.status();
    EXPECT_NE(response.find("\"explanation\":" + old_form->Dump()),
              std::string::npos)
        << "seed " << seed << ": " << response;
  }
}

TEST(ServiceTest, ThreadCountIsNotPartOfTheRelease) {
  // The Stage-2 search releases the same bytes at any thread count, so a
  // repeat at another thread count is a free cache hit.
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":1.0})"));
  const JsonValue first = Call(
      engine,
      R"({"op":"explain","session":"alice","epsilon":0.3,"seed":11,)"
      R"("threads":1})");
  ExpectOk(first);
  ASSERT_FALSE(first.at("cache_hit").AsBool());
  const JsonValue second = Call(
      engine,
      R"({"op":"explain","session":"alice","epsilon":0.3,"seed":11,)"
      R"("threads":4})");
  ExpectOk(second);
  EXPECT_TRUE(second.at("cache_hit").AsBool());
  EXPECT_EQ(second.at("epsilon_charged").AsNumber(), 0.0);
  EXPECT_EQ(second.at("explanation").Dump(), first.at("explanation").Dump());
}

TEST(ServiceTest, ExplainsRefusedByShapeChargeNothing) {
  // Refusals that depend only on the schema (47 attributes) and |C| come
  // before the charge: k beyond the schema, and k^|C| = 9^9 beyond the
  // default max_combinations.
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine,
                R"({"op":"cluster","dataset":"d","clustering":"nine",)"
                R"("method":"k-means","k":9,"seed":3})"));
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":1.0})"));
  ExpectError(Call(engine, R"({"op":"explain","session":"alice",)"
                           R"("clustering":"nine","num_candidates":500})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"explain","session":"alice",)"
                           R"("clustering":"nine","num_candidates":9})"),
              "InvalidArgument");
  const JsonValue budget =
      Call(engine, R"({"op":"budget","session":"alice"})");
  ExpectOk(budget);
  EXPECT_EQ(budget.at("spent").AsNumber(), 0.0);
  EXPECT_EQ(budget.at("ledger").size(), 0u);
}

TEST(ServiceTest, ExhaustedSessionGetsCleanOutOfBudget) {
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  // Enough for one explain at 0.3, not two.
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":0.5})"));
  ExpectOk(Call(engine, R"({"op":"explain","session":"alice","epsilon":0.3,)"
                        R"("seed":11})"));
  const JsonValue refused =
      Call(engine, R"({"op":"explain","session":"alice","epsilon":0.3,)"
                   R"("seed":12})");
  ExpectError(refused, "OutOfBudget");
  // The refusal leaks nothing: no histogram payload, no exact counts —
  // just the error object (plus ok/id bookkeeping).
  EXPECT_FALSE(refused.Has("explanation"));
  EXPECT_FALSE(refused.Has("text"));
  // And it charged nothing.
  const JsonValue budget =
      Call(engine, R"({"op":"budget","session":"alice"})");
  EXPECT_NEAR(budget.at("spent").AsNumber(), 0.3, 1e-12);

  // The cached release from before exhaustion is still free to re-serve.
  const JsonValue cached =
      Call(engine, R"({"op":"explain","session":"alice","epsilon":0.3,)"
                   R"("seed":11})");
  ExpectOk(cached);
  EXPECT_TRUE(cached.at("cache_hit").AsBool());
}

TEST(ServiceTest, SessionsAreIsolated) {
  ServiceEngine engine;
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":0.25})"));
  ExpectOk(Call(engine, R"({"op":"create_session","session":"bob",)"
                        R"("dataset":"d","epsilon":1.0})"));
  // Alice burns her whole budget...
  ExpectOk(Call(engine, R"({"op":"size","session":"alice","cluster":0,)"
                        R"("epsilon":0.25})"));
  ExpectError(Call(engine, R"({"op":"size","session":"alice","cluster":0,)"
                           R"("epsilon":0.01})"),
              "OutOfBudget");
  // ...and Bob's is untouched.
  const JsonValue bob = Call(engine, R"({"op":"budget","session":"bob"})");
  ExpectOk(bob);
  EXPECT_EQ(bob.at("spent").AsNumber(), 0.0);
  ExpectOk(Call(engine, R"({"op":"size","session":"bob","cluster":0,)"
                        R"("epsilon":0.01})"));
  // Duplicate session ids are refused (a second "alice" would reset her
  // ledger).
  ExpectError(Call(engine, R"({"op":"create_session","session":"alice",)"
                           R"("dataset":"d","epsilon":9.0})"),
              "FailedPrecondition");
}

TEST(ServiceTest, DatasetCapBoundsAllSessionsTogether) {
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine, /*cap_epsilon=*/0.5);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":10.0})"));
  ExpectOk(Call(engine, R"({"op":"create_session","session":"bob",)"
                        R"("dataset":"d","epsilon":10.0})"));
  ExpectOk(Call(engine, R"({"op":"explain","session":"alice","epsilon":0.3,)"
                        R"("seed":11})"));
  // Bob has plenty of session budget, but the dataset-wide cap (0.5) has
  // only 0.2 left.
  const JsonValue refused =
      Call(engine, R"({"op":"explain","session":"bob","epsilon":0.3,)"
                   R"("seed":12})");
  ExpectError(refused, "OutOfBudget");
  // A smaller request that fits under the cap still works.
  ExpectOk(Call(engine, R"({"op":"size","session":"bob","cluster":0,)"
                        R"("epsilon":0.1})"));
  // The refused charge did not touch Bob's session ledger.
  const JsonValue bob = Call(engine, R"({"op":"budget","session":"bob"})");
  EXPECT_NEAR(bob.at("spent").AsNumber(), 0.1, 1e-12);
  EXPECT_NEAR(bob.at("dataset_cap_remaining").AsNumber(), 0.1, 1e-12);
}

TEST(ServiceTest, ClusterResponseCarriesNoExactSizes) {
  ServiceEngine engine;
  const JsonValue load =
      Call(engine, R"({"op":"load_dataset","name":"d","source":"synthetic",)"
                   R"("generator":"diabetes","rows":1500,"seed":7})");
  ExpectOk(load);
  const JsonValue clustered =
      Call(engine, R"({"op":"cluster","dataset":"d","method":"k-means",)"
                   R"("k":3,"seed":3})");
  ExpectOk(clustered);
  EXPECT_FALSE(clustered.Has("sizes"));
  EXPECT_FALSE(clustered.Has("cluster_sizes"));
  // Re-issuing the identical cluster request is idempotent; a conflicting
  // one is refused (views are immutable).
  ExpectOk(Call(engine, R"({"op":"cluster","dataset":"d","method":"k-means",)"
                        R"("k":3,"seed":3})"));
  ExpectError(Call(engine,
                   R"({"op":"cluster","dataset":"d","method":"k-means",)"
                   R"("k":4,"seed":3})"),
              "FailedPrecondition");
}

TEST(ServiceTest, AsyncBackpressureRejectsWithoutLosingAcceptedWork) {
  // Single worker blocked on a gate; the queue (capacity 2) fills, then
  // further submissions must be rejected via Status, and every accepted
  // request must still be answered after the gate opens.
  ServiceEngineOptions options;
  options.num_threads = 1;
  options.queue_capacity = 2;
  ServiceEngine engine(options);

  std::mutex mutex;
  std::condition_variable cv;
  bool gate_open = false;
  bool worker_busy = false;
  std::vector<std::string> responses;

  const Status head = engine.pool().TrySubmit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    worker_busy = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  });
  ASSERT_TRUE(head.ok());
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return worker_busy; });
  }

  auto collect = [&](std::string response) {
    std::lock_guard<std::mutex> lock(mutex);
    responses.push_back(std::move(response));
  };
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    const std::string request =
        R"({"op":"ping","id":)" + std::to_string(i) + "}";
    const Status submitted = engine.HandleAsync(request, collect);
    if (submitted.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(submitted.code(), StatusCode::kResourceExhausted);
      // The server turns the rejection into a busy response for the client.
      const JsonValue busy =
          Parse(ServiceEngine::RejectionResponse(request, submitted));
      EXPECT_FALSE(busy.at("ok").AsBool());
      EXPECT_EQ(busy.at("error").at("code").AsString(), "ResourceExhausted");
      EXPECT_EQ(busy.at("id").AsNumber(), static_cast<double>(i));
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 2);  // exactly the queue capacity
  EXPECT_EQ(rejected, 4);

  {
    std::lock_guard<std::mutex> lock(mutex);
    gate_open = true;
  }
  cv.notify_all();
  engine.Shutdown();  // drains the two accepted pings
  ASSERT_EQ(responses.size(), 2u);
  std::set<double> ids;
  for (const std::string& response : responses) {
    const JsonValue parsed = Parse(response);
    EXPECT_TRUE(parsed.at("ok").AsBool());
    ids.insert(parsed.at("id").AsNumber());
  }
  EXPECT_EQ(ids, (std::set<double>{0.0, 1.0}));
}

TEST(ServiceTest, ConcurrentMixedLoadIsRaceFreeAndBudgetExact) {
  // Many concurrent queries against one session: the total spend must come
  // out exact regardless of interleaving, and no request may crash. Run
  // under TSan by scripts/check.sh.
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":100.0})"));

  constexpr int kRequests = 40;
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kRequests; ++i) {
    const std::string request =
        R"({"op":"size","session":"alice","cluster":0,"epsilon":0.5,"seed":)" +
        std::to_string(i) + "}";
    const Status submitted =
        engine.HandleAsync(request, [&](std::string response) {
          if (Parse(response).at("ok").AsBool()) ++ok_count;
          std::lock_guard<std::mutex> lock(mutex);
          ++completed;
          cv.notify_all();
        });
    ASSERT_TRUE(submitted.ok());
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == kRequests; });
  }
  EXPECT_EQ(ok_count.load(), kRequests);
  const JsonValue budget =
      Call(engine, R"({"op":"budget","session":"alice"})");
  EXPECT_NEAR(budget.at("spent").AsNumber(), 0.5 * kRequests, 1e-9);
  // Every charge carried the label "size c=0": one row counts them all.
  ASSERT_EQ(budget.at("ledger").size(), 1u);
  EXPECT_EQ(budget.at("ledger").at(0).at("label").AsString(), "size c=0");
  EXPECT_EQ(budget.at("ledger").at(0).at("count").AsNumber(),
            static_cast<double>(kRequests));
  EXPECT_EQ(budget.at("ledger").at(0).at("epsilon").AsNumber(),
            budget.at("spent").AsNumber());
}

TEST(ServiceTest, SeedsAreRejectedInSecureMode) {
  // A default-configured engine must refuse client-supplied noise seeds on
  // every noisy op: the mechanism noise is data-independent, so a client
  // who chose the seed could subtract the noise and recover exact counts.
  ServiceEngine engine;
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":1.0})"));
  const JsonValue schema = Call(engine, R"({"op":"schema","dataset":"d"})");
  ExpectOk(schema);
  const std::string attr =
      schema.at("attributes").at(0).at("name").AsString();

  ExpectError(Call(engine, R"({"op":"explain","session":"alice",)"
                           R"("epsilon":0.3,"seed":11})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"hist","session":"alice","attribute":")" +
                               attr + R"(","epsilon":0.02,"seed":11})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"size","session":"alice","cluster":0,)"
                           R"("epsilon":0.01,"seed":11})"),
              "InvalidArgument");
  // Refusals charge nothing.
  const JsonValue budget =
      Call(engine, R"({"op":"budget","session":"alice"})");
  EXPECT_EQ(budget.at("spent").AsNumber(), 0.0);
}

TEST(ServiceTest, ServerSeededExplainsStillCacheHit) {
  // Without client seeds, a repeated identical request re-serves the first
  // (server-seeded) release byte-identically at zero additional ε.
  ServiceEngine engine;
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":1.0})"));
  const std::string request =
      R"({"op":"explain","session":"alice","epsilon":0.3})";
  const JsonValue first = Call(engine, request);
  ExpectOk(first);
  ASSERT_FALSE(first.at("cache_hit").AsBool());
  const JsonValue second = Call(engine, request);
  ExpectOk(second);
  EXPECT_TRUE(second.at("cache_hit").AsBool());
  EXPECT_EQ(second.at("explanation").Dump(), first.at("explanation").Dump());
  EXPECT_EQ(second.at("epsilon_charged").AsNumber(), 0.0);
}

TEST(ServiceTest, ConcurrentIdenticalExplainsChargeOnce) {
  // N identical explain requests race through the pool: exactly one may
  // spend ε and compute; the others must wait for it in flight and take
  // the cache hit (a dual charge would silently burn double budget).
  ServiceEngine engine;
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":10.0})"));
  constexpr int kRequests = 8;
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0;
  std::vector<std::string> responses;
  for (int i = 0; i < kRequests; ++i) {
    const Status submitted = engine.HandleAsync(
        R"({"op":"explain","session":"alice","epsilon":0.3})",
        [&](std::string response) {
          std::lock_guard<std::mutex> lock(mutex);
          responses.push_back(std::move(response));
          ++completed;
          cv.notify_all();
        });
    ASSERT_TRUE(submitted.ok());
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == kRequests; });
  }
  int misses = 0;
  double charged = 0.0;
  for (const std::string& response : responses) {
    const JsonValue parsed = Parse(response);
    ExpectOk(parsed);
    if (!parsed.at("cache_hit").AsBool()) ++misses;
    charged += parsed.at("epsilon_charged").AsNumber();
  }
  EXPECT_EQ(misses, 1);
  EXPECT_NEAR(charged, 0.3, 1e-12);
  const JsonValue budget =
      Call(engine, R"({"op":"budget","session":"alice"})");
  EXPECT_NEAR(budget.at("spent").AsNumber(), 0.3, 1e-12);
  ASSERT_EQ(budget.at("ledger").size(), 1u);
  EXPECT_EQ(budget.at("ledger").at(0).at("count").AsNumber(), 1.0);
}

TEST(ServiceTest, ReplacingDatasetDoesNotResetCap) {
  // Re-registering the same underlying data with replace=true must carry
  // the cross-session cap's spend forward — otherwise any client could
  // reset the dataset-wide ε bound in one request.
  ServiceEngine engine;
  SetUpDataset(engine, /*cap_epsilon=*/0.5);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":10.0})"));
  ExpectOk(Call(engine,
                R"({"op":"explain","session":"alice","epsilon":0.3})"));

  // Same source (generator/rows/seed), bigger requested cap: the cap can
  // be tightened but never raised or reset by a replacement.
  const JsonValue reloaded = Call(
      engine, R"({"op":"load_dataset","name":"d","source":"synthetic",)"
              R"("generator":"diabetes","rows":1500,"seed":7,)"
              R"("cap_epsilon":100.0,"replace":true})");
  ExpectOk(reloaded);
  EXPECT_NEAR(reloaded.at("cap_epsilon").AsNumber(), 0.5, 1e-12);
  ExpectOk(Call(engine,
                R"({"op":"cluster","dataset":"d","method":"k-means","k":3,)"
                R"("seed":3})"));
  ExpectOk(Call(engine, R"({"op":"create_session","session":"bob",)"
                        R"("dataset":"d","epsilon":10.0})"));
  // Only 0.5 - 0.3 = 0.2 of the cap survives the replacement.
  ExpectError(Call(engine,
                   R"({"op":"explain","session":"bob","epsilon":0.3})"),
              "OutOfBudget");
  ExpectOk(Call(engine, R"({"op":"size","session":"bob","cluster":0,)"
                        R"("epsilon":0.1})"));
  const JsonValue bob = Call(engine, R"({"op":"budget","session":"bob"})");
  ExpectOk(bob);
  EXPECT_NEAR(bob.at("dataset_cap_remaining").AsNumber(), 0.1, 1e-9);

  // A genuinely different source (other row count) is new data and gets
  // the cap it asks for.
  const JsonValue fresh = Call(
      engine, R"({"op":"load_dataset","name":"d","source":"synthetic",)"
              R"("generator":"diabetes","rows":1600,"seed":7,)"
              R"("cap_epsilon":0.5,"replace":true})");
  ExpectOk(fresh);
  ExpectOk(Call(engine,
                R"({"op":"cluster","dataset":"d","method":"k-means","k":3,)"
                R"("seed":3})"));
  ExpectOk(Call(engine, R"({"op":"create_session","session":"carol",)"
                        R"("dataset":"d","epsilon":10.0})"));
  ExpectOk(Call(engine,
                R"({"op":"explain","session":"carol","epsilon":0.3})"));
}

/// The engine's registry as the `metrics` op returns it.
JsonValue Registry(ServiceEngine& engine) {
  const JsonValue response = Call(engine, R"({"op":"metrics"})");
  EXPECT_TRUE(response.at("ok").AsBool()) << response.Dump();
  return response.at("metrics");
}

TEST(ServiceTest, StatsCarriesOnlyNonMetricFacts) {
  // Per-op counts live only in the registry: count/errors/deadline per op
  // are counters, total and max latency are the histogram's sum and max,
  // and ops never called read zero.
  ServiceEngine engine;
  SetUpDataset(engine);
  ExpectError(Call(engine, R"({"op":"schema","dataset":"ghost"})"),
              "NotFound");
  const JsonValue registry = Registry(engine);
  const JsonValue& counters = registry.at("counters");
  EXPECT_EQ(counters.at(R"(dpclustx_op_requests_total{op="schema"})")
                .AsNumber(),
            1.0);
  EXPECT_EQ(
      counters.at(R"(dpclustx_op_errors_total{op="schema"})").AsNumber(),
      1.0);
  EXPECT_EQ(counters.at(R"(dpclustx_op_deadline_exceeded_total{op="schema"})")
                .AsNumber(),
            0.0);
  EXPECT_EQ(counters.at(R"(dpclustx_op_requests_total{op="load_dataset"})")
                .AsNumber(),
            1.0);
  EXPECT_EQ(counters.at(R"(dpclustx_op_requests_total{op="explain"})")
                .AsNumber(),
            0.0);
  const JsonValue& schema_latency =
      registry.at("histograms").at(R"(dpclustx_op_latency_micros{op="schema"})");
  EXPECT_EQ(schema_latency.at("count").AsNumber(), 1.0);
  EXPECT_TRUE(schema_latency.Has("sum_micros"));
  EXPECT_TRUE(schema_latency.Has("max_micros"));
  // The counters the old stats blocks copied are all series.
  const JsonValue& gauges = registry.at("gauges");
  for (const char* gauge :
       {"dpclustx_cache_hits", "dpclustx_cache_evictions",
        "dpclustx_pool_queue_depth", "dpclustx_pool_active",
        "dpclustx_compute_pool_width", "dpclustx_audit_epsilon_charged"}) {
    EXPECT_TRUE(gauges.Has(gauge)) << gauge;
  }
  EXPECT_TRUE(counters.Has("dpclustx_requests_shed_total"));
  EXPECT_EQ(gauges.at("dpclustx_trace_dropped_total").AsNumber(), 0.0);

  const JsonValue stats = Call(engine, R"({"op":"stats"})");
  ExpectOk(stats);
  const std::vector<std::string> keys = stats.ObjectKeys();
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()),
            (std::set<std::string>{"ok", "datasets", "sessions", "build",
                                   "queue_capacity", "retry_after_ms"}))
      << stats.Dump();
  EXPECT_EQ(stats.at("datasets").at(size_t{0}).AsString(), "d");
  EXPECT_EQ(stats.at("queue_capacity").AsNumber(), 256.0);
  EXPECT_FALSE(stats.at("build").at("compiler").AsString().empty());
}

TEST(ServiceTest, MetricsOpExposesPrometheusAndJson) {
  ServiceEngine engine;
  ExpectOk(Call(engine, R"({"op":"ping"})"));
  // HTTP /metrics serves exactly this text.
  const std::string text = engine.metrics().PrometheusText();
  EXPECT_NE(text.find("# TYPE dpclustx_op_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dpclustx_op_requests_total{op=\"ping\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE dpclustx_op_latency_micros histogram"),
            std::string::npos)
      << text;

  // Histograms use native Prometheus exposition: cumulative le-bucketed
  // series plus _sum/_count, scrapeable by a stock Prometheus with no
  // relabeling.
  EXPECT_NE(
      text.find("dpclustx_op_latency_micros_bucket{op=\"ping\",le=\"50\"}"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("dpclustx_op_latency_micros_bucket{op=\"ping\",le=\"+Inf\"}"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("dpclustx_op_latency_micros_sum{op=\"ping\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("dpclustx_op_latency_micros_count{op=\"ping\"} 1"),
            std::string::npos)
      << text;

  // The op returns the registry as JSON only; a "format" field is not read.
  const JsonValue json_only = Call(engine, R"({"op":"metrics",)"
                                           R"("format":"prometheus"})");
  ExpectOk(json_only);
  EXPECT_TRUE(json_only.Has("metrics"));
  EXPECT_FALSE(json_only.Has("prometheus"));
  // The JSON exposition schema is a stable surface: histograms keep the
  // non-cumulative count/sum_micros/max_micros/bounds_micros/buckets shape
  // regardless of how the Prometheus side renders them.
  const JsonValue& histograms = json_only.at("metrics").at("histograms");
  ASSERT_TRUE(histograms.Has("dpclustx_op_latency_micros{op=\"ping\"}"))
      << json_only.Dump();
  const JsonValue& ping_hist =
      histograms.at("dpclustx_op_latency_micros{op=\"ping\"}");
  EXPECT_EQ(ping_hist.at("count").AsNumber(), 1.0);
  EXPECT_TRUE(ping_hist.Has("sum_micros"));
  EXPECT_TRUE(ping_hist.Has("max_micros"));
  EXPECT_EQ(ping_hist.at("bounds_micros").size(),
            ping_hist.at("buckets").size() - 1)
      << "buckets must keep the trailing +Inf cell";
}

TEST(ServiceTest, TraceContextActivatesTracingAndEchoesTraceId) {
  // A relayed request carrying "_tc" must come back with the span tree and
  // the propagated trace id even without "trace":true — the router cannot
  // stitch a timeline it never receives.
  ServiceEngine engine;
  const JsonValue response = Call(
      engine, R"({"op":"ping","_tc":{"pid":"r7","tid":"t7"},"id":"r7"})");
  ExpectOk(response);
  ASSERT_TRUE(response.Has("trace")) << response.Dump();
  EXPECT_EQ(response.at("trace_id").AsString(), "t7");
  EXPECT_EQ(response.at("trace").at("name").AsString(), "request");

  // The ring entry remembers the propagated id.
  const JsonValue trace_op = Call(engine, R"({"op":"trace"})");
  ExpectOk(trace_op);
  const JsonValue& traces = trace_op.at("traces");
  ASSERT_GE(traces.size(), 1u);
  EXPECT_EQ(traces.at(size_t{0}).at("tid").AsString(), "t7");

  // A malformed _tc (non-object / missing tid) is inert, not an error.
  const JsonValue untraced =
      Call(engine, R"({"op":"ping","_tc":"bogus","id":"x"})");
  ExpectOk(untraced);
  EXPECT_FALSE(untraced.Has("trace"));
}

TEST(ServiceTest, TraceRingCountsEvictionsInsteadOfSilentOverwrite) {
  ServiceEngineOptions options;
  options.trace_ring_capacity = 2;
  ServiceEngine engine(options);
  for (int i = 0; i < 5; ++i) {
    ExpectOk(Call(engine, R"({"op":"ping","trace":true})"));
  }
  const JsonValue trace_op = Call(engine, R"({"op":"trace"})");
  ExpectOk(trace_op);
  EXPECT_EQ(trace_op.at("retained").AsNumber(), 2.0);
  EXPECT_EQ(trace_op.at("dropped").AsNumber(), 3.0);
  EXPECT_EQ(trace_op.at("ring_capacity").AsNumber(), 2.0);
}

/// Flattens a span tree into {name -> wall_micros}.
std::map<std::string, double> FlattenSpans(const JsonValue& trace) {
  std::map<std::string, double> wall_by_name;
  std::vector<const JsonValue*> stack = {&trace};
  while (!stack.empty()) {
    const JsonValue* span = stack.back();
    stack.pop_back();
    wall_by_name[span->at("name").AsString()] =
        span->at("wall_micros").AsNumber();
    const JsonValue& children = span->at("children");
    for (size_t i = 0; i < children.size(); ++i) {
      stack.push_back(&children.at(i));
    }
  }
  return wall_by_name;
}

TEST(ServiceTest, PerRequestTraceCoversThePipelineStages) {
  // Acceptance: traced requests yield span trees covering clustering, the
  // StatsCache build (both during the `cluster` op — explains reuse the
  // resident cache), and the Stage-1/Stage-2 mechanisms, with non-zero
  // wall timings throughout.
  ServiceEngine engine;
  ExpectOk(Call(engine,
                R"({"op":"load_dataset","name":"d","source":"synthetic",)"
                R"("generator":"diabetes","rows":1500,"seed":7})"));
  const JsonValue clustered =
      Call(engine,
           R"({"op":"cluster","dataset":"d","method":"k-means","k":3,)"
           R"("seed":3,"trace":true})");
  ExpectOk(clustered);
  ASSERT_TRUE(clustered.Has("trace")) << clustered.Dump();
  std::map<std::string, double> cluster_spans =
      FlattenSpans(clustered.at("trace"));
  for (const char* stage :
       {"parse", "clustering_fit", "assign_all", "stats_cache_build"}) {
    ASSERT_TRUE(cluster_spans.count(stage) != 0)
        << "missing span '" << stage << "' in "
        << clustered.at("trace").Dump();
    EXPECT_GE(cluster_spans[stage], 1.0) << stage;
  }

  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":1.0})"));
  const JsonValue response =
      Call(engine, R"({"op":"explain","session":"alice","epsilon":0.3,)"
                   R"("trace":true})");
  ExpectOk(response);
  ASSERT_TRUE(response.Has("trace")) << response.Dump();
  std::map<std::string, double> explain_spans =
      FlattenSpans(response.at("trace"));
  for (const char* stage :
       {"parse", "cache_lookup", "budget_check", "explain_compute",
        "stage1_candidates", "stage2_select", "stage2_histograms"}) {
    ASSERT_TRUE(explain_spans.count(stage) != 0)
        << "missing span '" << stage << "' in " << response.at("trace").Dump();
    EXPECT_GE(explain_spans[stage], 1.0) << stage;
  }

  // The ring kept both traces for the `trace` op (and untraced requests
  // do not land there).
  ExpectOk(Call(engine, R"({"op":"ping"})"));
  const JsonValue ring = Call(engine, R"({"op":"trace"})");
  ExpectOk(ring);
  ASSERT_EQ(ring.at("traces").size(), 2u);
  EXPECT_EQ(ring.at("traces").at(0).at("op").AsString(), "cluster");
  EXPECT_EQ(ring.at("traces").at(1).at("op").AsString(), "explain");
  EXPECT_FALSE(ring.at("trace_all").AsBool());
}

TEST(ServiceTest, TraceAllFillsTheRingWithoutInflatingResponses) {
  ServiceEngineOptions options;
  options.trace_all = true;
  options.trace_ring_capacity = 2;
  ServiceEngine engine(options);
  for (int i = 0; i < 3; ++i) {
    const JsonValue response = Call(engine, R"({"op":"ping"})");
    ExpectOk(response);
    EXPECT_FALSE(response.Has("trace"));
  }
  // `trace` op requests are themselves traced; the ring keeps the newest 2.
  const JsonValue ring = Call(engine, R"({"op":"trace"})");
  ExpectOk(ring);
  ASSERT_EQ(ring.at("traces").size(), 2u);
  EXPECT_EQ(ring.at("traces").at(1).at("op").AsString(), "ping");
  EXPECT_TRUE(ring.at("trace_all").AsBool());
  const JsonValue limited = Call(engine, R"({"op":"trace","limit":1})");
  ExpectOk(limited);
  EXPECT_EQ(limited.at("traces").size(), 1u);
}

TEST(ServiceTest, AuditOpRecordsChargesAndDenials) {
  ServiceEngine engine;
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":0.4})"));
  ExpectOk(Call(engine,
                R"({"op":"explain","session":"alice","epsilon":0.3})"));
  // A repeat at ε=0.3 would be a cache hit (same key, zero charge); asking
  // for ε=0.2 misses the cache and exceeds the 0.1 remaining.
  ExpectError(Call(engine,
                   R"({"op":"explain","session":"alice","epsilon":0.2})"),
              "OutOfBudget");

  const JsonValue audit = Call(engine, R"({"op":"audit"})");
  ExpectOk(audit);
  ASSERT_EQ(audit.at("records").size(), 2u);
  const JsonValue& charge = audit.at("records").at(0);
  EXPECT_EQ(charge.at("seq").AsNumber(), 1.0);
  EXPECT_EQ(charge.at("tenant").AsString(), "alice");
  EXPECT_EQ(charge.at("dataset").AsString(), "d");
  EXPECT_TRUE(charge.at("granted").AsBool());
  EXPECT_NEAR(charge.at("epsilon").AsNumber(), 0.3, 1e-12);
  const JsonValue& denial = audit.at("records").at(1);
  EXPECT_FALSE(denial.at("granted").AsBool());
  EXPECT_EQ(denial.at("reason").AsString(), "session budget");

  // The audited charge total equals the ledger spend exactly.
  const JsonValue budget =
      Call(engine, R"({"op":"budget","session":"alice"})");
  EXPECT_EQ(audit.at("totals").at("alice").at("epsilon_charged").AsNumber(),
            budget.at("spent").AsNumber());
  const JsonValue limited = Call(engine, R"({"op":"audit","limit":1})");
  ExpectOk(limited);
  EXPECT_EQ(limited.at("records").size(), 1u);
}

TEST(ServiceTest, ConcurrentAuditTotalsMatchLedgersExactly) {
  // Acceptance: under concurrent multi-tenant load, each tenant's audited
  // ε total must equal its session ledger's spent total EXACTLY (bit-for-
  // bit, not within a tolerance) — both sums accumulate under the session's
  // spend lock, in the same order. Runs under TSan via scripts/check.sh.
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  constexpr int kTenants = 4;
  constexpr int kRequestsPerTenant = 25;
  for (int t = 0; t < kTenants; ++t) {
    ExpectOk(Call(engine, R"({"op":"create_session","session":"tenant)" +
                              std::to_string(t) +
                              R"(","dataset":"d","epsilon":100.0})"));
  }
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0;
  constexpr int kTotal = kTenants * kRequestsPerTenant;
  for (int i = 0; i < kTotal; ++i) {
    // An awkward ε whose repeated sum is inexact in binary floating point:
    // only same-order accumulation can reproduce the ledger total exactly.
    const std::string request =
        R"({"op":"size","session":"tenant)" + std::to_string(i % kTenants) +
        R"(","cluster":0,"epsilon":0.1,"seed":)" + std::to_string(i) + "}";
    const Status submitted =
        engine.HandleAsync(request, [&](std::string response) {
          EXPECT_TRUE(Parse(response).at("ok").AsBool());
          std::lock_guard<std::mutex> lock(mutex);
          ++completed;
          cv.notify_all();
        });
    ASSERT_TRUE(submitted.ok());
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return completed == kTotal; });
  }

  const JsonValue audit = Call(engine, R"({"op":"audit"})");
  ExpectOk(audit);
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    const JsonValue budget =
        Call(engine, R"({"op":"budget","session":")" + tenant + R"("})");
    ExpectOk(budget);
    EXPECT_EQ(
        audit.at("totals").at(tenant).at("epsilon_charged").AsNumber(),
        budget.at("spent").AsNumber())
        << tenant << " audit total diverged from its ledger";
  }
  EXPECT_EQ(audit.at("global").at("charges").AsNumber(),
            static_cast<double>(kTotal));
}

TEST(ServiceTest, InjectedRegistryOutlivesTheEngine) {
  // Two engines sharing one injected registry: per-op instruments are
  // reused (registration is idempotent), and engine destruction detaches
  // its callback gauges so a later exposition does not touch freed state.
  obs::MetricsRegistry registry;
  ServiceEngineOptions options;
  options.metrics_registry = &registry;
  {
    ServiceEngine first(options);
    ExpectOk(Call(first, R"({"op":"ping"})"));
  }
  {
    ServiceEngine second(options);
    ExpectOk(Call(second, R"({"op":"ping"})"));
    ExpectOk(Call(second, R"({"op":"ping"})"));
  }
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("dpclustx_op_requests_total{op=\"ping\"} 3"),
            std::string::npos)
      << text;
  // Callback gauges from both destroyed engines are gone, not dangling.
  EXPECT_EQ(text.find("dpclustx_cache_size"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Streaming ingest: append_rows and memory-mapped DPXCOL sources.
// ---------------------------------------------------------------------------

/// Writes a small DPXCOL file (3 attrs matching nothing in particular) and
/// returns its path. `capacity_rows` reserves append headroom.
std::string WriteSmallColumnar(const std::string& name, size_t capacity_rows) {
  Schema schema({Attribute("color", {"red", "green", "blue"}),
                 Attribute("size", {"s", "m", "l", "xl"}),
                 Attribute("grade", {"lo", "hi"})});
  Dataset dataset(schema);
  for (size_t r = 0; r < 12; ++r) {
    dataset.AppendRowUnchecked({static_cast<ValueCode>(r % 3),
                                static_cast<ValueCode>(r % 4),
                                static_cast<ValueCode>(r % 2)});
  }
  const std::string path =
      testing::TempDir() + "/dpclustx_service_" + name + ".dpxcol";
  std::remove(path.c_str());
  ColumnarWriteOptions options;
  options.capacity_rows = capacity_rows;
  Status written = WriteColumnarFile(dataset, path, options);
  EXPECT_TRUE(written.ok()) << written;
  return path;
}

/// Builds an append_rows request for dataset `name` with one row of
/// `cells` zero codes (code 0 is valid in every domain).
std::string ZeroRowAppend(const std::string& name, size_t cells) {
  std::string row = "[";
  for (size_t a = 0; a < cells; ++a) row += (a == 0 ? "0" : ",0");
  row += "]";
  return R"({"op":"append_rows","dataset":")" + name + R"(","rows":[)" +
         row + "]}";
}

TEST(ServiceTest, AppendRowsBumpsEpochAndInvalidatesCachedReleases) {
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"alice",)"
                        R"("dataset":"d","epsilon":10.0})"));
  const std::string request =
      R"({"op":"explain","session":"alice","epsilon":0.3,"seed":11})";
  ExpectOk(Call(engine, request));
  ASSERT_TRUE(Call(engine, request).at("cache_hit").AsBool());

  // Appending a row advances the dataset epoch...
  const JsonValue append = Call(engine, ZeroRowAppend("d", 47));
  ExpectOk(append);
  EXPECT_EQ(append.at("appended").AsNumber(), 1.0);
  EXPECT_EQ(append.at("rows").AsNumber(), 1501.0);
  EXPECT_GE(append.at("epoch").AsNumber(), 1.0);

  // ...so the same explain request is no longer a cache hit: the cached
  // release described the pre-append data and must not be re-served.
  const JsonValue after = Call(engine, request);
  ExpectOk(after);
  EXPECT_FALSE(after.at("cache_hit").AsBool());
}

TEST(ServiceTest, AppendRowsValidatesCellsBeforeWritingAnything) {
  ServiceEngine engine(DebugNoise());
  SetUpDataset(engine);
  // Wrong arity (diabetes rows have 47 cells).
  ExpectError(Call(engine,
                   R"({"op":"append_rows","dataset":"d","rows":[[0]]})"),
              "InvalidArgument");
  // Out-of-domain numeric code (diabetes domains top out at 39).
  std::string bad = ZeroRowAppend("d", 47);
  bad.replace(bad.find("[[0"), 3, "[[999");
  ExpectError(Call(engine, bad), "InvalidArgument");
  // Unknown dataset.
  ExpectError(Call(engine,
                   R"({"op":"append_rows","dataset":"ghost","rows":[[0]]})"),
              "NotFound");
  // A rejected batch leaves the row count untouched.
  const auto entry = engine.registry().Get("d");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->dataset()->num_rows(), 1500u);
}

TEST(ServiceTest, AppendRowsRefusedOnReadOnlyReplicas) {
  ServiceEngineOptions options = DebugNoise();
  options.read_only = true;
  ServiceEngine replica(options);
  // Refused before any dataset lookup: replicas never mutate state.
  ExpectError(Call(replica,
                   R"({"op":"append_rows","dataset":"d","rows":[[0]]})"),
              "FailedPrecondition");
}

TEST(ServiceTest, ReplicaRefusesExactlyTheOpsTheTableMarksMutating) {
  const std::vector<std::string> ops = {
      "ping",    "load_dataset", "append_rows", "schema",  "cluster",
      "budget",  "create_session", "close_session", "explain", "hist",
      "size",    "stats",        "metrics",     "trace",   "audit",
      "save_snapshot"};
  std::vector<std::string> mutating;
  for (const std::string& op : ops) {
    StatusOr<const OpSpec*> spec = ServiceEngine::FindOp(op);
    ASSERT_TRUE(spec.ok()) << op;
    if ((*spec)->mutates) mutating.push_back(op);
  }
  EXPECT_EQ(mutating,
            (std::vector<std::string>{"load_dataset", "append_rows",
                                      "cluster", "create_session",
                                      "close_session", "size",
                                      "save_snapshot"}));

  // The primary pays for one explain and one hist and snapshots them.
  ServiceEngine primary;
  SetUpDataset(primary);
  ExpectOk(Call(primary, R"({"op":"create_session","session":"s",)"
                         R"("dataset":"d","epsilon":5.0})"));
  const std::string explain =
      R"({"op":"explain","session":"s","epsilon":0.3})";
  const std::string hist =
      R"({"op":"hist","session":"s","attribute":"diab_0","epsilon":0.1})";
  ExpectOk(Call(primary, explain));
  ExpectOk(Call(primary, hist));
  const std::string path = ::testing::TempDir() + "/replica_refusals.snap";
  ExpectOk(Call(primary, R"({"op":"save_snapshot","path":")" + path +
                             R"("})"));

  ServiceEngineOptions options;
  options.read_only = true;
  ServiceEngine replica(options);
  // Refused before any field is read: a bare request names no dataset or
  // session, and still gets the refusal rather than a field error.
  for (const std::string& op : mutating) {
    const JsonValue refused = Call(replica, R"({"op":")" + op + R"("})");
    ExpectError(refused, "FailedPrecondition");
    EXPECT_EQ(refused.at("error").at("message").AsString(),
              "this worker is read-only: " + op +
                  " is refused (retry against the primary)");
  }
  // A replica gets the primary's releases by restoring its snapshot at
  // start; there is no restore op.
  EXPECT_EQ(ServiceEngine::FindOp("load_snapshot").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(replica.RestoreFromFiles(path, "").ok());
  std::remove(path.c_str());

  // Replica reads serve their hits and refuse only the misses.
  for (const std::string& hit : {explain, hist}) {
    const JsonValue served = Call(replica, hit);
    ExpectOk(served);
    EXPECT_TRUE(served.at("cache_hit").AsBool());
  }
  const JsonValue explain_miss = Call(
      replica, R"({"op":"explain","session":"s","epsilon":0.6})");
  ExpectError(explain_miss, "FailedPrecondition");
  EXPECT_EQ(explain_miss.at("error").at("message").AsString(),
            "this worker is read-only: explain (uncached) is refused (retry "
            "against the primary)");
  const JsonValue hist_miss = Call(
      replica, R"({"op":"hist","session":"s","attribute":"diab_1"})");
  ExpectError(hist_miss, "FailedPrecondition");
  EXPECT_EQ(hist_miss.at("error").at("message").AsString(),
            "this worker is read-only: hist (uncached) is refused (retry "
            "against the primary)");
}

TEST(ServiceTest, HistRefusesAnEpsilonTooSmallToSample) {
  // exp(-1e-17) rounds to 1: the geometric noise would be exactly 0 and
  // the bins exact counts.
  ServiceEngine engine;
  SetUpDataset(engine);
  ExpectOk(Call(engine, R"({"op":"create_session","session":"s",)"
                        R"("dataset":"d","epsilon":1.0})"));
  ExpectError(Call(engine, R"({"op":"hist","session":"s",)"
                           R"("attribute":"diab_0","epsilon":1e-17})"),
              "InvalidArgument");
  ExpectError(Call(engine, R"({"op":"size","session":"s","cluster":0,)"
                           R"("epsilon":1e-17})"),
              "InvalidArgument");
}

TEST(ServiceTest, ColumnarDatasetLoadsMappedAndServesExplains) {
  ServiceEngine engine(DebugNoise());
  const std::string path = WriteSmallColumnar("load", /*capacity_rows=*/0);
  const JsonValue load = Call(
      engine, R"({"op":"load_dataset","name":"m","source":"dpxcol",)"
              R"("path":")" + path + R"(","verify":true})");
  ExpectOk(load);
  EXPECT_TRUE(load.at("mapped").AsBool());
  EXPECT_EQ(load.at("rows").AsNumber(), 12.0);
  EXPECT_EQ(load.at("attributes").AsNumber(), 3.0);

  ExpectOk(Call(engine,
                R"({"op":"cluster","dataset":"m","method":"k-modes","k":2,)"
                R"("seed":5})"));
  ExpectOk(Call(engine, R"({"op":"create_session","session":"bob",)"
                        R"("dataset":"m","epsilon":2.0})"));
  const JsonValue explain = Call(
      engine, R"({"op":"explain","session":"bob","epsilon":0.5,"seed":3})");
  ExpectOk(explain);
  EXPECT_FALSE(explain.at("text").AsString().empty());
  std::remove(path.c_str());
}

TEST(ServiceTest, AppendToMappedDatasetGrowsTheFileOnDisk) {
  ServiceEngine engine(DebugNoise());
  const std::string path = WriteSmallColumnar("grow", /*capacity_rows=*/64);
  ExpectOk(Call(engine,
                R"({"op":"load_dataset","name":"m","source":"dpxcol",)"
                R"("path":")" + path + R"("})"));
  // Mix label-string and numeric-code cells in one batch.
  const JsonValue append = Call(
      engine, R"({"op":"append_rows","dataset":"m",)"
              R"("rows":[["red","xl","hi"],[2,0,0]]})");
  ExpectOk(append);
  EXPECT_EQ(append.at("rows").AsNumber(), 14.0);

  // The durable file — reopened offline — has the new rows committed.
  auto reopened = MappedColumnar::Open(path, {/*verify_data=*/true});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->num_rows(), 14u);
  auto offline = Dataset::FromMapped(*reopened);
  ASSERT_TRUE(offline.ok()) << offline.status();
  EXPECT_EQ(offline->Row(12), (std::vector<ValueCode>{0, 3, 1}));
  EXPECT_EQ(offline->Row(13), (std::vector<ValueCode>{2, 0, 0}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dpclustx::service
