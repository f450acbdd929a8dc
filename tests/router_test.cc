// Tests for the sharded multi-worker front door: RouterCore policy units
// (hash ring, classification, session table, backoff); the Router library
// end to end in-process, over ServiceEngine-backed and scripted worker
// links (garbage output, death mid-request); and the real dpclustx_router
// + dpclustx_serve binaries over pipes where only processes will do —
// SIGKILLing workers mid-session to verify that respawn + snapshot/journal
// restore preserves every ε charge exactly once, replica sync, and flags.

#include "service/router.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "service/router_core.h"
#include "service/service_engine.h"
#include "service/worker.h"

namespace dpclustx::service {
namespace {

// ---- RouterCore policy units -----------------------------------------

TEST(HashRingTest, RoutingIsDeterministicAndCoversEveryNode) {
  const std::vector<std::string> nodes = {"shard-0", "shard-1", "shard-2"};
  HashRing ring(nodes);
  HashRing same(nodes);
  std::map<std::string, size_t> load;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "dataset-" + std::to_string(i);
    const std::string& node = ring.Route(key);
    EXPECT_EQ(node, same.Route(key)) << key;  // placement is a contract
    load[node]++;
  }
  ASSERT_EQ(load.size(), 3u);  // no starved shard
  for (const auto& [node, count] : load) {
    EXPECT_GT(count, 100u) << node << " is badly underloaded";
  }
}

TEST(HashRingTest, AddingANodeMovesOnlyAFractionOfKeys) {
  HashRing three({"shard-0", "shard-1", "shard-2"});
  HashRing four({"shard-0", "shard-1", "shard-2", "shard-3"});
  size_t moved = 0;
  const size_t keys = 1000;
  for (size_t i = 0; i < keys; ++i) {
    const std::string key = "dataset-" + std::to_string(i);
    if (three.Route(key) != four.Route(key)) ++moved;
  }
  // Consistent hashing moves ~1/4 of keys on 3→4; a modulo scheme would
  // move ~3/4. Half is a generous bound that still catches regressions.
  EXPECT_LT(moved, keys / 2);
  EXPECT_GT(moved, 0u);  // the new shard owns something
}

JsonValue ParseRequest(const std::string& text) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return std::move(*parsed);
}

TEST(RouterCoreTest, ClassifiesEveryOpKind) {
  RouterCore core({"shard-0", "shard-1"});
  // Bound first, so the session-keyed rows below resolve to its dataset.
  ASSERT_TRUE(core.Classify(ParseRequest(
                  R"({"op":"create_session","dataset":"census",)"
                  R"("session":"alice"})"))
                  .ok());

  const std::string session = R"(,"session":"alice"})";
  struct Row {
    std::string request;
    OpPlacement placement;
    std::string dataset;
  };
  const std::vector<Row> rows = {
      {R"({"op":"ping"})", OpPlacement::kEveryShard, ""},
      {R"({"op":"load_dataset","name":"census"})", OpPlacement::kShard,
       "census"},
      {R"({"op":"append_rows","dataset":"census"})", OpPlacement::kShard,
       "census"},
      {R"({"op":"schema","dataset":"census"})", OpPlacement::kShard,
       "census"},
      {R"({"op":"cluster","dataset":"census"})", OpPlacement::kShard,
       "census"},
      {R"({"op":"budget")" + session, OpPlacement::kShard, "census"},
      {R"({"op":"create_session","dataset":"census")" + session,
       OpPlacement::kShard, "census"},
      {R"({"op":"explain")" + session, OpPlacement::kReplicaRead, "census"},
      {R"({"op":"hist")" + session, OpPlacement::kReplicaRead, "census"},
      {R"({"op":"size")" + session, OpPlacement::kShard, "census"},
      {R"({"op":"stats"})", OpPlacement::kEveryShard, ""},
      {R"({"op":"metrics"})", OpPlacement::kFleetRollup, ""},
      {R"({"op":"trace"})", OpPlacement::kRouter, ""},
      {R"({"op":"audit"})", OpPlacement::kEveryShard, ""},
      {R"({"op":"save_snapshot","path":"x"})", OpPlacement::kRefused, ""},
      // Last: it unbinds the session the rows above route by.
      {R"({"op":"close_session")" + session, OpPlacement::kShard, "census"},
  };
  ASSERT_EQ(rows.size(), 16u);
  for (const Row& row : rows) {
    StatusOr<RouteDecision> d = core.Classify(ParseRequest(row.request));
    ASSERT_TRUE(d.ok()) << row.request << ": " << d.status();
    EXPECT_EQ(d->placement, row.placement) << row.request;
    EXPECT_EQ(d->dataset, row.dataset) << row.request;
  }

  // An op the engine does not serve gets the engine's own answer; a
  // worker restores only at start, so there is no restore op.
  for (const std::string op : {"frobnicate", "load_snapshot"}) {
    StatusOr<RouteDecision> d = core.Classify(
        ParseRequest(R"({"op":")" + op + R"(","path":"x"})"));
    ASSERT_FALSE(d.ok()) << op;
    EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(d.status().message(), "unknown op '" + op + "'");
  }
}

TEST(RouterCoreTest, SessionsBindOnCreateAndUnbindOnClose) {
  RouterCore core({"shard-0", "shard-1"});

  // Before create: session-keyed ops are unroutable, deterministically.
  StatusOr<RouteDecision> d =
      core.Classify(ParseRequest(R"({"op":"budget","session":"alice"})"));
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kNotFound);

  d = core.Classify(ParseRequest(
      R"({"op":"create_session","dataset":"census","session":"alice"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->placement, OpPlacement::kShard);
  EXPECT_EQ(core.sessions().size(), 1u);

  // Session-keyed ops now route to the dataset's shard; reads are
  // replica-eligible, control ops are not.
  d = core.Classify(ParseRequest(R"({"op":"budget","session":"alice"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->placement, OpPlacement::kShard);
  EXPECT_EQ(d->dataset, "census");

  d = core.Classify(ParseRequest(
      R"({"op":"hist","session":"alice","attribute":"a"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->placement, OpPlacement::kReplicaRead);
  EXPECT_EQ(d->dataset, "census");

  d = core.Classify(
      ParseRequest(R"({"op":"close_session","session":"alice"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->placement, OpPlacement::kShard);
  EXPECT_EQ(core.sessions().size(), 0u);

  d = core.Classify(ParseRequest(R"({"op":"budget","session":"alice"})"));
  EXPECT_FALSE(d.ok());
}

TEST(RouterCoreTest, UndoBindingRestoresWhatClassifyReplaced) {
  RouterCore core({"shard-0", "shard-1"});
  const auto classify = [&](const std::string& request) {
    StatusOr<RouteDecision> d = core.Classify(ParseRequest(request));
    EXPECT_TRUE(d.ok()) << request << ": " << d.status();
    return *d;
  };
  const RouteDecision first = classify(
      R"({"op":"create_session","dataset":"census","session":"alice"})");
  EXPECT_FALSE(first.replaced.has_value());
  const RouteDecision second = classify(
      R"({"op":"create_session","dataset":"adult","session":"alice"})");
  EXPECT_EQ(second.replaced, std::optional<std::string>("census"));

  core.UndoBinding(second);
  StatusOr<std::string> bound = core.sessions().Lookup("alice");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, "census");

  const RouteDecision close =
      classify(R"({"op":"close_session","session":"alice"})");
  EXPECT_FALSE(core.sessions().Lookup("alice").ok());
  core.UndoBinding(close);
  bound = core.sessions().Lookup("alice");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, "census");

  core.UndoBinding(first);  // back to never bound
  EXPECT_FALSE(core.sessions().Lookup("alice").ok());

  // Ops that bind nothing undo nothing.
  core.UndoBinding(classify(R"({"op":"ping"})"));
  EXPECT_EQ(core.sessions().size(), 0u);
}

TEST(RouterCoreTest, MissingFieldsAreInvalidArgument) {
  RouterCore core({"shard-0"});
  StatusOr<RouteDecision> d =
      core.Classify(ParseRequest(R"({"op":"load_dataset"})"));
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kInvalidArgument);

  d = core.Classify(ParseRequest(R"({"no_op":1})"));
  ASSERT_FALSE(d.ok());
}

TEST(BackoffTest, DoublesFromBaseAndClampsAtCapWithoutOverflow) {
  Backoff backoff;  // base 100, cap 2000
  EXPECT_EQ(backoff.DelayMs(1), 100);
  EXPECT_EQ(backoff.DelayMs(2), 200);
  EXPECT_EQ(backoff.DelayMs(3), 400);
  EXPECT_EQ(backoff.DelayMs(5), 1600);
  EXPECT_EQ(backoff.DelayMs(6), 2000);
  EXPECT_EQ(backoff.DelayMs(64), 2000);   // would overflow a naive shift
  EXPECT_EQ(backoff.DelayMs(1000), 2000);
}

TEST(BackoffTest, JitteredDelayStaysWithinTwentyPercentAndIsDeterministic) {
  Backoff backoff;  // base 100, cap 2000
  for (uint64_t attempt = 1; attempt <= 6; ++attempt) {
    const int64_t delay = backoff.DelayMs(attempt);
    for (const double u : {0.0, 0.25, 0.5, 0.999}) {
      const int64_t jittered = backoff.JitteredDelayMs(attempt, u);
      // The jitter factor is exactly 0.8 + 0.4u, so a fixed u is a fixed
      // delay — respawn tests can rely on that.
      EXPECT_EQ(jittered,
                static_cast<int64_t>(static_cast<double>(delay) *
                                     (0.8 + 0.4 * u)));
      EXPECT_GE(jittered, static_cast<int64_t>(0.8 * delay));
      EXPECT_LT(jittered, static_cast<int64_t>(1.2 * delay) + 1);
    }
  }
}

TEST(BackoffTest, JitteredDelayClampsOutOfRangeRandomness) {
  Backoff backoff;  // base 100, cap 2000
  const int64_t delay = backoff.DelayMs(3);  // 400
  // A broken RNG must not push the delay outside the ±20% band. (The
  // upper clamp is nextafter(1, 0), whose factor rounds to exactly 1.2.)
  EXPECT_EQ(backoff.JitteredDelayMs(3, -7.5), backoff.JitteredDelayMs(3, 0.0));
  EXPECT_LE(backoff.JitteredDelayMs(3, 42.0), static_cast<int64_t>(1.2 * delay));
  EXPECT_GE(backoff.JitteredDelayMs(3, 42.0), backoff.JitteredDelayMs(3, 0.999));
}

TEST(BackoffTest, JitteredDelayNeverReturnsZero) {
  // 0.8 * 1ms truncates to 0; a zero delay would make the respawn loop
  // spin. The floor keeps it at 1ms.
  Backoff tiny{.base_ms = 1, .max_ms = 1};
  EXPECT_EQ(tiny.JitteredDelayMs(1, 0.0), 1);
}

// ---- shared helpers ----------------------------------------------------

std::string BuildDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n] = '\0';
  std::string path(buf);          // .../build/tests/router_test
  path = path.substr(0, path.rfind('/'));  // .../build/tests
  return path.substr(0, path.rfind('/'));  // .../build
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/router_" + name + "_" +
      std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  // Stale state from a previous run of the same pid is implausible but
  // cheap to rule out.
  for (int i = 0; i < 4; ++i) {
    const std::string base = dir + "/shard-" + std::to_string(i);
    ::unlink((base + ".snap").c_str());
    ::unlink((base + ".journal").c_str());
  }
  return dir;
}

void ExpectOk(const JsonValue& response) {
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  EXPECT_TRUE(response.at("ok").AsBool()) << response.Dump();
}

/// Response lines correlated by their string id, for either harness.
class ResponseBox {
 public:
  void Deliver(const std::string& line) {
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok() || parsed->type() != JsonValue::Type::kObject ||
        !parsed->Has("id") ||
        parsed->at("id").type() != JsonValue::Type::kString) {
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    received_[parsed->at("id").AsString()] = *parsed;
    cv_.notify_all();
  }

  /// Takes `id`'s response, waiting up to `timeout`; null when none came.
  JsonValue Take(const std::string& id, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, timeout,
                      [&] { return received_.count(id) != 0; })) {
      return JsonValue::Null();
    }
    JsonValue response = std::move(received_[id]);
    received_.erase(id);
    return response;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, JsonValue> received_;
};

/// Pids of the live shard primaries, from _router_status.
template <typename RouterHarness>
std::vector<pid_t> ShardPids(RouterHarness& router, const std::string& id) {
  const JsonValue status =
      router.Call(id, R"({"op":"_router_status","id":")" + id + R"("})");
  std::vector<pid_t> pids;
  if (!status.Has("workers")) return pids;
  const JsonValue& workers = status.at("workers");
  for (size_t i = 0; i < workers.size(); ++i) {
    const JsonValue& w = workers.at(i);
    if (w.at("role").AsString() == "shard" && w.at("alive").AsBool()) {
      pids.push_back(static_cast<pid_t>(w.at("pid").AsNumber()));
    }
  }
  return pids;
}

/// Polls _router_status until every shard is alive under a pid not in
/// `old`; returns the last pids seen.
template <typename RouterHarness>
std::vector<pid_t> AwaitRespawn(RouterHarness& router,
                                const std::vector<pid_t>& old,
                                const std::string& id_prefix) {
  std::vector<pid_t> fresh;
  for (int attempt = 0; attempt < 800; ++attempt) {  // 20 s
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    fresh = ShardPids(router, id_prefix + std::to_string(attempt));
    bool all_new = fresh.size() == old.size();
    for (const pid_t pid : fresh) {
      for (const pid_t gone : old) all_new = all_new && pid != gone;
    }
    if (all_new) break;
  }
  return fresh;
}

/// Child span of `node` with the given name, or nullptr.
const JsonValue* FindChild(const JsonValue& node, const std::string& name) {
  if (!node.Has("children")) return nullptr;
  const JsonValue& children = node.at("children");
  for (size_t i = 0; i < children.size(); ++i) {
    if (children.at(i).at("name").AsString() == name) return &children.at(i);
  }
  return nullptr;
}

// ---- in-process: the Router library over test links ------------------

/// In-process stand-in for a dpclustx_serve child: the worker lifecycle
/// (service/worker.h) started from the argv the router builds, so a
/// respawn restores from the same snapshot and journal files. The router
/// runs these with --threads 1, so the single engine thread serves the
/// stream in order, like a worker started with --sync. kGarbage answers
/// every line with non-JSON; kUnparseable with the engine's answer plus a
/// bare-word member, which the relay scanner accepts and the JSON parser
/// refuses. Freeze holds lines unanswered, and Kill then fires the death
/// callback with them still owed — a SIGSTOP + SIGKILL mid-request. Every
/// line the link accepts is kept, in order, for Sent().
class EngineLink : public WorkerLink {
 public:
  enum class Script { kServe, kGarbage, kUnparseable };

  EngineLink(Script script, std::vector<std::string> argv)
      : script_(script), argv_(std::move(argv)) {}
  ~EngineLink() override { Kill(); }

  Status Start(LineFn on_line, DeathFn on_death) override {
    std::vector<std::string> argv = argv_;
    std::vector<char*> args;
    for (std::string& arg : argv) args.push_back(arg.data());
    WorkerOptions options;
    const int stop = ParseWorkerFlags(static_cast<int>(args.size()),
                                      args.data(), &options);
    if (stop != static_cast<int>(args.size())) {
      return Status::InvalidArgument("unknown worker flag " + argv[stop]);
    }
    // Held across the restore, so a Send waits for it the way a line
    // written into a process's pipe waits for the child to restore.
    std::lock_guard<std::mutex> lock(mutex_);
    pid_.store(next_pid_.fetch_add(1));
    DPX_ASSIGN_OR_RETURN(worker_, Worker::Start(options, nullptr));
    on_line_ = std::move(on_line);
    on_death_ = std::move(on_death);
    frozen_ = false;
    return Status::OK();
  }

  bool Send(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (worker_ == nullptr) return false;
    sent_.push_back(line);
    if (frozen_) return true;  // accepted, never answered
    return worker_->engine()
        .HandleAsync(line,
                     [this](std::string response) {
                       switch (script_) {
                         case Script::kServe:
                           break;
                         case Script::kGarbage:
                           response = "garbage not json";
                           break;
                         case Script::kUnparseable:
                           response.pop_back();  // the closing brace
                           response += ",\"x\":bogus}";
                           break;
                       }
                       on_line_(std::move(response));
                     })
        .ok();
  }

  std::vector<std::string> Sent() {
    std::lock_guard<std::mutex> lock(mutex_);
    return sent_;
  }

  /// A SIGKILL: the worker goes without its final snapshot.
  void Kill() override { Stop(/*drain=*/false); }

  /// EOF on stdin: the worker drains and writes its final snapshot.
  void Close() override { Stop(/*drain=*/true); }

  int64_t Pid() const override { return pid_.load(); }

  void Freeze() {
    std::lock_guard<std::mutex> lock(mutex_);
    frozen_ = true;
  }

 private:
  void Stop(bool drain) {
    std::unique_ptr<Worker> worker;
    DeathFn on_death;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      worker = std::move(worker_);
      on_death = on_death_;
    }
    if (worker == nullptr) return;
    if (drain) worker->Shutdown();  // queued responses land before the "EOF"
    worker.reset();
    on_death();
    pid_.store(-1);
  }

  static inline std::atomic<int64_t> next_pid_{1000};
  const Script script_;
  const std::vector<std::string> argv_;
  std::mutex mutex_;
  std::unique_ptr<Worker> worker_;  // guarded by mutex_
  std::vector<std::string> sent_;   // guarded by mutex_
  LineFn on_line_;
  DeathFn on_death_;
  bool frozen_ = false;  // guarded by mutex_
  std::atomic<int64_t> pid_{-1};
};

/// A factory of EngineLinks; `links` (optional) collects them in spawn
/// order so a test can script them.
WorkerLinkFactory EngineLinks(
    EngineLink::Script script = EngineLink::Script::kServe,
    std::vector<EngineLink*>* links = nullptr) {
  return [script, links](const std::string&, std::vector<std::string> argv)
             -> std::unique_ptr<WorkerLink> {
    auto link = std::make_unique<EngineLink>(script, std::move(argv));
    if (links != nullptr) links->push_back(link.get());
    return link;
  };
}

RouterOptions InProcessOptions(const std::string& state_dir, size_t workers) {
  RouterOptions options;
  options.workers = workers;
  options.state_dir = state_dir;
  options.health_interval_ms = 100;
  options.worker_args = {"--threads", "1"};
  return options;
}

/// Drives a Router in-process through HandleAsync, with a private metrics
/// registry, correlating responses by id.
class InProcessRouter {
 public:
  InProcessRouter(RouterOptions options, WorkerLinkFactory make_link)
      : router_(std::move(options), &metrics_, std::move(make_link)) {}

  void Send(const std::string& line) {
    ASSERT_TRUE(router_
                    .HandleAsync(line,
                                 [this](std::string response) {
                                   box_.Deliver(response);
                                 })
                    .ok());
  }

  JsonValue Call(const std::string& id, const std::string& request) {
    Send(request);
    return WaitFor(id);
  }

  /// 30s deadline by default: a hang here is a router bug.
  JsonValue WaitFor(const std::string& id, std::chrono::milliseconds timeout =
                                               std::chrono::seconds(30)) {
    JsonValue response = box_.Take(id, timeout);
    EXPECT_TRUE(response.type() != JsonValue::Type::kNull)
        << "no response for id '" << id << "'";
    return response;
  }

  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  obs::MetricsRegistry metrics_;  // outlives router_
  ResponseBox box_;
  Router router_;  // destroyed first: no callback outlives the box
};

TEST(RouterE2eTest, ShardedSessionFlowAcrossTwoWorkers) {
  InProcessRouter router(InProcessOptions(FreshStateDir("flow"), 2),
                         EngineLinks());

  // Two datasets: the ring may place them on the same shard or different
  // ones — either way every dataset-keyed op must land where its data is.
  ExpectOk(router.Call(
      "t1",
      R"({"op":"load_dataset","name":"d1","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"t1"})"));
  ExpectOk(router.Call(
      "t2",
      R"({"op":"load_dataset","name":"d2","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"t2"})"));
  ExpectOk(router.Call(
      "t3",
      R"({"op":"cluster","dataset":"d1","method":"k-means","k":3,"id":"t3"})"));
  ExpectOk(router.Call(
      "t4",
      R"({"op":"cluster","dataset":"d2","method":"k-means","k":3,"id":"t4"})"));
  ExpectOk(router.Call(
      "t5",
      R"({"op":"create_session","dataset":"d1","session":"alice",)"
      R"("epsilon":2.0,"id":"t5"})"));
  ExpectOk(router.Call(
      "t6",
      R"({"op":"create_session","dataset":"d2","session":"bob",)"
      R"("epsilon":2.0,"id":"t6"})"));

  const JsonValue hist = router.Call(
      "t7", R"({"op":"hist","session":"alice","attribute":"diab_3",)"
            R"("epsilon":0.1,"id":"t7"})");
  ExpectOk(hist);
  EXPECT_FALSE(hist.at("cache_hit").AsBool());

  const JsonValue budget = router.Call(
      "t8", R"({"op":"budget","session":"alice","id":"t8"})");
  ExpectOk(budget);
  EXPECT_DOUBLE_EQ(budget.at("spent").AsNumber(), 0.1);

  // Broadcast: a ping fans out and returns one pong per shard.
  const JsonValue ping = router.Call("t9", R"({"op":"ping","id":"t9"})");
  ExpectOk(ping);
  ASSERT_TRUE(ping.Has("workers"));
  EXPECT_TRUE(ping.at("workers").Has("shard-0"));
  EXPECT_TRUE(ping.at("workers").Has("shard-1"));

  // Snapshot ops belong to the router, not clients.
  const JsonValue refused = router.Call(
      "t10", R"({"op":"save_snapshot","path":"x.snap","id":"t10"})");
  ASSERT_FALSE(refused.at("ok").AsBool());
  EXPECT_EQ(refused.at("error").at("code").AsString(), "FailedPrecondition");
  // Restore is not an op at all: workers restore once, at start.
  const JsonValue restore = router.Call(
      "t12", R"({"op":"load_snapshot","path":"x.snap","id":"t12"})");
  ASSERT_FALSE(restore.at("ok").AsBool());
  EXPECT_EQ(restore.at("error").at("message").AsString(),
            "unknown op 'load_snapshot'");

  // A session this router never saw is deterministically unroutable.
  const JsonValue ghost = router.Call(
      "t11", R"({"op":"budget","session":"ghost","id":"t11"})");
  ASSERT_FALSE(ghost.at("ok").AsBool());
  EXPECT_EQ(ghost.at("error").at("code").AsString(), "NotFound");
}

TEST(RouterE2eTest, FailedCreateSessionKeepsTheSessionsShard) {
  // Two datasets on different shards: a create_session the worker refuses
  // must not move the session's binding to the refused dataset's shard,
  // or its ledger on the first shard becomes unreachable.
  const RouterCore placement({"shard-0", "shard-1"});
  std::string a = "a";
  std::string b = "b";
  for (int i = 0; placement.ShardFor(a) == placement.ShardFor(b); ++i) {
    b = "b" + std::to_string(i);
  }
  InProcessRouter router(InProcessOptions(FreshStateDir("rebind"), 2),
                         EngineLinks());
  for (const std::string& name : {a, b}) {
    ExpectOk(router.Call(
        "load-" + name,
        R"({"op":"load_dataset","name":")" + name +
            R"(","source":"synthetic","generator":"diabetes","rows":200,)"
            R"("id":"load-)" + name + R"("})"));
  }
  ExpectOk(router.Call(
      "c1", R"({"op":"create_session","dataset":")" + a +
                R"(","session":"alice","epsilon":1.0,"id":"c1"})"));
  const JsonValue refused = router.Call(
      "c2", R"({"op":"create_session","dataset":")" + b +
                R"(","session":"alice","epsilon":-1,"id":"c2"})");
  ASSERT_FALSE(refused.at("ok").AsBool());
  EXPECT_EQ(refused.at("error").at("code").AsString(), "InvalidArgument");

  const JsonValue budget =
      router.Call("c3", R"({"op":"budget","session":"alice","id":"c3"})");
  ExpectOk(budget);
  EXPECT_EQ(budget.at("dataset").AsString(), a);
}

/// Checks that `response` failed with an Internal error whose message
/// contains `message`, and carries a router-side-only timeline marked
/// partial, and that the router's trace ring holds it as partial too.
void ExpectPartialTimeline(InProcessRouter& router, const JsonValue& response,
                           const std::string& message,
                           const std::string& ring_id) {
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  EXPECT_FALSE(response.at("ok").AsBool()) << response.Dump();
  EXPECT_EQ(response.at("error").at("code").AsString(), "Internal")
      << response.Dump();
  EXPECT_NE(response.at("error").at("message").AsString().find(message),
            std::string::npos)
      << response.Dump();
  ASSERT_TRUE(response.Has("trace_partial")) << response.Dump();
  EXPECT_TRUE(response.at("trace_partial").AsBool());
  ASSERT_TRUE(response.Has("trace_id")) << response.Dump();
  const JsonValue& root = response.at("trace");
  EXPECT_EQ(root.at("name").AsString(), "router_request");
  const JsonValue* roundtrip = FindChild(root, "worker_roundtrip");
  ASSERT_NE(roundtrip, nullptr) << root.Dump();
  EXPECT_EQ(FindChild(*roundtrip, "request"), nullptr) << roundtrip->Dump();
  EXPECT_NE(FindChild(root, "forward"), nullptr) << root.Dump();

  const JsonValue ring = router.Call(
      ring_id, R"({"op":"trace","limit":1,"id":")" + ring_id + R"("})");
  ExpectOk(ring);
  ASSERT_EQ(ring.at("traces").size(), 1u) << ring.Dump();
  const JsonValue& entry = ring.at("traces").at(0);
  EXPECT_EQ(entry.at("tid").AsString(), response.at("trace_id").AsString());
  EXPECT_TRUE(entry.at("partial").AsBool()) << entry.Dump();
}

TEST(RouterE2eTest, GarbageWorkerLinesFailTheRequestNotTheRouter) {
  // A worker that answers every request line with garbage: a line the
  // scanner refuses (the oldest request the worker owes fails) and one it
  // accepts but the parser a traced relay needs refuses (that request
  // fails). The router must not hang the client waiting on it, and must
  // not crash — it fails the pending request with a structured error that
  // still carries the router-side timeline, and counts the dropped line.
  const std::vector<std::pair<EngineLink::Script, std::string>> scripts = {
      {EngineLink::Script::kGarbage, "malformed"},
      {EngineLink::Script::kUnparseable, "unparseable"},
  };
  for (const auto& [script, message] : scripts) {
    RouterOptions options = InProcessOptions(FreshStateDir("garbage"), 1);
    // No health pings during the test window: a ping would also get a
    // garbage reply and eventually respawn the worker, which is not probed.
    options.health_interval_ms = 60000;
    InProcessRouter router(std::move(options), EngineLinks(script));

    const JsonValue response = router.Call(
        "c1", R"({"op":"schema","dataset":"d","trace":true,"id":"c1"})");
    ExpectPartialTimeline(router, response, message, "c2");

    // The drop is counted in the router's registry — the text its front
    // door serves as GET /metrics.
    const std::string metrics = router.metrics().PrometheusText();
    EXPECT_NE(metrics.find("\ndpclustx_router_dropped_lines_total 1\n"),
              std::string::npos)
        << metrics;

    // A broadcast owed by the same worker ends the same way, promptly:
    // its piece is the Internal error, and the client gets its one reply.
    router.Send(R"({"op":"ping","id":"c3"})");
    const JsonValue ping = router.WaitFor("c3", std::chrono::seconds(5));
    ASSERT_EQ(ping.type(), JsonValue::Type::kObject) << message;
    ASSERT_TRUE(ping.Has("workers")) << message << ": " << ping.Dump();
    EXPECT_EQ(ping.at("workers").at("shard-0").at("error").at("code")
                  .AsString(),
              "Internal")
        << ping.Dump();
  }
}

TEST(RouterE2eTest, PrimaryDownEndsATracedRequestWithAPartialTimeline) {
  std::vector<EngineLink*> links;
  RouterOptions options = InProcessOptions(FreshStateDir("down"), 1);
  options.health_interval_ms = 60000;  // keep the crashed shard down
  InProcessRouter router(std::move(options),
                         EngineLinks(EngineLink::Script::kServe, &links));
  ASSERT_EQ(links.size(), 1u);
  links[0]->Kill();
  const JsonValue response = router.Call(
      "p1", R"({"op":"schema","dataset":"d","trace":true,"id":"p1"})");
  ExpectPartialTimeline(router, response, "is down", "p2");
}

// ---- observability: trace propagation, fleet rollup (DESIGN.md §15) --

TEST(RouterE2eTest, TracedExplainReturnsOneStitchedTimeline) {
  std::vector<EngineLink*> links;
  RouterOptions options = InProcessOptions(FreshStateDir("trace"), 2);
  options.verify_relay = true;
  InProcessRouter router(std::move(options),
                         EngineLinks(EngineLink::Script::kServe, &links));

  ExpectOk(router.Call(
      "e1",
      R"({"op":"load_dataset","name":"d1","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"e1"})"));
  ExpectOk(router.Call(
      "e2",
      R"({"op":"cluster","dataset":"d1","method":"k-means","k":3,"id":"e2"})"));
  ExpectOk(router.Call(
      "e3",
      R"({"op":"create_session","dataset":"d1","session":"alice",)"
      R"("epsilon":2.0,"id":"e3"})"));

  const std::string request =
      R"({"op":"explain","session":"alice","epsilon":0.3,"trace":true,)"
      R"("id":"e4"})";
  const JsonValue response = router.Call("e4", request);
  ExpectOk(response);

  // One trace id covers the whole timeline, and the request completed, so
  // the timeline is not partial.
  ASSERT_TRUE(response.Has("trace_id")) << response.Dump();
  const std::string tid = response.at("trace_id").AsString();
  EXPECT_EQ(tid.rfind('t', 0), 0u) << tid;
  EXPECT_FALSE(response.Has("trace_partial")) << response.Dump();

  // Golden structure: router-side spans in submission order, with the
  // worker's own pipeline nested verbatim under worker_roundtrip.
  ASSERT_TRUE(response.Has("trace")) << response.Dump();
  const JsonValue& root = response.at("trace");
  EXPECT_EQ(root.at("name").AsString(), "router_request");
  EXPECT_GE(root.at("wall_micros").AsNumber(), 1.0);
  const JsonValue& spans = root.at("children");
  ASSERT_EQ(spans.size(), 5u) << root.Dump();
  EXPECT_EQ(spans.at(0).at("name").AsString(), "parse");
  EXPECT_EQ(spans.at(1).at("name").AsString(), "shard_pick");
  EXPECT_EQ(spans.at(2).at("name").AsString(), "forward");
  EXPECT_EQ(spans.at(3).at("name").AsString(), "worker_roundtrip");
  EXPECT_EQ(spans.at(4).at("name").AsString(), "write_back");

  // Router spans start where the previous one ended (offsets are relative
  // to the router_request root and never go backwards).
  double cursor = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_GE(spans.at(i).at("start_micros").AsNumber(), cursor)
        << spans.at(i).Dump();
    cursor = spans.at(i).at("start_micros").AsNumber();
  }

  // Inside the roundtrip: queue wait (router clock) + the worker's own
  // span tree (worker clock — offsets restart at 0 there).
  const JsonValue& roundtrip = spans.at(3);
  const JsonValue* queue_wait = FindChild(roundtrip, "worker_queue_wait");
  ASSERT_NE(queue_wait, nullptr) << roundtrip.Dump();
  EXPECT_GE(queue_wait->at("wall_micros").AsNumber(), 1.0);
  const JsonValue* worker_root = FindChild(roundtrip, "request");
  ASSERT_NE(worker_root, nullptr) << roundtrip.Dump();
  EXPECT_EQ(worker_root->at("start_micros").AsNumber(), 0.0);
  EXPECT_NE(FindChild(*worker_root, "parse"), nullptr) << worker_root->Dump();

  // The worker got the client's request with the router id and the trace
  // context set on it, serialized once: parse → Set("id") → Set("_tc") →
  // Dump, byte for byte.
  std::vector<std::string> traced_lines;
  for (EngineLink* link : links) {
    for (const std::string& line : link->Sent()) {
      if (line.find("\"_tc\"") != std::string::npos) {
        traced_lines.push_back(line);
      }
    }
  }
  ASSERT_EQ(traced_lines.size(), 1u);
  const JsonValue forwarded = ParseRequest(traced_lines[0]);
  JsonValue tc = JsonValue::Object();
  tc.Set("pid", forwarded.at("id"));
  tc.Set("tid", JsonValue::String(tid));
  JsonValue expected = ParseRequest(request);
  expected.Set("id", forwarded.at("id"));
  expected.Set("_tc", tc);
  EXPECT_EQ(traced_lines[0], expected.Dump());

  // The completed timeline is retrievable from the router's trace ring
  // under the same id.
  const JsonValue ring = router.Call(
      "e5", R"({"op":"trace","limit":1,"id":"e5"})");
  ExpectOk(ring);
  ASSERT_EQ(ring.at("traces").size(), 1u) << ring.Dump();
  const JsonValue& entry = ring.at("traces").at(0);
  EXPECT_EQ(entry.at("tid").AsString(), tid);
  EXPECT_EQ(entry.at("op").AsString(), "explain");
  EXPECT_EQ(entry.at("trace").at("name").AsString(), "router_request");
}

TEST(RouterE2eTest, WorkerDeathMidRequestYieldsPartialTimeline) {
  std::vector<EngineLink*> links;
  InProcessRouter router(InProcessOptions(FreshStateDir("partial"), 2),
                         EngineLinks(EngineLink::Script::kServe, &links));
  ASSERT_EQ(links.size(), 2u);

  ExpectOk(router.Call(
      "w1",
      R"({"op":"load_dataset","name":"d1","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"w1"})"));

  // Freeze both shards so the traced request is parked in a worker, then
  // kill them: the router must fail the request promptly (no hang) with a
  // router-side-only timeline marked partial.
  const std::vector<pid_t> pids = ShardPids(router, "w2");
  ASSERT_EQ(pids.size(), 2u);
  for (EngineLink* link : links) link->Freeze();
  router.Send(R"({"op":"schema","dataset":"d1","trace":true,"id":"w3"})");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (EngineLink* link : links) link->Kill();

  const JsonValue failed = router.WaitFor("w3");
  ASSERT_TRUE(failed.Has("ok")) << failed.Dump();
  EXPECT_FALSE(failed.at("ok").AsBool()) << failed.Dump();
  ASSERT_TRUE(failed.Has("trace_partial")) << failed.Dump();
  EXPECT_TRUE(failed.at("trace_partial").AsBool());
  ASSERT_TRUE(failed.Has("trace")) << failed.Dump();
  const JsonValue& root = failed.at("trace");
  EXPECT_EQ(root.at("name").AsString(), "router_request");
  // Router-side spans survive; there is no worker subtree to stitch.
  const JsonValue* roundtrip = FindChild(root, "worker_roundtrip");
  ASSERT_NE(roundtrip, nullptr) << root.Dump();
  EXPECT_EQ(FindChild(*roundtrip, "request"), nullptr) << roundtrip->Dump();

  // The partial timeline still lands in the ring, flagged as partial.
  const JsonValue ring = router.Call(
      "w4", R"({"op":"trace","limit":1,"id":"w4"})");
  ExpectOk(ring);
  ASSERT_EQ(ring.at("traces").size(), 1u) << ring.Dump();
  EXPECT_TRUE(ring.at("traces").at(0).at("partial").AsBool());

  // Respawn heals the fleet: wait for fresh shard pids, then a new traced
  // request completes with a full (non-partial) timeline.
  const std::vector<pid_t> fresh = AwaitRespawn(router, pids, "w5");
  ASSERT_EQ(fresh.size(), 2u) << "shards never respawned";
  const JsonValue again = router.Call(
      "w6",
      R"({"op":"load_dataset","name":"d2","source":"synthetic",)"
      R"("generator":"diabetes","rows":100,"cap_epsilon":5.0,)"
      R"("trace":true,"id":"w6"})");
  ExpectOk(again);
  EXPECT_FALSE(again.Has("trace_partial")) << again.Dump();
  EXPECT_NE(FindChild(again.at("trace"), "worker_roundtrip"), nullptr);
}

TEST(RouterE2eTest, MetricsBroadcastReturnsFleetRollup) {
  InProcessRouter router(InProcessOptions(FreshStateDir("fleet"), 2),
                         EngineLinks());

  // A ping touches every worker, so each shard's registry has op="ping"
  // series by the time the metrics broadcast fans out (each link serves
  // its stream in order).
  ExpectOk(router.Call("f1", R"({"op":"ping","id":"f1"})"));

  const JsonValue response = router.Call("f2", R"({"op":"metrics","id":"f2"})");
  ExpectOk(response);

  // The rollup is the whole answer: it merges every worker's registry into
  // one namespace, each series tagged with its worker label, alongside the
  // router's own series. No per-worker concatenation rides along.
  EXPECT_FALSE(response.Has("workers")) << response.Dump();
  ASSERT_TRUE(response.Has("fleet")) << response.Dump();
  const JsonValue& fleet = response.at("fleet");
  const JsonValue& histograms = fleet.at("histograms");
  EXPECT_TRUE(histograms.Has(
      R"(dpclustx_op_latency_micros{op="ping",worker="shard-0"})"))
      << fleet.Dump();
  EXPECT_TRUE(histograms.Has(
      R"(dpclustx_op_latency_micros{op="ping",worker="shard-1"})"))
      << fleet.Dump();
  const JsonValue& gauges = fleet.at("gauges");
  EXPECT_TRUE(gauges.Has(R"(dpclustx_router_worker_alive{worker="shard-0"})"))
      << fleet.Dump();
  const JsonValue& counters = fleet.at("counters");
  EXPECT_TRUE(counters.Has("dpclustx_router_relay_spliced_total"))
      << fleet.Dump();
}

// ---- broadcasts over a dead shard, and the slow log ------------------

/// Two in-process shards, with health checks out of the test window so a
/// killed shard stays down. EngineLinks collects shard-0, then shard-1.
RouterOptions TwoQuietShards(const std::string& name) {
  RouterOptions options = InProcessOptions(FreshStateDir(name), 2);
  options.health_interval_ms = 60000;
  return options;
}

/// Checks a merged broadcast reply: shard-0's piece is ok, and shard-1's
/// is the router's Internal error.
void ExpectLiveAndDeadPieces(const JsonValue& response) {
  ExpectOk(response);
  ASSERT_TRUE(response.Has("workers")) << response.Dump();
  const JsonValue& workers = response.at("workers");
  ASSERT_TRUE(workers.Has("shard-0") && workers.Has("shard-1"))
      << response.Dump();
  ExpectOk(workers.at("shard-0"));
  const JsonValue& dead = workers.at("shard-1");
  ASSERT_TRUE(dead.Has("ok")) << response.Dump();
  EXPECT_FALSE(dead.at("ok").AsBool()) << response.Dump();
  EXPECT_EQ(dead.at("error").at("code").AsString(), "Internal")
      << response.Dump();
}

TEST(RouterE2eTest, BroadcastToAShardKilledBeforehandAnswersWithItsError) {
  std::vector<EngineLink*> links;
  InProcessRouter router(TwoQuietShards("bdead"),
                         EngineLinks(EngineLink::Script::kServe, &links));
  ASSERT_EQ(links.size(), 2u);
  links[1]->Kill();
  ExpectLiveAndDeadPieces(router.Call("b1", R"({"op":"ping","id":"b1"})"));
  ExpectLiveAndDeadPieces(router.Call("b2", R"({"op":"stats","id":"b2"})"));
}

TEST(RouterE2eTest, BroadcastToAShardKilledMidBroadcastAnswersWithItsError) {
  std::vector<EngineLink*> links;
  InProcessRouter router(TwoQuietShards("bmid"),
                         EngineLinks(EngineLink::Script::kServe, &links));
  ASSERT_EQ(links.size(), 2u);
  links[1]->Freeze();
  router.Send(R"({"op":"ping","id":"b1"})");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  links[1]->Kill();
  ExpectLiveAndDeadPieces(router.WaitFor("b1"));
}

TEST(RouterE2eTest, MetricsRollupWithADeadShardKeepsTheLiveShardsSeries) {
  std::vector<EngineLink*> links;
  InProcessRouter router(TwoQuietShards("mdead"),
                         EngineLinks(EngineLink::Script::kServe, &links));
  ASSERT_EQ(links.size(), 2u);
  ExpectOk(router.Call("m1", R"({"op":"ping","id":"m1"})"));
  links[1]->Kill();

  const JsonValue response = router.Call("m2", R"({"op":"metrics","id":"m2"})");
  ExpectOk(response);
  ASSERT_TRUE(response.Has("fleet")) << response.Dump();
  const JsonValue& fleet = response.at("fleet");
  const JsonValue& histograms = fleet.at("histograms");
  EXPECT_TRUE(histograms.Has(
      R"(dpclustx_op_latency_micros{op="ping",worker="shard-0"})"))
      << fleet.Dump();
  // The dead shard contributes no series of its own; the router's say it
  // is down.
  EXPECT_FALSE(histograms.Has(
      R"(dpclustx_op_latency_micros{op="ping",worker="shard-1"})"))
      << fleet.Dump();
  const JsonValue& gauges = fleet.at("gauges");
  EXPECT_EQ(gauges.at(R"(dpclustx_router_worker_alive{worker="shard-0"})")
                .AsNumber(),
            1.0);
  EXPECT_EQ(gauges.at(R"(dpclustx_router_worker_alive{worker="shard-1"})")
                .AsNumber(),
            0.0);
}

/// Collects everything written to std::cerr while it lives. Any thread may
/// write, so the buffer takes a lock; std::cerr is unbuffered, so every
/// write lands in xsputn or overflow.
class CerrCapture : public std::streambuf {
 public:
  CerrCapture() : saved_(std::cerr.rdbuf(this)) {}
  ~CerrCapture() override { std::cerr.rdbuf(saved_); }

  std::string Text() {
    std::lock_guard<std::mutex> lock(mutex_);
    return text_;
  }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) {
      std::lock_guard<std::mutex> lock(mutex_);
      text_.push_back(static_cast<char>(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mutex_);
    text_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::mutex mutex_;
  std::string text_;
  std::streambuf* const saved_;
};

/// The slow-log lines in `text` for client op `op`.
std::vector<std::string> SlowLines(const std::string& text,
                                   const std::string& op) {
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t end; (end = text.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    const std::string line = text.substr(begin, end - begin);
    if (line.find(R"("event":"slow_request")") != std::string::npos &&
        line.find(R"("op":")" + op + "\"") != std::string::npos) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(RouterE2eTest, SlowRequestLogsOneLinePerClientRequest) {
  std::vector<EngineLink*> links;
  RouterOptions options = TwoQuietShards("slow");
  options.slow_request_ms = 50;
  InProcessRouter router(std::move(options),
                         EngineLinks(EngineLink::Script::kServe, &links));
  ASSERT_EQ(links.size(), 2u);

  // Both shards hold their lines past the threshold, then die: a single
  // and a two-leg broadcast each end slow, and each logs once.
  CerrCapture captured;
  for (EngineLink* link : links) link->Freeze();
  router.Send(R"({"op":"schema","dataset":"d","id":"s1"})");
  router.Send(R"({"op":"ping","id":"s2"})");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  for (EngineLink* link : links) link->Kill();
  router.WaitFor("s1");
  router.WaitFor("s2");

  const std::string text = captured.Text();
  const std::vector<std::string> single = SlowLines(text, "schema");
  ASSERT_EQ(single.size(), 1u) << text;
  EXPECT_NE(single[0].find(R"("worker":"shard-)"), std::string::npos)
      << single[0];
  EXPECT_EQ(SlowLines(text, "ping").size(), 1u) << text;
}

TEST(RouterE2eTest, SyncReplicasCountsOnlyShardsWhoseSaveSucceeded) {
  const std::string state = FreshStateDir("syncfail");
  const std::string snap = state + "/shard-0.snap";
  {
    InProcessRouter router(InProcessOptions(state, 2), EngineLinks());
    // A directory where shard-0's snapshot belongs: its save fails, and
    // shard-0 answers the save with ok:false.
    ASSERT_EQ(::unlink(snap.c_str()), 0);
    ASSERT_EQ(::mkdir(snap.c_str(), 0755), 0);
    const JsonValue synced = router.Call(
        "y1", R"({"op":"_router_sync_replicas","id":"y1"})");
    ExpectOk(synced);
    EXPECT_EQ(synced.at("synced_shards").AsNumber(), 1.0) << synced.Dump();
  }
  ::rmdir(snap.c_str());
}

TEST(TraceLimitTest, RouterAndEngineRejectTheSameBadLimits) {
  // One rule on both sides of the link: "limit" is a non-negative integer
  // below 2^64, range-checked before any cast.
  InProcessRouter router(InProcessOptions(FreshStateDir("limit"), 1),
                         EngineLinks());
  ServiceEngine engine;
  for (const std::string limit : {"-1", "\"x\"", "1.5", "1e300"}) {
    const std::string request =
        R"({"op":"trace","limit":)" + limit + R"(,"id":"l"})";
    StatusOr<JsonValue> from_engine = JsonValue::Parse(engine.Handle(request));
    ASSERT_TRUE(from_engine.ok());
    for (const JsonValue& response : {router.Call("l", request), *from_engine}) {
      ASSERT_TRUE(response.Has("ok")) << limit << ": " << response.Dump();
      EXPECT_FALSE(response.at("ok").AsBool()) << limit;
      EXPECT_EQ(response.at("error").at("code").AsString(), "InvalidArgument")
          << limit << ": " << response.Dump();
    }
  }
}

TEST(RouterE2eTest, KilledInProcessWorkersRespawnWithLedgersIntact) {
  // The in-process twin of SigkilledWorkersRespawnWithLedgersIntact: each
  // link runs the worker lifecycle from the argv the router builds, so the
  // health loop's respawn restores from the shard's own snapshot + journal.
  std::vector<EngineLink*> links;
  RouterOptions options = InProcessOptions(FreshStateDir("ikill"), 2);
  options.worker_args.insert(options.worker_args.end(),
                             {"--snapshot-interval-ms", "100"});
  InProcessRouter router(std::move(options),
                         EngineLinks(EngineLink::Script::kServe, &links));
  ASSERT_EQ(links.size(), 2u);

  ExpectOk(router.Call(
      "s1",
      R"({"op":"load_dataset","name":"d1","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"s1"})"));
  ExpectOk(router.Call(
      "s2",
      R"({"op":"load_dataset","name":"d2","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"s2"})"));
  ExpectOk(router.Call(
      "s3",
      R"({"op":"cluster","dataset":"d1","method":"k-means","k":3,"id":"s3"})"));
  ExpectOk(router.Call(
      "s4",
      R"({"op":"cluster","dataset":"d2","method":"k-means","k":3,"id":"s4"})"));
  ExpectOk(router.Call(
      "s5",
      R"({"op":"create_session","dataset":"d1","session":"alice",)"
      R"("epsilon":2.0,"id":"s5"})"));
  ExpectOk(router.Call(
      "s6",
      R"({"op":"create_session","dataset":"d2","session":"bob",)"
      R"("epsilon":2.0,"id":"s6"})"));
  ExpectOk(router.Call(
      "s7", R"({"op":"hist","session":"alice","attribute":"diab_3",)"
            R"("epsilon":0.1,"id":"s7"})"));
  ExpectOk(router.Call(
      "s8", R"({"op":"hist","session":"bob","attribute":"diab_5",)"
            R"("epsilon":0.07,"id":"s8"})"));
  // Sessions come back only from a snapshot (creating one is not
  // journaled), so save every shard now; the charges after this may reach
  // only the journal before the kill, whatever the periodic saver does.
  const JsonValue synced = router.Call(
      "sync", R"({"op":"_router_sync_replicas","id":"sync"})");
  ExpectOk(synced);
  EXPECT_EQ(synced.at("synced_shards").AsNumber(), 2.0);
  ExpectOk(router.Call(
      "s9", R"({"op":"hist","session":"alice","attribute":"diab_4",)"
            R"("epsilon":0.05,"id":"s9"})"));
  ExpectOk(router.Call(
      "s10", R"({"op":"hist","session":"bob","attribute":"diab_6",)"
             R"("epsilon":0.03,"id":"s10"})"));
  const JsonValue alice_before = router.Call(
      "b1", R"({"op":"budget","session":"alice","id":"b1"})");
  const JsonValue bob_before = router.Call(
      "b2", R"({"op":"budget","session":"bob","id":"b2"})");
  ExpectOk(alice_before);
  ExpectOk(bob_before);

  const std::vector<pid_t> pids = ShardPids(router, "p");
  ASSERT_EQ(pids.size(), 2u);
  for (EngineLink* link : links) link->Kill();
  const std::vector<pid_t> fresh = AwaitRespawn(router, pids, "k");
  ASSERT_EQ(fresh.size(), 2u) << "shards never respawned";

  // Every pre-kill charge is back, exactly once: the same spent bits.
  const JsonValue alice = router.Call(
      "v1", R"({"op":"budget","session":"alice","id":"v1"})");
  ExpectOk(alice);
  EXPECT_EQ(alice.at("spent").AsNumber(),
            alice_before.at("spent").AsNumber());
  const JsonValue bob = router.Call(
      "v2", R"({"op":"budget","session":"bob","id":"v2"})");
  ExpectOk(bob);
  EXPECT_EQ(bob.at("spent").AsNumber(), bob_before.at("spent").AsNumber());

  // The release the snapshot holds re-serves for free.
  const JsonValue repeat = router.Call(
      "v3", R"({"op":"hist","session":"alice","attribute":"diab_3",)"
            R"("epsilon":0.1,"id":"v3"})");
  ExpectOk(repeat);
  EXPECT_TRUE(repeat.at("cache_hit").AsBool());
  EXPECT_EQ(repeat.at("epsilon_charged").AsNumber(), 0.0);
}

// ---- the real binaries over pipes ------------------------------------

/// Drives a line-protocol child (dpclustx_router or dpclustx_serve) over
/// pipes, correlating the out-of-order response stream by id.
class ChildProcess {
 public:
  explicit ChildProcess(std::vector<std::string> args) {
    // A child that dies must fail this test, not kill the whole binary
    // with SIGPIPE on the next write to its stdin.
    ::signal(SIGPIPE, SIG_IGN);
    int to_child[2];
    int from_child[2];
    EXPECT_EQ(::pipe(to_child), 0);
    EXPECT_EQ(::pipe(from_child), 0);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
  }

  ~ChildProcess() { Stop(); }

  /// SIGKILLs the child, then reaps it.
  void Kill() {
    if (pid_ > 0) ::kill(pid_, SIGKILL);
    Stop();
  }

  void Stop() {
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
  }

  void Send(const std::string& line) {
    const std::string payload = line + "\n";
    ASSERT_EQ(::write(stdin_fd_, payload.data(), payload.size()),
              static_cast<ssize_t>(payload.size()));
  }

  /// Sends `request` (which must carry the string id `id`) and blocks until
  /// that id's response arrives. 30s deadline: a hang here is a router bug.
  JsonValue Call(const std::string& id, const std::string& request) {
    Send(request);
    return WaitFor(id);
  }

  JsonValue WaitFor(const std::string& id) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (;;) {
      JsonValue response = box_.Take(id, std::chrono::milliseconds(0));
      if (response.type() != JsonValue::Type::kNull) return response;
      EXPECT_LT(std::chrono::steady_clock::now(), deadline)
          << "no response for id '" << id << "'";
      if (std::chrono::steady_clock::now() >= deadline) {
        return JsonValue::Null();
      }
      ReadSome();
    }
  }

 private:
  void ReadSome() {
    struct pollfd pfd = {stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 1000);
    if (ready <= 0) return;
    char chunk[4096];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) return;
    buffer_.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while ((pos = buffer_.find('\n')) != std::string::npos) {
      box_.Deliver(buffer_.substr(0, pos));
      buffer_.erase(0, pos + 1);
    }
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
  ResponseBox box_;
};

struct ExitResult {
  int status = -1;  // waitpid status
  std::string err;  // everything the process wrote to stderr
};

/// Runs `args` with stdin and stdout on /dev/null until it exits; SIGKILLs
/// it (and fails the test) after 30 s.
ExitResult RunToExit(const std::vector<std::string>& args) {
  int err_pipe[2];
  EXPECT_EQ(::pipe(err_pipe), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(err_pipe[1], STDERR_FILENO);
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(err_pipe[1]);
  ExitResult result;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  char chunk[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    struct pollfd pfd = {err_pipe[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::read(err_pipe[0], chunk, sizeof(chunk));
    if (n <= 0) break;
    result.err.append(chunk, static_cast<size_t>(n));
  }
  if (std::chrono::steady_clock::now() >= deadline) {
    ADD_FAILURE() << args[0] << " did not exit within 30 s";
    ::kill(pid, SIGKILL);
  }
  ::close(err_pipe[0]);
  ::waitpid(pid, &result.status, 0);
  return result;
}

TEST(ToolFlagsTest, BadNumericValuesExitTwoWithTheFlagName) {
  // A numeric flag takes the whole token: no abort on letters, no silent
  // truncation of trailing characters, no wrap-around of negative values.
  const std::string build = BuildDir();
  const std::string state = FreshStateDir("flags");
  // The router and the load bench get a state dir so that, were the value
  // accepted, nothing would write into the working directory.
  const std::vector<std::vector<std::string>> commands = {
      {build + "/tools/dpclustx_serve", "--threads"},
      {build + "/tools/dpclustx_router", "--health-misses", "--state-dir",
       state},
      {build + "/bench/bench_service_load", "--workers", "--state-dir",
       state + "/load"},
  };
  const auto expect_usage_error = [](const std::vector<std::string>& args,
                                     const std::string& message) {
    const ExitResult result = RunToExit(args);
    EXPECT_TRUE(WIFEXITED(result.status) && WEXITSTATUS(result.status) == 2)
        << args[0] << " " << args[1] << " " << args[2]
        << ": status " << result.status << ", stderr: " << result.err;
    EXPECT_NE(result.err.find(message), std::string::npos)
        << args[0] << " stderr: " << result.err;
  };
  for (const std::vector<std::string>& command : commands) {
    const std::string& flag = command[1];
    for (const std::string value : {"abc", "12x", "-1"}) {
      std::vector<std::string> args = {command[0], flag, value};
      args.insert(args.end(), command.begin() + 2, command.end());
      expect_usage_error(args, flag + " needs a non-negative integer, got '" +
                                   value + "'");
    }
  }
  expect_usage_error({build + "/bench/bench_service_load", "--open-qps", "abc",
                      "--state-dir", state + "/load"},
                     "--open-qps needs a non-negative number, got 'abc'");
}

TEST(ToolFlagsTest, CliRefusesBadBudgetsAndNamesBeforeAnyWork) {
  // dpclustx_cli parses through the shared flag rules: a budget flag that
  // is not a positive finite number, an unknown method or generator, and a
  // malformed count are usage errors naming the flag (exit 2), never a
  // failed CHECK later on.
  const std::string cli = BuildDir() + "/tools/dpclustx_cli";
  const auto expect_usage_error = [&](const std::vector<std::string>& flags,
                                      const std::string& message) {
    std::vector<std::string> args = {cli, "--synthetic", "diabetes", "--rows",
                                     "200", "--clusters", "2"};
    args.insert(args.end(), flags.begin(), flags.end());
    const ExitResult result = RunToExit(args);
    EXPECT_TRUE(WIFEXITED(result.status) && WEXITSTATUS(result.status) == 2)
        << flags[0] << " " << flags[1] << ": status " << result.status
        << ", stderr: " << result.err;
    EXPECT_NE(result.err.find(message), std::string::npos)
        << flags[0] << " stderr: " << result.err;
  };
  expect_usage_error({"--epsilon-hist", "nan"},
                     "--epsilon-hist needs a non-negative number, got 'nan'");
  expect_usage_error({"--epsilon-candset", "0", "--epsilon-topcomb", "0",
                      "--epsilon-hist", "0"},
                     "--epsilon-candset needs a positive number, got '0'");
  expect_usage_error({"--epsilon-clust", "-1"},
                     "--epsilon-clust needs a non-negative number, got '-1'");
  expect_usage_error({"--seed", "12x"},
                     "--seed needs a non-negative integer, got '12x'");
  expect_usage_error({"--method", "dbscan"}, "unknown method 'dbscan'");
  expect_usage_error({"--synthetic", "adult"}, "unknown generator 'adult'");
  expect_usage_error({"--lambda", "nan,0.5,0.5"},
                     "--lambda: global weights must be finite");
  expect_usage_error({"--lambda", "0.5,0.5,0.5"},
                     "--lambda: global weights must sum to 1");

  // 0 is a seed like any other.
  const ExitResult seeded =
      RunToExit({cli, "--synthetic", "diabetes", "--rows", "200",
                 "--clusters", "2", "--seed", "0", "--quiet"});
  EXPECT_TRUE(WIFEXITED(seeded.status) && WEXITSTATUS(seeded.status) == 0)
      << "status " << seeded.status << ", stderr: " << seeded.err;
}

TEST(ToolFlagsTest, ServeRefusesAJournalWithoutASnapshot) {
  // Restore replays a journal onto a snapshot, so a journal alone could
  // never be read back.
  const std::string journal = FreshStateDir("nosnap") + "/w.journal";
  const ExitResult result =
      RunToExit({BuildDir() + "/tools/dpclustx_serve", "--audit-journal",
                 journal});
  EXPECT_TRUE(WIFEXITED(result.status) && WEXITSTATUS(result.status) == 2)
      << "status " << result.status << ", stderr: " << result.err;
  EXPECT_NE(result.err.find("--audit-journal needs --snapshot"),
            std::string::npos)
      << result.err;
  EXPECT_FALSE(std::ifstream(journal).good()) << "the journal was opened";
}

TEST(ServeProcessTest, KilledFreshWorkerWithoutPeriodicSavesRestarts) {
  // With --snapshot-interval-ms 0 no periodic save runs, so the base
  // snapshot written at start is the only one when the SIGKILL lands: the
  // journal's charge must replay onto it, and the worker must come back.
  const std::string state = FreshStateDir("base");
  const std::vector<std::string> args = {
      BuildDir() + "/tools/dpclustx_serve", "--sync",
      "--snapshot", state + "/w.snap",
      "--audit-journal", state + "/w.journal",
      "--snapshot-interval-ms", "0"};
  JsonValue audit_before;
  {
    ChildProcess worker(args);
    ExpectOk(worker.Call(
        "1", R"({"op":"load_dataset","name":"d","source":"synthetic",)"
             R"("generator":"diabetes","rows":300,"id":"1"})"));
    ExpectOk(worker.Call(
        "2", R"({"op":"cluster","dataset":"d","method":"k-means","k":3,)"
             R"("id":"2"})"));
    ExpectOk(worker.Call(
        "3", R"({"op":"create_session","dataset":"d","session":"alice",)"
             R"("epsilon":2.0,"id":"3"})"));
    ExpectOk(worker.Call(
        "4", R"({"op":"hist","session":"alice","attribute":"diab_3",)"
             R"("epsilon":0.1,"id":"4"})"));
    audit_before = worker.Call("5", R"({"op":"audit","id":"5"})");
    ExpectOk(audit_before);
    worker.Kill();
  }
  // The session was created after the base snapshot, so its ledger is
  // reported unrecovered; the audit ledger, rebuilt from the journal, is
  // exactly the killed worker's.
  ChildProcess restarted(args);
  const JsonValue audit = restarted.Call("a", R"({"op":"audit","id":"a"})");
  ASSERT_EQ(audit.type(), JsonValue::Type::kObject)
      << "the restarted worker never answered";
  ExpectOk(audit);
  EXPECT_EQ(audit.at("totals").Dump(), audit_before.at("totals").Dump());
  EXPECT_EQ(audit.at("next_seq").AsNumber(), 2.0);
  EXPECT_EQ(audit.at("totals").at("alice").at("epsilon_charged").AsNumber(),
            0.1);
}

std::vector<std::string> RouterArgs(const std::string& state_dir,
                                    const std::string& workers,
                                    const std::string& replicas) {
  const std::string build = BuildDir();
  return {build + "/tools/dpclustx_router",
          "--workers", workers,
          "--replicas", replicas,
          "--serve", build + "/tools/dpclustx_serve",
          "--state-dir", state_dir,
          "--health-interval-ms", "100",
          "--health-deadline-ms", "2000",
          "--health-misses", "3",
          // Workers run --sync so each shard serves its stream in order
          // (the test pipelines setup ops); snapshots every 100ms so a
          // SIGKILL finds recent durable state.
          "--", "--sync", "--snapshot-interval-ms", "100"};
}

TEST(RouterE2eTest, SigkilledWorkersRespawnWithLedgersIntact) {
  const std::string state = FreshStateDir("kill");
  ChildProcess router(RouterArgs(state, "2", "0"));

  ExpectOk(router.Call(
      "s1",
      R"({"op":"load_dataset","name":"d1","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"s1"})"));
  ExpectOk(router.Call(
      "s2",
      R"({"op":"load_dataset","name":"d2","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"s2"})"));
  ExpectOk(router.Call(
      "s3",
      R"({"op":"cluster","dataset":"d1","method":"k-means","k":3,"id":"s3"})"));
  ExpectOk(router.Call(
      "s4",
      R"({"op":"cluster","dataset":"d2","method":"k-means","k":3,"id":"s4"})"));
  ExpectOk(router.Call(
      "s5",
      R"({"op":"create_session","dataset":"d1","session":"alice",)"
      R"("epsilon":2.0,"id":"s5"})"));
  ExpectOk(router.Call(
      "s6",
      R"({"op":"create_session","dataset":"d2","session":"bob",)"
      R"("epsilon":2.0,"id":"s6"})"));
  ExpectOk(router.Call(
      "s7", R"({"op":"hist","session":"alice","attribute":"diab_3",)"
            R"("epsilon":0.1,"id":"s7"})"));
  ExpectOk(router.Call(
      "s8", R"({"op":"hist","session":"bob","attribute":"diab_5",)"
            R"("epsilon":0.07,"id":"s8"})"));

  // Let the periodic snapshot (100ms) capture the sessions, then SIGKILL
  // every shard — the strongest crash the protocol must survive.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::vector<pid_t> pids = ShardPids(router, "s9");
  ASSERT_EQ(pids.size(), 2u);
  for (const pid_t pid : pids) ASSERT_EQ(::kill(pid, SIGKILL), 0);

  // Wait until the router reports both shards respawned with NEW pids.
  const std::vector<pid_t> fresh = AwaitRespawn(router, pids, "k");
  ASSERT_EQ(fresh.size(), 2u) << "shards never respawned";

  // Restored-from-snapshot(+journal) ledgers: every pre-kill charge is
  // there, exactly once.
  const JsonValue alice = router.Call(
      "v1", R"({"op":"budget","session":"alice","id":"v1"})");
  ExpectOk(alice);
  EXPECT_DOUBLE_EQ(alice.at("spent").AsNumber(), 0.1);

  const JsonValue bob = router.Call(
      "v2", R"({"op":"budget","session":"bob","id":"v2"})");
  ExpectOk(bob);
  EXPECT_DOUBLE_EQ(bob.at("spent").AsNumber(), 0.07);

  // The paid-for releases survived in the restored cache: repeats are free.
  const JsonValue repeat = router.Call(
      "v3", R"({"op":"hist","session":"alice","attribute":"diab_3",)"
            R"("epsilon":0.1,"id":"v3"})");
  ExpectOk(repeat);
  EXPECT_TRUE(repeat.at("cache_hit").AsBool());
  EXPECT_EQ(repeat.at("epsilon_charged").AsNumber(), 0.0);
  const JsonValue after = router.Call(
      "v4", R"({"op":"budget","session":"alice","id":"v4"})");
  ExpectOk(after);
  EXPECT_DOUBLE_EQ(after.at("spent").AsNumber(), 0.1);
}

TEST(RouterE2eTest, ReplicaServesRepeatReadsAfterSync) {
  const std::string state = FreshStateDir("replica");
  ChildProcess router(RouterArgs(state, "1", "1"));

  ExpectOk(router.Call(
      "r1",
      R"({"op":"load_dataset","name":"d","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"r1"})"));
  ExpectOk(router.Call(
      "r2",
      R"({"op":"cluster","dataset":"d","method":"k-means","k":3,"id":"r2"})"));
  ExpectOk(router.Call(
      "r3",
      R"({"op":"create_session","dataset":"d","session":"alice",)"
      R"("epsilon":2.0,"id":"r3"})"));

  // First read: charged on the primary (the replica, whatever its state,
  // refuses the miss and the router falls back).
  const JsonValue first = router.Call(
      "r4", R"({"op":"hist","session":"alice","attribute":"diab_3",)"
            R"("epsilon":0.1,"id":"r4"})");
  ExpectOk(first);
  EXPECT_FALSE(first.at("cache_hit").AsBool());

  // Push the charged release into the replica via snapshot sync.
  ExpectOk(router.Call(
      "r5", R"({"op":"_router_sync_replicas","id":"r5"})"));

  // Repeat reads are now hits — served for zero ε (by the replica when it
  // answers first, by the primary's cache on fallback; either way free and
  // byte-identical), and the ledger must not move.
  for (int i = 0; i < 3; ++i) {
    const std::string id = "rr" + std::to_string(i);
    const JsonValue repeat = router.Call(
        id, R"({"op":"hist","session":"alice","attribute":"diab_3",)"
            R"("epsilon":0.1,"id":")" + id + R"("})");
    ExpectOk(repeat);
    EXPECT_TRUE(repeat.at("cache_hit").AsBool()) << repeat.Dump();
    EXPECT_EQ(repeat.at("epsilon_charged").AsNumber(), 0.0);
  }
  const JsonValue budget = router.Call(
      "r6", R"({"op":"budget","session":"alice","id":"r6"})");
  ExpectOk(budget);
  EXPECT_DOUBLE_EQ(budget.at("spent").AsNumber(), 0.1);
}

}  // namespace
}  // namespace dpclustx::service
