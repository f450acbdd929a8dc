// Tests for the sharded multi-worker front door: RouterCore policy units
// (hash ring, classification, session table, backoff) plus end-to-end tests
// that drive the real dpclustx_router + dpclustx_serve binaries over pipes —
// including SIGKILLing workers mid-session and verifying that respawn +
// snapshot/journal restore preserves every ε charge exactly once.

#include "service/router_core.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "gtest/gtest.h"
#include "service/transport.h"

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

  StatusOr<RouteDecision> d =
      core.Classify(ParseRequest(R"({"op":"ping"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kBroadcast);

  d = core.Classify(ParseRequest(R"({"op":"save_snapshot","path":"x"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kRefused);

  d = core.Classify(ParseRequest(R"({"op":"load_dataset","name":"census"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kShard);
  EXPECT_EQ(d->dataset, "census");

  d = core.Classify(
      ParseRequest(R"({"op":"cluster","dataset":"census","method":"k"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kShard);
  EXPECT_EQ(d->dataset, "census");

  d = core.Classify(ParseRequest(R"({"op":"frobnicate"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kUnknownOp);
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
  EXPECT_EQ(d->kind, RouteKind::kShard);
  EXPECT_EQ(core.sessions().size(), 1u);

  // Session-keyed ops now route to the dataset's shard; reads are
  // replica-eligible, control ops are not.
  d = core.Classify(ParseRequest(R"({"op":"budget","session":"alice"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kShard);
  EXPECT_EQ(d->dataset, "census");

  d = core.Classify(ParseRequest(
      R"({"op":"hist","session":"alice","attribute":"a"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kReplicaRead);
  EXPECT_EQ(d->dataset, "census");

  d = core.Classify(
      ParseRequest(R"({"op":"close_session","session":"alice"})"));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->kind, RouteKind::kShard);
  EXPECT_EQ(core.sessions().size(), 0u);

  d = core.Classify(ParseRequest(R"({"op":"budget","session":"alice"})"));
  EXPECT_FALSE(d.ok());
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

// ---- end-to-end: the real binaries over pipes ------------------------

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

/// Drives a dpclustx_router child over pipes, correlating the out-of-order
/// response stream by id.
class RouterProcess {
 public:
  explicit RouterProcess(std::vector<std::string> args) {
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

  ~RouterProcess() { Stop(); }

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
      auto it = received_.find(id);
      if (it != received_.end()) {
        JsonValue response = it->second;
        received_.erase(it);
        return response;
      }
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
      const std::string line = buffer_.substr(0, pos);
      buffer_.erase(0, pos + 1);
      StatusOr<JsonValue> parsed = JsonValue::Parse(line);
      if (!parsed.ok() || parsed->type() != JsonValue::Type::kObject ||
          !parsed->Has("id")) {
        continue;
      }
      const JsonValue& id = parsed->at("id");
      if (id.type() != JsonValue::Type::kString) continue;
      received_[id.AsString()] = *parsed;
    }
  }

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
  std::map<std::string, JsonValue> received_;
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
  // The router gets a state dir so that, were the value accepted, its
  // workers would not write snapshots into the working directory.
  const std::vector<std::vector<std::string>> commands = {
      {build + "/tools/dpclustx_serve", "--threads"},
      {build + "/tools/dpclustx_router", "--health-misses", "--state-dir",
       state},
  };
  for (const std::vector<std::string>& command : commands) {
    const std::string& binary = command[0];
    const std::string& flag = command[1];
    for (const std::string value : {"abc", "12x", "-1"}) {
      std::vector<std::string> args = {binary, flag, value};
      args.insert(args.end(), command.begin() + 2, command.end());
      const ExitResult result = RunToExit(args);
      EXPECT_TRUE(WIFEXITED(result.status) && WEXITSTATUS(result.status) == 2)
          << binary << " " << flag << " " << value
          << ": status " << result.status << ", stderr: " << result.err;
      EXPECT_NE(result.err.find(flag + " needs a non-negative integer, got '" +
                                value + "'"),
                std::string::npos)
          << binary << " stderr: " << result.err;
    }
  }
}

void ExpectOk(const JsonValue& response) {
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  EXPECT_TRUE(response.at("ok").AsBool()) << response.Dump();
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

TEST(RouterE2eTest, ShardedSessionFlowAcrossTwoWorkers) {
  const std::string state = FreshStateDir("flow");
  RouterProcess router(RouterArgs(state, "2", "0"));

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

  // A session this router never saw is deterministically unroutable.
  const JsonValue ghost = router.Call(
      "t11", R"({"op":"budget","session":"ghost","id":"t11"})");
  ASSERT_FALSE(ghost.at("ok").AsBool());
  EXPECT_EQ(ghost.at("error").at("code").AsString(), "NotFound");
}

std::vector<pid_t> ShardPids(RouterProcess& router, const std::string& id) {
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

TEST(RouterE2eTest, SigkilledWorkersRespawnWithLedgersIntact) {
  const std::string state = FreshStateDir("kill");
  RouterProcess router(RouterArgs(state, "2", "0"));

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
  std::vector<pid_t> fresh;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    fresh = ShardPids(router, "k" + std::to_string(attempt));
    if (fresh.size() == 2) {
      bool all_new = true;
      for (const pid_t pid : fresh) {
        for (const pid_t old : pids) all_new = all_new && pid != old;
      }
      if (all_new) break;
    }
  }
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
  RouterProcess router(RouterArgs(state, "1", "1"));

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

TEST(RouterE2eTest, GarbageWorkerLinesFailTheRequestNotTheRouter) {
  const std::string state = FreshStateDir("garbage");
  // A "worker" that answers every request line with something that is not
  // JSON. The router must not hang the client that is waiting on it, and
  // must not crash — it fails the pending request with a structured error
  // and counts the dropped line.
  const std::string fake = state + "/garbage_worker.sh";
  {
    std::ofstream out(fake);
    out << "#!/bin/sh\nwhile read line; do echo 'garbage not json'; done\n";
  }
  ::chmod(fake.c_str(), 0755);

  const std::string build = BuildDir();
  const std::string socket = "unix:" + state + "/router.sock";
  RouterProcess router({build + "/tools/dpclustx_router",
                        "--workers", "1",
                        "--replicas", "0",
                        "--serve", fake,
                        "--state-dir", state,
                        "--listen", socket,
                        // No health pings during the test window: a ping
                        // would also get a garbage reply and eventually
                        // respawn the worker, which is not what we probe.
                        "--health-interval-ms", "60000",
                        "--health-deadline-ms", "2000",
                        "--health-misses", "3"});

  const JsonValue response = router.Call(
      "c1", R"({"op":"schema","dataset":"d","id":"c1"})");
  ASSERT_TRUE(response.Has("ok")) << response.Dump();
  EXPECT_FALSE(response.at("ok").AsBool()) << response.Dump();
  EXPECT_EQ(response.at("error").at("code").AsString(), "Internal")
      << response.Dump();
  EXPECT_NE(response.at("error").at("message").AsString().find("malformed"),
            std::string::npos)
      << response.Dump();

  // The drop is counted in the router's registry. (A `metrics` broadcast
  // would reach the garbage worker, so read the router's own /metrics.)
  const StatusOr<std::string> metrics = HttpGet(socket, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("\ndpclustx_router_dropped_lines_total 1\n"),
            std::string::npos)
      << *metrics;
}

// ---- observability: trace propagation, fleet rollup (DESIGN.md §15) --

/// Child span of `node` with the given name, or nullptr. Spans are ordered,
/// so tests assert both presence and position where it matters.
const JsonValue* FindChild(const JsonValue& node, const std::string& name) {
  if (!node.Has("children")) return nullptr;
  const JsonValue& children = node.at("children");
  for (size_t i = 0; i < children.size(); ++i) {
    if (children.at(i).at("name").AsString() == name) return &children.at(i);
  }
  return nullptr;
}

TEST(RouterE2eTest, TracedExplainReturnsOneStitchedTimeline) {
  const std::string state = FreshStateDir("trace");
  // --verify-relay makes the router cross-check every _tc splice against a
  // full parse+re-dump and abort on any byte difference — so this test
  // passing also proves splice/parse equivalence on the traced path.
  std::vector<std::string> args = RouterArgs(state, "2", "0");
  args.insert(args.begin() + 1, "--verify-relay");
  RouterProcess router(std::move(args));

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

  const JsonValue response = router.Call(
      "e4",
      R"({"op":"explain","session":"alice","epsilon":0.3,"trace":true,)"
      R"("id":"e4"})");
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
  EXPECT_EQ(spans.at(2).at("name").AsString(), "relay_splice");
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
  const std::string state = FreshStateDir("partial");
  RouterProcess router(RouterArgs(state, "2", "0"));

  ExpectOk(router.Call(
      "w1",
      R"({"op":"load_dataset","name":"d1","source":"synthetic",)"
      R"("generator":"diabetes","rows":300,"cap_epsilon":5.0,"id":"w1"})"));

  // Freeze both shards so the traced request is parked in a worker queue,
  // then SIGKILL them: the router must fail the request promptly (no hang)
  // with a router-side-only timeline marked partial.
  const std::vector<pid_t> pids = ShardPids(router, "w2");
  ASSERT_EQ(pids.size(), 2u);
  for (const pid_t pid : pids) ASSERT_EQ(::kill(pid, SIGSTOP), 0);
  router.Send(R"({"op":"schema","dataset":"d1","trace":true,"id":"w3"})");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (const pid_t pid : pids) ASSERT_EQ(::kill(pid, SIGKILL), 0);

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
  std::vector<pid_t> fresh;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    fresh = ShardPids(router, "w5" + std::to_string(attempt));
    if (fresh.size() == 2) {
      bool all_new = true;
      for (const pid_t pid : fresh) {
        for (const pid_t old : pids) all_new = all_new && pid != old;
      }
      if (all_new) break;
    }
  }
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
  const std::string state = FreshStateDir("fleet");
  RouterProcess router(RouterArgs(state, "2", "0"));

  // A ping touches every worker, so each shard's registry has op="ping"
  // series by the time the metrics broadcast fans out (--sync workers
  // serve their stream in order).
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
  EXPECT_TRUE(counters.Has("dpclustx_router_tc_spliced_total"))
      << fleet.Dump();
}

}  // namespace
}  // namespace dpclustx::service
