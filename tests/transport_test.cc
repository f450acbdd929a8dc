// Tests for the socket transport (service/transport.h): address parsing,
// the epoll echo path under concurrent clients, per-connection rejection of
// torn/oversized/garbage frames, write backpressure, and an end-to-end run
// of the real dpclustx_router in socket mode.
//
// The in-process tests run a Transport whose frame handler echoes (or
// transforms) frames, driven by ClientChannel connections from test
// threads — the same client class the tools use, so both halves of the
// framing contract are exercised together. The e2e section forks the real
// router + serve binaries (skipped, loudly, if the binaries are missing —
// ctest builds them via add_dependencies).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/status.h"
#include "service/transport.h"

namespace dpclustx::service {
namespace {

using dpclustx::JsonValue;
using dpclustx::Status;
using dpclustx::StatusCode;
using dpclustx::StatusOr;

std::string TestSocketPath(const std::string& tag) {
  // Unix socket paths are limited to ~108 bytes; keep them short and
  // per-process so parallel ctest invocations cannot collide.
  return "/tmp/dpx_tt_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

TEST(ParseListenAddressTest, UnixSpec) {
  StatusOr<ListenAddress> addr = ParseListenAddress("unix:/tmp/x.sock");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->kind, ListenAddress::Kind::kUnix);
  EXPECT_EQ(addr->path, "/tmp/x.sock");
}

TEST(ParseListenAddressTest, TcpPortOnly) {
  StatusOr<ListenAddress> addr = ParseListenAddress("tcp:8080");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->kind, ListenAddress::Kind::kTcp);
  EXPECT_EQ(addr->host, "127.0.0.1");
  EXPECT_EQ(addr->port, 8080);
}

TEST(ParseListenAddressTest, TcpHostAndPort) {
  StatusOr<ListenAddress> addr = ParseListenAddress("tcp:0.0.0.0:9999");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr->host, "0.0.0.0");
  EXPECT_EQ(addr->port, 9999);
}

TEST(ParseListenAddressTest, Rejections) {
  EXPECT_FALSE(ParseListenAddress("").ok());
  EXPECT_FALSE(ParseListenAddress("http:8080").ok());
  EXPECT_FALSE(ParseListenAddress("unix:").ok());
  EXPECT_FALSE(ParseListenAddress("tcp:").ok());
  EXPECT_FALSE(ParseListenAddress("tcp:notaport").ok());
  EXPECT_FALSE(ParseListenAddress("tcp:70000").ok());
}

/// Transport bound to a fresh unix socket whose handler echoes each frame
/// prefixed with "echo:". Stops on destruction.
class EchoFixture {
 public:
  explicit EchoFixture(TransportOptions options = {},
                       const std::string& tag = "echo") {
    path_ = TestSocketPath(tag);
    transport_ = std::make_unique<Transport>(options);
    Status listen = transport_->Listen("unix:" + path_);
    EXPECT_TRUE(listen.ok()) << listen.ToString();
    Status start = transport_->Start([this](ConnId conn, std::string&& line) {
      frames_handled_.fetch_add(1);
      transport_->Send(conn, "echo:" + line);
    });
    EXPECT_TRUE(start.ok()) << start.ToString();
  }

  ~EchoFixture() {
    transport_->Stop();
    ::unlink(path_.c_str());
  }

  std::string spec() const { return "unix:" + path_; }
  Transport& transport() { return *transport_; }
  size_t frames_handled() const { return frames_handled_.load(); }

 private:
  std::string path_;
  std::unique_ptr<Transport> transport_;
  std::atomic<size_t> frames_handled_{0};
};

TEST(TransportTest, EchoRoundTrip) {
  EchoFixture fixture;
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect(fixture.spec());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  ASSERT_TRUE((*channel)->SendLine("hello").ok());
  StatusOr<std::string> reply = (*channel)->RecvLine(5000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "echo:hello");
}

TEST(TransportTest, ManyConcurrentClientsNoLossNoCrosstalk) {
  EchoFixture fixture;
  constexpr size_t kClients = 16;
  constexpr size_t kPerClient = 50;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<ClientChannel>> channel =
          ClientChannel::Connect(fixture.spec());
      if (!channel.ok()) {
        failures.fetch_add(1);
        return;
      }
      // Pipelined: send everything, then read everything. Echo order per
      // connection must be FIFO and no frame may leak across clients.
      for (size_t i = 0; i < kPerClient; ++i) {
        const std::string msg =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        if (!(*channel)->SendLine(msg).ok()) failures.fetch_add(1);
      }
      for (size_t i = 0; i < kPerClient; ++i) {
        StatusOr<std::string> reply = (*channel)->RecvLine(10000);
        const std::string expect =
            "echo:c" + std::to_string(c) + "-" + std::to_string(i);
        if (!reply.ok() || *reply != expect) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(fixture.frames_handled(), kClients * kPerClient);
}

TEST(TransportTest, EmptyAndCrTerminatedFrames) {
  EchoFixture fixture;
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect(fixture.spec());
  ASSERT_TRUE(channel.ok());
  // Blank lines are skipped, \r\n framing is tolerated.
  ASSERT_TRUE((*channel)->SendLine("").ok());
  ASSERT_TRUE((*channel)->SendLine("a\r").ok());
  StatusOr<std::string> reply = (*channel)->RecvLine(5000);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:a");
}

TEST(TransportTest, OversizedFrameRejectedWithoutKillingOthers) {
  TransportOptions options;
  options.max_frame_bytes = 128;
  EchoFixture fixture(options, "oversz");

  StatusOr<std::unique_ptr<ClientChannel>> bad =
      ClientChannel::Connect(fixture.spec());
  StatusOr<std::unique_ptr<ClientChannel>> good =
      ClientChannel::Connect(fixture.spec());
  ASSERT_TRUE(bad.ok() && good.ok());

  ASSERT_TRUE((*bad)->SendLine(std::string(4096, 'x')).ok());
  StatusOr<std::string> rejection = (*bad)->RecvLine(5000);
  ASSERT_TRUE(rejection.ok()) << rejection.status().ToString();
  StatusOr<JsonValue> parsed = JsonValue::Parse(*rejection);
  ASSERT_TRUE(parsed.ok()) << *rejection;
  EXPECT_FALSE(parsed->at("ok").AsBool());
  EXPECT_EQ(parsed->at("error").at("code").AsString(), "InvalidArgument");
  // The offending connection is closed after the error flushes...
  StatusOr<std::string> after = (*bad)->RecvLine(5000);
  EXPECT_EQ(after.status().code(), StatusCode::kIoError);
  // ...while the well-behaved connection is untouched.
  ASSERT_TRUE((*good)->SendLine("still-fine").ok());
  StatusOr<std::string> reply = (*good)->RecvLine(5000);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:still-fine");
}

TEST(TransportTest, TornFrameAtEofIsDroppedNotDelivered) {
  EchoFixture fixture({}, "torn");
  {
    // Raw socket write with no trailing newline, then close: the torn
    // tail must never reach the frame handler.
    StatusOr<std::unique_ptr<ClientChannel>> channel =
        ClientChannel::Connect(fixture.spec());
    ASSERT_TRUE(channel.ok());
    const std::string partial = "torn-frame-no-newline";
    ASSERT_EQ(::write((*channel)->fd(), partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
  }  // channel closes here
  // A follow-up complete frame proves the loop is still serving.
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect(fixture.spec());
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->SendLine("complete").ok());
  StatusOr<std::string> reply = (*channel)->RecvLine(5000);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:complete");
  EXPECT_EQ(fixture.frames_handled(), 1u);  // only the complete frame
}

TEST(TransportTest, GarbageBytesGetPerFrameRejections) {
  // The transport itself is payload-agnostic (framing only); garbage
  // bytes form a frame like any other and reach the handler, which is
  // where protocol-level rejection lives. This pins that layering.
  EchoFixture fixture({}, "garbage");
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect(fixture.spec());
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->SendLine("\x01\x02 not json at all").ok());
  StatusOr<std::string> reply = (*channel)->RecvLine(5000);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:\x01\x02 not json at all");
}

TEST(TransportTest, TcpListenerOnEphemeralPort) {
  Transport transport;
  ASSERT_TRUE(transport.Listen("tcp:127.0.0.1:0").ok());
  const uint16_t port = transport.BoundPort(0);
  ASSERT_GT(port, 0);
  ASSERT_TRUE(transport.Start([&](ConnId conn, std::string&& line) {
    transport.Send(conn, "tcp:" + line);
  }).ok());
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect("tcp:127.0.0.1:" + std::to_string(port));
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  ASSERT_TRUE((*channel)->SendLine("ping").ok());
  StatusOr<std::string> reply = (*channel)->RecvLine(5000);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "tcp:ping");
  transport.Stop();
}

TEST(TransportTest, SendToUnknownConnectionReturnsFalse) {
  EchoFixture fixture({}, "unknown");
  EXPECT_FALSE(fixture.transport().Send(kFirstConnId + 999, "nobody-home"));
}

TEST(TransportTest, QueuedBytesReflectsUndrainedResponsesAndSuspendsReads) {
  // A handler that answers with a payload bigger than the kernel socket
  // buffer, to a client that does not read: the remainder must sit in the
  // transport's out queue (visible through QueuedBytes — what the
  // router's shed check keys on), and because that backlog exceeds the
  // soft limit, further requests from this connection must not be
  // handled until the client drains.
  TransportOptions options;
  options.write_soft_limit_bytes = 8 << 10;
  options.write_hard_limit_bytes = 64 << 20;
  const std::string path = TestSocketPath("backpressure");
  Transport transport(options);
  ASSERT_TRUE(transport.Listen("unix:" + path).ok());
  // 4 MiB: far beyond any default unix-socket send buffer, so a single
  // response is guaranteed to leave a queued remainder.
  const std::string big(4 << 20, 'b');
  std::atomic<size_t> handled{0};
  std::atomic<ConnId> observed_conn{0};
  ASSERT_TRUE(transport.Start([&](ConnId conn, std::string&&) {
    observed_conn.store(conn);
    handled.fetch_add(1);
    transport.Send(conn, big);
  }).ok());

  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect("unix:" + path);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->SendLine("gimme").ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (handled.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(handled.load(), 1u);
  // The un-flushed remainder is visible as queued bytes.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(transport.QueuedBytes(observed_conn.load()), 0u);

  // With the backlog above the soft limit, a second request must sit
  // unread in the socket rather than being handled.
  ASSERT_TRUE((*channel)->SendLine("more").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(handled.load(), 1u) << "reads were not suspended under backlog";

  // Draining the first response resumes reads; the second request is then
  // handled and answered — backpressure defers work, it must not lose it.
  for (size_t received = 0; received < 2; ++received) {
    StatusOr<std::string> reply = (*channel)->RecvLine(20000);
    ASSERT_TRUE(reply.ok()) << "after " << received << " replies: "
                            << reply.status().ToString();
    ASSERT_EQ(reply->size(), big.size());
  }
  EXPECT_EQ(handled.load(), 2u);
  transport.Stop();
  ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// HTTP scrape endpoints on the same listeners.

/// Writes `request` raw, then slurps until the server closes (HTTP mode is
/// one-shot with Connection: close).
std::string HttpRoundTrip(const std::string& spec,
                          const std::string& request) {
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect(spec);
  EXPECT_TRUE(channel.ok()) << channel.status().ToString();
  if (!channel.ok()) return "";
  const int fd = (*channel)->fd();
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  return response;
}

TEST(TransportHttpTest, GetServesHandlerResponseAndCloses) {
  EchoFixture fixture({}, "http");
  // EchoFixture already started the loop, so build a second transport with
  // the handler installed pre-Start.
  const std::string path = TestSocketPath("http2");
  Transport transport;
  ASSERT_TRUE(transport.Listen("unix:" + path).ok());
  transport.SetHttpHandler([](const std::string& req_path) {
    HttpResponse response;
    if (req_path == "/metrics") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = "dpclustx_test_metric 1\n";
    } else if (req_path == "/healthz") {
      response.body = "ok\n";
    } else {
      response.status = 404;
      response.body = "not found\n";
    }
    return response;
  });
  ASSERT_TRUE(transport.Start([&](ConnId conn, std::string&& line) {
    transport.Send(conn, "echo:" + line);
  }).ok());

  const std::string metrics = HttpRoundTrip(
      "unix:" + path,
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK\r\n"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4; "
                         "charset=utf-8\r\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(metrics.find("\r\n\r\ndpclustx_test_metric 1\n"),
            std::string::npos)
      << metrics;

  const std::string health =
      HttpRoundTrip("unix:" + path, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK\r\n"), std::string::npos) << health;

  const std::string missing =
      HttpRoundTrip("unix:" + path, "GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos)
      << missing;

  // The JSON line protocol on the same listener is untouched.
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect("unix:" + path);
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->SendLine(R"({"op":"ping"})").ok());
  StatusOr<std::string> reply = (*channel)->RecvLine(5000);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, R"(echo:{"op":"ping"})");
  transport.Stop();
  ::unlink(path.c_str());
}

TEST(TransportHttpTest, WithoutHandlerGetAnswers404) {
  EchoFixture fixture({}, "http404");
  const std::string response =
      HttpRoundTrip(fixture.spec(), "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos)
      << response;
}

TEST(TransportHttpTest, HttpDetectionIsFirstFrameOnly) {
  // A GET-shaped line later in an established protocol stream must stay a
  // protocol frame — only a connection's first frame can switch modes.
  EchoFixture fixture({}, "httplate");
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect(fixture.spec());
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->SendLine(R"({"op":"ping"})").ok());
  StatusOr<std::string> first = (*channel)->RecvLine(5000);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE((*channel)->SendLine("GET /metrics HTTP/1.1").ok());
  StatusOr<std::string> second = (*channel)->RecvLine(5000);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "echo:GET /metrics HTTP/1.1");
}

// ---------------------------------------------------------------------------
// End-to-end: the real router in socket mode.

std::string BuildDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n] = '\0';
  std::string path(buf);
  path = path.substr(0, path.rfind('/'));  // strip test binary name
  return path.substr(0, path.rfind('/'));  // strip "tests"
}

/// Forks dpclustx_router with a unix-socket listener, stdin held open as
/// the lifecycle handle. Skips the test when binaries are absent.
class RouterSocketFixture {
 public:
  RouterSocketFixture() {
    const std::string build = BuildDir();
    const std::string router = build + "/tools/dpclustx_router";
    const std::string serve = build + "/tools/dpclustx_serve";
    if (::access(router.c_str(), X_OK) != 0 ||
        ::access(serve.c_str(), X_OK) != 0) {
      return;  // started_ stays false; tests GTEST_SKIP
    }
    socket_path_ = TestSocketPath("e2e");
    state_dir_ = "/tmp/dpx_tt_state_" + std::to_string(::getpid());
    const std::string scrub = "rm -rf " + state_dir_ + " && mkdir -p " +
                              state_dir_;
    EXPECT_EQ(std::system(scrub.c_str()), 0);
    int to_child[2];
    EXPECT_EQ(::pipe(to_child), 0);
    pid_ = ::fork();
    EXPECT_GE(pid_, 0);
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::execl(router.c_str(), router.c_str(), "--workers", "2", "--serve",
              serve.c_str(), "--state-dir", state_dir_.c_str(), "--listen",
              ("unix:" + socket_path_).c_str(), "--verify-relay",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(to_child[0]);
    stdin_fd_ = to_child[1];
    for (int i = 0; i < 200 && ::access(socket_path_.c_str(), F_OK) != 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    started_ = ::access(socket_path_.c_str(), F_OK) == 0;
  }

  ~RouterSocketFixture() {
    if (stdin_fd_ >= 0) ::close(stdin_fd_);  // EOF → graceful shutdown
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
    if (!state_dir_.empty()) {
      std::system(("rm -rf " + state_dir_).c_str());
    }
    if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  }

  bool started() const { return started_; }
  std::string spec() const { return "unix:" + socket_path_; }

  StatusOr<JsonValue> Call(ClientChannel& channel,
                           const std::string& request) {
    Status sent = channel.SendLine(request);
    if (!sent.ok()) return sent;
    StatusOr<std::string> line = channel.RecvLine(30000);
    if (!line.ok()) return line.status();
    return JsonValue::Parse(*line);
  }

 private:
  std::string socket_path_;
  std::string state_dir_;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  bool started_ = false;
};

TEST(RouterSocketE2E, ConcurrentInterleavedClientSessions) {
  RouterSocketFixture fixture;
  if (!fixture.started()) GTEST_SKIP() << "router/serve binaries not built";

  // Shared setup through one connection.
  {
    StatusOr<std::unique_ptr<ClientChannel>> setup =
        ClientChannel::Connect(fixture.spec());
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    StatusOr<JsonValue> loaded = fixture.Call(
        **setup,
        R"({"op":"load_dataset","name":"e2e","source":"synthetic",)"
        R"("generator":"diabetes","rows":300,"seed":1})");
    ASSERT_TRUE(loaded.ok() && loaded->at("ok").AsBool()) << loaded->Dump();
  }

  // Concurrent clients, each with its own session lifecycle, pipelining
  // a burst of budget reads. Responses must come back on the right
  // connection with the right ids.
  constexpr size_t kClients = 6;
  std::mutex failures_mutex;
  std::vector<std::string> failures;
  auto fail = [&](std::string what) {
    std::lock_guard<std::mutex> lock(failures_mutex);
    failures.push_back(std::move(what));
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<ClientChannel>> channel =
          ClientChannel::Connect(fixture.spec());
      if (!channel.ok()) {
        fail("connect: " + channel.status().ToString());
        return;
      }
      const std::string session = "e2e-s" + std::to_string(c);
      StatusOr<JsonValue> created = fixture.Call(
          **channel, R"({"op":"create_session","dataset":"e2e","session":")" +
                         session + R"(","epsilon":5.0,"id":"mk)" +
                         std::to_string(c) + R"("})");
      if (!created.ok()) {
        fail("create_session: " + created.status().ToString());
        return;
      }
      if (!created->at("ok").AsBool()) {
        fail("create_session: " + created->Dump());
        return;
      }
      constexpr size_t kBurst = 20;
      for (size_t i = 0; i < kBurst; ++i) {
        const std::string request = R"({"op":"budget","session":")" +
                                    session + R"(","id":"b)" +
                                    std::to_string(c) + "-" +
                                    std::to_string(i) + R"("})";
        const Status sent = (*channel)->SendLine(request);
        if (!sent.ok()) fail("send: " + sent.ToString());
      }
      // Workers are async, so pipelined responses may come back in any
      // order — the contract is id-matched delivery on the right
      // connection: every id exactly once, nothing lost, nothing from
      // another client's session.
      std::set<std::string> seen;
      for (size_t i = 0; i < kBurst; ++i) {
        StatusOr<std::string> line = (*channel)->RecvLine(30000);
        if (!line.ok()) {
          fail("recv: " + line.status().ToString());
          continue;
        }
        StatusOr<JsonValue> parsed = JsonValue::Parse(*line);
        if (!parsed.ok() || !parsed->at("ok").AsBool() ||
            parsed->at("session").AsString() != session) {
          fail("response: " + *line);
          continue;
        }
        if (!seen.insert(parsed->at("id").AsString()).second) {
          fail("duplicate response: " + *line);
        }
      }
      for (size_t i = 0; i < kBurst; ++i) {
        const std::string expect_id =
            "b" + std::to_string(c) + "-" + std::to_string(i);
        if (seen.count(expect_id) == 0) fail("missing response " + expect_id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
  EXPECT_TRUE(failures.empty());
}

TEST(RouterSocketE2E, MalformedFramesRejectedPerConnection) {
  RouterSocketFixture fixture;
  if (!fixture.started()) GTEST_SKIP() << "router/serve binaries not built";

  StatusOr<std::unique_ptr<ClientChannel>> garbage =
      ClientChannel::Connect(fixture.spec());
  StatusOr<std::unique_ptr<ClientChannel>> healthy =
      ClientChannel::Connect(fixture.spec());
  ASSERT_TRUE(garbage.ok() && healthy.ok());

  // Garbage JSON → an error envelope on that connection, which then stays
  // usable: responses on one connection are FIFO, so the error comes
  // first and the pong after.
  ASSERT_TRUE((*garbage)->SendLine("this is not json").ok());
  StatusOr<std::string> error_raw = (*garbage)->RecvLine(30000);
  ASSERT_TRUE(error_raw.ok()) << error_raw.status().ToString();
  StatusOr<JsonValue> error = JsonValue::Parse(*error_raw);
  ASSERT_TRUE(error.ok()) << *error_raw;
  EXPECT_FALSE(error->at("ok").AsBool());
  EXPECT_EQ(error->at("error").at("code").AsString(), "InvalidArgument");
  StatusOr<JsonValue> recovered = fixture.Call(**garbage, R"({"op":"ping"})");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->at("ok").AsBool()) << recovered->Dump();

  // The healthy connection is unaffected throughout.
  StatusOr<JsonValue> pong = fixture.Call(**healthy, R"({"op":"ping"})");
  ASSERT_TRUE(pong.ok());
  EXPECT_TRUE(pong->at("ok").AsBool()) << pong->Dump();

  // The router's registry counts both open connections plus the scrape's
  // own; status reports per-worker pending depth and age.
  StatusOr<std::string> metrics = HttpGet(fixture.spec(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const std::string gauge = "\ndpclustx_transport_active_connections ";
  const size_t at = metrics->find(gauge);
  ASSERT_NE(at, std::string::npos) << *metrics;
  EXPECT_GE(std::stod(metrics->substr(at + gauge.size())), 3.0) << *metrics;
  StatusOr<JsonValue> status =
      fixture.Call(**healthy, R"({"op":"_router_status"})");
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(status->at("ok").AsBool());
  const JsonValue& workers = status->at("workers");
  ASSERT_GT(workers.size(), 0u);
  EXPECT_TRUE(workers.at(size_t{0}).Has("pending"));
  EXPECT_TRUE(workers.at(size_t{0}).Has("oldest_pending_ms"));
}

}  // namespace
}  // namespace dpclustx::service
