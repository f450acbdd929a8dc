// Socket-transport load driver: N concurrent client connections against the
// dpclustx_router's unix-socket front door, over the real fork/exec +
// epoll data path (the same bytes production clients send).
//
// Two phases, both against a 2-worker (configurable) router fronting real
// dpclustx_serve shards:
//
//   closed loop  every client keeps exactly one request in flight: send,
//                await, repeat. Measures capacity — requests/sec the full
//                stack (socket framing, router relay, worker pipes, DP
//                mechanism) sustains — plus client-observed p50/p95/p99.
//   open loop    clients offer a fixed aggregate QPS regardless of response
//                arrival (sends are paced, responses drained between
//                sends). Measures latency at a fixed offered load — the
//                number a capacity-mode run hides, because a closed loop
//                slows its own arrival rate when the server slows down.
//
// The workload is a multi-tenant op mix — explain (40%), hist (40%),
// budget (20%) — across one session per client, sessions spread over
// several datasets so both shards stay on the routing path. Every
// explain/hist carries a distinct ε, so no request short-circuits through
// the release cache. The driver verifies the stream end-to-end: every
// response line must parse, carry the id of an outstanding request on that
// connection, and every request must be answered — any torn, garbled,
// duplicated, or dropped response aborts the run. Shed responses
// (ResourceExhausted with retry_after_ms) are counted separately: they are
// the transport working as designed, not data loss.
//
// A third, in-process section microbenchmarks the relay splice itself:
// ScanTopLevelId+SpliceId versus parse → Set("id") → Dump over a
// representative worker response line, reporting ns/op for both paths.
//
// Latency percentiles come from obs::LatencyHistogram — the same
// log-bucketed instrument the engine exports — so the numbers here are
// directly comparable to the server-side histograms in `metrics` output.
//
// --observability picks how much of the fleet observability plane
// (DESIGN.md §15) the run exercises, so its cost is a measured number:
//
//   off      baseline: plain requests, no scrape traffic
//   metrics  + a background scraper issuing a `metrics` fleet-rollup
//            broadcast every 250ms on its own connection (the telemetry
//            plane under load)
//   full     metrics + every request carries "trace":true, so each one
//            pays _tc splice, worker span capture, and timeline stitching
//
// bench_snapshot.sh runs off and full back to back and stamps the p99
// delta into BENCH_service.json (budget: ≤3%).
//
// Usage:
//   bench_service_load [--workers N] [--clients N] [--datasets N]
//                      [--rows N] [--requests-per-client N]
//                      [--open-qps Q] [--open-seconds S] [--state-dir DIR]
//                      [--observability off|metrics|full]
//
// Prints one human line per phase and a final machine-readable JSON line
// (consumed by scripts/bench_snapshot.sh → BENCH_service.json):
//   {"bench":"service_load","closed_rps":...,"closed_p99_ms":...,...,
//    "router_metrics":"<the router's GET /metrics text after the run>"}

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "service/json_relay.h"
#include "service/transport.h"

namespace {

using Clock = std::chrono::steady_clock;
using dpclustx::JsonValue;
using dpclustx::Status;
using dpclustx::StatusOr;
using dpclustx::obs::LatencyHistogram;
using dpclustx::service::ClientChannel;
using dpclustx::service::RelayScan;
using dpclustx::service::ScanTopLevelId;
using dpclustx::service::SpliceId;

struct BenchConfig {
  size_t workers = 2;
  size_t clients = 32;
  size_t datasets = 4;
  size_t rows = 1000;
  size_t requests_per_client = 15;  // closed-loop phase
  double open_qps = 120.0;          // aggregate offered load, open phase
  double open_seconds = 4.0;
  std::string state_dir = "/tmp/dpclustx_service_load";
  std::string observability = "off";  // off | metrics | full
};

std::string BuildDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  DPX_CHECK(n > 0);
  buf[n] = '\0';
  std::string path(buf);
  path = path.substr(0, path.rfind('/'));
  return path.substr(0, path.rfind('/'));
}

/// The forked router: stdin held open through a pipe (EOF is its shutdown
/// signal), stdout/stderr passed through so crashes are visible.
class RouterProcess {
 public:
  RouterProcess(const std::vector<std::string>& args) {
    int to_child[2];
    DPX_CHECK(::pipe(to_child) == 0);
    pid_ = ::fork();
    DPX_CHECK(pid_ >= 0);
    if (pid_ == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      std::vector<char*> argv;
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    stdin_fd_ = to_child[1];
  }

  ~RouterProcess() {
    ::close(stdin_fd_);  // EOF → graceful shutdown (drains pending)
    ::waitpid(pid_, nullptr, 0);
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
};

void Require(const StatusOr<JsonValue>& response) {
  DPX_CHECK(response.ok()) << response.status().ToString();
  DPX_CHECK(response->at("ok").AsBool()) << response->Dump();
}

/// One synchronous round-trip on a dedicated setup connection.
StatusOr<JsonValue> Call(ClientChannel& channel, const std::string& request) {
  DPX_RETURN_IF_ERROR(channel.SendLine(request));
  DPX_ASSIGN_OR_RETURN(const std::string line, channel.RecvLine(30000));
  return JsonValue::Parse(line);
}

/// Loads `datasets` synthetic sets, clusters each, and opens one
/// big-budget session per client (sessions spread round-robin over the
/// datasets, so the tenant mix exercises every shard).
void SetUpWorkload(ClientChannel& channel, const BenchConfig& config) {
  for (size_t d = 0; d < config.datasets; ++d) {
    const std::string name = "load-d" + std::to_string(d);
    char request[512];
    std::snprintf(request, sizeof(request),
                  R"({"op":"load_dataset","name":"%s","source":"synthetic",)"
                  R"("generator":"diabetes","rows":%zu,"seed":%zu})",
                  name.c_str(), config.rows, d + 1);
    Require(Call(channel, request));
    std::snprintf(request, sizeof(request),
                  R"({"op":"cluster","dataset":"%s","method":"k-means",)"
                  R"("k":4,"seed":3})",
                  name.c_str());
    Require(Call(channel, request));
  }
  for (size_t c = 0; c < config.clients; ++c) {
    char request[512];
    std::snprintf(request, sizeof(request),
                  R"({"op":"create_session","dataset":"load-d%zu",)"
                  R"("session":"tenant%zu","epsilon":1000000.0})",
                  c % config.datasets, c);
    Require(Call(channel, request));
  }
}

/// Shared bookkeeping across client threads. `garbled` is the acceptance
/// gate: unparseable lines, ids that match no outstanding request, or
/// responses after the request was already answered.
struct LoadTally {
  std::atomic<size_t> sent{0};
  std::atomic<size_t> received{0};
  std::atomic<size_t> garbled{0};
  std::atomic<size_t> shed{0};
  std::atomic<size_t> app_errors{0};  // ok:false other than shed
  std::atomic<size_t> epsilon_seq{0};
};

/// Builds request number `seq` for client `c`: the op mix with a distinct
/// ε per budget-charged request. The id encodes the client so cross-
/// connection delivery mistakes surface as garbled responses.
std::string BuildRequest(size_t c, size_t seq, LoadTally& tally,
                         bool traced) {
  const double epsilon =
      0.21 + 1e-7 * static_cast<double>(tally.epsilon_seq.fetch_add(1));
  // In full-observability mode every request opts into end-to-end tracing,
  // so the run prices _tc splice + worker spans + stitching per request.
  const char* trace = traced ? R"("trace":true,)" : "";
  char request[384];
  switch (seq % 5) {
    case 0:
    case 1:
      std::snprintf(request, sizeof(request),
                    R"({"op":"explain","session":"tenant%zu",)"
                    R"("epsilon":%.8f,%s"id":"c%zu-%zu"})",
                    c, epsilon, trace, c, seq);
      break;
    case 2:
    case 3:
      std::snprintf(request, sizeof(request),
                    R"({"op":"hist","session":"tenant%zu",)"
                    R"("attribute":"diab_%zu","epsilon":%.8f,%s)"
                    R"("id":"c%zu-%zu"})",
                    c, seq % 7, epsilon, trace, c, seq);
      break;
    default:
      std::snprintf(request, sizeof(request),
                    R"({"op":"budget","session":"tenant%zu",%s"id":"c%zu-%zu"})",
                    c, trace, c, seq);
  }
  return request;
}

/// Validates one response line against this connection's outstanding set
/// and records its latency. Returns false on a garbled line.
bool AccountResponse(const std::string& line,
                     std::map<std::string, Clock::time_point>& outstanding,
                     LoadTally& tally, LatencyHistogram& histogram) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok() || parsed->type() != JsonValue::Type::kObject ||
      !parsed->Has("id") ||
      parsed->at("id").type() != JsonValue::Type::kString) {
    tally.garbled.fetch_add(1);
    return false;
  }
  auto it = outstanding.find(parsed->at("id").AsString());
  if (it == outstanding.end()) {
    tally.garbled.fetch_add(1);  // unknown or duplicated id
    return false;
  }
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - it->second);
  outstanding.erase(it);
  histogram.Observe(static_cast<uint64_t>(micros.count()));
  tally.received.fetch_add(1);
  if (!parsed->at("ok").AsBool()) {
    const bool is_shed =
        parsed->Has("error") && parsed->at("error").Has("retry_after_ms");
    (is_shed ? tally.shed : tally.app_errors).fetch_add(1);
  }
  return true;
}

/// Closed loop: `requests_per_client` one-at-a-time round-trips per client.
double RunClosedLoop(const BenchConfig& config, const std::string& socket,
                     LoadTally& tally, LatencyHistogram& histogram) {
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<ClientChannel>> channel =
          ClientChannel::Connect(socket);
      DPX_CHECK(channel.ok()) << channel.status().ToString();
      std::map<std::string, Clock::time_point> outstanding;
      const bool traced = config.observability == "full";
      for (size_t seq = 0; seq < config.requests_per_client; ++seq) {
        const std::string request = BuildRequest(c, seq, tally, traced);
        outstanding["c" + std::to_string(c) + "-" + std::to_string(seq)] =
            Clock::now();
        DPX_CHECK((*channel)->SendLine(request).ok());
        tally.sent.fetch_add(1);
        StatusOr<std::string> line = (*channel)->RecvLine(30000);
        DPX_CHECK(line.ok()) << line.status().ToString();
        DPX_CHECK(AccountResponse(*line, outstanding, tally, histogram))
            << "garbled response: " << *line;
      }
      DPX_CHECK(outstanding.empty());
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(config.clients * config.requests_per_client) /
         seconds;
}

/// Open loop: sends are paced to the offered rate; responses are drained
/// between sends and the remainder collected after the window closes.
double RunOpenLoop(const BenchConfig& config, const std::string& socket,
                   LoadTally& tally, LatencyHistogram& histogram) {
  using Micros = std::chrono::microseconds;
  const auto interarrival = Micros(static_cast<int64_t>(
      1e6 * static_cast<double>(config.clients) / config.open_qps));
  const auto window = Micros(static_cast<int64_t>(1e6 * config.open_seconds));
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<ClientChannel>> channel =
          ClientChannel::Connect(socket);
      DPX_CHECK(channel.ok()) << channel.status().ToString();
      std::map<std::string, Clock::time_point> outstanding;
      // Stagger client start offsets so the aggregate arrival process is
      // smooth rather than `clients` simultaneous bursts. The offset math
      // stays in int64: mixing size_t into chrono arithmetic promotes the
      // whole time_point to an unsigned rep, and a wrapped subtraction
      // later reads as a huge positive wait.
      auto next_send =
          t0 + Micros(interarrival.count() * static_cast<int64_t>(c) /
                      static_cast<int64_t>(config.clients));
      const auto deadline = t0 + window;
      size_t seq = 1000000;  // distinct id space from the closed phase
      while (next_send < deadline) {
        // Drain responses until the next send is due.
        for (;;) {
          const auto wait = std::chrono::duration_cast<Micros>(
              next_send - Clock::now());
          if (wait.count() <= 0) break;
          StatusOr<std::string> line = (*channel)->RecvLine(
              static_cast<int>(wait.count() / 1000) + 1);
          if (!line.ok()) break;  // timeout: nothing in flight arrived
          DPX_CHECK(AccountResponse(*line, outstanding, tally, histogram))
              << "garbled response: " << *line;
        }
        const std::string request =
            BuildRequest(c, seq, tally, config.observability == "full");
        outstanding["c" + std::to_string(c) + "-" + std::to_string(seq)] =
            Clock::now();
        DPX_CHECK((*channel)->SendLine(request).ok());
        tally.sent.fetch_add(1);
        ++seq;
        next_send += interarrival;
      }
      while (!outstanding.empty()) {
        StatusOr<std::string> line = (*channel)->RecvLine(30000);
        DPX_CHECK(line.ok()) << line.status().ToString();
        DPX_CHECK(AccountResponse(*line, outstanding, tally, histogram))
            << "garbled response: " << *line;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(tally.received.load()) / seconds;
}

/// Background telemetry consumer for the metrics/full observability modes:
/// a dedicated connection issuing a `metrics` fleet-rollup broadcast every
/// 250ms — the cost a real scrape plane adds while the fleet is under load.
class MetricsScraper {
 public:
  explicit MetricsScraper(const std::string& socket) {
    thread_ = std::thread([this, socket] {
      StatusOr<std::unique_ptr<ClientChannel>> channel =
          ClientChannel::Connect(socket);
      DPX_CHECK(channel.ok()) << channel.status().ToString();
      while (!stop_.load(std::memory_order_acquire)) {
        const std::string id = "scrape-" + std::to_string(scrapes_);
        StatusOr<JsonValue> rollup = Call(
            **channel, R"({"op":"metrics","id":")" + id + R"("})");
        DPX_CHECK(rollup.ok() && rollup->at("ok").AsBool() &&
                  rollup->Has("fleet"))
            << "fleet rollup scrape failed";
        ++scrapes_;
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    });
  }

  size_t Stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    return scrapes_;
  }

 private:
  std::atomic<bool> stop_{false};
  size_t scrapes_ = 0;  // written by the thread, read after join
  std::thread thread_;
};

struct RelayBench {
  double splice_ns = 0.0;
  double full_ns = 0.0;
};

/// In-process splice-vs-full-parse microbench over a representative worker
/// response: an explain-sized payload (nested arrays of bin counts) with a
/// router-generated id to rewrite.
RelayBench RunRelayMicrobench() {
  JsonValue response = JsonValue::Object();
  response.Set("id", JsonValue::String("r123456"));
  response.Set("ok", JsonValue::Bool(true));
  response.Set("session", JsonValue::String("tenant17"));
  response.Set("epsilon_spent", JsonValue::Number(0.30000017));
  JsonValue bins = JsonValue::Array();
  for (int b = 0; b < 64; ++b) {
    bins.Append(JsonValue::Number(static_cast<double>(b * 37 % 211)));
  }
  response.Set("histogram", bins);
  JsonValue predicates = JsonValue::Array();
  for (int p = 0; p < 6; ++p) {
    JsonValue predicate = JsonValue::Object();
    predicate.Set("attribute", JsonValue::String("diab_" + std::to_string(p)));
    predicate.Set("lo", JsonValue::Number(0.25 * p));
    predicate.Set("hi", JsonValue::Number(0.25 * p + 1.0));
    predicate.Set("score", JsonValue::Number(0.91 - 0.07 * p));
    predicates.Append(predicate);
  }
  response.Set("predicates", predicates);
  const std::string line = response.Dump();
  const std::string client_id = "\"client-original-42\"";

  constexpr size_t kIters = 20000;
  RelayBench result;
  size_t sink = 0;
  {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < kIters; ++i) {
      StatusOr<RelayScan> scan = ScanTopLevelId(line);
      DPX_CHECK(scan.ok());
      sink += SpliceId(line, *scan, client_id).size();
    }
    result.splice_ns = std::chrono::duration<double, std::nano>(
                           Clock::now() - t0).count() / kIters;
  }
  {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < kIters; ++i) {
      StatusOr<JsonValue> parsed = JsonValue::Parse(line);
      DPX_CHECK(parsed.ok());
      parsed->Set("id", JsonValue::String("client-original-42"));
      sink += parsed->Dump().size();
    }
    result.full_ns = std::chrono::duration<double, std::nano>(
                         Clock::now() - t0).count() / kIters;
  }
  DPX_CHECK(sink > 0);  // keep the loops observable
  std::printf("relay payload        : %zu bytes\n", line.size());
  std::printf("relay splice         : %8.0f ns/op\n", result.splice_ns);
  std::printf("relay full parse     : %8.0f ns/op (%.1fx slower)\n",
              result.full_ns, result.full_ns / result.splice_ns);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    auto size_flag = [&](const char* name, size_t* out) {
      if (std::strcmp(argv[i], name) != 0) return false;
      DPX_CHECK(i + 1 < argc) << name << " needs a value";
      *out = static_cast<size_t>(std::stoull(argv[++i]));
      return true;
    };
    auto double_flag = [&](const char* name, double* out) {
      if (std::strcmp(argv[i], name) != 0) return false;
      DPX_CHECK(i + 1 < argc) << name << " needs a value";
      *out = std::stod(argv[++i]);
      return true;
    };
    if (size_flag("--workers", &config.workers) ||
        size_flag("--clients", &config.clients) ||
        size_flag("--datasets", &config.datasets) ||
        size_flag("--rows", &config.rows) ||
        size_flag("--requests-per-client", &config.requests_per_client) ||
        double_flag("--open-qps", &config.open_qps) ||
        double_flag("--open-seconds", &config.open_seconds)) {
      continue;
    }
    if (std::strcmp(argv[i], "--state-dir") == 0 && i + 1 < argc) {
      config.state_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--observability") == 0 && i + 1 < argc) {
      config.observability = argv[++i];
      continue;
    }
    std::cerr << "unknown flag '" << argv[i] << "'\n";
    return 2;
  }
  if (config.observability != "off" && config.observability != "metrics" &&
      config.observability != "full") {
    std::cerr << "--observability must be off, metrics, or full\n";
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  const RelayBench relay = RunRelayMicrobench();

  const std::string build = BuildDir();
  const std::string scrub =
      "rm -rf " + config.state_dir + " && mkdir -p " + config.state_dir;
  DPX_CHECK(std::system(scrub.c_str()) == 0);
  const std::string socket = "unix:" + config.state_dir + "/router.sock";

  RouterProcess router({build + "/tools/dpclustx_router",
                        "--workers", std::to_string(config.workers),
                        "--serve", build + "/tools/dpclustx_serve",
                        "--state-dir", config.state_dir,
                        "--listen", socket});
  // Wait for the socket to appear (the router binds before serving stdin).
  const std::string socket_path = config.state_dir + "/router.sock";
  for (int i = 0; i < 200 && ::access(socket_path.c_str(), F_OK) != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  DPX_CHECK(::access(socket_path.c_str(), F_OK) == 0)
      << "router never bound " << socket_path;

  {
    StatusOr<std::unique_ptr<ClientChannel>> setup =
        ClientChannel::Connect(socket);
    DPX_CHECK(setup.ok()) << setup.status().ToString();
    SetUpWorkload(**setup, config);
  }

  std::unique_ptr<MetricsScraper> scraper;
  if (config.observability != "off") {
    scraper = std::make_unique<MetricsScraper>(socket);
  }

  LoadTally closed_tally;
  LatencyHistogram closed_histogram;
  const double closed_rps =
      RunClosedLoop(config, socket, closed_tally, closed_histogram);
  const double closed_p50 = closed_histogram.ApproxQuantileMicros(0.50) / 1e3;
  const double closed_p95 = closed_histogram.ApproxQuantileMicros(0.95) / 1e3;
  const double closed_p99 = closed_histogram.ApproxQuantileMicros(0.99) / 1e3;
  std::printf(
      "closed loop          : %8.1f req/s  p50 %.1fms p95 %.1fms p99 %.1fms"
      "  (%zu clients, %zu sent, %zu received, %zu garbled, %zu shed)\n",
      closed_rps, closed_p50, closed_p95, closed_p99, config.clients,
      closed_tally.sent.load(), closed_tally.received.load(),
      closed_tally.garbled.load(), closed_tally.shed.load());

  LoadTally open_tally;
  LatencyHistogram open_histogram;
  const double open_rps =
      RunOpenLoop(config, socket, open_tally, open_histogram);
  const double open_p50 = open_histogram.ApproxQuantileMicros(0.50) / 1e3;
  const double open_p95 = open_histogram.ApproxQuantileMicros(0.95) / 1e3;
  const double open_p99 = open_histogram.ApproxQuantileMicros(0.99) / 1e3;
  std::printf(
      "open loop @%.0f qps   : %8.1f req/s  p50 %.1fms p95 %.1fms p99 %.1fms"
      "  (%zu sent, %zu received, %zu garbled, %zu shed)\n",
      config.open_qps, open_rps, open_p50, open_p95, open_p99,
      open_tally.sent.load(), open_tally.received.load(),
      open_tally.garbled.load(), open_tally.shed.load());

  size_t scrapes = 0;
  if (scraper != nullptr) {
    scrapes = scraper->Stop();
    std::printf("observability        : %s (%zu fleet-rollup scrapes)\n",
                config.observability.c_str(), scrapes);
  }

  DPX_CHECK(closed_tally.garbled.load() == 0 &&
            open_tally.garbled.load() == 0)
      << "garbled responses — transport corrupted the stream";
  DPX_CHECK(closed_tally.sent.load() == closed_tally.received.load() &&
            open_tally.sent.load() == open_tally.received.load())
      << "dropped responses — transport lost frames";

  JsonValue result = JsonValue::Object();
  result.Set("bench", JsonValue::String("service_load"));
  result.Set("observability", JsonValue::String(config.observability));
  result.Set("scrapes", JsonValue::Number(static_cast<double>(scrapes)));
  result.Set("workers", JsonValue::Number(static_cast<double>(config.workers)));
  result.Set("clients", JsonValue::Number(static_cast<double>(config.clients)));
  result.Set("datasets",
             JsonValue::Number(static_cast<double>(config.datasets)));
  result.Set("rows", JsonValue::Number(static_cast<double>(config.rows)));
  result.Set("closed_rps", JsonValue::Number(closed_rps));
  result.Set("closed_p50_ms", JsonValue::Number(closed_p50));
  result.Set("closed_p95_ms", JsonValue::Number(closed_p95));
  result.Set("closed_p99_ms", JsonValue::Number(closed_p99));
  result.Set("open_target_qps", JsonValue::Number(config.open_qps));
  result.Set("open_rps", JsonValue::Number(open_rps));
  result.Set("open_p50_ms", JsonValue::Number(open_p50));
  result.Set("open_p95_ms", JsonValue::Number(open_p95));
  result.Set("open_p99_ms", JsonValue::Number(open_p99));
  result.Set("sent", JsonValue::Number(static_cast<double>(
                         closed_tally.sent.load() + open_tally.sent.load())));
  result.Set("garbled", JsonValue::Number(0.0));
  result.Set("shed",
             JsonValue::Number(static_cast<double>(
                 closed_tally.shed.load() + open_tally.shed.load())));
  result.Set("relay_splice_ns", JsonValue::Number(relay.splice_ns));
  result.Set("relay_full_parse_ns", JsonValue::Number(relay.full_ns));
  result.Set("relay_speedup",
             JsonValue::Number(relay.full_ns / relay.splice_ns));
  // The router's registry after the run, over the socket the load used.
  StatusOr<std::string> router_metrics =
      dpclustx::service::HttpGet(socket, "/metrics");
  DPX_CHECK(router_metrics.ok()) << router_metrics.status().ToString();
  result.Set("router_metrics", JsonValue::String(*router_metrics));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
