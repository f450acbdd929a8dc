// dpclustx_router — sharded multi-worker front door for dpclustx_serve.
//
// Speaks the same JSON line protocol as dpclustx_serve on stdin/stdout, but
// behind it supervises N shard workers (each a dpclustx_serve child with its
// own snapshot + audit journal under --state-dir) and optionally R read-only
// replicas per shard (spawned from the shard's snapshot). Datasets are
// consistent-hashed across shards (src/service/router_core.h), so every
// request touching a dataset or a session bound to one lands on the worker
// whose ledgers own it.
//
//   client ──stdin──▶ router ──pipes──▶ shard-0 (snapshot + journal)
//                        │              shard-1 (snapshot + journal)
//                        │              ...
//                        └─ explain/hist may try ─▶ replica-i.r (--read-only,
//                           restored from shard-i's snapshot; serves cache
//                           hits for free, refuses misses → router retries
//                           against the primary)
//
// Fault handling: a health thread pings every worker on an interval with a
// deadline; after --health-misses consecutive misses (or an EOF on the
// worker's pipe) the worker is SIGKILLed and respawned with exponential
// backoff. Shards restore themselves at startup from their own --snapshot
// and --audit-journal flags, so the respawn path here is just re-exec — the
// exactly-once ε accounting lives in the worker (DESIGN.md §11). Requests
// in flight on a dead worker get an Internal error telling the client to
// retry (replica reads silently retry against the primary instead).
//
// Transport: by default the router speaks the protocol on stdin/stdout
// (single client, scripted sessions). With --listen it additionally serves
// many concurrent clients over Unix-domain or TCP sockets behind one epoll
// loop (src/service/transport.h): newline framing identical to stdin,
// bounded per-connection buffers, reads suspended above the soft write
// budget, and requests shed with ResourceExhausted + retry_after_ms once a
// connection's response backlog passes the hard cap. stdin stays open as a
// compatibility client (ConnId 0); EOF on stdin is still the shutdown
// signal either way.
//
// Relay: worker responses carry the router's internal id and must go back
// out with the client's original id. The hot path does this with a
// zero-reparse splice (src/service/json_relay.h): scan the response line
// once, replace only the id value's bytes, forward everything else
// verbatim — byte-identical to the old parse→mutate→dump path (the
// --verify-relay flag enforces that equivalence per response, and the ASan
// smoke in scripts/check.sh runs with it on). Broadcast merges and replica
// refusal checks still use the full parser; --relay full restores it
// everywhere as the baseline for benchmarks.
//
// Tracing (DESIGN.md §15): a request carrying "trace":true gets a trace
// context spliced into its forwarded line — the same zero-reparse byte
// splice as the id rewrite (SpliceTraceContext) injects
// "_tc":{"pid":"r<seq>","tid":"t<seq>"} right after the opening brace. The
// worker activates its span tree under that trace id and returns it in the
// response envelope; the router replaces it with one stitched end-to-end
// timeline: router-side spans (parse, shard_pick, relay_splice,
// worker_roundtrip with the derived worker_queue_wait, write_back) plus the
// worker's own pipeline tree nested under worker_roundtrip. The worker
// subtree keeps its own clock domain (its start_micros are relative to the
// worker's root, not the router's — cross-process clocks are not stitched,
// only durations are). When the worker dies mid-request the error response
// carries the router-side spans and "trace_partial":true instead of
// hanging. Finished timelines land in a bounded router trace ring served by
// the `trace` op, and --slow-request-ms emits a structured slow-log line
// (with the trace id when there is one) to stderr for any request over the
// threshold.
//
// Telemetry: the router's own registry carries per-worker labeled series —
// round-trip latency histograms, in-flight depth, restarts, respawn
// backoff, liveness, and replica staleness, all labeled {worker="..."} —
// and the `metrics` op returns a "fleet" rollup that merges every worker's
// registry into one namespace with the worker label injected. On --listen
// sockets the router also answers plain HTTP GETs for /metrics (Prometheus
// text 0.0.4), /healthz, and /ready on the same port the line protocol
// uses, so a stock Prometheus scrapes it with no sidecar;
// --worker-listen-base gives each worker its own scrape port too.
//
// Flags:
//
//   --listen SPEC            accept clients on unix:/path or tcp:[host:]port
//                            (repeatable; e.g. --listen unix:/tmp/dpx.sock
//                            --listen tcp:7070)
//   --relay MODE             splice (default) | full — worker response id
//                            rewrite strategy
//   --verify-relay           cross-check every spliced response against the
//                            full-parse path (CI smokes; aborts on drift)
//   --max-frame-bytes N      per-request frame cap on socket clients
//                            (default 1 MiB)
//   --write-soft-limit-bytes N  per-connection backlog above which reads
//                            pause (default 256 KiB)
//   --write-hard-limit-bytes N  backlog above which new requests are shed
//                            (default 4 MiB)
//   --retry-after-ms N       back-off hint attached to shed responses
//                            (default 100)
//   --slow-request-ms N      structured slow-log line to stderr for any
//                            request slower than N ms (default 0 = off)
//   --worker-listen-base P   give each worker its own tcp listener on
//                            127.0.0.1:(P + worker index) so Prometheus
//                            can scrape workers directly (default 0 = off)
//   --workers N              shard workers (default 2)
//   --replicas R             read-only replicas per shard (default 0)
//   --serve BIN              dpclustx_serve binary (default: next to this
//                            executable)
//   --state-dir DIR          where shard-i.snap / shard-i.journal live
//                            (default ".")
//   --vnodes N               virtual nodes per shard on the hash ring
//                            (default 64; part of the placement contract —
//                            keep it stable across restarts)
//   --health-interval-ms N   ping period (default 1000)
//   --health-deadline-ms N   ping response deadline (default 2000)
//   --health-misses N        consecutive misses before respawn (default 3)
//   --version                print build provenance and exit
//   --help                   print this flag table and exit
//   -- FLAGS...              everything after -- is appended to every
//                            worker's command line (e.g. `-- --sync` for
//                            scripted sessions: the protocol is pipelined,
//                            so without --sync two requests to the same
//                            shard may be served out of order)
//
// Router-level ops (handled here, never forwarded):
//
//   {"op":"_router_status"}          topology, worker liveness, bound
//                                    sessions, per-worker pending depth and
//                                    age (counts live in `metrics`)
//   {"op":"_router_sync_replicas"}   save_snapshot on every shard, then
//                                    respawn replicas from the fresh files
//
// save_snapshot / load_snapshot from clients are refused: the router owns
// snapshot scheduling (per-shard files under --state-dir). ping / stats /
// audit broadcast to every shard and return the per-shard responses under
// "workers"; metrics broadcasts too and returns only the labeled "fleet"
// rollup (a dead worker shows as dpclustx_router_worker_alive 0 there).
// trace is answered by the router itself with its ring of stitched
// end-to-end timelines (per-worker rings stay reachable by scraping a
// worker's own port with --worker-listen-base).

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/status.h"
#include "flags.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "service/json_relay.h"
#include "service/router_core.h"
#include "service/transport.h"

namespace {

using dpclustx::JsonValue;
using dpclustx::Status;
using dpclustx::StatusCode;
using dpclustx::StatusCodeName;
using dpclustx::StatusOr;
using dpclustx::service::Backoff;
using dpclustx::service::ConnId;
using dpclustx::service::EraseId;
using dpclustx::service::RelayScan;
using dpclustx::service::RouteDecision;
using dpclustx::service::RouteKind;
using dpclustx::service::RouterCore;
using dpclustx::service::ScanTopLevelId;
using dpclustx::service::SpliceId;
using dpclustx::service::SpliceTraceContext;
using dpclustx::service::Transport;
using dpclustx::service::TransportOptions;
using dpclustx::tools::ParseSizeFlag;
using dpclustx::tools::ParseStringFlag;

/// The stdin/stdout compatibility client. Real socket connections get ids
/// >= dpclustx::service::kFirstConnId from the transport.
constexpr ConnId kStdioConn = 0;

constexpr const char kUsage[] =
    "usage: dpclustx_router [flags]\n"
    "\n"
    "  --listen SPEC            accept clients on unix:/path or\n"
    "                           tcp:[host:]port (repeatable)\n"
    "  --relay MODE             splice (default) | full\n"
    "  --verify-relay           cross-check spliced responses against the\n"
    "                           full-parse path (aborts on drift)\n"
    "  --max-frame-bytes N      socket frame cap (default 1048576)\n"
    "  --write-soft-limit-bytes N  pause reads above this backlog\n"
    "                           (default 262144)\n"
    "  --write-hard-limit-bytes N  shed requests above this backlog\n"
    "                           (default 4194304)\n"
    "  --retry-after-ms N       back-off hint on shed responses (default "
    "100)\n"
    "  --slow-request-ms N      structured slow-log line to stderr for any\n"
    "                           request slower than N ms (default 0 = off)\n"
    "  --worker-listen-base P   per-worker tcp scrape listener on\n"
    "                           127.0.0.1:(P + worker index) (default 0 = "
    "off)\n"
    "  --workers N              shard workers (default 2)\n"
    "  --replicas R             read-only replicas per shard (default 0)\n"
    "  --serve BIN              dpclustx_serve binary (default: next to this\n"
    "                           executable)\n"
    "  --state-dir DIR          shard snapshot/journal directory (default .)\n"
    "  --vnodes N               virtual nodes per shard (default 64)\n"
    "  --health-interval-ms N   ping period (default 1000)\n"
    "  --health-deadline-ms N   ping response deadline (default 2000)\n"
    "  --health-misses N        consecutive misses before respawn (default 3)\n"
    "  --version                print build provenance and exit\n"
    "  --help                   print this flag table and exit\n"
    "  -- FLAGS...              appended to every worker's command line\n"
    "                           (e.g. `-- --sync` for scripted sessions)\n";

std::mutex stdout_mutex;

void WriteClientLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(stdout_mutex);
  std::cout << line << "\n";
  std::cout.flush();
}

/// Engine-shaped error response so clients see one vocabulary regardless of
/// whether the router or a worker produced the error. retry_after_ms > 0
/// adds the back-off hint shed responses carry.
JsonValue ErrorBody(StatusCode code, const std::string& message,
                    int64_t retry_after_ms = 0) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeName(code)));
  error.Set("message", JsonValue::String(message));
  if (retry_after_ms > 0) {
    error.Set("retry_after_ms",
              JsonValue::Number(static_cast<double>(retry_after_ms)));
  }
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("error", std::move(error));
  return response;
}

/// Duration → whole microseconds, rounded UP with a floor of 1 — matching
/// obs::Trace's convention that a span which ran at all reports >= 1 µs.
uint64_t CeilMicros(std::chrono::steady_clock::duration d) {
  if (d <= std::chrono::steady_clock::duration::zero()) return 1;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  const uint64_t micros = static_cast<uint64_t>((ns + 999) / 1000);
  return micros == 0 ? 1 : micros;
}

int64_t NowSteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One span in the stitched timeline, shaped exactly like obs::Trace's
/// ToJson nodes ({"name","start_micros","wall_micros","cpu_micros",
/// "children"}) so clients render router and worker spans uniformly. The
/// router has no per-span CPU clock; cpu_micros is 0 for router spans.
/// `name` must come from the fixed span vocabulary below — never client
/// data (the DP-safety rule trace.h states for worker spans holds here).
JsonValue SpanJson(const char* name, uint64_t start_micros,
                   uint64_t wall_micros) {
  JsonValue span = JsonValue::Object();
  span.Set("name", JsonValue::String(name));
  span.Set("start_micros",
           JsonValue::Number(static_cast<double>(start_micros)));
  span.Set("wall_micros", JsonValue::Number(static_cast<double>(wall_micros)));
  span.Set("cpu_micros", JsonValue::Number(0));
  span.Set("children", JsonValue::Array());
  return span;
}

/// "name" → "name{worker=\"shard-0\"}", "name{op=\"x\"}" →
/// "name{op=\"x\",worker=\"shard-0\"}" — how the fleet rollup folds every
/// worker's registry into one namespace without key collisions.
std::string InjectWorkerLabel(const std::string& key,
                              const std::string& worker) {
  const std::string label = "worker=\"" + worker + "\"";
  if (!key.empty() && key.back() == '}') {
    return key.substr(0, key.size() - 1) + "," + label + "}";
  }
  return key + "{" + label + "}";
}

/// One in-flight forwarded request. kInternal entries (health pings, admin
/// snapshot saves) complete a condition-variable wait instead of writing to
/// the client.
struct PendingEntry {
  enum class Kind { kSingle, kBroadcast, kInternal };
  Kind kind = Kind::kSingle;

  ConnId client = kStdioConn;  // connection owed the response
  bool has_client_id = false;
  JsonValue client_id;
  std::string client_id_json;  // client_id pre-serialized: the splice path
                               // does zero JSON work per response
  std::chrono::steady_clock::time_point enqueued;  // for _router_status aging

  std::string worker;        // who currently owes the response
  std::string request_line;  // rewritten line (router id), for fallback
  std::string dataset;       // kSingle: owning dataset, "" for unknown-op
  bool on_replica = false;   // kSingle: true while a replica is trying

  // Timeline bookkeeping (enqueued above is the receive time). written is
  // refreshed when a replica miss moves the request to the primary, so
  // worker_roundtrip measures the leg that actually answered. All fields
  // are read/written under pending_mutex_; the stitched trace is built
  // from a snapshot after the entry leaves the map.
  std::string op;            // for the slow log and the metrics rollup
  bool traced = false;       // "trace":true — a stitched timeline is owed
  std::string tid;           // propagated trace id ("t<seq>")
  std::chrono::steady_clock::time_point written;  // pipe write time
  uint64_t parse_micros = 0;   // request parse
  uint64_t route_micros = 0;   // classify + shard pick
  uint64_t splice_micros = 0;  // _tc splice into the forwarded line

  size_t awaiting = 0;       // kBroadcast: responses still outstanding
  JsonValue merged = JsonValue::Object();

  bool done = false;         // kInternal
  std::string response_line;
};

struct WorkerProc {
  std::string name;            // "shard-0" / "replica-0.1"
  std::vector<std::string> args;
  size_t shard = 0;            // owning shard index (== own index for shards)
  bool replica = false;

  std::mutex write_mutex;      // serializes writes into the worker's stdin
  int stdin_fd = -1;
  pid_t pid = -1;
  std::thread reader;
  std::atomic<bool> alive{false};
  int misses = 0;              // consecutive health-check misses

  // Per-worker labeled instruments ({worker="<name>"}), registered once at
  // router construction in the process registry. spawned_at_ms feeds the
  // replica-staleness gauge: replicas only refresh by respawning, so their
  // age IS the staleness of the snapshot they serve.
  dpclustx::obs::LatencyHistogram* latency = nullptr;
  dpclustx::obs::Counter* restarts_counter = nullptr;
  dpclustx::obs::Gauge* backoff_gauge = nullptr;
  std::atomic<int64_t> spawned_at_ms{0};
};

/// The stitched end-to-end timeline for one traced request: router-side
/// spans with start offsets on the router's clock, plus (when the worker
/// answered) the worker's own span tree nested under worker_roundtrip.
///
///   router_request
///   ├─ parse              request JSON parse
///   ├─ shard_pick         classify + consistent-hash lookup
///   ├─ relay_splice       _tc splice into the forwarded line
///   ├─ worker_roundtrip   pipe write → response line
///   │  ├─ worker_queue_wait   roundtrip − worker-reported wall: pipe
///   │  │                      transit + time queued in the worker
///   │  └─ <worker tree>       offsets relative to the WORKER's root (its
///   │                         clock domain; only durations line up)
///   └─ write_back         response stitch + serialize, up to the reply
///
/// `worker_tree` is null when the worker died or answered without a tree —
/// the caller marks those responses "trace_partial". Span names here are
/// the fixed vocabulary above; like worker spans they carry timings only.
JsonValue StitchTimeline(const PendingEntry& entry,
                         std::chrono::steady_clock::time_point replied,
                         const JsonValue* worker_tree) {
  JsonValue children = JsonValue::Array();
  children.Append(SpanJson("parse", 0, entry.parse_micros));
  uint64_t cursor = entry.parse_micros;
  children.Append(SpanJson("shard_pick", cursor, entry.route_micros));
  cursor += entry.route_micros;
  children.Append(SpanJson("relay_splice", cursor, entry.splice_micros));
  const uint64_t roundtrip_start = CeilMicros(entry.written - entry.enqueued);
  const uint64_t roundtrip_wall = CeilMicros(replied - entry.written);
  JsonValue roundtrip =
      SpanJson("worker_roundtrip", roundtrip_start, roundtrip_wall);
  if (worker_tree != nullptr) {
    uint64_t worker_wall = 0;
    if (worker_tree->Has("wall_micros") &&
        worker_tree->at("wall_micros").type() == JsonValue::Type::kNumber) {
      worker_wall =
          static_cast<uint64_t>(worker_tree->at("wall_micros").AsNumber());
    }
    const uint64_t queue_wait =
        roundtrip_wall > worker_wall ? roundtrip_wall - worker_wall : 1;
    JsonValue nested = JsonValue::Array();
    nested.Append(SpanJson("worker_queue_wait", roundtrip_start, queue_wait));
    nested.Append(*worker_tree);
    roundtrip.Set("children", std::move(nested));
  }
  children.Append(std::move(roundtrip));
  const auto stitched_at = std::chrono::steady_clock::now();
  children.Append(SpanJson("write_back", CeilMicros(replied - entry.enqueued),
                           CeilMicros(stitched_at - replied)));
  JsonValue root = SpanJson("router_request", 0,
                            CeilMicros(stitched_at - entry.enqueued));
  root.Set("children", std::move(children));
  return root;
}

class Router {
 public:
  Router(std::string serve_bin, std::string state_dir, size_t num_shards,
         size_t replicas_per_shard, size_t vnodes, int64_t health_interval_ms,
         int64_t health_deadline_ms, int health_misses,
         uint16_t worker_listen_base,
         std::vector<std::string> worker_extra_args)
      : core_(ShardNames(num_shards), vnodes),
        serve_bin_(std::move(serve_bin)),
        state_dir_(std::move(state_dir)),
        health_interval_ms_(health_interval_ms),
        health_deadline_ms_(health_deadline_ms),
        health_misses_(health_misses),
        dropped_lines_counter_(
            dpclustx::obs::MetricsRegistry::Default().RegisterCounter(
                "dpclustx_router_dropped_lines_total",
                "worker stdout lines the router could not parse or "
                "attribute to a request")),
        relay_spliced_counter_(
            dpclustx::obs::MetricsRegistry::Default().RegisterCounter(
                "dpclustx_router_relay_spliced_total",
                "worker responses relayed via the zero-reparse id splice")),
        relay_full_parse_counter_(
            dpclustx::obs::MetricsRegistry::Default().RegisterCounter(
                "dpclustx_router_relay_full_parse_total",
                "worker responses relayed via the full parse/dump path")),
        shed_requests_counter_(
            dpclustx::obs::MetricsRegistry::Default().RegisterCounter(
                "dpclustx_router_shed_requests_total",
                "requests refused with ResourceExhausted because the "
                "client's response backlog passed the hard write limit")),
        tc_spliced_counter_(
            dpclustx::obs::MetricsRegistry::Default().RegisterCounter(
                "dpclustx_router_tc_spliced_total",
                "trace contexts injected via the zero-reparse splice")),
        tc_full_parse_counter_(
            dpclustx::obs::MetricsRegistry::Default().RegisterCounter(
                "dpclustx_router_tc_full_parse_total",
                "trace contexts injected via the full parse/dump fallback")) {
    // --worker-listen-base P hands worker k (in spawn order: shards first,
    // then replicas) its own tcp scrape listener on 127.0.0.1:(P+k). The
    // port rides in the respawn args, so a respawned worker comes back on
    // the same address (SO_REUSEADDR makes the rebind immediate).
    uint16_t next_port = worker_listen_base;
    const auto maybe_listen = [&](std::vector<std::string>& args) {
      if (worker_listen_base == 0) return;
      args.push_back("--listen");
      args.push_back("tcp:127.0.0.1:" + std::to_string(next_port++));
    };
    for (size_t i = 0; i < num_shards; ++i) {
      auto w = std::make_unique<WorkerProc>();
      w->name = "shard-" + std::to_string(i);
      w->shard = i;
      w->args = {serve_bin_,
                 "--snapshot", SnapshotPath(i),
                 "--audit-journal", state_dir_ + "/shard-" +
                     std::to_string(i) + ".journal"};
      maybe_listen(w->args);
      w->args.insert(w->args.end(), worker_extra_args.begin(),
                     worker_extra_args.end());
      workers_.push_back(std::move(w));
    }
    for (size_t i = 0; i < num_shards; ++i) {
      for (size_t r = 0; r < replicas_per_shard; ++r) {
        auto w = std::make_unique<WorkerProc>();
        w->name = "replica-" + std::to_string(i) + "." + std::to_string(r);
        w->shard = i;
        w->replica = true;
        // Replicas restore from the shard's snapshot but never journal or
        // save: they are disposable caches, refreshed by respawning
        // (_router_sync_replicas).
        w->args = {serve_bin_, "--read-only", "--snapshot", SnapshotPath(i)};
        maybe_listen(w->args);
        w->args.insert(w->args.end(), worker_extra_args.begin(),
                       worker_extra_args.end());
        workers_.push_back(std::move(w));
      }
    }
    num_shards_ = num_shards;
    RegisterWorkerInstruments();
  }

  void Start() {
    EnsureStateDir();
    for (auto& w : workers_) Spawn(*w);
    health_thread_ = std::thread([this] { HealthLoop(); });
  }

  /// splice=false restores the legacy full-parse relay (bench baseline);
  /// verify cross-checks every spliced response against it.
  void ConfigureRelay(bool splice, bool verify) {
    relay_splice_ = splice;
    verify_relay_ = verify;
  }

  /// threshold_ms > 0 turns on the structured slow log: one JSON line to
  /// stderr per request slower than the threshold, carrying the op, the
  /// owing worker, the elapsed time, and the trace id when the request was
  /// traced — enough to pull the matching stitched timeline from the ring.
  void ConfigureSlowLog(int64_t threshold_ms) {
    slow_request_ms_ = threshold_ms;
  }

  /// Brings up the socket front door on every --listen spec. The handler
  /// runs on the transport's event-loop thread; routing is quick (classify
  /// + one pipe write), responses come back via worker reader threads.
  Status StartTransport(const std::vector<std::string>& specs,
                        TransportOptions options, int64_t retry_after_ms) {
    retry_after_ms_ = retry_after_ms;
    transport_ = std::make_unique<Transport>(options);
    for (const std::string& spec : specs) {
      DPX_RETURN_IF_ERROR(transport_->Listen(spec));
    }
    // Native scrape endpoints on the same listeners the line protocol
    // uses. The handler runs on the event-loop thread: it reads the
    // router's own registry (which carries the per-worker labeled series
    // and the broadcast counters) — it must never fan a request out to
    // workers and wait.
    transport_->SetHttpHandler(
        [this](const std::string& path) { return HttpScrape(path); });
    return transport_->Start([this](ConnId conn, std::string&& line) {
      HandleClientLine(conn, line);
    });
  }

  void ServeStdin() {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      HandleClientLine(kStdioConn, line);
    }
  }

  void Shutdown() {
    // Drain first: a replica fallback still in flight needs the primary's
    // pipe to stay open until its response lands. Ten seconds bounds the
    // wait if a worker is wedged; its entries then fail via FailWorkerPending
    // when the pipe closes below.
    {
      std::unique_lock<std::mutex> lock(pending_mutex_);
      pending_cv_.wait_for(lock, std::chrono::seconds(10),
                           [this] { return pending_.empty(); });
    }
    // Stop accepting socket traffic before tearing down workers; the event
    // loop flushes what it can and drops (and counts) the rest.
    if (transport_ != nullptr) transport_->Stop();
    {
      std::lock_guard<std::mutex> lock(health_mutex_);
      shutting_down_ = true;
    }
    health_cv_.notify_all();
    health_thread_.join();
    // Closing a worker's stdin makes it drain, snapshot, and exit 0.
    for (auto& w : workers_) {
      std::lock_guard<std::mutex> lock(w->write_mutex);
      if (w->stdin_fd >= 0) {
        ::close(w->stdin_fd);
        w->stdin_fd = -1;
      }
    }
    for (auto& w : workers_) {
      if (w->pid > 0) ::waitpid(w->pid, nullptr, 0);
      if (w->reader.joinable()) w->reader.join();
    }
  }

 private:
  static std::vector<std::string> ShardNames(size_t n) {
    std::vector<std::string> names;
    names.reserve(n);
    for (size_t i = 0; i < n; ++i) names.push_back("shard-" + std::to_string(i));
    return names;
  }

  std::string SnapshotPath(size_t shard) const {
    return state_dir_ + "/shard-" + std::to_string(shard) + ".snap";
  }

  // Workers refuse to start if their journal path is unwritable, so a
  // missing --state-dir would look like an instant crash loop. mkdir -p.
  void EnsureStateDir() const {
    std::string partial;
    for (size_t i = 0; i <= state_dir_.size(); ++i) {
      if (i < state_dir_.size() && state_dir_[i] != '/') {
        partial += state_dir_[i];
        continue;
      }
      if (!partial.empty() && partial != ".") {
        ::mkdir(partial.c_str(), 0755);  // EEXIST is fine
      }
      if (i < state_dir_.size()) partial += '/';
    }
    struct stat st;
    DPX_CHECK(::stat(state_dir_.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        << "--state-dir '" << state_dir_ << "' cannot be created";
  }

  // ---- telemetry plane -----------------------------------------------

  /// Registers the per-worker labeled instruments in the process registry.
  /// Called once from the ctor, before any worker spawns. The pending-depth
  /// callback takes pending_mutex_ under the registry's exposition mutex,
  /// which fixes the lock order registry→pending: nothing may call
  /// PrometheusText()/ToJson() while holding pending_mutex_ (the broadcast
  /// completion paths build their fleet rollups outside the lock for
  /// exactly this reason).
  void RegisterWorkerInstruments() {
    auto& registry = dpclustx::obs::MetricsRegistry::Default();
    for (auto& owned : workers_) {
      WorkerProc* w = owned.get();
      const dpclustx::obs::MetricLabels labels = {{"worker", w->name}};
      w->latency = registry.RegisterLatencyHistogram(
          "dpclustx_router_worker_latency_micros",
          "Round trip from pipe write to response line, per worker", labels);
      w->restarts_counter = registry.RegisterCounter(
          "dpclustx_router_worker_restarts_total",
          "Crash respawns (deliberate replica refreshes excluded)", labels);
      w->backoff_gauge = registry.RegisterGauge(
          "dpclustx_router_worker_backoff_ms",
          "Backoff applied to the worker's most recent crash respawn",
          labels);
      registry.AddCallbackGauge(
          "dpclustx_router_worker_alive", "1 while the worker process lives",
          labels, [w] { return w->alive.load() ? 1.0 : 0.0; });
      registry.AddCallbackGauge(
          "dpclustx_router_worker_pending",
          "Requests currently in flight on this worker", labels, [this, w] {
            std::lock_guard<std::mutex> lock(pending_mutex_);
            double depth = 0;
            for (const auto& [id, entry] : pending_) {
              if (entry->kind != PendingEntry::Kind::kBroadcast &&
                  entry->worker == w->name) {
                ++depth;
              }
            }
            return depth;
          });
      if (w->replica) {
        registry.AddCallbackGauge(
            "dpclustx_router_replica_staleness_seconds",
            "Seconds since the replica was (re)spawned from its shard's "
            "snapshot — replicas only refresh by respawning, so their age "
            "is their snapshot's staleness",
            labels, [w] {
              const int64_t spawned = w->spawned_at_ms.load();
              if (spawned == 0) return 0.0;
              const int64_t now_ms = NowSteadyMs();
              return now_ms > spawned ? (now_ms - spawned) / 1000.0 : 0.0;
            });
      }
    }
    registry.AddCallbackGauge(
        "dpclustx_router_trace_dropped_total",
        "Stitched timelines evicted from the bounded router trace ring", {},
        [this] {
          return static_cast<double>(
              trace_dropped_.load(std::memory_order_relaxed));
        });
  }

  /// GET /metrics | /healthz | /ready on any --listen socket. Runs on the
  /// event-loop thread: registry reads only, no worker round trips.
  dpclustx::service::HttpResponse HttpScrape(const std::string& path) {
    dpclustx::service::HttpResponse response;
    if (path == "/metrics") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body =
          dpclustx::obs::MetricsRegistry::Default().PrometheusText();
    } else if (path == "/healthz") {
      // Liveness: the event loop answered, the router process is up.
      response.body = "ok\n";
    } else if (path == "/ready") {
      // Readiness: every shard primary is live (replicas are optional
      // caches; a dead replica degrades latency, not correctness).
      size_t down = 0;
      for (size_t i = 0; i < num_shards_; ++i) {
        if (!workers_[i]->alive.load()) ++down;
      }
      if (down == 0) {
        response.body = "ready\n";
      } else {
        response.status = 503;
        response.body = "not ready: " + std::to_string(down) +
                        " shard(s) down, respawn pending\n";
      }
    } else {
      response.status = 404;
      response.body = "not found (try /metrics, /healthz, /ready)\n";
    }
    return response;
  }

  // ---- client replies ------------------------------------------------

  /// Routes one response line to whichever front door owns `conn`.
  void Reply(ConnId conn, const std::string& line) {
    if (conn == kStdioConn) {
      WriteClientLine(line);
      return;
    }
    // false = the client disconnected; the transport counted the drop.
    transport_->Send(conn, line);
  }

  void RespondError(ConnId conn, StatusCode code, const std::string& message,
                    bool has_id, const JsonValue& id,
                    int64_t retry_after_ms = 0) {
    JsonValue response = ErrorBody(code, message, retry_after_ms);
    if (has_id) response.Set("id", id);
    Reply(conn, response.Dump());
  }

  WorkerProc* FindWorker(const std::string& name) {
    for (auto& w : workers_) {
      if (w->name == name) return w.get();
    }
    return nullptr;
  }

  WorkerProc* ShardWorker(const std::string& shard_name) {
    return FindWorker(shard_name);
  }

  /// An alive replica of `shard`, round-robin; nullptr when none.
  WorkerProc* PickReplica(size_t shard) {
    std::vector<WorkerProc*> candidates;
    for (auto& w : workers_) {
      if (w->replica && w->shard == shard && w->alive.load()) {
        candidates.push_back(w.get());
      }
    }
    if (candidates.empty()) return nullptr;
    return candidates[replica_rr_.fetch_add(1) % candidates.size()];
  }

  // ---- process plumbing ----------------------------------------------

  void Spawn(WorkerProc& w) {
    int to_child[2];
    int from_child[2];
    DPX_CHECK(::pipe(to_child) == 0 && ::pipe(from_child) == 0)
        << "pipe: " << std::strerror(errno);
    const pid_t pid = ::fork();
    DPX_CHECK(pid >= 0) << "fork: " << std::strerror(errno);
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<char*> argv;
      argv.reserve(w.args.size() + 1);
      for (const std::string& a : w.args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::cerr << "execv " << w.args[0] << ": " << std::strerror(errno)
                << "\n";
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    {
      std::lock_guard<std::mutex> lock(w.write_mutex);
      w.stdin_fd = to_child[1];
    }
    w.pid = pid;
    w.misses = 0;
    w.spawned_at_ms.store(NowSteadyMs());
    w.alive.store(true);
    w.reader = std::thread([this, &w, fd = from_child[0]] {
      ReaderLoop(w, fd);
    });
  }

  /// Reads the worker's stdout line by line until EOF (worker exit or
  /// crash), dispatching each response, then fails what the worker still
  /// owed so clients are never left hanging.
  void ReaderLoop(WorkerProc& w, int fd) {
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t pos;
      while ((pos = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        if (!line.empty()) HandleWorkerLine(w, line);
      }
    }
    ::close(fd);
    w.alive.store(false);
    FailWorkerPending(w.name);
  }

  /// Writes one protocol line into the worker. False when the worker's pipe
  /// is gone (caller decides: error out or fall back).
  bool WriteToWorker(WorkerProc& w, const std::string& line) {
    std::lock_guard<std::mutex> lock(w.write_mutex);
    if (w.stdin_fd < 0 || !w.alive.load()) return false;
    const std::string payload = line + "\n";
    size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n =
          ::write(w.stdin_fd, payload.data() + off, payload.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // EPIPE etc. — the health loop will respawn it
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // ---- response plumbing ---------------------------------------------

  /// The full-parse relay: decode the worker line, rewrite the id, dump.
  /// The splice path must match this byte for byte (--verify-relay checks).
  static std::string FullParseRelay(const JsonValue& parsed,
                                    const PendingEntry& entry) {
    JsonValue response = parsed;
    if (entry.has_client_id) {
      response.Set("id", entry.client_id);
    } else {
      response.Remove("id");
    }
    return response.Dump();
  }

  void HandleWorkerLine(WorkerProc& w, const std::string& line) {
    // Hot path: one structural scan finds the router id without building a
    // document tree. The full parser runs only for lines the scanner
    // refuses (torn output, escaped ids) and for the cold response kinds
    // that genuinely need a tree (broadcast merge, replica refusal check).
    StatusOr<RelayScan> scan = ScanTopLevelId(line);
    StatusOr<JsonValue> parsed = Status::Internal("not parsed");
    bool have_parsed = false;
    const auto ensure_parsed = [&]() -> bool {
      if (!have_parsed) {
        parsed = JsonValue::Parse(line);
        have_parsed = true;
      }
      return parsed.ok() && parsed->type() == JsonValue::Type::kObject;
    };

    std::string rid;
    if (scan.ok()) {
      rid = scan->id;
    } else {
      if (!ensure_parsed() || !parsed->Has("id") ||
          parsed->at("id").type() != JsonValue::Type::kString) {
        DropMalformedLine(w, line);
        return;
      }
      rid = parsed->at("id").AsString();
    }

    const auto replied = std::chrono::steady_clock::now();
    std::string retry_line;      // replica miss → re-send to this primary
    WorkerProc* retry_worker = nullptr;
    std::shared_ptr<PendingEntry> retry_entry;
    // A line the scanner accepted but the full parser refused (possible
    // only off the splice fast path, where the tree is actually needed):
    // the owed response is unrecoverable, fail that exact request.
    std::shared_ptr<PendingEntry> unparseable_victim;
    // Completions that still owe work the pending lock must not cover:
    // the broadcast response build reads the metrics registry (whose
    // callbacks take pending_mutex_), and the ring push / slow log are
    // not the lock's business.
    std::shared_ptr<PendingEntry> completed_broadcast;
    std::shared_ptr<PendingEntry> completed_single;
    JsonValue stitched;  // completed_single->traced: ring copy

    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      auto it = pending_.find(rid);
      if (it == pending_.end()) return;
      std::shared_ptr<PendingEntry> entry = it->second;
      switch (entry->kind) {
        case PendingEntry::Kind::kInternal:
          entry->response_line = line;
          entry->done = true;
          pending_.erase(it);
          break;
        case PendingEntry::Kind::kBroadcast: {
          if (!ensure_parsed()) {
            unparseable_victim = entry;
            pending_.erase(it);
            break;
          }
          if (w.latency != nullptr) {
            w.latency->Observe(CeilMicros(replied - entry->written));
          }
          JsonValue piece = *parsed;
          piece.Remove("id");
          entry->merged.Set(w.name, std::move(piece));
          if (--entry->awaiting == 0) {
            completed_broadcast = entry;
            pending_.erase(it);
          }
          break;
        }
        case PendingEntry::Kind::kSingle: {
          if (entry->on_replica && ensure_parsed() &&
              ReplicaRefusal(*parsed)) {
            // The replica's cache had no hit (or its snapshot predates the
            // session): retry the identical line against the primary.
            WorkerProc* primary =
                ShardWorker(core_.ShardFor(entry->dataset));
            if (primary != nullptr) {
              entry->on_replica = false;
              entry->worker = primary->name;
              entry->written = replied;  // roundtrip = the primary's leg
              retry_line = entry->request_line;
              retry_worker = primary;
              retry_entry = entry;
              break;  // keep the pending entry; response comes from primary
            }
          }
          if (w.latency != nullptr) {
            w.latency->Observe(CeilMicros(replied - entry->written));
          }
          std::string out;
          if (entry->traced) {
            // A traced response is the one relay that genuinely needs the
            // tree: the worker's span tree moves from the envelope into
            // the stitched timeline.
            if (!ensure_parsed()) {
              unparseable_victim = entry;
              pending_.erase(it);
              break;
            }
            JsonValue response = *parsed;
            if (entry->has_client_id) {
              response.Set("id", entry->client_id);
            } else {
              response.Remove("id");
            }
            JsonValue worker_tree;
            bool have_tree = false;
            if (response.Has("trace") &&
                response.at("trace").type() == JsonValue::Type::kObject) {
              worker_tree = response.at("trace");
              have_tree = true;
            }
            stitched = StitchTimeline(*entry, replied,
                                      have_tree ? &worker_tree : nullptr);
            response.Set("trace", stitched);
            response.Set("trace_id", JsonValue::String(entry->tid));
            if (!have_tree) {
              // Worker answered without a tree (e.g. a pre-dispatch
              // refusal): the timeline covers the router side only.
              response.Set("trace_partial", JsonValue::Bool(true));
            }
            out = response.Dump();
            relay_full_parse_counter_->Increment();
            // Ring first, reply second: a client that sends `trace` the
            // instant it sees this response must find the timeline there.
            // (trace_mutex_ is a leaf lock — safe under pending_mutex_.)
            PushRouterTrace(entry->op, entry->tid, stitched,
                            /*partial=*/false);
          } else if (relay_splice_ && scan.ok()) {
            out = entry->client_id_json.empty()
                      ? EraseId(line, *scan)
                      : SpliceId(line, *scan, entry->client_id_json);
            relay_spliced_counter_->Increment();
            if (verify_relay_) {
              DPX_CHECK(ensure_parsed())
                  << "verify-relay: spliced line failed the full parser";
              const std::string expect = FullParseRelay(*parsed, *entry);
              DPX_CHECK(out == expect)
                  << "relay splice diverged from the full-parse path: "
                  << out << " vs " << expect;
            }
          } else {
            if (!ensure_parsed()) {
              unparseable_victim = entry;
              pending_.erase(it);
              break;
            }
            out = FullParseRelay(*parsed, *entry);
            relay_full_parse_counter_->Increment();
          }
          Reply(entry->client, out);
          completed_single = entry;
          pending_.erase(it);
          break;
        }
      }
    }
    pending_cv_.notify_all();
    if (completed_broadcast != nullptr) {
      Reply(completed_broadcast->client,
            BroadcastResponse(*completed_broadcast).Dump());
      MaybeSlowLog(*completed_broadcast, replied);
    }
    if (completed_single != nullptr) {
      MaybeSlowLog(*completed_single, replied);
    }
    if (unparseable_victim != nullptr) {
      dropped_lines_counter_->Increment();
      JsonValue response = ErrorBody(
          StatusCode::kInternal,
          "worker '" + w.name + "' emitted an unparseable response line");
      if (unparseable_victim->has_client_id) {
        response.Set("id", unparseable_victim->client_id);
      }
      Reply(unparseable_victim->client, response.Dump());
      return;
    }

    if (retry_worker != nullptr && !WriteToWorker(*retry_worker, retry_line)) {
      FinishWithError(retry_entry->client,
                      retry_entry->has_client_id ? &retry_entry->client_id
                                                 : nullptr,
                      rid, "primary '" + retry_worker->name +
                               "' is down; retry once it respawns");
    }
  }

  /// A malformed worker line — unparseable JSON, or missing the string
  /// router id every forwarded request carries — means some request's
  /// response is unrecoverable: the worker consumed a request slot and
  /// produced garbage. Silently ignoring it would leave that client waiting
  /// until the worker dies. Workers answer in request order (the protocol
  /// is pipelined per worker), so the garbage overwhelmingly belongs to the
  /// oldest single-shot request the worker still owes: that request is
  /// failed with a structured Internal error and the breach is counted in
  /// dpclustx_router_dropped_lines_total.
  void DropMalformedLine(WorkerProc& w, const std::string& line) {
    dropped_lines_counter_->Increment();
    std::cerr << "[router] " << w.name << " emitted a malformed line ("
              << line.size() << " bytes); failing its oldest pending"
              << " request\n";
    std::string rid;
    std::shared_ptr<PendingEntry> victim;
    uint64_t oldest = 0;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      for (const auto& [id, entry] : pending_) {
        if (entry->kind != PendingEntry::Kind::kSingle) continue;
        if (entry->worker != w.name) continue;
        // Single ids are "r<seq>"; the smallest sequence is the oldest.
        const uint64_t seq = std::strtoull(id.c_str() + 1, nullptr, 10);
        if (victim == nullptr || seq < oldest) {
          oldest = seq;
          rid = id;
          victim = entry;
        }
      }
      if (victim != nullptr) pending_.erase(rid);
    }
    if (victim == nullptr) return;  // a stray; nothing was waiting on it
    pending_cv_.notify_all();
    JsonValue response = ErrorBody(
        StatusCode::kInternal,
        "worker '" + w.name +
            "' emitted a malformed response line; the request was consumed "
            "but its response is unrecoverable — retry");
    if (victim->has_client_id) response.Set("id", victim->client_id);
    Reply(victim->client, response.Dump());
  }

  /// True when a worker response is the read-only / unknown-state refusal a
  /// replica emits on a cache miss — the signal to fall back to the primary.
  static bool ReplicaRefusal(const JsonValue& response) {
    if (!response.Has("ok") ||
        response.at("ok").type() != JsonValue::Type::kBool ||
        response.at("ok").AsBool()) {
      return false;
    }
    if (!response.Has("error") ||
        response.at("error").type() != JsonValue::Type::kObject) {
      return false;
    }
    const JsonValue& error = response.at("error");
    if (!error.Has("code") ||
        error.at("code").type() != JsonValue::Type::kString) {
      return false;
    }
    const std::string& code = error.at("code").AsString();
    return code == StatusCodeName(StatusCode::kFailedPrecondition) ||
           code == StatusCodeName(StatusCode::kNotFound);
  }

  /// Resolves (erases) a pending id with a router-generated error.
  void FinishWithError(ConnId conn, const JsonValue* client_id,
                       const std::string& rid, const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_.erase(rid);
    }
    JsonValue response = ErrorBody(StatusCode::kInternal, message);
    if (client_id != nullptr) response.Set("id", *client_id);
    Reply(conn, response.Dump());
  }

  /// Called when `worker` died: every request it still owed is either
  /// retried (replica reads move to the primary) or failed with a retryable
  /// error. The worker's own snapshot+journal restore makes the retry safe:
  /// a charge that reached the journal is restored, its response re-served
  /// from the cache for zero ε.
  void FailWorkerPending(const std::string& worker) {
    struct Retry {
      std::string line;
      WorkerProc* target;
      std::string rid;
      std::shared_ptr<PendingEntry> entry;
    };
    const auto now = std::chrono::steady_clock::now();
    std::vector<Retry> retries;
    std::vector<std::pair<ConnId, std::string>> failed_lines;
    std::vector<std::shared_ptr<PendingEntry>> completed_broadcasts;
    std::vector<std::shared_ptr<PendingEntry>> failed_entries;  // slow log
    // Traced requests the dead worker owed: their error responses carry
    // the router-side spans and land in the trace ring marked partial.
    std::vector<std::pair<std::shared_ptr<PendingEntry>, JsonValue>>
        partial_traces;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      for (auto it = pending_.begin(); it != pending_.end();) {
        std::shared_ptr<PendingEntry> entry = it->second;
        if (entry->kind == PendingEntry::Kind::kBroadcast) {
          // Broadcasts owe one slot per shard; a dead shard contributes an
          // error object instead of blocking the merge forever. The
          // merged.Has check keeps this idempotent if the death is
          // reported twice. The response itself is built after the lock:
          // the metrics rollup reads the registry, whose callbacks take
          // pending_mutex_.
          if (!entry->merged.Has(worker) && entry->awaiting > 0) {
            entry->merged.Set(
                worker, ErrorBody(StatusCode::kInternal,
                                  "worker died before responding"));
            if (--entry->awaiting == 0) {
              completed_broadcasts.push_back(entry);
              it = pending_.erase(it);
              continue;
            }
          }
          ++it;
          continue;
        }
        if (entry->worker != worker) {
          ++it;
          continue;
        }
        if (entry->kind == PendingEntry::Kind::kInternal) {
          entry->done = true;  // empty response_line signals failure
          it = pending_.erase(it);
          continue;
        }
        if (entry->on_replica) {
          WorkerProc* primary = ShardWorker(core_.ShardFor(entry->dataset));
          if (primary != nullptr) {
            entry->on_replica = false;
            entry->worker = primary->name;
            entry->written = now;  // roundtrip = the primary's leg
            retries.push_back({entry->request_line, primary, it->first, entry});
            ++it;
            continue;
          }
        }
        JsonValue response = ErrorBody(
            StatusCode::kInternal,
            "worker '" + worker +
                "' died mid-request; it will be respawned and restored "
                "from its snapshot and audit journal — retry (a charge "
                "that was journaled re-serves from the cache for zero "
                "ε)");
        if (entry->traced) {
          // No hang, no garbled splice: the client still gets a timeline —
          // the router-side spans, honestly marked partial (the worker's
          // subtree died with the worker).
          JsonValue partial = StitchTimeline(*entry, now, nullptr);
          response.Set("trace", partial);
          response.Set("trace_id", JsonValue::String(entry->tid));
          response.Set("trace_partial", JsonValue::Bool(true));
          partial_traces.emplace_back(entry, std::move(partial));
        }
        if (entry->has_client_id) response.Set("id", entry->client_id);
        failed_lines.emplace_back(entry->client, response.Dump());
        failed_entries.push_back(entry);
        it = pending_.erase(it);
      }
    }
    pending_cv_.notify_all();
    // Ring before replies, for the same reason as the completion path: a
    // client must find its partial timeline the instant the error lands.
    for (auto& [entry, partial] : partial_traces) {
      PushRouterTrace(entry->op, entry->tid, std::move(partial),
                      /*partial=*/true);
    }
    for (const auto& [conn, line] : failed_lines) Reply(conn, line);
    for (auto& entry : completed_broadcasts) {
      Reply(entry->client, BroadcastResponse(*entry).Dump());
      MaybeSlowLog(*entry, now);
    }
    for (auto& entry : failed_entries) MaybeSlowLog(*entry, now);
    for (Retry& retry : retries) {
      if (!WriteToWorker(*retry.target, retry.line)) {
        FinishWithError(retry.entry->client,
                        retry.entry->has_client_id ? &retry.entry->client_id
                                                   : nullptr,
                        retry.rid,
                        "primary '" + retry.target->name +
                            "' is down; retry once it respawns");
      }
    }
  }

  // ---- health + respawn ----------------------------------------------

  void HealthLoop() {
    std::unique_lock<std::mutex> lock(health_mutex_);
    while (!shutting_down_) {
      health_cv_.wait_for(lock,
                          std::chrono::milliseconds(health_interval_ms_),
                          [this] { return shutting_down_.load(); });
      if (shutting_down_) return;
      lock.unlock();
      for (auto& w : workers_) {
        if (shutting_down_) break;
        if (!w->alive.load()) {
          RespawnCrashed(*w);
          continue;
        }
        if (PingWorker(*w)) {
          w->misses = 0;
        } else if (++w->misses >= health_misses_) {
          std::cerr << "[router] " << w->name << " missed " << w->misses
                    << " health checks; killing\n";
          ::kill(w->pid, SIGKILL);
          ::waitpid(w->pid, nullptr, 0);
          w->pid = -1;
          // The reader thread sees EOF, marks it dead, and fails its
          // pending work; the next health tick respawns it.
        }
      }
      lock.lock();
    }
  }

  /// One ping round-trip with a deadline. True on a timely response.
  bool PingWorker(WorkerProc& w) {
    const std::string rid = "hc-" + std::to_string(next_id_.fetch_add(1));
    auto entry = std::make_shared<PendingEntry>();
    entry->kind = PendingEntry::Kind::kInternal;
    entry->worker = w.name;
    entry->enqueued = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_[rid] = entry;
    }
    JsonValue ping = JsonValue::Object();
    ping.Set("op", JsonValue::String("ping"));
    ping.Set("id", JsonValue::String(rid));
    if (!WriteToWorker(w, ping.Dump())) {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_.erase(rid);
      return false;
    }
    std::unique_lock<std::mutex> lock(pending_mutex_);
    const bool responded = pending_cv_.wait_for(
        lock, std::chrono::milliseconds(health_deadline_ms_),
        [&entry] { return entry->done; });
    pending_.erase(rid);
    return responded && !entry->response_line.empty();
  }

  void RespawnCrashed(WorkerProc& w) {
    std::lock_guard<std::mutex> lock(restart_mutex_);
    if (w.alive.load()) return;  // raced with another respawn
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    {
      std::lock_guard<std::mutex> wlock(w.write_mutex);
      if (w.stdin_fd >= 0) {
        ::close(w.stdin_fd);
        w.stdin_fd = -1;
      }
    }
    if (w.reader.joinable()) w.reader.join();
    w.restarts_counter->Increment();  // crash respawns, not deliberate ones
    const uint64_t attempt = w.restarts_counter->Value();
    // Jittered so N workers felled by a common cause (bad snapshot, OOM
    // sweep) fan back in over a window instead of re-stampeding in
    // lockstep. rng is guarded by restart_mutex_, held here.
    const int64_t delay = backoff_.JitteredDelayMs(
        attempt, std::uniform_real_distribution<double>(0.0, 1.0)(
                     respawn_rng_));
    w.backoff_gauge->Set(delay);
    std::cerr << "[router] respawning " << w.name << " (attempt " << attempt
              << ", backoff " << delay << "ms)\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    Spawn(w);
  }

  /// Kill + respawn without counting it as a crash and without backoff —
  /// used to refresh replicas from a newly saved shard snapshot.
  void RespawnDeliberately(WorkerProc& w) {
    std::lock_guard<std::mutex> lock(restart_mutex_);
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    w.alive.store(false);
    {
      std::lock_guard<std::mutex> wlock(w.write_mutex);
      if (w.stdin_fd >= 0) {
        ::close(w.stdin_fd);
        w.stdin_fd = -1;
      }
    }
    if (w.reader.joinable()) w.reader.join();
    Spawn(w);
  }

  // ---- request handling ----------------------------------------------

  /// Receive-side timings carried into the pending entry so traced
  /// requests can render them as spans and the slow log can anchor on the
  /// true receive time.
  struct RequestTiming {
    std::chrono::steady_clock::time_point received;
    uint64_t parse_micros = 0;
    uint64_t route_micros = 0;
  };

  void HandleClientLine(ConnId conn, const std::string& line) {
    RequestTiming timing;
    timing.received = std::chrono::steady_clock::now();
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    timing.parse_micros =
        CeilMicros(std::chrono::steady_clock::now() - timing.received);
    if (!parsed.ok() || parsed->type() != JsonValue::Type::kObject) {
      RespondError(conn, StatusCode::kInvalidArgument,
                   "request is not a JSON object: " +
                       parsed.status().message(),
                   false, JsonValue::Null());
      return;
    }
    const bool has_id = parsed->Has("id");
    const JsonValue client_id = has_id ? parsed->at("id") : JsonValue::Null();

    // Shed: a socket client whose response backlog has passed the hard cap
    // gets a back-off hint instead of more queued work. (The transport
    // already paused its reads at the soft limit; reaching the hard cap
    // means responses are piling up faster than the client drains them —
    // e.g. broadcast fan-in responses racing a stalled reader.)
    if (conn != kStdioConn &&
        transport_->QueuedBytes(conn) >
            transport_->options().write_hard_limit_bytes) {
      shed_requests_counter_->Increment();
      RespondError(conn, StatusCode::kResourceExhausted,
                   "client response backlog exceeds the hard write limit; "
                   "drain responses before sending more requests",
                   has_id, client_id, retry_after_ms_);
      return;
    }

    std::string op;
    if (parsed->Has("op") &&
        parsed->at("op").type() == JsonValue::Type::kString) {
      op = parsed->at("op").AsString();
      if (op == "_router_status") {
        RespondStatus(conn, has_id, client_id);
        return;
      }
      if (op == "_router_sync_replicas") {
        SyncReplicas(conn, has_id, client_id);
        return;
      }
      // Intercepted like _router_status, BEFORE Classify (which would
      // broadcast it): at the router, `trace` means the fleet view — the
      // ring of stitched end-to-end timelines. A worker's own ring stays
      // reachable through its --worker-listen-base port.
      if (op == "trace") {
        RespondTraces(conn, *parsed, has_id, client_id);
        return;
      }
    }

    const auto route_start = std::chrono::steady_clock::now();
    StatusOr<RouteDecision> decision = core_.Classify(*parsed);
    timing.route_micros =
        CeilMicros(std::chrono::steady_clock::now() - route_start);
    if (!decision.ok()) {
      RespondError(conn, decision.status().code(),
                   decision.status().message(), has_id, client_id);
      return;
    }

    switch (decision->kind) {
      case RouteKind::kRefused:
        RespondError(
            conn, StatusCode::kFailedPrecondition,
            "the router manages snapshots: each shard saves to its own file "
            "under --state-dir (use _router_sync_replicas to refresh "
            "replicas)",
            has_id, client_id);
        return;
      case RouteKind::kBroadcast:
        ForwardBroadcast(conn, *parsed, has_id, client_id, op, timing);
        return;
      case RouteKind::kShard:
      case RouteKind::kReplicaRead:
      case RouteKind::kUnknownOp:
        ForwardSingle(conn, *parsed, *decision, has_id, client_id, op,
                      timing);
        return;
    }
  }

  void ForwardSingle(ConnId conn, JsonValue request,
                     const RouteDecision& decision, bool has_id,
                     const JsonValue& client_id, const std::string& op,
                     const RequestTiming& timing) {
    WorkerProc* primary = nullptr;
    if (decision.kind == RouteKind::kUnknownOp) {
      // Forwarded so the engine produces its canonical unknown-op error.
      primary = workers_[0].get();
    } else {
      primary = ShardWorker(core_.ShardFor(decision.dataset));
    }
    DPX_CHECK(primary != nullptr);

    WorkerProc* target = primary;
    bool on_replica = false;
    if (decision.kind == RouteKind::kReplicaRead) {
      WorkerProc* replica = PickReplica(primary->shard);
      if (replica != nullptr) {
        target = replica;
        on_replica = true;
      }
    }

    const uint64_t seq = next_id_.fetch_add(1);
    const std::string rid = "r" + std::to_string(seq);
    request.Set("id", JsonValue::String(rid));
    std::string forwarded = request.Dump();

    // Cross-process trace propagation: a traced request gets its context
    // spliced into the already-dumped line — zero reparse, same byte-splice
    // contract as the response id rewrite. pid/tid is Dump-canonical
    // ("pid" < "tid", compact), so whenever the splice is accepted the
    // line is byte-identical to parse→Set("_tc")→Dump (--verify-relay
    // cross-checks). A refused splice (a top-level key sorting before
    // "_tc") falls back to the full-parse path, never to silence.
    const bool traced = request.Has("trace") &&
                        request.at("trace").type() == JsonValue::Type::kBool &&
                        request.at("trace").AsBool();
    std::string tid;
    uint64_t splice_micros = 0;
    if (traced) {
      tid = "t" + std::to_string(seq);
      const std::string tc_json =
          "{\"pid\":\"" + rid + "\",\"tid\":\"" + tid + "\"}";
      const auto splice_start = std::chrono::steady_clock::now();
      StatusOr<std::string> spliced = SpliceTraceContext(forwarded, tc_json);
      if (spliced.ok()) {
        if (verify_relay_) {
          StatusOr<JsonValue> tc = JsonValue::Parse(tc_json);
          DPX_CHECK(tc.ok());
          JsonValue check = request;
          check.Set("_tc", std::move(*tc));
          DPX_CHECK(*spliced == check.Dump())
              << "trace-context splice diverged from the full-parse path: "
              << *spliced << " vs " << check.Dump();
        }
        forwarded = std::move(*spliced);
        tc_spliced_counter_->Increment();
      } else {
        StatusOr<JsonValue> tc = JsonValue::Parse(tc_json);
        DPX_CHECK(tc.ok());
        request.Set("_tc", std::move(*tc));
        forwarded = request.Dump();
        tc_full_parse_counter_->Increment();
      }
      splice_micros =
          CeilMicros(std::chrono::steady_clock::now() - splice_start);
    }

    auto entry = std::make_shared<PendingEntry>();
    entry->kind = PendingEntry::Kind::kSingle;
    entry->client = conn;
    entry->has_client_id = has_id;
    entry->client_id = client_id;
    // Serialized once here so the splice relay does zero JSON work when
    // the worker's response comes back.
    if (has_id) entry->client_id_json = client_id.Dump();
    entry->enqueued = timing.received;
    entry->op = op;
    entry->traced = traced;
    entry->tid = tid;
    entry->parse_micros = timing.parse_micros;
    entry->route_micros = timing.route_micros;
    entry->splice_micros = splice_micros;
    entry->worker = target->name;
    entry->request_line = forwarded;
    entry->dataset = decision.dataset;
    entry->on_replica = on_replica;
    entry->written = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_[rid] = entry;
    }

    if (WriteToWorker(*target, forwarded)) return;
    if (on_replica && WriteToWorker(*primary, forwarded)) {
      // Replica pipe was gone; the primary took it directly.
      std::lock_guard<std::mutex> lock(pending_mutex_);
      entry->on_replica = false;
      entry->worker = primary->name;
      entry->written = std::chrono::steady_clock::now();
      return;
    }
    FinishWithError(conn, has_id ? &client_id : nullptr, rid,
                    "worker '" + primary->name +
                        "' is down; retry once it respawns");
  }

  void ForwardBroadcast(ConnId conn, JsonValue request, bool has_id,
                        const JsonValue& client_id, const std::string& op,
                        const RequestTiming& timing) {
    std::vector<WorkerProc*> shards;
    for (auto& w : workers_) {
      if (!w->replica) shards.push_back(w.get());
    }
    const std::string rid = "r" + std::to_string(next_id_.fetch_add(1));
    request.Set("id", JsonValue::String(rid));
    const std::string forwarded = request.Dump();

    auto entry = std::make_shared<PendingEntry>();
    entry->kind = PendingEntry::Kind::kBroadcast;
    entry->client = conn;
    entry->has_client_id = has_id;
    entry->client_id = client_id;
    entry->enqueued = timing.received;
    entry->op = op;
    entry->awaiting = shards.size();
    entry->written = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_[rid] = entry;
    }
    std::shared_ptr<PendingEntry> completed;
    for (WorkerProc* shard : shards) {
      if (WriteToWorker(*shard, forwarded)) continue;
      std::lock_guard<std::mutex> lock(pending_mutex_);
      if (pending_.count(rid) == 0) continue;
      entry->merged.Set(shard->name,
                        ErrorBody(StatusCode::kInternal,
                                  "worker is down; respawn pending"));
      if (--entry->awaiting == 0) {
        completed = entry;
        pending_.erase(rid);
      }
    }
    // Outside pending_mutex_: the metrics rollup reads the registry, whose
    // exposition callbacks take pending_mutex_ (see
    // RegisterWorkerInstruments).
    if (completed != nullptr) {
      Reply(conn, BroadcastResponse(*completed).Dump());
    }
  }

  /// The completed-broadcast response: for `metrics` the labeled "fleet"
  /// rollup, for every other op the per-worker pieces under "workers".
  /// NEVER call under pending_mutex_ (FleetRollup reads the registry, whose
  /// callbacks take pending_mutex_).
  JsonValue BroadcastResponse(const PendingEntry& entry) {
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    if (entry.op == "metrics") {
      response.Set("fleet", FleetRollup(entry.merged));
    } else {
      response.Set("workers", entry.merged);
    }
    if (entry.has_client_id) response.Set("id", entry.client_id);
    return response;
  }

  /// Folds every worker's metrics JSON into one registry-shaped document
  /// ({"counters","gauges","histograms"}) with worker="<name>" injected
  /// into each key, seeded with the router's own registry (which already
  /// carries its per-worker labeled series) — a fleet rollup instead of a
  /// concatenation of per-worker dumps.
  JsonValue FleetRollup(const JsonValue& merged) {
    JsonValue rollup = dpclustx::obs::MetricsRegistry::Default().ToJson();
    for (const std::string& worker : merged.ObjectKeys()) {
      const JsonValue& piece = merged.at(worker);
      if (piece.type() != JsonValue::Type::kObject ||
          !piece.Has("metrics") ||
          piece.at("metrics").type() != JsonValue::Type::kObject) {
        continue;  // dead worker: an error object, no registry
      }
      const JsonValue& metrics = piece.at("metrics");
      for (const char* section : {"counters", "gauges", "histograms"}) {
        if (!metrics.Has(section) ||
            metrics.at(section).type() != JsonValue::Type::kObject) {
          continue;
        }
        if (!rollup.Has(section)) rollup.Set(section, JsonValue::Object());
        JsonValue merged_section = rollup.at(section);
        const JsonValue& worker_section = metrics.at(section);
        for (const std::string& key : worker_section.ObjectKeys()) {
          merged_section.Set(InjectWorkerLabel(key, worker),
                             worker_section.at(key));
        }
        rollup.Set(section, std::move(merged_section));
      }
    }
    return rollup;
  }

  /// Appends a finished stitched timeline to the bounded router trace
  /// ring. Evictions are counted, never silent
  /// (dpclustx_router_trace_dropped_total).
  void PushRouterTrace(const std::string& op, const std::string& tid,
                       JsonValue trace, bool partial) {
    JsonValue record = JsonValue::Object();
    record.Set("op", JsonValue::String(op));
    record.Set("tid", JsonValue::String(tid));
    if (partial) record.Set("partial", JsonValue::Bool(true));
    record.Set("trace", std::move(trace));
    std::lock_guard<std::mutex> lock(trace_mutex_);
    while (trace_ring_.size() >= kTraceRingCapacity) {
      trace_ring_.pop_front();
      trace_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    trace_ring_.push_back(std::move(record));
  }

  /// The router-level `trace` op: the ring of stitched end-to-end
  /// timelines, oldest first, mirroring the engine's trace-op envelope
  /// (traces / ring_capacity / retained / dropped; "limit" keeps the
  /// newest N).
  void RespondTraces(ConnId conn, const JsonValue& request, bool has_id,
                     const JsonValue& client_id) {
    size_t limit = 0;
    if (request.Has("limit") &&
        request.at("limit").type() == JsonValue::Type::kNumber &&
        request.at("limit").AsNumber() > 0) {
      limit = static_cast<size_t>(request.at("limit").AsNumber());
    }
    JsonValue traces = JsonValue::Array();
    size_t retained = 0;
    {
      std::lock_guard<std::mutex> lock(trace_mutex_);
      retained = trace_ring_.size();
      size_t start = 0;
      if (limit != 0 && trace_ring_.size() > limit) {
        start = trace_ring_.size() - limit;
      }
      for (size_t i = start; i < trace_ring_.size(); ++i) {
        traces.Append(trace_ring_[i]);
      }
    }
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("traces", std::move(traces));
    response.Set("ring_capacity",
                 JsonValue::Number(static_cast<double>(kTraceRingCapacity)));
    response.Set("retained", JsonValue::Number(static_cast<double>(retained)));
    response.Set("dropped",
                 JsonValue::Number(static_cast<double>(
                     trace_dropped_.load(std::memory_order_relaxed))));
    if (has_id) response.Set("id", client_id);
    Reply(conn, response.Dump());
  }

  /// One structured line to stderr when a finished (or failed) request
  /// took longer than --slow-request-ms — machine-parseable, and carrying
  /// the trace id when the request was traced so the operator can pull
  /// the matching stitched timeline from the ring.
  void MaybeSlowLog(const PendingEntry& entry,
                    std::chrono::steady_clock::time_point finished) {
    if (slow_request_ms_ <= 0) return;
    const int64_t elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            finished - entry.enqueued)
            .count();
    if (elapsed_ms < slow_request_ms_) return;
    JsonValue record = JsonValue::Object();
    record.Set("event", JsonValue::String("slow_request"));
    record.Set("op", JsonValue::String(entry.op));
    if (!entry.worker.empty()) {
      record.Set("worker", JsonValue::String(entry.worker));
    }
    if (!entry.tid.empty()) {
      record.Set("tid", JsonValue::String(entry.tid));
    }
    record.Set("elapsed_ms",
               JsonValue::Number(static_cast<double>(elapsed_ms)));
    record.Set("threshold_ms",
               JsonValue::Number(static_cast<double>(slow_request_ms_)));
    std::cerr << "[router] " << record.Dump() << "\n";
  }

  void RespondStatus(ConnId conn, bool has_id, const JsonValue& client_id) {
    // Per-worker pending depth + oldest-pending age: a wedged worker shows
    // up here as a growing queue and a climbing age long before the health
    // ping gives up on it. Broadcast entries are owed by several workers at
    // once and are reported in the top-level "pending_broadcasts" instead.
    struct PendingStat {
      size_t depth = 0;
      std::chrono::steady_clock::time_point oldest;
    };
    std::map<std::string, PendingStat> per_worker;
    size_t pending_broadcasts = 0;
    const auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      for (const auto& [id, entry] : pending_) {
        if (entry->kind == PendingEntry::Kind::kBroadcast) {
          ++pending_broadcasts;
          continue;
        }
        PendingStat& stat = per_worker[entry->worker];
        if (stat.depth == 0 || entry->enqueued < stat.oldest) {
          stat.oldest = entry->enqueued;
        }
        ++stat.depth;
      }
    }

    JsonValue workers = JsonValue::Array();
    for (auto& w : workers_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(w->name));
      entry.Set("role", JsonValue::String(w->replica ? "replica" : "shard"));
      entry.Set("shard", JsonValue::Number(static_cast<double>(w->shard)));
      entry.Set("alive", JsonValue::Bool(w->alive.load()));
      entry.Set("pid", JsonValue::Number(static_cast<double>(w->pid)));
      const auto stat_it = per_worker.find(w->name);
      const size_t depth =
          stat_it == per_worker.end() ? 0 : stat_it->second.depth;
      const double oldest_ms =
          depth == 0
              ? 0.0
              : static_cast<double>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        now - stat_it->second.oldest)
                        .count());
      entry.Set("pending", JsonValue::Number(static_cast<double>(depth)));
      entry.Set("oldest_pending_ms", JsonValue::Number(oldest_ms));
      workers.Append(std::move(entry));
    }
    JsonValue response = JsonValue::Object();
    response.Set("pending_broadcasts",
                 JsonValue::Number(static_cast<double>(pending_broadcasts)));
    response.Set("ok", JsonValue::Bool(true));
    response.Set("workers", std::move(workers));
    response.Set("shards", JsonValue::Number(static_cast<double>(num_shards_)));
    response.Set("bound_sessions",
                 JsonValue::Number(
                     static_cast<double>(core_.sessions().size())));
    response.Set("state_dir", JsonValue::String(state_dir_));
    if (has_id) response.Set("id", client_id);
    Reply(conn, response.Dump());
  }

  /// save_snapshot on every shard (synchronously, so the files are complete
  /// before any replica reads them), then respawn every replica from the
  /// fresh snapshots. Deterministic replica refresh for tests and benches.
  void SyncReplicas(ConnId conn, bool has_id, const JsonValue& client_id) {
    size_t saved = 0;
    for (size_t i = 0; i < num_shards_; ++i) {
      WorkerProc* shard = workers_[i].get();
      if (!shard->alive.load()) continue;
      const std::string rid = "hc-" + std::to_string(next_id_.fetch_add(1));
      auto entry = std::make_shared<PendingEntry>();
      entry->kind = PendingEntry::Kind::kInternal;
      entry->worker = shard->name;
      entry->enqueued = std::chrono::steady_clock::now();
      {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        pending_[rid] = entry;
      }
      JsonValue save = JsonValue::Object();
      save.Set("op", JsonValue::String("save_snapshot"));
      save.Set("path", JsonValue::String(SnapshotPath(i)));
      save.Set("id", JsonValue::String(rid));
      if (!WriteToWorker(*shard, save.Dump())) {
        std::lock_guard<std::mutex> lock(pending_mutex_);
        pending_.erase(rid);
        continue;
      }
      std::unique_lock<std::mutex> lock(pending_mutex_);
      const bool responded =
          pending_cv_.wait_for(lock, std::chrono::milliseconds(10000),
                               [&entry] { return entry->done; });
      pending_.erase(rid);
      if (responded && !entry->response_line.empty()) ++saved;
    }
    size_t respawned = 0;
    for (auto& w : workers_) {
      if (!w->replica) continue;
      RespawnDeliberately(*w);
      ++respawned;
    }
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("synced_shards", JsonValue::Number(static_cast<double>(saved)));
    response.Set("respawned_replicas",
                 JsonValue::Number(static_cast<double>(respawned)));
    if (has_id) response.Set("id", client_id);
    Reply(conn, response.Dump());
  }

  RouterCore core_;
  std::string serve_bin_;
  std::string state_dir_;
  size_t num_shards_ = 0;
  std::vector<std::unique_ptr<WorkerProc>> workers_;  // shards first

  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::map<std::string, std::shared_ptr<PendingEntry>> pending_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> replica_rr_{0};

  Backoff backoff_;
  std::mutex restart_mutex_;
  std::mutex health_mutex_;
  std::condition_variable health_cv_;
  std::atomic<bool> shutting_down_{false};
  std::thread health_thread_;
  int64_t health_interval_ms_;
  int64_t health_deadline_ms_;
  int health_misses_;

  // Malformed worker output lines (dpclustx_router_dropped_lines_total).
  dpclustx::obs::Counter* dropped_lines_counter_;
  dpclustx::obs::Counter* relay_spliced_counter_;
  dpclustx::obs::Counter* relay_full_parse_counter_;
  dpclustx::obs::Counter* shed_requests_counter_;
  dpclustx::obs::Counter* tc_spliced_counter_;
  dpclustx::obs::Counter* tc_full_parse_counter_;

  // Stitched end-to-end timelines, bounded like the engine's trace ring;
  // served by the router-level `trace` op. trace_mutex_ is a leaf lock.
  static constexpr size_t kTraceRingCapacity = 64;
  std::mutex trace_mutex_;
  std::deque<JsonValue> trace_ring_;
  std::atomic<uint64_t> trace_dropped_{0};
  int64_t slow_request_ms_ = 0;

  // Socket front door; null in stdin-only mode.
  std::unique_ptr<Transport> transport_;
  int64_t retry_after_ms_ = 100;
  bool relay_splice_ = true;
  bool verify_relay_ = false;
  std::mt19937_64 respawn_rng_{std::random_device{}()};  // restart_mutex_
};

std::string DefaultServeBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "dpclustx_serve";
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "dpclustx_serve";
  return path.substr(0, slash) + "/dpclustx_serve";
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_workers = 2;
  size_t replicas = 0;
  size_t vnodes = 64;
  size_t health_interval_ms = 1000;
  size_t health_deadline_ms = 2000;
  size_t health_misses = 3;
  std::string serve_bin = DefaultServeBinary();
  std::string state_dir = ".";
  std::string relay_mode = "splice";
  bool verify_relay = false;
  std::vector<std::string> listen_specs;
  dpclustx::service::TransportOptions transport_options;
  size_t max_frame_bytes = transport_options.max_frame_bytes;
  size_t write_soft_limit = transport_options.write_soft_limit_bytes;
  size_t write_hard_limit = transport_options.write_hard_limit_bytes;
  size_t retry_after_ms = 100;
  size_t slow_request_ms = 0;
  size_t worker_listen_base = 0;
  std::vector<std::string> worker_extra_args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      for (int j = i + 1; j < argc; ++j) worker_extra_args.push_back(argv[j]);
      break;
    }
    std::string listen_spec;
    if (ParseStringFlag(argc, argv, &i, "--listen", &listen_spec)) {
      listen_specs.push_back(listen_spec);
      continue;
    }
    if (std::strcmp(argv[i], "--verify-relay") == 0) {
      verify_relay = true;
      continue;
    }
    if (ParseSizeFlag(argc, argv, &i, "--workers", &num_workers) ||
        ParseSizeFlag(argc, argv, &i, "--replicas", &replicas) ||
        ParseSizeFlag(argc, argv, &i, "--vnodes", &vnodes) ||
        ParseSizeFlag(argc, argv, &i, "--health-interval-ms",
                      &health_interval_ms) ||
        ParseSizeFlag(argc, argv, &i, "--health-deadline-ms",
                      &health_deadline_ms) ||
        ParseSizeFlag(argc, argv, &i, "--health-misses", &health_misses) ||
        ParseSizeFlag(argc, argv, &i, "--max-frame-bytes", &max_frame_bytes) ||
        ParseSizeFlag(argc, argv, &i, "--write-soft-limit-bytes",
                      &write_soft_limit) ||
        ParseSizeFlag(argc, argv, &i, "--write-hard-limit-bytes",
                      &write_hard_limit) ||
        ParseSizeFlag(argc, argv, &i, "--retry-after-ms", &retry_after_ms) ||
        ParseSizeFlag(argc, argv, &i, "--slow-request-ms", &slow_request_ms) ||
        ParseSizeFlag(argc, argv, &i, "--worker-listen-base",
                      &worker_listen_base) ||
        ParseStringFlag(argc, argv, &i, "--serve", &serve_bin) ||
        ParseStringFlag(argc, argv, &i, "--relay", &relay_mode) ||
        ParseStringFlag(argc, argv, &i, "--state-dir", &state_dir)) {
      continue;
    }
    if (std::strcmp(argv[i], "--version") == 0) {
      std::cout << dpclustx::obs::BuildInfoVersionLine() << "\n";
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    std::cerr << "unknown flag '" << argv[i] << "'\n" << kUsage;
    return 2;
  }
  if (num_workers == 0) {
    std::cerr << "--workers must be at least 1\n";
    return 2;
  }
  if (vnodes == 0) vnodes = 1;
  if (relay_mode != "splice" && relay_mode != "full") {
    std::cerr << "--relay must be 'splice' or 'full'\n";
    return 2;
  }
  transport_options.max_frame_bytes = max_frame_bytes;
  transport_options.write_soft_limit_bytes = write_soft_limit;
  transport_options.write_hard_limit_bytes = write_hard_limit;
  if (transport_options.write_soft_limit_bytes >
      transport_options.write_hard_limit_bytes) {
    std::cerr << "--write-soft-limit-bytes must not exceed "
                 "--write-hard-limit-bytes\n";
    return 2;
  }

  // A worker dying while we write to its pipe must surface as EPIPE (we
  // respawn it), not kill the router. Socket clients disconnecting
  // mid-response are the same story.
  ::signal(SIGPIPE, SIG_IGN);

  if (worker_listen_base > 65535) {
    std::cerr << "--worker-listen-base must be a port (<= 65535)\n";
    return 2;
  }
  Router router(serve_bin, state_dir, num_workers, replicas, vnodes,
                static_cast<int64_t>(health_interval_ms),
                static_cast<int64_t>(health_deadline_ms),
                static_cast<int>(health_misses),
                static_cast<uint16_t>(worker_listen_base),
                std::move(worker_extra_args));
  router.ConfigureRelay(relay_mode == "splice", verify_relay);
  router.ConfigureSlowLog(static_cast<int64_t>(slow_request_ms));
  router.Start();
  if (!listen_specs.empty()) {
    const dpclustx::Status started = router.StartTransport(
        listen_specs, transport_options,
        static_cast<int64_t>(retry_after_ms));
    if (!started.ok()) {
      std::cerr << "cannot listen: " << started.ToString() << "\n";
      router.Shutdown();
      return 1;
    }
  }
  // stdin stays the lifecycle handle even in socket mode: EOF here is the
  // shutdown signal (run under a supervisor, hold the pipe open).
  router.ServeStdin();
  router.Shutdown();
  return 0;
}
