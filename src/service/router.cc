#include "service/router.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

#include "common/json.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "service/json_relay.h"
#include "service/router_core.h"
#include "service/service_engine.h"

namespace dpclustx::service {
namespace {

using Clock = std::chrono::steady_clock;
using Reply = std::function<void(std::string)>;
using obs::CeilMicros;

/// Virtual nodes per shard on the hash ring — part of the placement
/// contract, so a constant: changing it moves datasets between shards.
constexpr size_t kVnodes = 64;
/// Stitched timelines the router's `trace` op retains.
constexpr size_t kTraceRingCapacity = 64;
/// How long a replica-refresh save_snapshot may take per shard.
constexpr size_t kSnapshotSaveDeadlineMs = 10000;

int64_t NowSteadyMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Sets `id` (when the client sent one) and hands the line to `done`.
void Answer(const Reply& done, JsonValue response, bool has_id,
            const JsonValue& id) {
  if (has_id) response.Set("id", id);
  done(response.Dump());
}

/// One span in the stitched timeline, shaped exactly like obs::Trace's
/// ToJson nodes so clients render router and worker spans uniformly. The
/// router has no per-span CPU clock; cpu_micros is 0 for router spans.
/// `name` comes from the fixed span vocabulary below — never client data.
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

/// One worker process behind its link.
struct WorkerProc {
  std::string name;     // "shard-0" / "replica-0.1"
  size_t shard = 0;     // owning shard index (== own index for shards)
  bool replica = false;
  std::unique_ptr<WorkerLink> link;
  std::atomic<bool> alive{false};
  /// Bumped per spawn: the health loop resets its miss count when the
  /// process behind the name changes, and never kills a newer one.
  std::atomic<uint64_t> spawns{0};

  // Per-worker labeled instruments ({worker="<name>"}). spawned_at_ms
  // feeds the replica-staleness gauge: replicas only refresh by
  // respawning, so their age IS the staleness of their snapshot.
  obs::LatencyHistogram* latency = nullptr;
  obs::Counter* restarts_counter = nullptr;
  obs::Gauge* backoff_gauge = nullptr;
  obs::Gauge* pending_gauge = nullptr;  // entries it owes; pending_mutex_
  std::atomic<int64_t> spawned_at_ms{0};
};

/// One line a worker owes an answer for: a client's request, one shard's
/// leg of a broadcast, or a health ping or replica-sync save. Every entry
/// ends exactly once, through FinishSingle, which hands `done` the reply
/// line. All fields but the timings set before Send are guarded by
/// pending_mutex_.
struct PendingEntry {
  uint64_t seq = 0;  // router id "r<seq>"; a smaller seq is an older entry
  Reply done;        // runs once, under pending_mutex_
  bool has_client_id = false;
  JsonValue client_id;
  std::string client_id_json;  // client_id pre-serialized: the splice path
                               // does zero JSON work per response
  Clock::time_point enqueued;  // receive time, for aging and timelines

  WorkerProc* worker = nullptr;  // who currently owes the response
  std::string request_line;  // forwarded line (router id, _tc), resendable
  std::string dataset;       // owning dataset, for a replica read's primary
  bool on_replica = false;   // true while a replica is trying
  bool answered = false;     // the worker's line ended it, not the router

  // Timeline bookkeeping. `written` is refreshed when a replica read moves
  // to the primary, so worker_roundtrip measures the leg that answered.
  // FinishSingle builds the stitched trace while the entry is still in the
  // map.
  std::string op;  // the client's op, for the slow log and the trace ring;
                   // empty for broadcast legs and round trips
  bool traced = false;          // "trace":true — a stitched timeline is owed
  std::string tid;              // propagated trace id ("t<seq>")
  Clock::time_point written;    // send time
  uint64_t parse_micros = 0;    // request parse
  uint64_t route_micros = 0;    // classify + shard pick
  uint64_t forward_micros = 0;  // id (and _tc) set, one Dump
};

/// The sequence number in router id "r<seq>"; 0, which is never issued,
/// for any other id.
uint64_t RouterSeq(const std::string& rid) {
  uint64_t seq = 0;
  if (rid.size() < 2 || rid[0] != 'r') return 0;
  const char* end = rid.data() + rid.size();
  const auto [last, error] = std::from_chars(rid.data() + 1, end, seq);
  return error == std::errc() && last == end ? seq : 0;
}

/// True when `line` is a JSON object whose "ok" is true.
bool OkReply(const std::string& line) {
  StatusOr<JsonValue> reply = JsonValue::Parse(line);
  return reply.ok() && reply->type() == JsonValue::Type::kObject &&
         reply->Has("ok") && reply->at("ok").type() == JsonValue::Type::kBool &&
         reply->at("ok").AsBool();
}

/// The stitched end-to-end timeline for one traced request:
///
///   router_request
///   ├─ parse              request JSON parse
///   ├─ shard_pick         classify + consistent-hash lookup
///   ├─ forward            id (and _tc) set on the request, one Dump
///   ├─ worker_roundtrip   send → response line
///   │  ├─ worker_queue_wait   roundtrip − worker-reported wall: transit +
///   │  │                      time queued in the worker
///   │  └─ <worker tree>       offsets relative to the WORKER's root (its
///   │                         clock domain; only durations line up)
///   └─ write_back         response stitch + serialize, up to the reply
///
/// `worker_tree` is null when the request ended without one (the worker
/// died, sent garbage or answered without a tree, or the router refused
/// it) — FinishSingle marks those responses "trace_partial".
JsonValue StitchTimeline(const PendingEntry& entry, Clock::time_point replied,
                         const JsonValue* worker_tree) {
  JsonValue children = JsonValue::Array();
  children.Append(SpanJson("parse", 0, entry.parse_micros));
  uint64_t cursor = entry.parse_micros;
  children.Append(SpanJson("shard_pick", cursor, entry.route_micros));
  cursor += entry.route_micros;
  children.Append(SpanJson("forward", cursor, entry.forward_micros));
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
  const auto stitched_at = Clock::now();
  children.Append(SpanJson("write_back", CeilMicros(replied - entry.enqueued),
                           CeilMicros(stitched_at - replied)));
  JsonValue root =
      SpanJson("router_request", 0, CeilMicros(stitched_at - entry.enqueued));
  root.Set("children", std::move(children));
  return root;
}

/// True when a worker response is the read-only / unknown-state refusal a
/// replica emits on a cache miss — the signal to resend to the primary.
bool ReplicaRefusal(const JsonValue& response) {
  if (!response.Has("ok") ||
      response.at("ok").type() != JsonValue::Type::kBool ||
      response.at("ok").AsBool() || !response.Has("error") ||
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

/// The full-parse relay: the response with the client's id (or none), dumped.
/// How every tree-built reply goes out, and the splice's reference
/// (verify_relay checks byte identity against it).
std::string FullParseRelay(JsonValue response, const PendingEntry& entry) {
  if (entry.has_client_id) {
    response.Set("id", entry.client_id);
  } else {
    response.Remove("id");
  }
  return response.Dump();
}

// ---- the production link: fork/exec over pipes -------------------------

class ProcessLink : public WorkerLink {
 public:
  explicit ProcessLink(std::vector<std::string> argv)
      : argv_(std::move(argv)) {}
  ~ProcessLink() override { Kill(); }

  Status Start(LineFn on_line, DeathFn on_death) override {
    // CLOEXEC keeps every worker's pipe ends out of its siblings, so
    // closing a worker's stdin really is its EOF.
    int to_child[2];
    int from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0) {
      return Status::IoError(std::string("pipe: ") + std::strerror(errno));
    }
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return Status::IoError(std::string("pipe: ") + std::strerror(errno));
    }
    // Everything the child touches is built before fork: allocating in
    // the child of a multi-threaded parent can deadlock.
    std::vector<char*> argv;
    for (const std::string& a : argv_) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const std::string exec_failed = "execv " + argv_[0] + " failed\n";
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (const int fd : {to_child[0], to_child[1], from_child[0],
                           from_child[1]}) {
        ::close(fd);
      }
      return Status::IoError(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      (void)!::write(STDERR_FILENO, exec_failed.data(), exec_failed.size());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    {
      std::lock_guard<std::mutex> lock(write_mutex_);
      stdin_fd_ = to_child[1];
    }
    pid_.store(pid);
    reader_ = std::thread([fd = from_child[0], on_line = std::move(on_line),
                           on_death = std::move(on_death)] {
      std::string buffer;
      char chunk[4096];
      ssize_t n;
      while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
        buffer.append(chunk, static_cast<size_t>(n));
        size_t pos;
        while ((pos = buffer.find('\n')) != std::string::npos) {
          std::string line = buffer.substr(0, pos);
          buffer.erase(0, pos + 1);
          if (!line.empty()) on_line(std::move(line));
        }
      }
      ::close(fd);
      on_death();
    });
    return Status::OK();
  }

  bool Send(const std::string& line) override {
    const std::string payload = line + "\n";
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (stdin_fd_ < 0) return false;
    for (size_t off = 0; off < payload.size();) {
      const ssize_t n =
          ::write(stdin_fd_, payload.data() + off, payload.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return false;  // EPIPE: the health loop respawns it
      off += static_cast<size_t>(n);
    }
    return true;
  }

  void Kill() override {
    const pid_t pid = pid_.load();
    if (pid > 0) ::kill(pid, SIGKILL);
    Close();
  }

  void Close() override {
    {
      std::lock_guard<std::mutex> lock(write_mutex_);
      if (stdin_fd_ >= 0) ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
    const pid_t pid = pid_.exchange(-1);
    if (pid > 0) ::waitpid(pid, nullptr, 0);
    if (reader_.joinable()) reader_.join();
  }

  int64_t Pid() const override { return pid_.load(); }

 private:
  const std::vector<std::string> argv_;
  std::mutex write_mutex_;  // serializes writes into the worker's stdin
  int stdin_fd_ = -1;       // guarded by write_mutex_
  std::atomic<pid_t> pid_{-1};
  std::thread reader_;  // Start / Kill / Close are serialized by the caller
};

}  // namespace

std::unique_ptr<WorkerLink> SpawnProcessLink(const std::string& /*name*/,
                                             std::vector<std::string> argv) {
  return std::make_unique<ProcessLink>(std::move(argv));
}

class Router::Impl {
 public:
  Impl(RouterOptions options, obs::MetricsRegistry* metrics,
       const WorkerLinkFactory& make_link)
      : options_(std::move(options)),
        core_(ShardNames(options_.workers), kVnodes),
        metrics_(metrics),
        dropped_lines_counter_(metrics_->RegisterCounter(
            "dpclustx_router_dropped_lines_total",
            "worker stdout lines the router could not parse or attribute "
            "to a request")),
        relay_spliced_counter_(metrics_->RegisterCounter(
            "dpclustx_router_relay_spliced_total",
            "worker responses relayed via the zero-reparse id splice")),
        relay_full_parse_counter_(metrics_->RegisterCounter(
            "dpclustx_router_relay_full_parse_total",
            "worker responses relayed via the full parse/dump path")) {
    // Workers refuse to start if their journal path is unwritable, so a
    // missing state dir would look like an instant crash loop.
    std::error_code ignored;
    std::filesystem::create_directories(options_.state_dir, ignored);
    DPX_CHECK(std::filesystem::is_directory(options_.state_dir))
        << "--state-dir '" << options_.state_dir << "' cannot be created";

    // worker_listen_base P hands worker k (in spawn order: shards first,
    // then replicas) its own tcp scrape listener on 127.0.0.1:(P+k). The
    // port rides in the respawn args, so a respawned worker comes back on
    // the same address (SO_REUSEADDR makes the rebind immediate).
    size_t next_port = options_.worker_listen_base;
    const auto add_worker = [&](std::string name, size_t shard, bool replica,
                                std::vector<std::string> argv) {
      if (options_.worker_listen_base != 0) {
        argv.push_back("--listen");
        argv.push_back("tcp:127.0.0.1:" + std::to_string(next_port++));
      }
      argv.insert(argv.end(), options_.worker_args.begin(),
                  options_.worker_args.end());
      auto w = std::make_unique<WorkerProc>();
      w->link = make_link(name, std::move(argv));
      w->name = std::move(name);
      w->shard = shard;
      w->replica = replica;
      workers_.push_back(std::move(w));
    };
    for (size_t i = 0; i < options_.workers; ++i) {
      add_worker("shard-" + std::to_string(i), i, false,
                 {options_.serve_bin, "--snapshot", SnapshotPath(i),
                  "--audit-journal", ShardFile(i, ".journal")});
    }
    // Replicas restore from the shard's snapshot but never journal or
    // save: they are disposable caches, refreshed by respawning.
    for (size_t i = 0; i < options_.workers; ++i) {
      for (size_t r = 0; r < options_.replicas; ++r) {
        add_worker("replica-" + std::to_string(i) + "." + std::to_string(r),
                   i, true,
                   {options_.serve_bin, "--read-only", "--snapshot",
                    SnapshotPath(i)});
      }
    }
    RegisterWorkerInstruments();
    for (auto& w : workers_) Spawn(*w);
    health_ = std::make_unique<Periodic>(
        options_.health_interval_ms,
        [this, misses = std::vector<size_t>(workers_.size(), 0),
         generation = std::vector<uint64_t>(workers_.size(), 0)]() mutable {
          CheckHealth(misses, generation);
        });
  }

  ~Impl() {
    Shutdown();
    for (const uint64_t id : callback_ids_) metrics_->RemoveCallback(id);
  }

  Status HandleAsync(std::string line, Reply done) {
    if (shutting_down_.load()) {
      return Status::FailedPrecondition("router is shutting down");
    }
    RequestTiming timing;
    timing.received = Clock::now();
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    timing.parse_micros = CeilMicros(Clock::now() - timing.received);
    if (!parsed.ok() || parsed->type() != JsonValue::Type::kObject) {
      done(ErrorResponse(Status::InvalidArgument(
                             "request is not a JSON object: " +
                             parsed.status().message()))
               .Dump());
      return Status::OK();
    }
    const bool has_id = parsed->Has("id");
    const JsonValue client_id = has_id ? parsed->at("id") : JsonValue::Null();

    std::string op;
    if (parsed->Has("op") &&
        parsed->at("op").type() == JsonValue::Type::kString) {
      op = parsed->at("op").AsString();
      if (op == "_router_status") {
        Answer(done, RouterStatus(), has_id, client_id);
        return Status::OK();
      }
      if (op == "_router_sync_replicas") {
        Answer(done, SyncReplicas(), has_id, client_id);
        return Status::OK();
      }
    }

    const auto route_start = Clock::now();
    StatusOr<RouteDecision> decision = core_.Classify(*parsed);
    timing.route_micros = CeilMicros(Clock::now() - route_start);
    if (!decision.ok()) {
      Answer(done, ErrorResponse(decision.status()), has_id, client_id);
      return Status::OK();
    }
    switch (decision->placement) {
      case OpPlacement::kRouter: {
        // The one router-placed op is `trace`: at the router it means the
        // ring of stitched end-to-end timelines. A worker's own ring stays
        // reachable through its scrape port.
        StatusOr<size_t> limit = OptCount(*parsed, "limit", 0);
        JsonValue response = limit.ok() ? traces_.ToJson(*limit)
                                        : ErrorResponse(limit.status());
        if (limit.ok()) response.Set("ok", JsonValue::Bool(true));
        Answer(done, std::move(response), has_id, client_id);
        break;
      }
      case OpPlacement::kRefused:
        Answer(done,
               ErrorResponse(Status::FailedPrecondition(
                   "the router manages snapshots: each shard saves to its "
                   "own file under --state-dir (use _router_sync_replicas "
                   "to refresh replicas)")),
               has_id, client_id);
        break;
      case OpPlacement::kEveryShard:
      case OpPlacement::kFleetRollup:
        ForwardBroadcast(std::move(done), *parsed, *decision, has_id,
                         client_id, op, timing);
        break;
      case OpPlacement::kShard:
      case OpPlacement::kReplicaRead:
        if (decision->rebound) {
          done = UndoBindingUnlessOk(*decision, std::move(done));
        }
        ForwardSingle(std::move(done), *parsed, *decision, has_id, client_id,
                      op, timing);
        break;
    }
    return Status::OK();
  }

  void Shutdown() {
    if (shutting_down_.exchange(true)) return;
    // Drain first: a replica read still in flight needs the primary to stay
    // up until its response lands. Ten seconds bounds the wait if a worker
    // is wedged; its entries then fail when its link closes below.
    {
      std::unique_lock<std::mutex> lock(pending_mutex_);
      pending_cv_.wait_for(lock, std::chrono::seconds(10),
                           [this] { return pending_.empty(); });
    }
    health_.reset();
    // Closing a worker's stdin makes it drain, snapshot, and exit 0.
    std::lock_guard<std::mutex> lock(restart_mutex_);
    for (auto& w : workers_) w->link->Close();
  }

  Status Ready() const {
    size_t down = 0;
    for (size_t i = 0; i < options_.workers; ++i) {
      if (!workers_[i]->alive.load()) ++down;
    }
    if (down == 0) return Status::OK();
    return Status::FailedPrecondition(std::to_string(down) +
                                      " shard(s) down, respawn pending");
  }

 private:
  /// Receive-side timings carried into the pending entry so traced
  /// requests can render them as spans.
  struct RequestTiming {
    Clock::time_point received;
    uint64_t parse_micros = 0;
    uint64_t route_micros = 0;
  };

  /// A replica read moved to its primary, to be resent outside the lock.
  struct Resend {
    std::shared_ptr<PendingEntry> entry;
    WorkerProc* primary = nullptr;
  };

  /// In-flight entries by router sequence number, so oldest first.
  using PendingMap = std::map<uint64_t, std::shared_ptr<PendingEntry>>;

  static std::vector<std::string> ShardNames(size_t n) {
    std::vector<std::string> names;
    for (size_t i = 0; i < n; ++i) names.push_back("shard-" + std::to_string(i));
    return names;
  }

  std::string ShardFile(size_t shard, const char* suffix) const {
    return options_.state_dir + "/shard-" + std::to_string(shard) + suffix;
  }
  std::string SnapshotPath(size_t shard) const {
    return ShardFile(shard, ".snap");
  }

  // ---- telemetry plane -----------------------------------------------

  /// Registers the per-worker labeled instruments. No callback takes a
  /// router lock, so an exposition may run anywhere — a broadcast's last
  /// leg builds the fleet rollup under pending_mutex_.
  void RegisterWorkerInstruments() {
    for (auto& owned : workers_) {
      WorkerProc* w = owned.get();
      const obs::MetricLabels labels = {{"worker", w->name}};
      w->latency = metrics_->RegisterLatencyHistogram(
          "dpclustx_router_worker_latency_micros",
          "Round trip from pipe write to response line, per worker", labels);
      w->restarts_counter = metrics_->RegisterCounter(
          "dpclustx_router_worker_restarts_total",
          "Crash respawns (deliberate replica refreshes excluded)", labels);
      w->backoff_gauge = metrics_->RegisterGauge(
          "dpclustx_router_worker_backoff_ms",
          "Backoff applied to the worker's most recent crash respawn",
          labels);
      callback_ids_.push_back(metrics_->AddCallbackGauge(
          "dpclustx_router_worker_alive", "1 while the worker process lives",
          labels, [w] { return w->alive.load() ? 1.0 : 0.0; }));
      w->pending_gauge = metrics_->RegisterGauge(
          "dpclustx_router_worker_pending",
          "Requests currently in flight on this worker", labels);
      if (w->replica) {
        callback_ids_.push_back(metrics_->AddCallbackGauge(
            "dpclustx_router_replica_staleness_seconds",
            "Seconds since the replica was (re)spawned from its shard's "
            "snapshot — replicas only refresh by respawning, so their age "
            "is their snapshot's staleness",
            labels, [w] {
              const int64_t spawned = w->spawned_at_ms.load();
              const int64_t now_ms = NowSteadyMs();
              return spawned != 0 && now_ms > spawned
                         ? (now_ms - spawned) / 1000.0
                         : 0.0;
            }));
      }
    }
    callback_ids_.push_back(metrics_->AddCallbackGauge(
        "dpclustx_router_trace_dropped_total",
        "Stitched timelines evicted from the bounded router trace ring", {},
        [this] { return static_cast<double>(traces_.dropped()); }));
  }

  WorkerProc* ShardWorker(const std::string& shard_name) {
    for (auto& w : workers_) {
      if (w->name == shard_name) return w.get();
    }
    return nullptr;
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

  // ---- worker lifecycle ----------------------------------------------

  /// Starts `w` behind its link. Called from the constructor and, under
  /// restart_mutex_, from the respawn paths.
  void Spawn(WorkerProc& w) {
    w.spawns.fetch_add(1);
    w.spawned_at_ms.store(NowSteadyMs());
    w.alive.store(true);  // before Start: an instant death must win
    const Status started = w.link->Start(
        [this, &w](std::string line) { HandleWorkerLine(w, line); },
        [this, &w] {
          w.alive.store(false);
          FailWorkerPending(w);
        });
    DPX_CHECK(started.ok()) << w.name << ": " << started.ToString();
  }

  /// One health tick, on the health thread. `misses` and `generation` are
  /// that thread's alone: a miss count restarts whenever the worker's spawn
  /// generation moves (a respawn by any path). Any reply from the worker
  /// counts, a shed one included.
  void CheckHealth(std::vector<size_t>& misses,
                   std::vector<uint64_t>& generation) {
    for (size_t i = 0; i < workers_.size() && !shutting_down_.load(); ++i) {
      WorkerProc& w = *workers_[i];
      if (!w.alive.load()) {
        RespawnCrashed(w);
        continue;
      }
      if (w.spawns.load() != generation[i]) {
        generation[i] = w.spawns.load();
        misses[i] = 0;
      }
      JsonValue ping = JsonValue::Object();
      ping.Set("op", JsonValue::String("ping"));
      if (RoundTrip(w, std::move(ping), options_.health_deadline_ms)) {
        misses[i] = 0;
      } else if (++misses[i] >= options_.health_misses) {
        std::cerr << "[router] " << w.name << " missed " << misses[i]
                  << " health checks; killing\n";
        // Its death fails its pending work; the next tick respawns it.
        std::lock_guard<std::mutex> restart(restart_mutex_);
        if (w.spawns.load() == generation[i]) w.link->Kill();
      }
    }
  }

  void RespawnCrashed(WorkerProc& w) {
    std::lock_guard<std::mutex> lock(restart_mutex_);
    if (w.alive.load() || shutting_down_.load()) return;
    w.link->Kill();  // reap the dead process and its reader
    w.restarts_counter->Increment();  // crash respawns, not deliberate ones
    const uint64_t attempt = w.restarts_counter->Value();
    // Jittered so N workers felled by a common cause (bad snapshot, OOM
    // sweep) fan back in over a window instead of re-stampeding in
    // lockstep. respawn_rng_ is guarded by restart_mutex_, held here.
    const int64_t delay = backoff_.JitteredDelayMs(
        attempt,
        std::uniform_real_distribution<double>(0.0, 1.0)(respawn_rng_));
    w.backoff_gauge->Set(delay);
    std::cerr << "[router] respawning " << w.name << " (attempt " << attempt
              << ", backoff " << delay << "ms)\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    Spawn(w);
  }

  /// Kill + respawn without counting it as a crash and without backoff —
  /// refreshes a replica from a newly saved shard snapshot.
  void RespawnDeliberately(WorkerProc& w) {
    std::lock_guard<std::mutex> lock(restart_mutex_);
    if (shutting_down_.load()) return;
    w.link->Kill();
    Spawn(w);
  }

  /// Sends `request` to `w` and waits up to `deadline_ms` for it to end.
  /// The worker's reply line, or nullopt when the router ended it (death,
  /// garbage, down, or the deadline).
  std::optional<std::string> RoundTrip(WorkerProc& w, JsonValue request,
                                       size_t deadline_ms) {
    auto entry = std::make_shared<PendingEntry>();
    auto reply = std::make_shared<std::optional<std::string>>();
    entry->enqueued = Clock::now();
    entry->done = [reply](std::string line) { *reply = std::move(line); };
    Send(w, entry, std::move(request));
    {
      std::unique_lock<std::mutex> lock(pending_mutex_);
      if (pending_cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                               [&reply] { return reply->has_value(); })) {
        if (entry->answered) return std::move(*reply);
        return std::nullopt;
      }
      FinishSingle(pending_.find(entry->seq), Clock::now(),
                   ErrorResponse(Status::Internal(
                       "worker '" + w.name + "' did not answer within " +
                       std::to_string(deadline_ms) + " ms")));
    }
    pending_cv_.notify_all();
    return std::nullopt;
  }

  // ---- response plumbing ---------------------------------------------

  void HandleWorkerLine(WorkerProc& w, const std::string& line) {
    // Hot path: one structural scan finds the router id without building a
    // document tree. The full parser runs only for lines the scanner
    // refuses (torn output, escaped ids) and for the cold responses that
    // genuinely need a tree (replica refusal check, traced responses).
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

    const auto replied = Clock::now();
    Resend resend;  // replica miss → resend to the primary
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      const auto it = pending_.find(RouterSeq(rid));
      if (it == pending_.end()) return;
      PendingEntry& entry = *it->second;
      if (entry.on_replica && ensure_parsed() && ReplicaRefusal(*parsed)) {
        // The replica's cache had no hit (or its snapshot predates the
        // session): keep the entry and resend to the primary.
        resend = RetargetToPrimary(it->second, replied);
      } else {
        entry.answered = true;
        w.latency->Observe(CeilMicros(replied - entry.written));
        if (scan.ok() && !entry.traced) {
          std::string out =
              entry.client_id_json.empty()
                  ? EraseId(line, *scan)
                  : SpliceId(line, *scan, entry.client_id_json);
          relay_spliced_counter_->Increment();
          if (options_.verify_relay) {
            DPX_CHECK(ensure_parsed())
                << "verify-relay: spliced line failed the full parser";
            const std::string expect = FullParseRelay(*parsed, entry);
            DPX_CHECK(out == expect)
                << "relay splice diverged from the full-parse path: " << out
                << " vs " << expect;
          }
          FinishSingle(it, replied, JsonValue::Null(), std::move(out));
        } else if (ensure_parsed()) {
          relay_full_parse_counter_->Increment();
          FinishSingle(it, replied, std::move(*parsed));
        } else {
          // The scanner accepted the line but the parser a traced
          // request needs refused it: that response is unrecoverable.
          dropped_lines_counter_->Increment();
          FinishSingle(it, replied, UnparseableLine(w));
        }
      }
    }
    pending_cv_.notify_all();
    if (resend.primary != nullptr) Write(*resend.primary, resend.entry);
  }

  static JsonValue UnparseableLine(const WorkerProc& w) {
    return ErrorResponse(Status::Internal(
        "worker '" + w.name + "' emitted an unparseable response line"));
  }

  /// Caller holds pending_mutex_. The one way an entry ends: the worker
  /// answered, died or sent garbage, or the router refused it.
  /// `response` is the worker's parsed answer or the router's own error —
  /// unless `relayed` is set, which is then the worker's line with the
  /// client's id already spliced in (untraced answers only). A traced
  /// request gets its stitched timeline, "trace_partial" when there is no
  /// worker tree, pushed to the ring before the reply. The reply goes out
  /// before the entry leaves pending_, so Shutdown's drain never returns
  /// while one is owed. Returns the iterator past the erased entry.
  PendingMap::iterator FinishSingle(PendingMap::iterator it,
                                    Clock::time_point replied,
                                    JsonValue response,
                                    std::string relayed = {}) {
    const PendingEntry& entry = *it->second;
    if (relayed.empty()) {
      if (entry.traced) {
        const bool have_tree =
            response.Has("trace") &&
            response.at("trace").type() == JsonValue::Type::kObject;
        JsonValue stitched = StitchTimeline(
            entry, replied, have_tree ? &response.at("trace") : nullptr);
        response.Set("trace", stitched);
        response.Set("trace_id", JsonValue::String(entry.tid));
        if (!have_tree) response.Set("trace_partial", JsonValue::Bool(true));
        // Ring first, reply second: a client that sends `trace` the
        // instant it sees this response must find the timeline there.
        PushTrace(entry, std::move(stitched), /*partial=*/!have_tree);
      }
      relayed = FullParseRelay(std::move(response), entry);
    }
    entry.done(std::move(relayed));
    MaybeSlowLog(entry, replied);
    entry.worker->pending_gauge->Add(-1);
    return pending_.erase(it);
  }

  /// A malformed worker line — unparseable JSON, or missing the string
  /// router id every forwarded line carries — means some entry's response
  /// is unrecoverable. Workers answer in request order, so the garbage
  /// overwhelmingly belongs to the oldest entry the worker still owes: it
  /// fails with a structured Internal error and the breach is counted
  /// (dpclustx_router_dropped_lines_total).
  void DropMalformedLine(WorkerProc& w, const std::string& line) {
    dropped_lines_counter_->Increment();
    std::cerr << "[router] " << w.name << " emitted a malformed line ("
              << line.size() << " bytes); failing its oldest pending"
              << " request\n";
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      auto oldest = pending_.begin();  // pending_ is in seq order
      while (oldest != pending_.end() && oldest->second->worker != &w) {
        ++oldest;
      }
      if (oldest == pending_.end()) return;  // a stray; nobody waits on it
      FinishSingle(oldest, Clock::now(),
                   ErrorResponse(Status::Internal(
                       "worker '" + w.name +
                       "' emitted a malformed response line; the request "
                       "was consumed but its response is unrecoverable — "
                       "retry")));
    }
    pending_cv_.notify_all();
  }

  /// Caller holds pending_mutex_. Moves a replica read to its shard's
  /// primary; the returned Resend is empty when the entry is not on a
  /// replica any more.
  Resend RetargetToPrimary(const std::shared_ptr<PendingEntry>& entry,
                           Clock::time_point now) {
    if (!entry->on_replica) return {};
    WorkerProc* primary = ShardWorker(core_.ShardFor(entry->dataset));
    entry->worker->pending_gauge->Add(-1);
    primary->pending_gauge->Add(1);
    entry->on_replica = false;
    entry->worker = primary;
    entry->written = now;  // roundtrip = the primary's leg
    return {entry, primary};
  }

  /// `w` died: every entry it still owed is resent (replica reads move to
  /// the primary) or failed with a retryable error. The worker's own
  /// snapshot+journal restore makes the retry safe: a charge that reached
  /// the journal is restored and re-serves from the cache for 0 ε.
  void FailWorkerPending(const WorkerProc& w) {
    const auto now = Clock::now();
    std::vector<Resend> resends;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second->worker != &w) {
          ++it;
        } else if (it->second->on_replica) {
          resends.push_back(RetargetToPrimary(it->second, now));
          ++it;
        } else {
          it = FinishSingle(
              it, now,
              ErrorResponse(Status::Internal(
                  "worker '" + w.name +
                  "' died mid-request; it will be respawned and restored "
                  "from its snapshot and audit journal — retry (a charge "
                  "that was journaled re-serves from the cache for zero "
                  "ε)")));
        }
      }
    }
    pending_cv_.notify_all();
    for (const Resend& resend : resends) Write(*resend.primary, resend.entry);
  }

  // ---- request forwarding --------------------------------------------

  /// The one way a line reaches a worker: gives `entry` the next router id
  /// "r<seq>", sets it (and a traced request's "_tc" context) on
  /// `request`, serializes that once as the entry's resendable line,
  /// enters the entry in pending_ as owed by `w`, and writes it.
  void Send(WorkerProc& w, std::shared_ptr<PendingEntry> entry,
            JsonValue request) {
    const auto forward_start = Clock::now();
    entry->seq = next_seq_.fetch_add(1);
    const std::string rid = "r" + std::to_string(entry->seq);
    request.Set("id", JsonValue::String(rid));
    if (entry->traced) {
      entry->tid = "t" + std::to_string(entry->seq);
      JsonValue tc = JsonValue::Object();
      tc.Set("pid", JsonValue::String(rid));
      tc.Set("tid", JsonValue::String(entry->tid));
      request.Set("_tc", std::move(tc));
    }
    entry->request_line = request.Dump();
    entry->worker = &w;
    entry->written = Clock::now();
    entry->forward_micros = CeilMicros(entry->written - forward_start);
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      pending_.emplace(entry->seq, entry);
      w.pending_gauge->Add(1);
    }
    Write(w, entry);
  }

  /// Outside pending_mutex_: writes the entry's line into `w`, which owes
  /// it. When `w` is gone, a replica read moves on to its primary and
  /// anything else ends with the router's refusal — unless `w`'s death
  /// already ended or moved the entry.
  void Write(WorkerProc& w, const std::shared_ptr<PendingEntry>& entry) {
    if (w.alive.load() && w.link->Send(entry->request_line)) return;
    Resend resend;
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      const auto it = pending_.find(entry->seq);
      if (it == pending_.end() || entry->worker != &w) return;
      if (entry->on_replica) {
        resend = RetargetToPrimary(entry, Clock::now());
      } else {
        FinishSingle(it, Clock::now(),
                     ErrorResponse(Status::Internal(
                         "worker '" + w.name +
                         "' is down; retry once it respawns")));
      }
    }
    pending_cv_.notify_all();
    if (resend.primary != nullptr) Write(*resend.primary, resend.entry);
  }

  /// Wraps the reply of an op whose Classify changed a session binding:
  /// unless the reply is ok — a worker's error, or the router's own when
  /// the worker died or was down — the session gets back the binding it
  /// had, before the client sees the reply.
  Reply UndoBindingUnlessOk(RouteDecision decision, Reply done) {
    return [this, decision = std::move(decision),
            done = std::move(done)](std::string line) {
      if (!OkReply(line)) core_.UndoBinding(decision);
      done(std::move(line));
    };
  }

  /// An entry that answers the client.
  static std::shared_ptr<PendingEntry> ClientEntry(
      Reply done, bool has_id, const JsonValue& client_id,
      const std::string& op, const RequestTiming& timing) {
    auto entry = std::make_shared<PendingEntry>();
    entry->done = std::move(done);
    entry->has_client_id = has_id;
    entry->client_id = client_id;
    entry->enqueued = timing.received;
    entry->op = op;
    entry->parse_micros = timing.parse_micros;
    entry->route_micros = timing.route_micros;
    return entry;
  }

  void ForwardSingle(Reply done, JsonValue request,
                     const RouteDecision& decision, bool has_id,
                     const JsonValue& client_id, const std::string& op,
                     const RequestTiming& timing) {
    WorkerProc* primary = ShardWorker(core_.ShardFor(decision.dataset));
    DPX_CHECK(primary != nullptr);
    WorkerProc* target = primary;
    if (decision.placement == OpPlacement::kReplicaRead) {
      if (WorkerProc* replica = PickReplica(primary->shard)) target = replica;
    }
    auto entry = ClientEntry(std::move(done), has_id, client_id, op, timing);
    entry->traced = request.Has("trace") &&
                    request.at("trace").type() == JsonValue::Type::kBool &&
                    request.at("trace").AsBool();
    // Serialized once here so the splice relay does zero JSON work when
    // the worker's response comes back.
    if (has_id) entry->client_id_json = client_id.Dump();
    entry->dataset = decision.dataset;
    entry->on_replica = target != primary;
    Send(*target, std::move(entry), std::move(request));
  }

  /// One leg per shard, each an ordinary entry. The legs' callbacks fill
  /// one shared merge, and the last answers the client: the labeled
  /// "fleet" rollup for a kFleetRollup op, the per-shard pieces under
  /// "workers" for every other broadcast. A leg the router ended (death,
  /// garbage, down) contributes its Internal error as the piece.
  void ForwardBroadcast(Reply done, const JsonValue& request,
                        const RouteDecision& decision, bool has_id,
                        const JsonValue& client_id, const std::string& op,
                        const RequestTiming& timing) {
    struct Merge {
      std::shared_ptr<PendingEntry> client;  // never in pending_ itself
      size_t legs_owed = 0;
      JsonValue pieces = JsonValue::Object();
    };
    auto merge = std::make_shared<Merge>();
    merge->client = ClientEntry(std::move(done), has_id, client_id, op, timing);
    merge->legs_owed = options_.workers;
    const bool rollup = decision.placement == OpPlacement::kFleetRollup;
    for (size_t i = 0; i < options_.workers; ++i) {  // shards come first
      WorkerProc& shard = *workers_[i];
      auto leg = std::make_shared<PendingEntry>();
      leg->enqueued = timing.received;
      // Under pending_mutex_; the relay has already dropped the router id.
      leg->done = [this, merge, rollup, &shard](std::string line) {
        StatusOr<JsonValue> parsed = JsonValue::Parse(line);
        JsonValue piece;
        if (parsed.ok()) {
          piece = std::move(*parsed);
        } else {
          dropped_lines_counter_->Increment();
          piece = UnparseableLine(shard);
        }
        merge->pieces.Set(shard.name, std::move(piece));
        if (--merge->legs_owed > 0) return;
        JsonValue response = JsonValue::Object();
        response.Set("ok", JsonValue::Bool(true));
        if (rollup) {
          response.Set("fleet", FleetRollup(merge->pieces));
        } else {
          response.Set("workers", std::move(merge->pieces));
        }
        const PendingEntry& client = *merge->client;
        client.done(FullParseRelay(std::move(response), client));
        MaybeSlowLog(client, Clock::now());
      };
      Send(shard, std::move(leg), request);
    }
  }

  /// Folds every worker's metrics JSON into one registry-shaped document
  /// ({"counters","gauges","histograms"}) with worker="<name>" injected
  /// into each key, seeded with the router's own registry — a fleet rollup
  /// instead of a concatenation of per-worker dumps.
  JsonValue FleetRollup(const JsonValue& merged) {
    JsonValue rollup = metrics_->ToJson();
    for (const std::string& worker : merged.ObjectKeys()) {
      const JsonValue& piece = merged.at(worker);
      if (piece.type() != JsonValue::Type::kObject || !piece.Has("metrics") ||
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

  void PushTrace(const PendingEntry& entry, JsonValue trace, bool partial) {
    JsonValue record = JsonValue::Object();
    record.Set("op", JsonValue::String(entry.op));
    record.Set("tid", JsonValue::String(entry.tid));
    if (partial) record.Set("partial", JsonValue::Bool(true));
    record.Set("trace", std::move(trace));
    traces_.Push(std::move(record));
  }

  /// One structured line to stderr when a finished (or failed) client
  /// request took longer than slow_request_ms, carrying the trace id when
  /// the request was traced so the operator can pull the matching
  /// timeline. Broadcast legs and round trips have no op and log nothing:
  /// a broadcast logs once, when its last leg ends.
  void MaybeSlowLog(const PendingEntry& entry, Clock::time_point finished) {
    if (options_.slow_request_ms == 0 || entry.op.empty()) return;
    const int64_t elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(finished -
                                                              entry.enqueued)
            .count();
    if (elapsed_ms < static_cast<int64_t>(options_.slow_request_ms)) return;
    JsonValue record = JsonValue::Object();
    record.Set("event", JsonValue::String("slow_request"));
    record.Set("op", JsonValue::String(entry.op));
    if (entry.worker != nullptr) {
      record.Set("worker", JsonValue::String(entry.worker->name));
    }
    if (!entry.tid.empty()) record.Set("tid", JsonValue::String(entry.tid));
    record.Set("elapsed_ms",
               JsonValue::Number(static_cast<double>(elapsed_ms)));
    record.Set("threshold_ms", JsonValue::Number(static_cast<double>(
                                   options_.slow_request_ms)));
    std::cerr << "[router] " << record.Dump() << "\n";
  }

  // ---- router-level ops ----------------------------------------------

  /// Topology plus per-worker pending depth and oldest-pending age: a
  /// wedged worker shows up here as a growing queue and a climbing age long
  /// before the health ping gives up on it. Every entry a worker owes
  /// counts — client requests, broadcast legs, pings and sync saves.
  JsonValue RouterStatus() {
    struct PendingStat {
      size_t depth = 0;
      Clock::time_point oldest;
    };
    std::map<const WorkerProc*, PendingStat> per_worker;
    const auto now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(pending_mutex_);
      for (const auto& [seq, entry] : pending_) {
        PendingStat& stat = per_worker[entry->worker];
        if (stat.depth == 0 || entry->enqueued < stat.oldest) {
          stat.oldest = entry->enqueued;
        }
        ++stat.depth;
      }
    }
    JsonValue workers = JsonValue::Array();
    for (auto& w : workers_) {
      const PendingStat stat = per_worker[w.get()];
      JsonValue entry = JsonValue::Object();
      entry.Set("name", JsonValue::String(w->name));
      entry.Set("role", JsonValue::String(w->replica ? "replica" : "shard"));
      entry.Set("shard", JsonValue::Number(static_cast<double>(w->shard)));
      entry.Set("alive", JsonValue::Bool(w->alive.load()));
      entry.Set("pid", JsonValue::Number(static_cast<double>(w->link->Pid())));
      entry.Set("pending", JsonValue::Number(static_cast<double>(stat.depth)));
      entry.Set("oldest_pending_ms",
                JsonValue::Number(
                    stat.depth == 0
                        ? 0.0
                        : static_cast<double>(
                              std::chrono::duration_cast<
                                  std::chrono::milliseconds>(now - stat.oldest)
                                  .count())));
      workers.Append(std::move(entry));
    }
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("workers", std::move(workers));
    response.Set("shards",
                 JsonValue::Number(static_cast<double>(options_.workers)));
    response.Set("bound_sessions", JsonValue::Number(static_cast<double>(
                                       core_.sessions().size())));
    response.Set("state_dir", JsonValue::String(options_.state_dir));
    return response;
  }

  /// save_snapshot on every shard (synchronously, so the files are complete
  /// before any replica reads them), then respawn every replica from the
  /// fresh snapshots. A shard counts as synced only when its save replied
  /// ok. Deterministic replica refresh for tests and benches.
  JsonValue SyncReplicas() {
    size_t saved = 0;
    for (size_t i = 0; i < options_.workers; ++i) {
      JsonValue save = JsonValue::Object();
      save.Set("op", JsonValue::String("save_snapshot"));
      save.Set("path", JsonValue::String(SnapshotPath(i)));
      const std::optional<std::string> reply =
          RoundTrip(*workers_[i], std::move(save), kSnapshotSaveDeadlineMs);
      if (reply && OkReply(*reply)) ++saved;
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
    return response;
  }

  const RouterOptions options_;
  RouterCore core_;
  obs::MetricsRegistry* const metrics_;
  std::vector<std::unique_ptr<WorkerProc>> workers_;  // shards first
  std::vector<uint64_t> callback_ids_;  // removed from *metrics_ in dtor

  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  PendingMap pending_;
  std::atomic<uint64_t> next_seq_{1};  // 0 is never issued
  std::atomic<uint64_t> replica_rr_{0};

  Backoff backoff_;
  // Serializes every link Start/Kill/Close: crash and deliberate respawns,
  // the health loop's kill, and shutdown.
  std::mutex restart_mutex_;
  std::mt19937_64 respawn_rng_{std::random_device{}()};  // restart_mutex_
  std::atomic<bool> shutting_down_{false};
  std::unique_ptr<Periodic> health_;  // pings and respawns; reset by Shutdown

  obs::Counter* dropped_lines_counter_;
  obs::Counter* relay_spliced_counter_;
  obs::Counter* relay_full_parse_counter_;

  obs::TraceRing traces_{kTraceRingCapacity};  // stitched timelines
};

Router::Router(RouterOptions options, obs::MetricsRegistry* metrics,
               WorkerLinkFactory make_link)
    : impl_(std::make_unique<Impl>(std::move(options), metrics, make_link)) {}

Router::~Router() = default;

Status Router::HandleAsync(std::string line,
                           std::function<void(std::string)> done) {
  return impl_->HandleAsync(std::move(line), std::move(done));
}

void Router::Shutdown() { impl_->Shutdown(); }

Status Router::Ready() const { return impl_->Ready(); }

}  // namespace dpclustx::service
