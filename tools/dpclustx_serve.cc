// dpclustx_serve — JSON line-protocol explanation server on stdin/stdout.
//
// Reads one JSON request per line, dispatches it to the service engine's
// worker pool, and writes one JSON response per line. Responses can arrive
// out of order relative to requests; clients that care pass an "id" field,
// which is echoed back verbatim. When the request queue is full the request
// is answered immediately with a ResourceExhausted error instead of
// blocking the reader (backpressure is explicit, never silent).
//
// Durability (DESIGN.md §11): with --snapshot the worker restores its hot
// state (datasets, session ledgers, release cache, audit cursor) at startup
// and saves it periodically and at shutdown; with --audit-journal every ε
// charge/denial is appended and flushed to a JSONL write-ahead log before
// its response leaves the process, so restore + journal replay puts every
// observable charge back exactly once after a SIGKILL. A restore error
// other than "no snapshot yet" refuses to serve — wrong ledgers are worse
// than downtime.
//
// With --listen the same engine also serves socket clients (unix:/path or
// tcp:[host:]port, src/service/transport.h): many concurrent connections,
// newline framing identical to stdin, per-connection backpressure, and
// requests shed with ResourceExhausted + retry_after_ms once a client's
// response backlog passes the transport's hard write limit. stdin remains
// the lifecycle handle — EOF drains and shuts down.
//
// The same --listen sockets also answer plain HTTP GETs (DESIGN.md §15):
// GET /metrics returns the Prometheus text exposition of the process-wide
// registry (engine ops, transport, ISA dispatch — one scrape, no sidecar),
// /healthz answers "ok" while the event loop runs, and /ready answers 503
// until the snapshot restore has completed (load balancers gate on it).
// JSON-protocol clients are unaffected: their first byte is '{', never 'G'.
//
// The flag table below is the single reference (printed by --help and
// mirrored in README.md "Serving flags"):
//
//   --listen SPEC            also accept clients on unix:/path or
//                            tcp:[host:]port (repeatable); the same socket
//                            answers HTTP GET /metrics, /healthz, /ready
//   --threads N              worker threads (default 4)
//   --queue N                pending-request bound (default 256)
//   --cache N                release-cache entries (default 1024)
//   --deadline-ms N          default per-request deadline in ms, counted
//                            from enqueue; requests may override with their
//                            own "deadline_ms" field (default 0 = none)
//   --max-csv-bytes N        refuse load_dataset csv files larger than N
//                            bytes (default 0 = no limit; convert big files
//                            to DPXCOL with dpclustx_convert instead)
//   --sync                   serve each request on the reader thread, in
//                            order (deterministic scripted sessions)
//   --trace-all              trace every request into the engine's trace
//                            ring (retrieve with the "trace" op)
//   --snapshot FILE          durable state snapshot: restored (with the
//                            journal, if any) at startup, then saved every
//                            --snapshot-interval-ms and at shutdown
//   --snapshot-interval-ms N snapshot save period in ms (default 10000;
//                            0 = save only at shutdown)
//   --audit-journal FILE     append+flush every ε charge/denial to FILE
//                            before its response (the crash-recovery WAL)
//   --read-only              replica mode: refuse every op that would
//                            charge ε or mutate state; cache hits (and
//                            load_snapshot) still serve
//   --version                print build provenance and exit
//   --help                   print this flag table and exit
//
// On EOF the server drains queued requests, writes a final snapshot,
// flushes, and exits 0. See README.md for a quickstart transcript.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "flags.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "service/service_engine.h"
#include "service/transport.h"
#include "snapshot/snapshot_io.h"

namespace {

using dpclustx::Status;
using dpclustx::StatusCode;
using dpclustx::StatusCodeName;
using dpclustx::StatusOr;
using dpclustx::service::ServiceEngine;
using dpclustx::service::ServiceEngineOptions;
using dpclustx::tools::ParseSizeFlag;
using dpclustx::tools::ParseStringFlag;

std::mutex stdout_mutex;

void WriteLine(const std::string& response) {
  std::lock_guard<std::mutex> lock(stdout_mutex);
  std::cout << response << "\n";
  std::cout.flush();
}

// Keep in sync with the file comment above and README.md "Serving flags" —
// this text IS the reference table.
constexpr const char kUsage[] =
    "usage: dpclustx_serve [flags]\n"
    "\n"
    "  --listen SPEC            also accept clients on unix:/path or\n"
    "                           tcp:[host:]port (repeatable); the same\n"
    "                           socket answers HTTP GET /metrics, /healthz,\n"
    "                           /ready\n"
    "  --threads N              worker threads (default 4)\n"
    "  --queue N                pending-request bound (default 256)\n"
    "  --cache N                release-cache entries (default 1024)\n"
    "  --deadline-ms N          default per-request deadline in ms, counted\n"
    "                           from enqueue (default 0 = none)\n"
    "  --max-csv-bytes N        refuse load_dataset csv files larger than N\n"
    "                           bytes (default 0 = no limit; use\n"
    "                           dpclustx_convert for big files)\n"
    "  --sync                   serve each request on the reader thread, in\n"
    "                           order (deterministic scripted sessions)\n"
    "  --trace-all              trace every request into the trace ring\n"
    "  --snapshot FILE          durable state snapshot: restored at startup,\n"
    "                           saved every --snapshot-interval-ms and at\n"
    "                           shutdown\n"
    "  --snapshot-interval-ms N snapshot save period in ms (default 10000;\n"
    "                           0 = save only at shutdown)\n"
    "  --audit-journal FILE     append+flush every charge/denial to FILE\n"
    "                           before its response (crash-recovery WAL)\n"
    "  --read-only              replica mode: refuse charging/mutating ops;\n"
    "                           cache hits still serve\n"
    "  --version                print build provenance and exit\n"
    "  --help                   print this flag table and exit\n";

void SaveSnapshot(ServiceEngine& engine, const std::string& path) {
  const Status saved = engine.SaveSnapshotToFile(path);
  if (!saved.ok()) {
    std::cerr << "snapshot save to '" << path
              << "' failed: " << StatusCodeName(saved.code()) << ": "
              << saved.message() << "\n";
  }
}

/// Background thread running `work` every `interval_ms`, parked on a
/// condition variable so Stop is immediate instead of waiting out the
/// interval. Runs the periodic snapshot.
class PeriodicWorker {
 public:
  PeriodicWorker(size_t interval_ms, std::function<void()> work)
      : thread_([this, interval_ms, work = std::move(work)] {
          std::unique_lock<std::mutex> lock(mutex_);
          while (!stop_) {
            lock.unlock();
            work();
            lock.lock();
            cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return stop_; });
          }
        }) {}

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  ServiceEngineOptions options;
  bool sync = false;
  size_t deadline_ms = 0;
  std::string snapshot_path;
  size_t snapshot_interval_ms = 10000;
  std::string audit_journal;
  std::vector<std::string> listen_specs;
  for (int i = 1; i < argc; ++i) {
    std::string listen_spec;
    if (ParseStringFlag(argc, argv, &i, "--listen", &listen_spec)) {
      listen_specs.push_back(listen_spec);
      continue;
    }
    if (ParseSizeFlag(argc, argv, &i, "--threads", &options.num_threads) ||
        ParseSizeFlag(argc, argv, &i, "--queue", &options.queue_capacity) ||
        ParseSizeFlag(argc, argv, &i, "--cache", &options.cache_capacity) ||
        ParseSizeFlag(argc, argv, &i, "--deadline-ms", &deadline_ms) ||
        ParseSizeFlag(argc, argv, &i, "--max-csv-bytes",
                      &options.max_csv_bytes) ||
        ParseSizeFlag(argc, argv, &i, "--snapshot-interval-ms",
                      &snapshot_interval_ms) ||
        ParseStringFlag(argc, argv, &i, "--snapshot", &snapshot_path) ||
        ParseStringFlag(argc, argv, &i, "--audit-journal", &audit_journal)) {
      continue;
    }
    if (std::strcmp(argv[i], "--sync") == 0) {
      sync = true;
      continue;
    }
    if (std::strcmp(argv[i], "--trace-all") == 0) {
      options.trace_all = true;
      continue;
    }
    if (std::strcmp(argv[i], "--read-only") == 0) {
      options.read_only = true;
      continue;
    }
    if (std::strcmp(argv[i], "--version") == 0) {
      // The snapshot format rides along so operators (and the bench
      // snapshot scripts) can tell which format a binary writes without
      // inspecting a file.
      std::cout << dpclustx::obs::BuildInfoVersionLine() << ", snapshot-format v"
                << dpclustx::snapshot::kSnapshotFormatVersion << "\n";
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      std::cout << kUsage;
      return 0;
    }
    std::cerr << "unknown flag '" << argv[i] << "'\n" << kUsage;
    return 2;
  }
  options.default_deadline_ms = static_cast<int64_t>(deadline_ms);

  // One process, one scrape: the engine registers its instruments in the
  // process-global registry so GET /metrics exposes engine ops, transport
  // counters, and the ISA dispatch gauge in a single exposition.
  options.metrics_registry = &dpclustx::obs::MetricsRegistry::Default();

  ServiceEngine engine(options);

  // Flipped once durable state is restored (or there was none to restore);
  // /ready answers 503 before that so load balancers and the router's
  // scrape plane never route to a worker still replaying its journal.
  std::atomic<bool> ready{false};

  // Restore BEFORE the journal is opened for append and before any request
  // is read: RestoreFromFiles requires an empty engine, and the journal must
  // hold only records the restored audit cursor accounts for.
  if (!snapshot_path.empty()) {
    StatusOr<ServiceEngine::RestoreReport> restored =
        engine.RestoreFromFiles(snapshot_path, audit_journal);
    if (restored.ok()) {
      std::cerr << "restored snapshot '" << snapshot_path << "' (format v"
                << restored->format_version << "): " << restored->datasets
                << " datasets, " << restored->sessions << " sessions, "
                << restored->cache_entries << " cached releases, "
                << restored->replayed_records << " journal records replayed";
      if (!restored->unrecovered_sessions.empty()) {
        std::cerr << "; unrecovered sessions:";
        for (const std::string& tenant : restored->unrecovered_sessions) {
          std::cerr << " " << tenant;
        }
      }
      std::cerr << "\n";
    } else if (restored.status().code() == StatusCode::kNotFound) {
      std::cerr << "no snapshot at '" << snapshot_path
                << "'; starting fresh\n";
    } else {
      // Corrupt snapshot, newer format, journal gap, snapshot-less journal:
      // serving with wrong ledgers is worse than not serving.
      std::cerr << "refusing to serve: "
                << StatusCodeName(restored.status().code()) << ": "
                << restored.status().message() << "\n";
      return 1;
    }
  }
  if (!audit_journal.empty()) {
    const Status journaling = engine.EnableAuditJournal(audit_journal);
    if (!journaling.ok()) {
      std::cerr << "cannot open audit journal '" << audit_journal
                << "': " << journaling.message() << "\n";
      return 1;
    }
  }
  ready.store(true, std::memory_order_release);

  std::unique_ptr<PeriodicWorker> snapshot_writer;
  if (!snapshot_path.empty() && snapshot_interval_ms > 0 &&
      !options.read_only) {
    snapshot_writer = std::make_unique<PeriodicWorker>(
        snapshot_interval_ms, [&] { SaveSnapshot(engine, snapshot_path); });
  }

  // Socket front door: same engine, many concurrent clients. The frame
  // handler runs on the transport's event loop, so it only classifies and
  // enqueues (--sync serializes socket clients too, on that loop thread).
  std::unique_ptr<dpclustx::service::Transport> transport;
  if (!listen_specs.empty()) {
    transport = std::make_unique<dpclustx::service::Transport>();
    for (const std::string& spec : listen_specs) {
      const Status listening = transport->Listen(spec);
      if (!listening.ok()) {
        std::cerr << "cannot listen: " << listening.ToString() << "\n";
        return 1;
      }
    }
    transport->SetHttpHandler(
        [&engine, &ready](const std::string& path)
            -> dpclustx::service::HttpResponse {
          if (path == "/metrics") {
            return {200, "text/plain; version=0.0.4; charset=utf-8",
                    engine.metrics().PrometheusText()};
          }
          if (path == "/healthz") {
            return {200, "text/plain; charset=utf-8", "ok\n"};
          }
          if (path == "/ready") {
            return ready.load(std::memory_order_acquire)
                       ? dpclustx::service::HttpResponse{
                             200, "text/plain; charset=utf-8", "ready\n"}
                       : dpclustx::service::HttpResponse{
                             503, "text/plain; charset=utf-8",
                             "not ready: restoring durable state\n"};
          }
          return {404, "text/plain; charset=utf-8", "not found\n"};
        });
    const Status started = transport->Start(
        [&](dpclustx::service::ConnId conn, std::string&& request) {
          dpclustx::service::Transport* t = transport.get();
          if (t->QueuedBytes(conn) > t->options().write_hard_limit_bytes) {
            t->Send(conn, ServiceEngine::RejectionResponse(
                              request,
                              Status::ResourceExhausted(
                                  "client response backlog exceeds the hard "
                                  "write limit; drain responses first"),
                              options.retry_after_ms));
            return;
          }
          if (sync) {
            t->Send(conn, engine.Handle(request));
            return;
          }
          const Status submitted =
              engine.HandleAsync(request, [t, conn](std::string response) {
                t->Send(conn, response);
              });
          if (!submitted.ok()) {
            t->Send(conn,
                    ServiceEngine::RejectionResponse(request, submitted,
                                                     options.retry_after_ms));
          }
        });
    if (!started.ok()) {
      std::cerr << "cannot start transport: " << started.ToString() << "\n";
      return 1;
    }
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (sync) {
      WriteLine(engine.Handle(line));
      continue;
    }
    const Status submitted =
        engine.HandleAsync(line, [](std::string response) {
          WriteLine(response);
        });
    if (!submitted.ok()) {
      WriteLine(ServiceEngine::RejectionResponse(line, submitted,
                                                 options.retry_after_ms));
    }
  }
  // Drain first so in-flight socket responses still go out, then stop the
  // transport (late arrivals during the drain get shutdown rejections).
  engine.Shutdown();
  if (transport != nullptr) transport->Stop();
  if (snapshot_writer != nullptr) snapshot_writer->Stop();
  if (!snapshot_path.empty() && !options.read_only) {
    SaveSnapshot(engine, snapshot_path);  // final post-drain snapshot
  }
  return 0;
}
