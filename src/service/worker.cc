#include "service/worker.h"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>

#include "common/flags.h"

namespace dpclustx::service {

int ParseWorkerFlags(int argc, char** argv, WorkerOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string listen;
    if (ParseStringFlag(argc, argv, &i, "--listen", &listen)) {
      options->listen.push_back(std::move(listen));
      continue;
    }
    if (ParseSizeFlag(argc, argv, &i, "--threads", &options->threads) ||
        ParseSizeFlag(argc, argv, &i, "--queue", &options->queue) ||
        ParseSizeFlag(argc, argv, &i, "--cache", &options->cache) ||
        ParseSizeFlag(argc, argv, &i, "--deadline-ms",
                      &options->deadline_ms) ||
        ParseSizeFlag(argc, argv, &i, "--max-csv-bytes",
                      &options->max_csv_bytes) ||
        ParseSizeFlag(argc, argv, &i, "--snapshot-interval-ms",
                      &options->snapshot_interval_ms) ||
        ParseStringFlag(argc, argv, &i, "--snapshot", &options->snapshot) ||
        ParseStringFlag(argc, argv, &i, "--audit-journal",
                        &options->audit_journal)) {
      continue;
    }
    if (std::strcmp(argv[i], "--sync") == 0) {
      options->sync = true;
    } else if (std::strcmp(argv[i], "--trace-all") == 0) {
      options->trace_all = true;
    } else if (std::strcmp(argv[i], "--read-only") == 0) {
      options->read_only = true;
    } else {
      return i;
    }
  }
  // Restore replays a journal onto a snapshot, so a journal alone could
  // never be read back: every life would restart its seq at 1 in one file.
  if (!options->audit_journal.empty() && options->snapshot.empty()) {
    std::cerr << "--audit-journal needs --snapshot: a journal without a "
                 "snapshot can never be replayed\n";
    std::exit(2);
  }
  return argc;
}

Worker::Worker(const WorkerOptions& options, obs::MetricsRegistry* metrics)
    : options_(options), engine_([&] {
        ServiceEngineOptions engine;
        engine.num_threads = options.threads;
        engine.queue_capacity = options.queue;
        engine.cache_capacity = options.cache;
        engine.default_deadline_ms = static_cast<int64_t>(options.deadline_ms);
        engine.max_csv_bytes = options.max_csv_bytes;
        engine.trace_all = options.trace_all;
        engine.read_only = options.read_only;
        engine.metrics_registry = metrics;
        return engine;
      }()) {}

StatusOr<std::unique_ptr<Worker>> Worker::Start(const WorkerOptions& options,
                                                obs::MetricsRegistry* metrics) {
  std::unique_ptr<Worker> worker(new Worker(options, metrics));
  ServiceEngine& engine = worker->engine_;
  // Restore BEFORE the journal is opened for append and before any request
  // is read: RestoreFromFiles requires an empty engine, and the journal must
  // hold only records the restored audit cursor accounts for.
  bool fresh = false;
  if (!options.snapshot.empty()) {
    StatusOr<ServiceEngine::RestoreReport> restored =
        engine.RestoreFromFiles(options.snapshot, options.audit_journal);
    if (restored.ok()) {
      std::cerr << "restored snapshot '" << options.snapshot
                << "' (format v" << restored->format_version
                << "): " << restored->datasets << " datasets, "
                << restored->sessions << " sessions, "
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
      std::cerr << "no snapshot at '" << options.snapshot
                << "'; starting fresh\n";
      fresh = true;
    } else {
      // Corrupt snapshot, newer format, journal gap, snapshot-less journal:
      // serving with wrong ledgers is worse than not serving.
      std::cerr << "refusing to serve: "
                << StatusCodeName(restored.status().code()) << ": "
                << restored.status().message() << "\n";
      return restored.status();
    }
  }
  if (!options.audit_journal.empty()) {
    const Status journaling = engine.EnableAuditJournal(options.audit_journal);
    if (!journaling.ok()) {
      std::cerr << "cannot open audit journal '" << options.audit_journal
                << "': " << journaling.message() << "\n";
      return journaling;
    }
  }
  // The base snapshot, written once the journal is known good (a refused
  // journal leaves no file behind): a charge journaled from here on always
  // has a snapshot to replay onto, whenever the process dies.
  if (fresh && !options.read_only) {
    const Status base = worker->Save();
    if (!base.ok()) {
      std::cerr << "refusing to serve without a base snapshot\n";
      return base;
    }
  }
  if (!options.snapshot.empty() && options.snapshot_interval_ms > 0 &&
      !options.read_only) {
    worker->saver_ = std::make_unique<Periodic>(
        options.snapshot_interval_ms, [w = worker.get()] { w->Save(); });
  }
  return worker;
}

FrontDoor Worker::Door() {
  FrontDoor door;
  // The frame handler runs on the transport's event loop, so it only
  // enqueues (--sync serializes socket clients too, on that loop thread).
  door.handle = [this](std::string line,
                       std::function<void(std::string)> done) {
    if (!options_.sync) {
      return engine_.HandleAsync(std::move(line), std::move(done));
    }
    done(engine_.Handle(line));
    return Status::OK();
  };
  door.metrics = &engine_.metrics();
  door.retry_after_ms = ServiceEngineOptions().retry_after_ms;
  door.drain = [this] { Shutdown(); };
  return door;
}

void Worker::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  engine_.Shutdown();
  saver_.reset();
  if (!options_.snapshot.empty() && !options_.read_only) {
    Save();  // the final post-drain snapshot
  }
}

Status Worker::Save() {
  const Status saved = engine_.SaveSnapshotToFile(options_.snapshot);
  if (!saved.ok()) {
    std::cerr << "snapshot save to '" << options_.snapshot
              << "' failed: " << StatusCodeName(saved.code()) << ": "
              << saved.message() << "\n";
  }
  return saved;
}

}  // namespace dpclustx::service
