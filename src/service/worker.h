// Worker: the durable lifecycle of one dpclustx_serve process (DESIGN.md
// §11), so the tool and in-process tests run the same code. Start keeps
// the one order under which every ε charge survives a crash:
//
//   1. restore from --snapshot, replaying --audit-journal past its cursor;
//      any restore error but "no snapshot yet" refuses to start;
//   2. open the journal;
//   3. with no snapshot yet, write the base snapshot (the empty state), so
//      the journal always has a snapshot to replay onto (replicas, which
//      are read-only, write nothing); a refused journal leaves none;
//   4. start the periodic save (every --snapshot-interval-ms; 0 = none).
//
// Shutdown drains the engine, stops the periodic save and writes the final
// snapshot. Destroying a Worker without Shutdown is a SIGKILL: the journal
// is on disk and no final save runs.

#ifndef DPCLUSTX_SERVICE_WORKER_H_
#define DPCLUSTX_SERVICE_WORKER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "service/front_door.h"
#include "service/service_engine.h"

namespace dpclustx::service {

/// One field per dpclustx_serve flag (--help and --version are the tool's).
struct WorkerOptions {
  std::vector<std::string> listen;  // repeatable
  size_t threads = 4;
  size_t queue = 256;
  size_t cache = 1024;
  size_t deadline_ms = 0;
  size_t max_csv_bytes = 0;
  bool sync = false;
  bool trace_all = false;
  std::string snapshot;
  size_t snapshot_interval_ms = 10000;
  std::string audit_journal;  // requires `snapshot`
  bool read_only = false;
};

/// Parses dpclustx_serve flags from argv[1..] into `*options`, stopping at
/// the first token that is not one (--help, --version, an unknown flag):
/// returns its index, or argc. A bad value, and --audit-journal without
/// --snapshot, exit 2 (common/flags.h).
int ParseWorkerFlags(int argc, char** argv, WorkerOptions* options);

class Worker {
 public:
  /// Steps 1–4 above, each outcome logged to stderr; the error says why
  /// the worker refused to start. Instruments register in `metrics`
  /// (nullptr = an engine-private registry).
  static StatusOr<std::unique_ptr<Worker>> Start(
      const WorkerOptions& options, obs::MetricsRegistry* metrics);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  ServiceEngine& engine() { return engine_; }

  /// Requests go to the engine (in order on the calling thread with
  /// --sync); the drain is Shutdown.
  FrontDoor Door();

  /// Drains the engine, stops the periodic save, writes the final
  /// snapshot. Idempotent.
  void Shutdown();

 private:
  Worker(const WorkerOptions& options, obs::MetricsRegistry* metrics);
  Status Save();  // to --snapshot, logging a failure

  const WorkerOptions options_;
  ServiceEngine engine_;
  std::unique_ptr<Periodic> saver_;  // destroyed before engine_
  bool shut_down_ = false;
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_WORKER_H_
