// Shared declarations of the DPClustX benchmark runner (perfbench/).
//
// The runner has two modes, both selected by perfbench/run.py:
//
//   e2e    forks the real dpclustx_router with two shard workers, drives it
//          over a unix socket with four closed-loop client connections, and
//          reports the user-visible (end-to-end) metrics;
//   trace  runs the same workload once more, samples the idle fleet, then
//          replays the workload's request stream serially in process
//          against a ServiceEngine configured like a shard worker, timing
//          every call into each layer's public functions (per-layer
//          metrics).
//
// Everything a run sends is derived from the workload name and --seed
// (workload.cc), so one seed reproduces one run's inputs exactly.

#ifndef DPCLUSTX_PERFBENCH_BENCH_H_
#define DPCLUSTX_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using dpclustx::JsonValue;
using dpclustx::Status;
using dpclustx::StatusOr;

double SecondsSince(Clock::time_point start);

/// Aborts the run (non-zero exit, no result line) with `what`.
[[noreturn]] void Fail(const std::string& what);

/// Quantile by linear interpolation between closest ranks (numpy's default
/// "linear" method); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Workloads (workload.cc)

/// One registered table and its clustering view.
struct DatasetSpec {
  std::string name;       // picked so the router ring puts it on `shard`
  size_t shard = 0;
  std::string generator;  // "census" | "diabetes"
  size_t rows = 0;
  uint64_t data_seed = 0;
  bool dpxcol = false;    // written by the runner, served mapped
  size_t append_pool_rows = 0;  // extra generated rows appended at runtime
  std::string method;     // "k-means" | "k-modes"
  size_t k = 0;
  uint64_t cluster_seed = 0;
};

/// What one client connection does in the measured window.
enum class Role { kReader, kAppender };

struct ConnSpec {
  Role role = Role::kReader;
  /// Reader: the tables it reads, each through its own session; a session
  /// is used by this connection only.
  std::vector<size_t> tables;
  std::vector<std::string> sessions;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::vector<DatasetSpec> datasets;
  std::vector<ConnSpec> conns;
  /// Reader op mix; the remainder after explain and hist is `budget`.
  double explain_share = 0.0;
  double hist_share = 0.0;
  /// 0 = leave the field out (engine default).
  size_t num_candidates = 0;
  /// Reads repeat a working set warmed during setup (cache hits) instead
  /// of drawing a fresh ε per release (cache misses).
  bool cached = false;
  size_t warm_explains_per_dataset = 0;  // plus one hist per attribute
  /// Indices of the DPXCOL tables that receive append_rows batches.
  std::vector<size_t> ingest;
  size_t batch_rows = 100;
  /// Read-only workloads run an append-only probe, as long as the window,
  /// before it (append_mix appends inside the window instead).
  bool append_probe = false;
  /// Requests each reader sends before the window opens (part of setup).
  size_t warmup_requests = 0;
};

/// Builds the named workload for `seed`; InvalidArgument for an unknown
/// name. Dataset names are chosen against a RouterCore with the router's
/// own ring (shard-0/shard-1, 64 vnodes) so each table lands on the shard
/// the spec says.
StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The generated tables of one workload: the rows registered at setup and,
/// for ingest tables, the pool of rows appended later (rendered once as
/// JSON row arrays).
struct TableData {
  dpclustx::Dataset base;
  std::vector<std::string> pool_json;                    // "[c0,c1,...]"
  std::vector<std::vector<dpclustx::ValueCode>> pool;    // same rows, codes
};

/// Generates table `spec` (synth::Generate) and splits off its append pool.
StatusOr<TableData> GenerateTable(const DatasetSpec& spec);

/// The cache working set of a table: explain ε values and (attribute, ε)
/// hist pairs, identical for every reader of that table.
struct WarmSet {
  std::vector<double> explain_eps;
  std::vector<std::pair<std::string, double>> hists;
};
WarmSet WarmSetFor(const Workload& workload,
                   const std::vector<std::string>& attributes);

/// Deterministic per-connection request source shared by the socket load
/// and the in-process replay. Ids are "<conn>-<seq>".
class RequestStream {
 public:
  RequestStream(const Workload& workload, size_t conn,
                const std::vector<std::vector<std::string>>& attributes,
                const std::vector<TableData>* tables);

  struct Request {
    std::string line;
    std::string id;
    std::string op;     // explain | hist | budget | append_rows
    size_t dataset = 0;
    size_t session = 0;  // index into the connection's sessions
    size_t rows = 0;        // append_rows only
    size_t pool_start = 0;  // append_rows: first row of the table's pool
  };

  /// The next request of the measured mix.
  Request Next();
  /// Setup-time requests that warm the reader's cache working set (empty
  /// for uncached workloads).
  std::vector<Request> Warmup();
  /// Draws from the mix until a request of `op` (explain | hist) comes up.
  Request NextRelease(const std::string& op);
  /// A budget report for the reader's session number `session`.
  Request Budget(size_t session);
  /// Append batch number `batch` into ingest table number `slot` (its
  /// rows cycle through that table's pool).
  Request Append(size_t batch, size_t slot);

 private:
  Request Explain(size_t session, double epsilon);
  Request Hist(size_t session, const std::string& attribute, double epsilon);
  std::string NextId();

  const Workload& workload_;
  const size_t conn_;
  const std::vector<std::vector<std::string>> attributes_;
  const std::vector<TableData>* tables_;
  std::vector<WarmSet> warm_;  // per session; empty unless cached
  dpclustx::Rng rng_;
  uint64_t seq_ = 0;
  uint64_t fresh_ = 0;  // distinct-ε counter
  size_t batches_ = 0;
};


/// `request` again under a new id (the id is the line's last member).
RequestStream::Request Repeated(const RequestStream::Request& request);

// ---------------------------------------------------------------------------
// Fleet (fleet.cc)

/// A forked dpclustx_router fronting two shard workers, each with its own
/// tcp listener (--worker-listen-base) for /metrics and direct requests.
class Fleet {
 public:
  /// Spawns the router in `state_dir` and waits until its socket accepts
  /// and both workers answer /ready.
  static StatusOr<std::unique_ptr<Fleet>> Start(const std::string& router_bin,
                                                const std::string& serve_bin,
                                                const std::string& state_dir,
                                                size_t workers);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Closes the router's stdin (its shutdown signal) and waits for it; the
  /// router drains and reaps its workers before exiting.
  Status Stop();

  const std::string& socket_spec() const { return socket_spec_; }
  std::string worker_spec(size_t shard) const;
  uint16_t worker_port(size_t shard) const { return base_port_ + shard; }
  size_t workers() const { return workers_; }
  /// When the router was forked; its workers start (and take their first
  /// snapshot) within milliseconds of it.
  Clock::time_point started() const { return started_; }

  /// Router and worker pids (workers found through /proc children).
  std::vector<pid_t> Pids() const;
  /// Summed VmHWM of the router and its workers, in MB.
  double PeakRssMb() const;

 private:
  Fleet() = default;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  size_t workers_ = 0;
  uint16_t base_port_ = 0;
  std::string socket_spec_;
  Clock::time_point started_;
};

/// GET `path` from 127.0.0.1:`port`; the body on a 200, an error otherwise.
StatusOr<std::string> HttpGet(uint16_t port, const std::string& path);

/// One Prometheus text scrape, reduced to what the benchmark reads.
struct Scrape {
  /// dpclustx_op_latency_micros buckets (non-cumulative) per op.
  std::map<std::string, std::vector<double>> op_buckets;
  std::map<std::string, double> counters;  // unlabeled samples by name
};
StatusOr<Scrape> ParseScrape(const std::string& text);

/// Quantile of a non-cumulative bucket vector over the engine's histogram
/// bounds, linearly interpolated inside the bucket (as the engine's own
/// ApproxQuantileMicros does).
double BucketQuantile(const std::vector<double>& buckets, double q);

/// Host-wide CPU ticks so far, and the ticks the hypervisor stole.
struct HostCpu {
  double total = 0.0;
  double steal = 0.0;
};
HostCpu ReadHostCpu();

/// CPU seconds (user + system) this process has used so far.
double ProcessCpuSeconds();

// ---------------------------------------------------------------------------
// Runs

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string router_bin;
  std::string serve_bin;
  std::string state_dir;   // scratch directory inside the checkout
  std::string trace_out;   // where the traced run writes its spans
};

/// Metric name → (value, unit).
using Metrics = std::map<std::string, std::pair<double, std::string>>;

/// What one run reports: the metrics, the request tally of the final
/// result line, and diagnostic facts printed on the line before it.
struct RunReport {
  Metrics metrics;  // end-to-end
  Metrics layers;   // per-layer
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  JsonValue details = JsonValue::Object();
};

/// The measured socket run (load.cc): end-to-end metrics, the correctness
/// gates, and the fleet-side per-layer numbers (cache hit share, snapshot
/// saves, worker latency deltas; idle router/worker round trips when
/// `traced_run`, which also sets the fleet up once instead of three times).
RunReport RunEndToEnd(const RunConfig& config, const Workload& workload,
                      bool traced_run);

/// The traced in-process replay (replay.cc); fills per-layer metrics into
/// `report` using its e2e numbers (p50_ms, setup_s) for the shares.
void RunReplay(const RunConfig& config, const Workload& workload,
               RunReport* report);

}  // namespace perfbench

#endif  // DPCLUSTX_PERFBENCH_BENCH_H_
