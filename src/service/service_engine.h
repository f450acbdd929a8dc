// Concurrent explanation-service engine: the one code path behind the REPL,
// the stdin/stdout server (tools/dpclustx_serve), and the throughput bench.
//
// Requests and responses are single JSON objects (one per line on the wire).
// Every request carries an "op" and an optional "id" that is echoed back so
// callers can correlate out-of-order responses. Responses always carry
// "ok"; failures add {"error": {"code", "message"}} and never crash the
// engine or leak exact counts.
//
// Ops (fields beyond op/id):
//   ping
//   load_dataset   name, source ("synthetic"|"csv"|"dpxcol"), generator|path,
//                  [rows], [seed], [cap_epsilon] (<=0/absent = uncapped),
//                  [replace], [verify] (dpxcol: force the O(data) integrity
//                                       pass; the default open is O(header))
//   append_rows    dataset, rows (array of rows; each row an array of cells,
//                  one per schema attribute — a value label string or a
//                  numeric code). Extends the dataset in place (mapped
//                  datasets extend their DPXCOL file durably), delta-updates
//                  every clustering view's StatsCache exactly, and bumps the
//                  dataset epoch so cached releases for older generations
//                  stop matching. Refused while any clustering view lacks a
//                  fitted model (snapshot-restored views: re-run cluster
//                  first).
//   schema         dataset                     (data-independent, free)
//   cluster        dataset, clustering, method, k, [seed],
//                  [epsilon], [session]        (dp-k-means charges the
//                                               session; other methods are
//                                               free: their output is only
//                                               ever used inside the DP
//                                               pipeline)
//   create_session session, dataset, epsilon
//   close_session  session
//   budget         session                     (ledger report)
//   explain        session, clustering, [epsilon] | [epsilon_cand_set,
//                  epsilon_top_comb, epsilon_hist], [num_candidates],
//                  [threads]
//   hist           session, clustering, attribute, [epsilon]  (cached like
//                                               explain: an identical repeat
//                                               re-serves the paid-for bytes
//                                               for zero ε)
//   size           session, clustering, cluster, [epsilon]
//   stats          (datasets, sessions, build info, queue_capacity,
//                   retry_after_ms — facts, not counters)
//   metrics        (the registry as JSON; every counter, gauge and
//                   histogram the engine keeps; HTTP /metrics serves the
//                   same registry as Prometheus text)
//   trace          [limit]    (recent request span trees, newest last)
//   audit          [limit]    (privacy-budget audit log tail + totals)
//   save_snapshot  path       (durable state snapshot; DESIGN.md §11)
//   load_snapshot  path, [journal]   (crash recovery into an empty engine)
//
// Observability (see DESIGN.md §10): every request updates pre-registered
// instruments in a MetricsRegistry (no locks on the hot path). A request
// carrying "trace": true — or every request when
// ServiceEngineOptions::trace_all is set — is traced: the engine activates
// a per-request span tree, handlers and pipeline stages mark DPX_SPAN
// scopes into it, the finished tree is attached to the response as "trace"
// (only for per-request opt-in) and retained in a bounded ring served by
// the `trace` op. Every ε charge/denial is appended to an AuditLog whose
// per-tenant totals match the session ledgers exactly. The stats/metrics/
// trace/audit ops are operator-facing: they expose op names, timings, ε
// totals and tenant/session ids — never data values, labels, or
// per-record information.
//
// Failure semantics (see DESIGN.md §7): anything a request can cause —
// malformed JSON, bad parameters, budget refusal, deadlines — comes back as
// a structured error response; std::abort is reserved for internal
// invariant violations. Every op accepts an optional "deadline_ms": the
// request is cooperatively cancelled (DeadlineExceeded) once that many
// milliseconds have elapsed since it entered the engine — for HandleAsync
// that clock starts at enqueue, so time spent waiting in the queue counts.
// Expiry is checked before any ε is charged; a checkpoint that fires after
// the charge does not refund it (the ledger may overstate, never
// understate, released ε). When the bounded queue is full, HandleAsync
// sheds the request and RejectionResponse carries a retry_after_ms hint.
//
// Privacy invariants enforced at this boundary:
//   - Exact counts (StatsCache, cluster sizes, raw histograms) never appear
//     in any response; only DP mechanism outputs and data-independent
//     metadata (schemas, domains) do.
//   - Noise seeds for every release (explain/hist/size) are drawn
//     server-side from a cryptographically random source. A client-supplied
//     "seed" field on these ops is rejected: mechanism noise is
//     data-independent, so a caller who chose (or could predict) the seed
//     could recompute the noise and subtract it from the response,
//     recovering the exact counts. (Test binaries may re-enable pinned
//     seeds via ServiceEngineOptions::insecure_deterministic_noise.)
//   - Every ε charge goes through ServiceSession::Spend (session ledger +
//     dataset cap, atomically) BEFORE noise is drawn; refused requests
//     return OutOfBudget and release nothing.
//   - Cache hits re-serve an already-paid-for release byte-identically and
//     charge zero additional ε (post-processing). Concurrent identical
//     explain requests are deduplicated in flight, so exactly one of them
//     charges ε and the rest wait for its cached release.

#ifndef DPCLUSTX_SERVICE_SERVICE_ENGINE_H_
#define DPCLUSTX_SERVICE_SERVICE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "service/dataset_registry.h"
#include "service/explanation_cache.h"
#include "service/session_manager.h"
#include "snapshot/audit_journal.h"
#include "snapshot/snapshot.h"

namespace dpclustx::service {

/// One interception site on the request path, handed to the test-only fault
/// injector. `point` is "<op>:start" (before the handler runs), "<op>:finish"
/// (after a successful handler; `body` is the mutable response body, so a
/// test can force a NaN into it), or "explain:compute" (inside OpExplain,
/// after the ε charge and before the pipeline runs; a hook that sleeps past
/// the deadline here exercises post-spend cancellation). `request` is the
/// parsed request, letting a hook target one tenant and wave the rest
/// through. `body` is null except at ":finish".
struct FaultPoint {
  std::string point;
  const JsonValue* request = nullptr;
  JsonValue* body = nullptr;
};

/// Returns OK to let the request proceed; any error Status is propagated as
/// that request's failure (the engine treats it exactly like a handler
/// error). TEST ONLY — never install one in a deployment.
using FaultInjector = std::function<Status(const FaultPoint&)>;

struct ServiceEngineOptions {
  /// Worker threads for HandleAsync.
  size_t num_threads = 4;
  /// Pending-request bound; submissions beyond it are rejected
  /// (backpressure).
  size_t queue_capacity = 256;
  /// Explanation-cache entries.
  size_t cache_capacity = 1024;
  /// TEST/DEBUG ONLY. When true, server-drawn noise seeds derive
  /// deterministically from `noise_seed`, and requests may pin a "seed"
  /// field on the noisy ops (explain/hist/size). NEVER enable this in a
  /// deployment: a client who knows the seed can subtract the mechanism
  /// noise from the response and recover exact counts.
  bool insecure_deterministic_noise = false;
  /// Base for deterministic server-drawn seeds. Only consulted when
  /// `insecure_deterministic_noise` is set; otherwise seeds come from
  /// std::random_device.
  uint64_t noise_seed = 0x5eed5eedULL;
  /// Deadline applied to every request that does not carry its own
  /// "deadline_ms" field. 0 = no default deadline.
  int64_t default_deadline_ms = 0;
  /// Hint returned in shed-request errors: how long (ms) the client should
  /// back off before retrying.
  int64_t retry_after_ms = 50;
  /// Requests larger than this many bytes are rejected before parsing (a
  /// hostile payload must not cost a parse proportional to its size).
  size_t max_request_bytes = 1u << 20;
  /// CSV files larger than this many bytes are refused by load_dataset
  /// (source "csv") before any row is parsed — the same gate discipline as
  /// max_request_bytes, for the file a request points at rather than the
  /// request itself. 0 = unlimited. Full-scale data belongs in DPXCOL
  /// (tools/dpclustx_convert), which opens in O(header) regardless of size.
  size_t max_csv_bytes = 0;
  /// TEST ONLY fault-injection hook; see FaultPoint. Leave empty in any
  /// deployment.
  FaultInjector fault_injector;
  /// Registry the engine registers its instruments in. nullptr = an
  /// engine-private registry (isolated, the default for tests). Deployments
  /// that want one scrape endpoint pass &obs::MetricsRegistry::Default().
  /// An injected registry must outlive the engine; the engine removes its
  /// callback gauges on destruction.
  obs::MetricsRegistry* metrics_registry = nullptr;
  /// When false, per-op counters/latency histograms are not updated (the
  /// `stats` op then reports no per-op data). Exists so the throughput
  /// bench can measure instrumentation overhead; leave true in deployments.
  bool record_metrics = true;
  /// Trace every request as if it carried "trace": true. Traces land in
  /// the trace ring (responses are not inflated).
  bool trace_all = false;
  /// Completed request traces retained for the `trace` op (drop-oldest).
  size_t trace_ring_capacity = 64;
  /// Audit-log tail records retained (totals stay exact regardless).
  size_t audit_capacity = 4096;
  /// Read-only replica mode: every op that would charge ε or mutate state
  /// (load_dataset, append_rows, cluster, create_session, close_session,
  /// size, save_snapshot, and cache *misses* on explain/hist) is refused with
  /// FailedPrecondition. Cache hits still serve — a hit is free
  /// post-processing of an already-paid-for release — so a replica restored
  /// from the primary's snapshot can absorb repeat-read traffic. The router
  /// falls back to the primary on the refusals.
  bool read_only = false;
};

class ServiceEngine {
 public:
  explicit ServiceEngine(const ServiceEngineOptions& options = {});
  ~ServiceEngine();

  ServiceEngine(const ServiceEngine&) = delete;
  ServiceEngine& operator=(const ServiceEngine&) = delete;

  /// Serves one request synchronously. Never throws; malformed input yields
  /// an error response.
  std::string Handle(const std::string& request_json);

  /// Queues the request on the worker pool; `done` runs on a worker thread
  /// with the response. Returns ResourceExhausted (without invoking `done`)
  /// when the queue is full — callers decide whether to retry or reply busy
  /// — and FailedPrecondition after Shutdown.
  Status HandleAsync(std::string request_json,
                     std::function<void(std::string)> done);

  /// Builds the busy/shutdown error response for a request HandleAsync
  /// rejected with `reason` (echoes the request's id when parseable). Shed
  /// requests (ResourceExhausted) carry a "retry_after_ms" back-off hint.
  static std::string RejectionResponse(const std::string& request_json,
                                       const Status& reason,
                                       int64_t retry_after_ms = 50);

  /// Drains queued requests and stops the workers.
  void Shutdown();

  DatasetRegistry& registry() { return registry_; }
  SessionManager& sessions() { return sessions_; }
  const ExplanationCache& cache() const { return cache_; }
  ThreadPool& pool() { return pool_; }
  /// The registry this engine's instruments live in (the injected one, or
  /// the engine-private default).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::AuditLog& audit_log() const { return audit_; }

  // ---- durability (src/snapshot; DESIGN.md §11) ---------------------------

  /// Opens the JSONL audit journal at `path` (append, created if absent)
  /// and hooks it into the audit log: from here on every ε charge/denial is
  /// written and flushed to disk before its response is built. Call once,
  /// after any RestoreFromFiles and before serving.
  Status EnableAuditJournal(const std::string& path);

  /// Saves the full hot state (datasets, session ledgers, release cache,
  /// audit cursor + totals + tail) to `path` atomically. Takes the session
  /// managers' spend gate exclusively, so the saved ledgers, caps, audit
  /// totals, and cursor are one coherent instant — a charge is either
  /// entirely inside the snapshot or entirely after its cursor.
  /// FailedPrecondition when a session is bound to a replaced (detached)
  /// dataset entry: its cap accounting lives on an entry the snapshot
  /// cannot name, and a wrong restore is worse than a refused save.
  Status SaveSnapshotToFile(const std::string& path);

  /// What RestoreFromFiles rebuilt and replayed.
  struct RestoreReport {
    uint32_t format_version = 0;
    size_t datasets = 0;
    size_t sessions = 0;
    size_t cache_entries = 0;
    /// Journal records applied strictly after the snapshot cursor.
    uint64_t replayed_records = 0;
    /// Tenants with post-snapshot journaled charges whose sessions did not
    /// exist at snapshot time: their dataset-cap charges were replayed (the
    /// cap never understates), but their session ledgers are gone — those
    /// analysts must open new sessions.
    std::vector<std::string> unrecovered_sessions;
  };

  /// Crash recovery: loads the snapshot at `snapshot_path`, rebuilds every
  /// dataset (pinned uids), session ledger (bit-for-bit), the release
  /// cache, and the audit log, then — when `journal_path` is non-empty and
  /// exists — replays journal records with seq >= the snapshot's audit
  /// cursor, in order, charging each granted record to its session ledger
  /// and dataset cap exactly once. Refuses (no partial restore of ledgers)
  /// when: the engine is not empty; the snapshot is corrupt, truncated, or
  /// a newer format; the journal has a gap at or after the cursor (records
  /// were dropped or the file was truncated — rebuilt ledgers would be
  /// wrong); or a post-replay ledger/audit equality check fails. A missing
  /// snapshot with a non-empty journal is also refused: session budgets and
  /// dataset contents are not journaled, so snapshot-less recovery cannot
  /// rebuild correct ledgers.
  StatusOr<RestoreReport> RestoreFromFiles(const std::string& snapshot_path,
                                           const std::string& journal_path);

 private:
  /// Handle with an explicit arrival time — the deadline anchor. Handle
  /// passes now(); HandleAsync passes its enqueue time so queue wait counts.
  std::string HandleAt(const std::string& request_json,
                       Deadline::Clock::time_point start);
  JsonValue Dispatch(const JsonValue& request,
                     Deadline::Clock::time_point start);
  /// Resolves the request deadline, runs the ":start" fault point, routes to
  /// the op handler, runs ":finish"; Dispatch wraps the result (non-finite
  /// gate, metrics, error envelope).
  StatusOr<JsonValue> DispatchOp(const std::string& op,
                                 const JsonValue& request,
                                 Deadline::Clock::time_point start);
  /// Runs the configured fault injector at `point` (no-op when absent).
  Status InjectFault(const std::string& point, const JsonValue& request,
                     JsonValue* body);
  // Per-op handlers; return the response body (merged with ok/id by
  // Dispatch) or a Status that Dispatch converts to an error response.
  StatusOr<JsonValue> OpLoadDataset(const JsonValue& request);
  StatusOr<JsonValue> OpAppendRows(const JsonValue& request);
  StatusOr<JsonValue> OpSchema(const JsonValue& request);
  StatusOr<JsonValue> OpCluster(const JsonValue& request);
  StatusOr<JsonValue> OpCreateSession(const JsonValue& request);
  StatusOr<JsonValue> OpCloseSession(const JsonValue& request);
  StatusOr<JsonValue> OpBudget(const JsonValue& request);
  StatusOr<JsonValue> OpExplain(const JsonValue& request,
                                const Deadline& deadline);
  StatusOr<JsonValue> OpHist(const JsonValue& request);
  StatusOr<JsonValue> OpSize(const JsonValue& request);
  JsonValue OpStats();
  JsonValue OpMetricsDump();
  StatusOr<JsonValue> OpTrace(const JsonValue& request);
  StatusOr<JsonValue> OpAudit(const JsonValue& request);
  StatusOr<JsonValue> OpSaveSnapshot(const JsonValue& request);
  StatusOr<JsonValue> OpLoadSnapshot(const JsonValue& request);

  /// FailedPrecondition naming `what` when this worker is read-only.
  Status RefuseIfReadOnly(const char* what) const;
  /// Harvests the full hot state. Caller must hold the spend gate
  /// exclusively (SaveSnapshotToFile does).
  StatusOr<snapshot::ServiceSnapshot> HarvestSnapshot();
  /// Applies a decoded snapshot to this (empty) engine.
  Status ApplySnapshot(const snapshot::ServiceSnapshot& state,
                       RestoreReport* report);
  /// Replays journal records with seq >= `cursor` (see RestoreFromFiles).
  Status ReplayJournal(const std::string& journal_path, uint64_t cursor,
                       RestoreReport* report);

  uint64_t NextNoiseSeed();

  /// The noise seed a noisy op must use: server-drawn (NextNoiseSeed)
  /// normally; a request-pinned "seed" only in the test-only
  /// insecure_deterministic_noise configuration, and InvalidArgument when a
  /// client supplies one otherwise.
  StatusOr<uint64_t> RequestNoiseSeed(const JsonValue& request);

  /// Refcounted per-cache-key lock that serializes concurrent identical
  /// explain computations: the first holder spends ε and computes, waiters
  /// then find the release in the cache (never a second charge). Slots are
  /// created on demand and removed when the last holder releases.
  struct InflightSlot {
    std::mutex mutex;
    size_t refs = 0;  // guarded by inflight_mutex_
  };
  std::shared_ptr<InflightSlot> AcquireInflight(const std::string& key);
  void ReleaseInflight(const std::string& key);

  /// Pre-registered instrument handles for one op. Built once at engine
  /// construction for the fixed op names only (client-invented op strings
  /// are never recorded: a hostile stream of distinct names must not grow
  /// the registry), then read-only — RecordOp touches no lock.
  struct OpMetrics {
    obs::Counter* count = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::LatencyHistogram* latency = nullptr;
  };
  void RecordOp(const std::string& op, Deadline::Clock::time_point began,
                const Status& outcome);
  /// Registers the per-op handles and callback gauges (cache, pools,
  /// registry sizes, audit totals) in *metrics_. Called from the ctor.
  void RegisterMetrics();
  /// Appends a finished request trace to the bounded ring, counting the
  /// entry it evicts (dpclustx_trace_dropped_total). `trace_id` is the
  /// propagated cross-process id ("" for locally initiated traces).
  void PushTrace(const std::string& op, const std::string& trace_id,
                 JsonValue trace_json);

  const ServiceEngineOptions options_;
  DatasetRegistry registry_;
  ExplanationCache cache_;
  obs::AuditLog audit_;
  snapshot::AuditJournal journal_;  // sink of audit_ once enabled
  obs::MetricsRegistry owned_metrics_;  // used unless options injects one
  obs::MetricsRegistry* const metrics_;
  SessionManager sessions_;  // after audit_: sessions hold a pointer to it
  std::map<std::string, OpMetrics> op_metrics_;  // immutable after ctor
  obs::Counter* shed_ = nullptr;     // requests rejected by the full queue
  obs::Counter* traced_ = nullptr;   // requests that ran with tracing on
  obs::Counter* snapshot_saves_ = nullptr;
  obs::Counter* snapshot_restores_ = nullptr;
  obs::Counter* journal_records_ = nullptr;   // records appended to the WAL
  obs::Counter* journal_failures_ = nullptr;  // journal writes that failed
  obs::Counter* journal_replayed_ = nullptr;  // records applied by recovery
  std::vector<uint64_t> callback_ids_;  // removed from *metrics_ in dtor
  std::atomic<uint64_t> noise_sequence_{0};
  std::mutex trace_mutex_;
  std::deque<JsonValue> trace_ring_;  // guarded by trace_mutex_
  /// Ring entries evicted by capacity — atomic so the exposition-time
  /// callback gauge reads it without taking trace_mutex_.
  std::atomic<uint64_t> trace_dropped_{0};
  std::mutex inflight_mutex_;
  std::map<std::string, std::shared_ptr<InflightSlot>>
      inflight_;         // guarded by inflight_mutex_
  ThreadPool pool_;  // last member: workers must die before the state above
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_SERVICE_ENGINE_H_
