#include "service/service_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "data/kernels/isa.h"
#include "obs/build_info.h"
#include "obs/trace.h"

namespace dpclustx::service {

namespace {

/// Audit-log tail records retained (totals stay exact regardless).
constexpr size_t kAuditCapacity = 4096;

}  // namespace

StatusOr<double> OptNumber(const JsonValue& request, const std::string& key,
                           double fallback) {
  if (!request.Has(key)) return fallback;
  return request.GetNumber(key);
}

StatusOr<std::string> OptString(const JsonValue& request,
                                const std::string& key,
                                const std::string& fallback) {
  if (!request.Has(key)) return fallback;
  return request.GetString(key);
}

StatusOr<bool> OptBool(const JsonValue& request, const std::string& key,
                       bool fallback) {
  if (!request.Has(key)) return fallback;
  if (request.at(key).type() != JsonValue::Type::kBool) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return request.at(key).AsBool();
}

JsonValue ErrorResponse(const Status& status, int64_t retry_after_ms) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeName(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  if (retry_after_ms > 0) {
    error.Set("retry_after_ms",
              JsonValue::Number(static_cast<double>(retry_after_ms)));
  }
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("error", std::move(error));
  return response;
}

StatusOr<size_t> OptCount(const JsonValue& request, const std::string& key,
                          size_t fallback) {
  if (!request.Has(key)) return fallback;
  DPX_ASSIGN_OR_RETURN(const double value, request.GetNumber(key));
  // Range-check BEFORE the cast: converting a double at or above 2^64 (or
  // negative) to size_t is undefined behaviour. 0x1p64 is exactly 2^64.
  if (!(value >= 0.0 && value < 0x1p64) || value != std::floor(value)) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be a non-negative integer");
  }
  return static_cast<size_t>(value);
}

// The op table: one row per op. Dispatch runs the handler and refuses a
// mutating op on a read-only engine; RouterCore::Classify reads the key and
// placement through FindOp. Replica-read ops are not `mutates`: a cache hit
// is free, and ReleaseOnce refuses the miss. `size` is never cached, so it
// has no free hit to carve out. There is no restore op: a worker restores
// once, at start (service/worker.h), and a replica gets the primary's
// paid-for releases by being respawned from the primary's snapshot.
using E = ServiceEngine;
using K = OpKey;
using P = OpPlacement;
// clang-format off
const ServiceEngine::OpRoute ServiceEngine::kOpRoutes[] = {
  // name             key                placement        mutates  handler
  {{"ping",           K::kNone,          P::kEveryShard,  false}, &E::OpPing},
  {{"load_dataset",   K::kName,          P::kShard,       true},  &E::OpLoadDataset},
  {{"append_rows",    K::kDataset,       P::kShard,       true},  &E::OpAppendRows},
  {{"schema",         K::kDataset,       P::kShard,       false}, &E::OpSchema},
  {{"cluster",        K::kDataset,       P::kShard,       true},  &E::OpCluster},
  {{"budget",         K::kSession,       P::kShard,       false}, &E::OpBudget},
  {{"create_session", K::kDatasetBind,   P::kShard,       true},  &E::OpCreateSession},
  {{"close_session",  K::kSessionUnbind, P::kShard,       true},  &E::OpCloseSession},
  {{"explain",        K::kSession,       P::kReplicaRead, false}, &E::OpExplain},
  {{"hist",           K::kSession,       P::kReplicaRead, false}, &E::OpHist},
  {{"size",           K::kSession,       P::kShard,       true},  &E::OpSize},
  {{"stats",          K::kNone,          P::kEveryShard,  false}, &E::OpStats},
  {{"metrics",        K::kNone,          P::kFleetRollup, false}, &E::OpMetricsDump},
  {{"trace",          K::kNone,          P::kRouter,      false}, &E::OpTrace},
  {{"audit",          K::kNone,          P::kEveryShard,  false}, &E::OpAudit},
  {{"save_snapshot",  K::kNone,          P::kRefused,     true},  &E::OpSaveSnapshot},
};
// clang-format on

StatusOr<const ServiceEngine::OpRoute*> ServiceEngine::FindRoute(
    const std::string& op) {
  const OpRoute* route = std::find_if(
      std::begin(kOpRoutes), std::end(kOpRoutes),
      [&](const OpRoute& known) { return op == known.spec.name; });
  if (route == std::end(kOpRoutes)) {
    return Status::NotFound("unknown op '" + op + "'");
  }
  return route;
}

StatusOr<const OpSpec*> ServiceEngine::FindOp(const std::string& op) {
  DPX_ASSIGN_OR_RETURN(const OpRoute* route, FindRoute(op));
  return &route->spec;
}

ServiceEngine::ServiceEngine(const ServiceEngineOptions& options)
    : options_(options),
      cache_(options.cache_capacity),
      audit_(kAuditCapacity),
      metrics_(options.metrics_registry != nullptr ? options.metrics_registry
                                                   : &owned_metrics_),
      traces_(options.trace_ring_capacity),
      pool_(ThreadPoolOptions{options.num_threads, options.queue_capacity}) {
  sessions_.set_audit_log(&audit_);
  RegisterMetrics();
}

ServiceEngine::~ServiceEngine() {
  Shutdown();
  // The callback gauges read members of this engine; with an injected
  // registry that outlives us, leaving them installed would dangle.
  for (const uint64_t id : callback_ids_) metrics_->RemoveCallback(id);
}

void ServiceEngine::Shutdown() { pool_.Shutdown(); }

void ServiceEngine::RegisterMetrics() {
  for (const OpRoute& route : kOpRoutes) {
    const obs::MetricLabels labels = {{"op", route.spec.name}};
    OpMetrics handles;
    handles.count = metrics_->RegisterCounter(
        "dpclustx_op_requests_total", "Requests handled, by op", labels);
    handles.errors = metrics_->RegisterCounter(
        "dpclustx_op_errors_total", "Requests that returned an error, by op",
        labels);
    handles.deadline_exceeded = metrics_->RegisterCounter(
        "dpclustx_op_deadline_exceeded_total",
        "Requests cancelled at their deadline, by op", labels);
    handles.latency = metrics_->RegisterLatencyHistogram(
        "dpclustx_op_latency_micros", "Request handling latency, by op",
        labels);
    op_metrics_.push_back(handles);
  }
  shed_ = metrics_->RegisterCounter(
      "dpclustx_requests_shed_total",
      "Requests rejected because the request queue was full");
  traced_ = metrics_->RegisterCounter(
      "dpclustx_requests_traced_total",
      "Requests that ran with span tracing active");
  snapshot_saves_ = metrics_->RegisterCounter(
      "dpclustx_snapshot_saves_total", "Snapshots saved successfully");
  snapshot_restores_ = metrics_->RegisterCounter(
      "dpclustx_snapshot_restores_total",
      "Successful snapshot (+ journal) restores");
  journal_records_ = metrics_->RegisterCounter(
      "dpclustx_audit_journal_records_total",
      "Audit records durably appended to the journal");
  journal_failures_ = metrics_->RegisterCounter(
      "dpclustx_audit_journal_failures_total",
      "Audit-journal writes that failed: the request released nothing, and "
      "recovery refuses the seq gap until the next snapshot");
  journal_replayed_ = metrics_->RegisterCounter(
      "dpclustx_audit_journal_replayed_total",
      "Journal records applied by crash recovery");

  const auto gauge = [this](const std::string& name, const std::string& help,
                            std::function<double()> fn) {
    callback_ids_.push_back(
        metrics_->AddCallbackGauge(name, help, {}, std::move(fn)));
  };
  gauge("dpclustx_cache_hits", "Explanation-cache hits",
        [this] { return static_cast<double>(cache_.hits()); });
  gauge("dpclustx_cache_misses", "Explanation-cache misses",
        [this] { return static_cast<double>(cache_.misses()); });
  gauge("dpclustx_cache_evictions", "Explanation-cache LRU evictions",
        [this] { return static_cast<double>(cache_.evictions()); });
  gauge("dpclustx_cache_size", "Explanation-cache entries",
        [this] { return static_cast<double>(cache_.size()); });
  gauge("dpclustx_cache_capacity", "Explanation-cache capacity",
        [this] { return static_cast<double>(cache_.capacity()); });
  gauge("dpclustx_pool_threads", "Request-pool worker threads",
        [this] { return static_cast<double>(pool_.num_threads()); });
  gauge("dpclustx_pool_queue_depth", "Requests waiting in the pool queue",
        [this] { return static_cast<double>(pool_.queue_depth()); });
  gauge("dpclustx_pool_active", "Request-pool workers currently busy",
        [this] { return static_cast<double>(pool_.active_count()); });
  gauge("dpclustx_pool_tasks_completed", "Requests the pool has finished",
        [this] { return static_cast<double>(pool_.tasks_completed()); });
  gauge("dpclustx_compute_pool_width", "Shared compute-pool width",
        [] { return static_cast<double>(ComputePoolWidth()); });
  // Info-style gauge: the value is the live dispatch ordinal
  // (0=generic … 3=avx512); the labels pin the names this process started
  // with, so a scrape records both what the CPU offers and what is in use.
  callback_ids_.push_back(metrics_->AddCallbackGauge(
      "dpclustx_isa_level",
      "Active kernel ISA dispatch level (0=generic, 1=sse2, 2=avx2, "
      "3=avx512)",
      {{"detected", kernels::IsaLevelName(kernels::DetectedIsaLevel())},
       {"active", kernels::IsaLevelName(kernels::ActiveIsaLevel())}},
      [] {
        return static_cast<double>(
            static_cast<int>(kernels::ActiveIsaLevel()));
      }));
  gauge("dpclustx_parallel_for_calls", "ParallelFor invocations",
        [] { return static_cast<double>(ParallelForCalls()); });
  gauge("dpclustx_parallel_for_parallel_calls",
        "ParallelFor invocations that dispatched to the pool",
        [] { return static_cast<double>(ParallelForParallelCalls()); });
  gauge("dpclustx_datasets", "Registered datasets",
        [this] { return static_cast<double>(registry_.Names().size()); });
  gauge("dpclustx_sessions", "Open sessions",
        [this] { return static_cast<double>(sessions_.size()); });
  gauge("dpclustx_audit_records", "Privacy-audit records appended",
        [this] { return static_cast<double>(audit_.next_seq() - 1); });
  // Exported because drops are correctness-relevant for any consumer that
  // replays the in-memory tail: a non-zero value means the retained ring is
  // incomplete (the durable journal, when enabled, never drops).
  gauge("dpclustx_audit_dropped_total",
        "Audit tail records dropped by the bounded in-memory ring",
        [this] { return static_cast<double>(audit_.dropped()); });
  // Same contract as the audit ring: a non-zero value means the `trace`
  // op's retained window is incomplete (traces were evicted unseen).
  gauge("dpclustx_trace_dropped_total",
        "Finished request traces evicted from the bounded trace ring",
        [this] { return static_cast<double>(traces_.dropped()); });
  gauge("dpclustx_audit_epsilon_charged",
        "Total granted epsilon across all tenants",
        [this] { return audit_.GlobalTotals().epsilon_charged; });
  gauge("dpclustx_audit_epsilon_denied",
        "Total refused epsilon across all tenants",
        [this] { return audit_.GlobalTotals().epsilon_denied; });
}

std::string ServiceEngine::Handle(const std::string& request_json) {
  return HandleAt(request_json, Deadline::Clock::now());
}

std::string ServiceEngine::HandleAt(const std::string& request_json,
                                    Deadline::Clock::time_point start) {
  // Size gate BEFORE parsing: a hostile payload must not buy a parse
  // proportional to its length.
  if (request_json.size() > options_.max_request_bytes) {
    return ErrorResponse(Status::InvalidArgument(
               "request of " + std::to_string(request_json.size()) +
               " bytes exceeds max_request_bytes=" +
               std::to_string(options_.max_request_bytes)))
        .Dump();
  }
  const auto parse_began = Deadline::Clock::now();
  StatusOr<JsonValue> parsed = JsonValue::Parse(request_json);
  if (!parsed.ok()) return ErrorResponse(parsed.status()).Dump();
  if (parsed->type() != JsonValue::Type::kObject) {
    return ErrorResponse(
               Status::InvalidArgument("request must be a JSON object"))
        .Dump();
  }
  const auto parse_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Deadline::Clock::now() - parse_began)
          .count());

  // Whether to trace is only knowable after the parse, so the parse itself
  // is attached as a pre-measured span.
  bool want_trace = options_.trace_all;
  bool trace_in_response = false;
  if (parsed->Has("trace") &&
      parsed->at("trace").type() == JsonValue::Type::kBool &&
      parsed->at("trace").AsBool()) {
    want_trace = true;
    trace_in_response = true;
  }
  // Cross-process trace context: a relaying front door (the router) sets
  // "_tc":{"pid":...,"tid":...} on the line it forwards. A string tid activates
  // tracing AND puts the span tree in the response — the relay needs the
  // worker tree to stitch its end-to-end timeline — and is echoed back as
  // "trace_id" so both halves agree on the trace's identity.
  std::string trace_id;
  if (parsed->Has("_tc") &&
      parsed->at("_tc").type() == JsonValue::Type::kObject) {
    const JsonValue& tc = parsed->at("_tc");
    if (tc.Has("tid") && tc.at("tid").type() == JsonValue::Type::kString) {
      trace_id = tc.at("tid").AsString();
      want_trace = true;
      trace_in_response = true;
    }
  }

  JsonValue response;
  if (want_trace) {
    const std::string op =
        parsed->Has("op") && parsed->at("op").type() == JsonValue::Type::kString
            ? parsed->at("op").AsString()
            : "unknown";
    obs::Trace trace("request");
    obs::AddPrerecordedSpan(trace, "parse", parse_micros);
    {
      obs::ScopedTraceActivation activate(&trace);
      response = Dispatch(*parsed, start);
    }
    trace.Finish();
    JsonValue trace_json = trace.ToJson();
    if (traced_ != nullptr) traced_->Increment();
    if (trace_in_response) response.Set("trace", trace_json);
    if (!trace_id.empty()) {
      response.Set("trace_id", JsonValue::String(trace_id));
    }
    PushTrace(op, trace_id, std::move(trace_json));
  } else {
    response = Dispatch(*parsed, start);
  }
  if (parsed->Has("id")) response.Set("id", parsed->at("id"));
  return response.Dump();
}

void ServiceEngine::PushTrace(const std::string& op,
                              const std::string& trace_id,
                              JsonValue trace_json) {
  JsonValue entry = JsonValue::Object();
  entry.Set("op", JsonValue::String(op));
  if (!trace_id.empty()) entry.Set("tid", JsonValue::String(trace_id));
  entry.Set("trace", std::move(trace_json));
  traces_.Push(std::move(entry));
}

Status ServiceEngine::HandleAsync(std::string request_json,
                                  std::function<void(std::string)> done) {
  // The deadline clock starts at enqueue, not at execution: a request that
  // sat in the queue past its deadline_ms is dropped (for free) when a
  // worker finally picks it up.
  const Deadline::Clock::time_point enqueued = Deadline::Clock::now();
  Status submitted = pool_.TrySubmit(
      [this, enqueued, request = std::move(request_json),
       done = std::move(done)] { done(HandleAt(request, enqueued)); });
  if (submitted.code() == StatusCode::kResourceExhausted) {
    shed_->Increment();
  }
  return submitted;
}

std::string ServiceEngine::RejectionResponse(const std::string& request_json,
                                             const Status& reason,
                                             int64_t retry_after_ms) {
  // Only shed requests get the back-off hint; retrying a shutdown rejection
  // is pointless.
  JsonValue response = ErrorResponse(
      reason, reason.code() == StatusCode::kResourceExhausted ? retry_after_ms
                                                              : 0);
  StatusOr<JsonValue> parsed = JsonValue::Parse(request_json);
  if (parsed.ok() && parsed->type() == JsonValue::Type::kObject &&
      parsed->Has("id")) {
    response.Set("id", parsed->at("id"));
  }
  return response.Dump();
}

JsonValue ServiceEngine::Dispatch(const JsonValue& request,
                                  Deadline::Clock::time_point start) {
  StatusOr<std::string> op = request.GetString("op");
  if (!op.ok()) return ErrorResponse(op.status());
  // Unknown ops bypass the metrics map so a hostile stream of invented op
  // names cannot grow it without bound.
  StatusOr<const OpRoute*> route = FindRoute(*op);
  if (!route.ok()) return ErrorResponse(route.status());

  const Deadline::Clock::time_point began = Deadline::Clock::now();
  StatusOr<JsonValue> body = DispatchOp(**route, request, start);
  if (body.ok() && !body->IsFinite()) {
    // A NaN/Inf anywhere in a response means a mechanism or handler bug (or
    // an injected fault) upstream; suppress the body — a null-laden release
    // is not a usable DP output — and keep serving.
    body = NonFiniteRefusal(*op);
  }
  RecordOp(**route, began, body.status());
  if (!body.ok()) return ErrorResponse(body.status());
  JsonValue response = std::move(*body);
  response.Set("ok", JsonValue::Bool(true));
  return response;
}

StatusOr<JsonValue> ServiceEngine::DispatchOp(
    const OpRoute& route, const JsonValue& request,
    Deadline::Clock::time_point start) {
  DPX_ASSIGN_OR_RETURN(
      const double deadline_ms,
      OptNumber(request, "deadline_ms",
                static_cast<double>(options_.default_deadline_ms)));
  if (!std::isfinite(deadline_ms) || deadline_ms < 0.0) {
    return Status::InvalidArgument(
        "'deadline_ms' must be a finite non-negative number (0 = none)");
  }
  Deadline deadline;
  if (deadline_ms > 0.0) {
    deadline = Deadline::FromStart(start, static_cast<int64_t>(deadline_ms));
  }
  // Expired while queued: drop before the handler runs (and before any ε
  // could be charged).
  DPX_RETURN_IF_ERROR(deadline.Check("dispatch"));
  const std::string op = route.spec.name;
  DPX_RETURN_IF_ERROR(InjectFault(op + ":start", request, nullptr));
  if (route.spec.mutates) DPX_RETURN_IF_ERROR(RefuseIfReadOnly(op.c_str()));
  StatusOr<JsonValue> body = (this->*route.handler)(request, deadline);
  if (body.ok()) {
    DPX_RETURN_IF_ERROR(InjectFault(op + ":finish", request, &*body));
  }
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpPing(const JsonValue&, const Deadline&) {
  JsonValue pong = JsonValue::Object();
  pong.Set("pong", JsonValue::Bool(true));
  return pong;
}

Status ServiceEngine::InjectFault(const std::string& point,
                                  const JsonValue& request, JsonValue* body) {
  if (!options_.fault_injector) return Status::OK();
  FaultPoint fault;
  fault.point = point;
  fault.request = &request;
  fault.body = body;
  return options_.fault_injector(fault);
}

void ServiceEngine::RecordOp(const OpRoute& route,
                             Deadline::Clock::time_point began,
                             const Status& outcome) {
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(
          Deadline::Clock::now() - began)
          .count();
  const auto micros = static_cast<uint64_t>(elapsed > 0 ? elapsed : 0);
  // op_metrics_ is immutable after construction, so this lookup (and the
  // instrument updates, which are relaxed atomics) takes no lock.
  const OpMetrics& handles = op_metrics_[&route - kOpRoutes];
  handles.count->Increment();
  if (!outcome.ok()) handles.errors->Increment();
  if (outcome.code() == StatusCode::kDeadlineExceeded) {
    handles.deadline_exceeded->Increment();
  }
  handles.latency->Observe(micros);
}

// Facts that are not metrics. Every number the engine counts is a registry
// series, read through the `metrics` op (JSON) or HTTP /metrics
// (Prometheus text); queue_capacity and retry_after_ms are configuration
// that has no series.
StatusOr<JsonValue> ServiceEngine::OpStats(const JsonValue&,
                                           const Deadline&) {
  JsonValue datasets = JsonValue::Array();
  for (const std::string& name : registry_.Names()) {
    datasets.Append(JsonValue::String(name));
  }
  JsonValue session_ids = JsonValue::Array();
  for (const std::string& id : sessions_.Ids()) {
    session_ids.Append(JsonValue::String(id));
  }
  JsonValue body = JsonValue::Object();
  body.Set("datasets", std::move(datasets));
  body.Set("sessions", std::move(session_ids));
  body.Set("build", obs::BuildInfoJson());
  body.Set("queue_capacity",
           JsonValue::Number(static_cast<double>(pool_.queue_capacity())));
  body.Set("retry_after_ms",
           JsonValue::Number(static_cast<double>(options_.retry_after_ms)));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpMetricsDump(const JsonValue&,
                                                 const Deadline&) {
  JsonValue body = JsonValue::Object();
  body.Set("metrics", metrics_->ToJson());
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpTrace(const JsonValue& request,
                                           const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const size_t limit, OptCount(request, "limit", 0));
  JsonValue body = traces_.ToJson(limit);
  body.Set("trace_all", JsonValue::Bool(options_.trace_all));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpAudit(const JsonValue& request,
                                           const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const size_t limit, OptCount(request, "limit", 0));
  return audit_.ToJson(limit);
}

Status ServiceEngine::NonFiniteRefusal(const std::string& op) {
  return Status::Internal("op '" + op +
                          "' produced a non-finite number; response "
                          "suppressed");
}

Status ServiceEngine::RefuseIfReadOnly(const char* what) const {
  if (!options_.read_only) return Status::OK();
  return Status::FailedPrecondition(
      std::string("this worker is read-only: ") + what +
      " is refused (retry against the primary)");
}

}  // namespace dpclustx::service
