#include "service/service_engine.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <random>
#include <shared_mutex>

#include "cluster/clustering.h"
#include "common/logging.h"
#include "core/explainer.h"
#include "core/explanation.h"
#include "core/serialization.h"
#include "common/file_util.h"
#include "data/kernels/isa.h"
#include "dp/dp_histogram.h"
#include "dp/mechanisms.h"
#include "obs/build_info.h"
#include "obs/trace.h"
#include "snapshot/snapshot_io.h"

namespace dpclustx::service {

namespace {

/// Audit-log tail records retained (totals stay exact regardless).
constexpr size_t kAuditCapacity = 4096;

/// Base of the server-drawn seeds under insecure_deterministic_noise.
constexpr uint64_t kDeterministicNoiseBase = 0x5eed5eedULL;

/// Optional-field accessors: absent keys yield the fallback, present keys of
/// the wrong type are InvalidArgument (never a silent default).
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

std::string ClusteringFingerprint(const std::string& method, size_t k,
                                  uint64_t seed, double epsilon) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "method=%s k=%zu seed=%" PRIu64 " eps=%.17g",
                method.c_str(), k, seed, epsilon);
  return buf;
}

JsonValue HistogramToJson(const Histogram& histogram, const Attribute& attr) {
  JsonValue bins = JsonValue::Array();
  for (ValueCode code = 0; code < histogram.domain_size(); ++code) {
    JsonValue bin = JsonValue::Object();
    bin.Set("value", JsonValue::String(attr.label(code)));
    bin.Set("count", JsonValue::Number(histogram.bin(code)));
    bins.Append(std::move(bin));
  }
  return bins;
}

}  // namespace

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

const ServiceEngine::OpRoute ServiceEngine::kOpRoutes[] = {
    {"ping", &ServiceEngine::OpPing},
    {"load_dataset", &ServiceEngine::OpLoadDataset},
    {"append_rows", &ServiceEngine::OpAppendRows},
    {"schema", &ServiceEngine::OpSchema},
    {"cluster", &ServiceEngine::OpCluster},
    {"budget", &ServiceEngine::OpBudget},
    {"create_session", &ServiceEngine::OpCreateSession},
    {"close_session", &ServiceEngine::OpCloseSession},
    {"explain", &ServiceEngine::OpExplain},
    {"hist", &ServiceEngine::OpHist},
    {"size", &ServiceEngine::OpSize},
    {"stats", &ServiceEngine::OpStats},
    {"metrics", &ServiceEngine::OpMetricsDump},
    {"trace", &ServiceEngine::OpTrace},
    {"audit", &ServiceEngine::OpAudit},
    {"save_snapshot", &ServiceEngine::OpSaveSnapshot},
    {"load_snapshot", &ServiceEngine::OpLoadSnapshot},
};

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
    const obs::MetricLabels labels = {{"op", route.name}};
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
      "Audit-journal writes that failed (durability hole: charges since the "
      "first failure may be unrecoverable)");
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

uint64_t ServiceEngine::NextNoiseSeed() {
  const uint64_t n = noise_sequence_.fetch_add(1, std::memory_order_relaxed);
  uint64_t base;
  if (options_.insecure_deterministic_noise) {
    base = kDeterministicNoiseBase;
  } else {
    // Clients must not be able to predict (let alone choose) the seed:
    // mechanism noise is data-independent, so a predictable seed lets a
    // caller recompute the noise and subtract it from the response.
    static std::mutex device_mutex;
    static std::random_device device;
    std::lock_guard<std::mutex> lock(device_mutex);
    base = (static_cast<uint64_t>(device()) << 32) ^ device();
  }
  // splitmix64 finalizer over base + draw counter: decorrelates consecutive
  // draws even if the entropy source is weak on this platform.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (n + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

StatusOr<uint64_t> ServiceEngine::RequestNoiseSeed(const JsonValue& request) {
  if (request.Has("seed")) {
    if (!options_.insecure_deterministic_noise) {
      return Status::InvalidArgument(
          "'seed' is not accepted on noisy ops: noise seeds are drawn "
          "server-side (a client-chosen seed would let the caller subtract "
          "the mechanism noise and recover exact counts)");
    }
    DPX_ASSIGN_OR_RETURN(const size_t pinned, OptCount(request, "seed", 0));
    return static_cast<uint64_t>(pinned);
  }
  return NextNoiseSeed();
}

std::shared_ptr<ServiceEngine::InflightSlot> ServiceEngine::AcquireInflight(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  std::shared_ptr<InflightSlot>& slot = inflight_[key];
  if (slot == nullptr) slot = std::make_shared<InflightSlot>();
  ++slot->refs;
  return slot;
}

void ServiceEngine::ReleaseInflight(const std::string& key) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  auto it = inflight_.find(key);
  DPX_CHECK(it != inflight_.end()) << "release without acquire";
  if (--it->second->refs == 0) inflight_.erase(it);
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
  // Cross-process trace context: a relaying front door (the router) splices
  // "_tc":{"pid":...,"tid":...} into the line. A string tid activates
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
  const OpRoute* route = std::find_if(
      std::begin(kOpRoutes), std::end(kOpRoutes),
      [&](const OpRoute& known) { return *op == known.name; });
  if (route == std::end(kOpRoutes)) {
    // Unknown ops bypass the metrics map so a hostile stream of invented op
    // names cannot grow it without bound.
    return ErrorResponse(Status::NotFound("unknown op '" + *op + "'"));
  }

  const Deadline::Clock::time_point began = Deadline::Clock::now();
  StatusOr<JsonValue> body = DispatchOp(*route, request, start);
  if (body.ok() && !body->IsFinite()) {
    // A NaN/Inf anywhere in a response means a mechanism or handler bug (or
    // an injected fault) upstream; suppress the body — a null-laden release
    // is not a usable DP output — and keep serving.
    body = Status::Internal("op '" + *op +
                            "' produced a non-finite number; response "
                            "suppressed");
  }
  RecordOp(*route, began, body.status());
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
  const std::string op = route.name;
  DPX_RETURN_IF_ERROR(InjectFault(op + ":start", request, nullptr));
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

StatusOr<JsonValue> ServiceEngine::OpLoadDataset(const JsonValue& request,
                                                 const Deadline&) {
  DPX_RETURN_IF_ERROR(RefuseIfReadOnly("load_dataset"));
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("name"));
  DPX_ASSIGN_OR_RETURN(const std::string source,
                       OptString(request, "source", "synthetic"));
  DPX_ASSIGN_OR_RETURN(const double cap_epsilon,
                       OptNumber(request, "cap_epsilon", 0.0));
  DPX_ASSIGN_OR_RETURN(const bool replace, OptBool(request, "replace", false));

  StatusOr<std::shared_ptr<DatasetEntry>> entry =
      Status::InvalidArgument("source must be 'synthetic', 'csv', or 'dpxcol'");
  if (source == "synthetic") {
    DPX_ASSIGN_OR_RETURN(const std::string generator,
                         request.GetString("generator"));
    DPX_ASSIGN_OR_RETURN(const size_t rows, OptCount(request, "rows", 20000));
    DPX_ASSIGN_OR_RETURN(const size_t seed, OptCount(request, "seed", 1));
    entry = registry_.RegisterSynthetic(name, generator, rows, seed,
                                        cap_epsilon, replace);
  } else if (source == "csv") {
    DPX_ASSIGN_OR_RETURN(const std::string path, request.GetString("path"));
    entry = registry_.RegisterCsv(name, path, cap_epsilon, replace,
                                  options_.max_csv_bytes);
  } else if (source == "dpxcol") {
    DPX_ASSIGN_OR_RETURN(const std::string path, request.GetString("path"));
    DPX_ASSIGN_OR_RETURN(const bool verify,
                         OptBool(request, "verify", false));
    entry = registry_.RegisterColumnar(name, path, cap_epsilon, replace,
                                       verify);
  }
  DPX_RETURN_IF_ERROR(entry.status());

  const std::shared_ptr<const Dataset> dataset = (*entry)->dataset();
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(name));
  body.Set("rows",
           JsonValue::Number(static_cast<double>(dataset->num_rows())));
  body.Set("attributes", JsonValue::Number(static_cast<double>(
                             dataset->num_attributes())));
  body.Set("mapped", JsonValue::Bool(dataset->is_mapped()));
  body.Set("cap_epsilon", JsonValue::Number((*entry)->cap_epsilon()));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpAppendRows(const JsonValue& request,
                                                const Deadline&) {
  DPX_RETURN_IF_ERROR(RefuseIfReadOnly("append_rows"));
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  if (!request.Has("rows") ||
      request.at("rows").type() != JsonValue::Type::kArray) {
    return Status::InvalidArgument(
        "'rows' must be an array of rows (each an array of cells)");
  }
  // Cells are resolved against the schema up front — a value label string
  // ("white-collar") or a numeric code — so a malformed batch is rejected
  // before anything is written anywhere.
  const std::shared_ptr<const Dataset> dataset = entry->dataset();
  const Schema& schema = dataset->schema();
  const JsonValue& rows_json = request.at("rows");
  std::vector<std::vector<ValueCode>> rows;
  rows.reserve(rows_json.size());
  for (size_t r = 0; r < rows_json.size(); ++r) {
    const JsonValue& row_json = rows_json.at(r);
    if (row_json.type() != JsonValue::Type::kArray ||
        row_json.size() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "row " + std::to_string(r) + " must be an array of " +
          std::to_string(schema.num_attributes()) + " cells");
    }
    std::vector<ValueCode> row(schema.num_attributes());
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const Attribute& attr = schema.attribute(static_cast<AttrIndex>(a));
      const JsonValue& cell = row_json.at(a);
      if (cell.type() == JsonValue::Type::kString) {
        DPX_ASSIGN_OR_RETURN(row[a], attr.CodeOf(cell.AsString()));
      } else if (cell.type() == JsonValue::Type::kNumber) {
        const double value = cell.AsNumber();
        if (value < 0.0 || value != std::floor(value) ||
            value >= static_cast<double>(attr.domain_size())) {
          return Status::InvalidArgument(
              "row " + std::to_string(r) + ", attribute '" + attr.name() +
              "': code must be an integer in [0, " +
              std::to_string(attr.domain_size()) + ")");
        }
        row[a] = static_cast<ValueCode>(value);
      } else {
        return Status::InvalidArgument(
            "row " + std::to_string(r) + ", attribute '" + attr.name() +
            "': cell must be a value label string or a numeric code");
      }
    }
    rows.push_back(std::move(row));
  }

  DPX_ASSIGN_OR_RETURN(const DatasetEntry::AppendResult result,
                       entry->AppendRows(rows));
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(name));
  body.Set("appended", JsonValue::Number(static_cast<double>(rows.size())));
  body.Set("rows", JsonValue::Number(static_cast<double>(result.num_rows)));
  body.Set("epoch", JsonValue::Number(static_cast<double>(result.epoch)));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpSchema(const JsonValue& request,
                                            const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  // Schemas are data-independent (paper §2): releasing them costs nothing.
  const std::shared_ptr<const Dataset> dataset = entry->dataset();
  const Schema& schema = dataset->schema();
  JsonValue attributes = JsonValue::Array();
  for (const Attribute& attr : schema.attributes()) {
    JsonValue a = JsonValue::Object();
    a.Set("name", JsonValue::String(attr.name()));
    JsonValue values = JsonValue::Array();
    for (const std::string& label : attr.value_labels()) {
      values.Append(JsonValue::String(label));
    }
    a.Set("values", std::move(values));
    attributes.Append(std::move(a));
  }
  JsonValue body = JsonValue::Object();
  body.Set("dataset", JsonValue::String(name));
  body.Set("attributes", std::move(attributes));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpCluster(const JsonValue& request,
                                             const Deadline&) {
  DPX_RETURN_IF_ERROR(RefuseIfReadOnly("cluster"));
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  DPX_ASSIGN_OR_RETURN(const std::string method, request.GetString("method"));
  ClusteringSpec spec;
  DPX_ASSIGN_OR_RETURN(spec.method, ParseClusteringMethod(method));
  DPX_ASSIGN_OR_RETURN(spec.num_clusters, OptCount(request, "k", 5));
  DPX_ASSIGN_OR_RETURN(spec.seed, OptCount(request, "seed", 1));
  DPX_ASSIGN_OR_RETURN(spec.epsilon, OptNumber(request, "epsilon", 1.0));
  if (spec.num_clusters == 0) return Status::InvalidArgument("k must be >= 1");

  const bool is_private = spec.method == ClusteringMethod::kDpKMeans;
  const std::string fingerprint =
      ClusteringFingerprint(method, spec.num_clusters, spec.seed,
                            is_private ? spec.epsilon : 0.0);

  const auto respond = [&](const std::shared_ptr<const ClusteringView>& view) {
    JsonValue body = JsonValue::Object();
    body.Set("dataset", JsonValue::String(name));
    body.Set("clustering", JsonValue::String(clustering_id));
    body.Set("method", JsonValue::String(view->description));
    body.Set("num_clusters",
             JsonValue::Number(static_cast<double>(view->num_clusters)));
    // Deliberately NO per-cluster sizes here: exact counts never cross the
    // protocol boundary. Use the 'size' op for a noisy count.
    return body;
  };

  // Idempotent re-request: an existing view with the same config is returned
  // without refitting (and, for dp-k-means, without charging again).
  if (auto existing = entry->GetClustering(clustering_id); existing.ok()) {
    if ((*existing)->fingerprint == fingerprint) return respond(*existing);
    return Status::FailedPrecondition(
        "clustering '" + clustering_id + "' of dataset '" + name +
        "' already exists with a different configuration");
  }

  // One generation for the whole fit: labels and stats are computed against
  // this snapshot, and PutClustering rejects the publish if rows were
  // appended meanwhile (the caller retries against the new generation).
  const std::shared_ptr<const Dataset> dataset = entry->dataset();
  std::unique_ptr<ClusteringFunction> clustering;
  {
    DPX_SPAN("clustering_fit");
    if (is_private) {
      // The fit is an ε-DP release: charge the requesting session (and the
      // dataset cap) before fitting.
      DPX_ASSIGN_OR_RETURN(const std::string session_id,
                           request.GetString("session"));
      DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                           sessions_.Get(session_id));
      if (session->dataset() != entry) {
        return Status::FailedPrecondition("session '" + session_id +
                                          "' is not bound to dataset '" + name +
                                          "'");
      }
      DPX_RETURN_IF_ERROR(
          session->Spend(spec.epsilon, "cluster/dp-k-means " + clustering_id));
    }
    DPX_ASSIGN_OR_RETURN(clustering, FitClustering(*dataset, spec));
  }

  auto view = std::make_shared<ClusteringView>();
  view->id = clustering_id;
  view->description = clustering->name();
  view->fingerprint = fingerprint;
  view->num_clusters = clustering->num_clusters();
  {
    DPX_SPAN("assign_all");
    view->labels = clustering->AssignAll(*dataset);
  }
  DPX_ASSIGN_OR_RETURN(StatsCache stats,
                       StatsCache::Build(*dataset, view->labels,
                                         view->num_clusters));
  view->stats = std::make_shared<const StatsCache>(std::move(stats));
  // Keep the fitted model on the view: appended rows are labeled by the
  // same model, so a tail assignment matches a cold AssignAll exactly.
  view->model = std::shared_ptr<const ClusteringFunction>(
      std::move(clustering));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> published,
                       entry->PutClustering(std::move(view)));
  return respond(published);
}

StatusOr<JsonValue> ServiceEngine::OpCreateSession(const JsonValue& request,
                                                   const Deadline&) {
  DPX_RETURN_IF_ERROR(RefuseIfReadOnly("create_session"));
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const double epsilon, request.GetNumber("epsilon"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       sessions_.Create(session_id, entry, epsilon));
  JsonValue body = JsonValue::Object();
  body.Set("session", JsonValue::String(session_id));
  body.Set("dataset", JsonValue::String(name));
  body.Set("epsilon", JsonValue::Number(session->budget().total_epsilon()));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpCloseSession(const JsonValue& request,
                                                  const Deadline&) {
  DPX_RETURN_IF_ERROR(RefuseIfReadOnly("close_session"));
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_RETURN_IF_ERROR(sessions_.Close(session_id));
  JsonValue body = JsonValue::Object();
  body.Set("session", JsonValue::String(session_id));
  body.Set("closed", JsonValue::Bool(true));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpBudget(const JsonValue& request,
                                            const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       sessions_.Get(session_id));
  const PrivacyBudget& budget = session->budget();
  JsonValue ledger = JsonValue::Array();
  for (const PrivacyBudget::LedgerEntry& entry : budget.ledger()) {
    JsonValue row = JsonValue::Object();
    row.Set("label", JsonValue::String(entry.label));
    row.Set("epsilon", JsonValue::Number(entry.epsilon));
    ledger.Append(std::move(row));
  }
  JsonValue body = JsonValue::Object();
  body.Set("session", JsonValue::String(session_id));
  body.Set("dataset", JsonValue::String(session->dataset()->name()));
  body.Set("total", JsonValue::Number(budget.total_epsilon()));
  body.Set("spent", JsonValue::Number(budget.spent_epsilon()));
  body.Set("remaining", JsonValue::Number(budget.remaining_epsilon()));
  body.Set("ledger", std::move(ledger));
  if (const PrivacyBudget* cap = session->dataset()->cap()) {
    body.Set("dataset_cap_total", JsonValue::Number(cap->total_epsilon()));
    body.Set("dataset_cap_remaining",
             JsonValue::Number(cap->remaining_epsilon()));
  }
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpExplain(const JsonValue& request,
                                             const Deadline& deadline) {
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       sessions_.Get(session_id));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  // Epoch read BEFORE the view: if an append lands in between, we hold the
  // old epoch with (at worst) the new view and cache under a key no future
  // request uses — never a stale view under the new epoch's key.
  const uint64_t epoch = session->dataset()->epoch();
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> view,
                       session->dataset()->GetClustering(clustering_id));

  DPX_ASSIGN_OR_RETURN(const double epsilon,
                       OptNumber(request, "epsilon", 0.3));
  DpClustXOptions options;
  DPX_ASSIGN_OR_RETURN(options.epsilon_cand_set,
                       OptNumber(request, "epsilon_cand_set", epsilon / 3.0));
  DPX_ASSIGN_OR_RETURN(options.epsilon_top_comb,
                       OptNumber(request, "epsilon_top_comb", epsilon / 3.0));
  DPX_ASSIGN_OR_RETURN(options.epsilon_hist,
                       OptNumber(request, "epsilon_hist", epsilon / 3.0));
  DPX_ASSIGN_OR_RETURN(options.num_candidates,
                       OptCount(request, "num_candidates", 3));
  DPX_ASSIGN_OR_RETURN(options.num_threads, OptCount(request, "threads", 1));
  options.deadline = deadline;
  // Pinned seeds are test-only (rejected here in the secure configuration);
  // otherwise the seed is drawn server-side at compute time below.
  const bool pinned_seed = request.Has("seed");
  uint64_t seed = 0;
  if (pinned_seed) {
    DPX_ASSIGN_OR_RETURN(seed, RequestNoiseSeed(request));
  }
  if (options.num_threads == 0) options.num_threads = 1;
  if (options.epsilon_cand_set <= 0.0 || options.epsilon_top_comb <= 0.0 ||
      options.epsilon_hist <= 0.0) {
    return Status::InvalidArgument("all epsilon splits must be positive");
  }
  if (options.num_candidates == 0) {
    return Status::InvalidArgument("num_candidates must be >= 1");
  }
  const double total_epsilon = options.epsilon_cand_set +
                               options.epsilon_top_comb +
                               options.epsilon_hist;

  // The key covers everything that determines the release bytes (threads
  // included: the parallel search draws a different — equally distributed —
  // noise stream than the serial one). Server-seeded requests key on
  // "seed=auto": identical requests share the first paid-for release.
  char key[320];
  std::snprintf(key, sizeof(key),
                "ds=%" PRIu64 " ep=%" PRIu64
                " cl=%s|%s ecs=%.17g etc=%.17g eh=%.17g k=%zu "
                "seed=%s th=%zu",
                session->dataset()->uid(), epoch, clustering_id.c_str(),
                view->fingerprint.c_str(), options.epsilon_cand_set,
                options.epsilon_top_comb, options.epsilon_hist,
                options.num_candidates,
                pinned_seed ? std::to_string(seed).c_str() : "auto",
                options.num_threads);

  return ReleaseOnce(
      "explain", key, *session, total_epsilon, "explain " + clustering_id,
      deadline, [&]() -> StatusOr<JsonValue> {
        // Fault point between the charge and the compute: a hook that
        // sleeps here (with the check that follows) exercises post-spend
        // cancellation; one that returns an error simulates a compute
        // failure after budget was committed.
        DPX_RETURN_IF_ERROR(InjectFault("explain:compute", request, nullptr));
        DPX_RETURN_IF_ERROR(deadline.Check("explain compute"));
        options.seed = pinned_seed ? seed : NextNoiseSeed();
        DPX_ASSIGN_OR_RETURN(const GlobalExplanation explanation, [&] {
          DPX_SPAN("explain_compute");
          return ExplainDpClustXWithStats(*view->stats, options, nullptr);
        }());
        const std::shared_ptr<const Dataset> dataset =
            session->dataset()->dataset();
        const Schema& schema = dataset->schema();
        DPX_ASSIGN_OR_RETURN(
            JsonValue explanation_json,
            JsonValue::Parse(ExplanationToJson(explanation, schema)));
        JsonValue body = JsonValue::Object();
        body.Set("explanation", std::move(explanation_json));
        body.Set("text", JsonValue::String(
                             RenderGlobalExplanation(explanation, schema)));
        return body;
      });
}

StatusOr<JsonValue> ServiceEngine::OpHist(const JsonValue& request,
                                          const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       sessions_.Get(session_id));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  // Epoch before the view — see the ordering note in OpExplain.
  const uint64_t epoch = session->dataset()->epoch();
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> view,
                       session->dataset()->GetClustering(clustering_id));
  DPX_ASSIGN_OR_RETURN(const std::string attr_name,
                       request.GetString("attribute"));
  DPX_ASSIGN_OR_RETURN(const double epsilon,
                       OptNumber(request, "epsilon", 0.02));
  const std::shared_ptr<const Dataset> dataset = session->dataset()->dataset();
  const Schema& schema = dataset->schema();
  DPX_ASSIGN_OR_RETURN(const AttrIndex attr, schema.FindAttribute(attr_name));
  // Pinned seeds are test-only (RequestNoiseSeed rejects them in the secure
  // configuration); otherwise the seed is drawn at compute time below.
  const bool pinned_seed = request.Has("seed");
  uint64_t seed = 0;
  if (pinned_seed) {
    DPX_ASSIGN_OR_RETURN(seed, RequestNoiseSeed(request));
  }

  // Hist releases cache like explain releases: a repeat of an identical
  // request re-serves the paid-for bytes for zero ε (post-processing), and
  // server-seeded requests key on "seed=auto" so they share one release.
  char key[256];
  std::snprintf(key, sizeof(key),
                "hist ds=%" PRIu64 " ep=%" PRIu64
                " cl=%s|%s attr=%s eps=%.17g seed=%s",
                session->dataset()->uid(), epoch, clustering_id.c_str(),
                view->fingerprint.c_str(), attr_name.c_str(), epsilon,
                pinned_seed ? std::to_string(seed).c_str() : "auto");

  // One round of per-cluster histograms over disjoint clusters: parallel
  // composition, a single charge of `epsilon` covers all of them.
  return ReleaseOnce(
      "hist", key, *session, epsilon,
      "hist attr=" + attr_name + " [parallel x" +
          std::to_string(view->num_clusters) + "]",
      // Hist's only deadline checkpoint is the one at dispatch.
      Deadline(), [&]() -> StatusOr<JsonValue> {
        Rng rng(pinned_seed ? seed : NextNoiseSeed());
        JsonValue clusters = JsonValue::Array();
        for (size_t c = 0; c < view->num_clusters; ++c) {
          DPX_ASSIGN_OR_RETURN(
              const Histogram noisy,
              ReleaseDpHistogram(
                  view->stats->cluster_histogram(static_cast<ClusterId>(c),
                                                 attr),
                  epsilon, rng, DpHistogramOptions{}));
          JsonValue entry = JsonValue::Object();
          entry.Set("cluster", JsonValue::Number(static_cast<double>(c)));
          entry.Set("bins", HistogramToJson(noisy, schema.attribute(attr)));
          clusters.Append(std::move(entry));
        }
        JsonValue body = JsonValue::Object();
        body.Set("attribute", JsonValue::String(attr_name));
        body.Set("clusters", std::move(clusters));
        return body;
      });
}

StatusOr<JsonValue> ServiceEngine::ReleaseOnce(
    const char* op, const std::string& key, ServiceSession& session,
    double epsilon, const std::string& spend_label, const Deadline& deadline,
    const std::function<StatusOr<JsonValue>()>& compute) {
  JsonValue body;
  std::shared_ptr<const std::string> cached;
  {
    DPX_SPAN("cache_lookup");
    cached = cache_.Get(key);
  }
  if (cached == nullptr) {
    // Miss: serialize concurrent identical requests on a per-key lock so
    // exactly one of them spends ε and computes; the others block here,
    // then find the release cached below (a dual charge would silently
    // burn double budget).
    const std::shared_ptr<InflightSlot> slot = AcquireInflight(key);
    struct Release {
      ServiceEngine* engine;
      const std::string& key;
      ~Release() { engine->ReleaseInflight(key); }
    } release{this, key};
    std::unique_lock<std::mutex> in_flight(slot->mutex, std::defer_lock);
    {
      DPX_SPAN("inflight_wait");
      in_flight.lock();
      cached = cache_.Get(key);
    }
    if (cached == nullptr) {
      // A replica serves hits above for free but must not charge ε; the
      // router retries the miss against the primary.
      DPX_RETURN_IF_ERROR(
          RefuseIfReadOnly((std::string(op) + " (uncached)").c_str()));
      // The slot wait above can block behind another request's compute;
      // re-check the deadline so a request that expired waiting charges
      // nothing. Past the Spend below there are no refunds.
      DPX_RETURN_IF_ERROR(
          deadline.Check((std::string(op) + " inflight wait").c_str()));
      {
        DPX_SPAN("budget_check");
        DPX_RETURN_IF_ERROR(session.Spend(epsilon, spend_label));
      }
      DPX_ASSIGN_OR_RETURN(body, compute());
      cache_.Put(key, body.Dump());
    }
  }
  const bool cache_hit = cached != nullptr;
  if (cache_hit) {
    // Post-processing an already-paid-for release: identical bytes, zero ε.
    StatusOr<JsonValue> parsed = JsonValue::Parse(*cached);
    DPX_CHECK(parsed.ok()) << "corrupt cache payload";
    body = std::move(*parsed);
  }
  body.Set("cache_hit", JsonValue::Bool(cache_hit));
  body.Set("epsilon_charged", JsonValue::Number(cache_hit ? 0.0 : epsilon));
  body.Set("epsilon_remaining",
           JsonValue::Number(session.budget().remaining_epsilon()));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpSize(const JsonValue& request,
                                          const Deadline&) {
  // Always refused on replicas: a size release is never cached, so there is
  // no free-hit path to carve out.
  DPX_RETURN_IF_ERROR(RefuseIfReadOnly("size"));
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       sessions_.Get(session_id));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> view,
                       session->dataset()->GetClustering(clustering_id));
  DPX_ASSIGN_OR_RETURN(const size_t cluster, OptCount(request, "cluster", 0));
  DPX_ASSIGN_OR_RETURN(const double epsilon,
                       OptNumber(request, "epsilon", 0.01));
  DPX_ASSIGN_OR_RETURN(const uint64_t seed, RequestNoiseSeed(request));
  if (cluster >= view->num_clusters) {
    return Status::InvalidArgument("cluster " + std::to_string(cluster) +
                                   " out of range");
  }
  DPX_RETURN_IF_ERROR(session->Spend(
      epsilon, "size c=" + std::to_string(cluster)));
  Rng rng(seed);
  DPX_ASSIGN_OR_RETURN(
      const int64_t noisy,
      GeometricMechanism(
          static_cast<int64_t>(
              view->stats->cluster_size(static_cast<ClusterId>(cluster))),
          /*sensitivity=*/1.0, epsilon, rng));
  JsonValue body = JsonValue::Object();
  body.Set("cluster", JsonValue::Number(static_cast<double>(cluster)));
  body.Set("noisy_size", JsonValue::Number(static_cast<double>(noisy)));
  body.Set("epsilon_charged", JsonValue::Number(epsilon));
  body.Set("epsilon_remaining",
           JsonValue::Number(session->budget().remaining_epsilon()));
  return body;
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

// ---- durability (src/snapshot; DESIGN.md §11) -----------------------------

namespace {

snapshot::AuditRecordState ToRecordState(const obs::AuditRecord& record) {
  snapshot::AuditRecordState state;
  state.seq = record.seq;
  state.tenant = record.tenant;
  state.dataset = record.dataset;
  state.label = record.label;
  state.epsilon = record.epsilon;
  state.granted = record.granted;
  state.reason = record.reason;
  return state;
}

obs::AuditRecord ToAuditRecord(const snapshot::AuditRecordState& state) {
  obs::AuditRecord record;
  record.seq = state.seq;
  record.tenant = state.tenant;
  record.dataset = state.dataset;
  record.label = state.label;
  record.epsilon = state.epsilon;
  record.granted = state.granted;
  record.reason = state.reason;
  return record;
}

snapshot::AuditTotalsState ToTotalsState(const std::string& tenant,
                                         const obs::AuditLog::Totals& totals) {
  snapshot::AuditTotalsState state;
  state.tenant = tenant;
  state.epsilon_charged = totals.epsilon_charged;
  state.epsilon_denied = totals.epsilon_denied;
  state.charges = totals.charges;
  state.denials = totals.denials;
  return state;
}

obs::AuditLog::Totals ToTotals(const snapshot::AuditTotalsState& state) {
  obs::AuditLog::Totals totals;
  totals.epsilon_charged = state.epsilon_charged;
  totals.epsilon_denied = state.epsilon_denied;
  totals.charges = state.charges;
  totals.denials = state.denials;
  return totals;
}

std::vector<snapshot::LedgerEntryState> ToLedgerState(
    const std::vector<PrivacyBudget::LedgerEntry>& ledger) {
  std::vector<snapshot::LedgerEntryState> state;
  state.reserve(ledger.size());
  for (const PrivacyBudget::LedgerEntry& entry : ledger) {
    state.push_back(snapshot::LedgerEntryState{entry.label, entry.epsilon});
  }
  return state;
}

}  // namespace

Status ServiceEngine::RefuseIfReadOnly(const char* what) const {
  if (!options_.read_only) return Status::OK();
  return Status::FailedPrecondition(
      std::string("this worker is read-only: ") + what +
      " is refused (retry against the primary)");
}

Status ServiceEngine::EnableAuditJournal(const std::string& path) {
  DPX_RETURN_IF_ERROR(journal_.Open(path));
  // The sink runs inside AuditLog::Record, under its lock, before the
  // charge's response is built — the journal is a write-ahead log for every
  // ε charge a client could have observed.
  audit_.set_sink([this](const obs::AuditRecord& record) {
    if (journal_.Append(ToRecordState(record)).ok()) {
      journal_records_->Increment();
    } else {
      journal_failures_->Increment();
    }
  });
  return Status::OK();
}

Status ServiceEngine::SaveSnapshotToFile(const std::string& path) {
  // Exclusive gate: every in-flight Spend holds it shared across its whole
  // ledger+cap+audit transaction, so once acquired, every charge is either
  // fully in the harvested state or fully after its audit cursor.
  DPX_SPAN("snapshot_save");
  std::unique_lock<std::shared_mutex> gate(sessions_.spend_gate());
  DPX_ASSIGN_OR_RETURN(const snapshot::ServiceSnapshot state,
                       HarvestSnapshot());
  DPX_RETURN_IF_ERROR(snapshot::SaveSnapshotFile(path, state));
  snapshot_saves_->Increment();
  return Status::OK();
}

StatusOr<snapshot::ServiceSnapshot> ServiceEngine::HarvestSnapshot() {
  snapshot::ServiceSnapshot state;

  const std::vector<std::shared_ptr<ServiceSession>> sessions =
      sessions_.Sessions();
  // A session bound to a replaced (detached) dataset entry charges a cap
  // object the snapshot cannot name; a refused save beats a wrong restore.
  for (const std::shared_ptr<ServiceSession>& session : sessions) {
    StatusOr<std::shared_ptr<DatasetEntry>> current =
        registry_.Get(session->dataset()->name());
    if (!current.ok() || current->get() != session->dataset().get()) {
      return Status::FailedPrecondition(
          "session '" + session->id() + "' is bound to a replaced "
          "registration of dataset '" + session->dataset()->name() +
          "'; snapshots cannot represent detached entries");
    }
  }

  for (const std::shared_ptr<DatasetEntry>& entry : registry_.Entries()) {
    snapshot::DatasetState ds;
    ds.name = entry->name();
    ds.source = entry->source();
    ds.uid = entry->uid();
    // One locked instant: the dataset generation, its views, and the epoch
    // must agree (an append swaps all three together).
    std::shared_ptr<const Dataset> dataset;
    std::vector<std::shared_ptr<const ClusteringView>> views;
    entry->SnapshotState(&dataset, &views, &ds.epoch);
    ds.width_policy = static_cast<uint8_t>(dataset->width_policy());
    ds.cap_epsilon = entry->cap_epsilon();
    if (const PrivacyBudget* cap = entry->cap()) {
      ds.cap_ledger = ToLedgerState(cap->ledger());
    }
    ds.schema_json = SchemaToJson(dataset->schema());
    if (dataset->is_mapped()) {
      // By reference: the DPXCOL file is the durable copy of the bytes.
      // The saved row count pins the generation — the file may legitimately
      // grow past it before the snapshot is restored.
      ds.columnar_path = dataset->mapped()->path();
      ds.columnar_file_uid = dataset->mapped()->file_uid();
      ds.columnar_rows = dataset->num_rows();
    } else {
      for (size_t a = 0; a < dataset->num_attributes(); ++a) {
        const NarrowColumn& column =
            dataset->narrow_column(static_cast<AttrIndex>(a));
        snapshot::ColumnState cs;
        cs.width_tag = static_cast<uint8_t>(column.width());
        cs.rows = column.size();
        cs.bytes.assign(static_cast<const char*>(column.raw_data()),
                        column.raw_size_bytes());
        ds.columns.push_back(std::move(cs));
      }
    }
    for (const std::shared_ptr<const ClusteringView>& view : views) {
      snapshot::ClusteringState cl;
      cl.id = view->id;
      cl.description = view->description;
      cl.fingerprint = view->fingerprint;
      cl.num_clusters = view->num_clusters;
      cl.labels = view->labels;
      ds.clusterings.push_back(std::move(cl));
    }
    state.datasets.push_back(std::move(ds));
  }

  for (const std::shared_ptr<ServiceSession>& session : sessions) {
    snapshot::SessionState ss;
    ss.id = session->id();
    ss.dataset_name = session->dataset()->name();
    ss.dataset_uid = session->dataset()->uid();
    ss.total_epsilon = session->budget().total_epsilon();
    ss.spent = session->budget().spent_epsilon();
    // Exact comparison on purpose: recovery re-asserts the equality only
    // where it held at save (a closed session reusing the tenant id breaks
    // it legitimately — its charges stay in the audit totals).
    ss.audit_matches_ledger =
        audit_.TenantTotals(session->id()).epsilon_charged == ss.spent;
    ss.ledger = ToLedgerState(session->budget().ledger());
    state.sessions.push_back(std::move(ss));
  }

  for (auto& [key, payload] : cache_.Entries()) {
    state.cache.push_back(
        snapshot::CacheEntryState{std::move(key), std::move(payload)});
  }

  obs::AuditLog::State audit = audit_.SnapshotState();
  state.audit.next_seq = audit.next_seq;
  state.audit.dropped = audit.dropped;
  state.audit.global = ToTotalsState("", audit.global);
  for (const auto& [tenant, totals] : audit.tenants) {
    state.audit.tenants.push_back(ToTotalsState(tenant, totals));
  }
  for (const obs::AuditRecord& record : audit.tail) {
    state.audit.tail.push_back(ToRecordState(record));
  }
  return state;
}

Status ServiceEngine::ApplySnapshot(const snapshot::ServiceSnapshot& state,
                                    RestoreReport* report) {
  uint64_t max_uid = 0;
  for (const snapshot::DatasetState& ds : state.datasets) {
    DPX_ASSIGN_OR_RETURN(Schema schema, SchemaFromJson(ds.schema_json));
    if (ds.width_policy > static_cast<uint8_t>(WidthPolicy::kForce32)) {
      return Status::IoError("snapshot dataset '" + ds.name +
                             "' carries an unknown width policy");
    }
    const WidthPolicy policy = static_cast<WidthPolicy>(ds.width_policy);
    StatusOr<Dataset> dataset = Status::Internal("dataset not rebuilt");
    if (!ds.columnar_path.empty()) {
      // By-reference DPXCOL dataset: re-open the file and map exactly the
      // saved row prefix (the file may have grown since the save — those
      // appends belong to a later epoch than this snapshot).
      if (!ds.columns.empty()) {
        return Status::IoError("snapshot dataset '" + ds.name +
                               "' carries both inline columns and a "
                               "columnar file reference");
      }
      StatusOr<std::shared_ptr<const MappedColumnar>> mapped =
          MappedColumnar::Open(ds.columnar_path);
      if (!mapped.ok()) {
        return Status::IoError(
            "snapshot dataset '" + ds.name + "' references columnar file '" +
            ds.columnar_path + "': " + mapped.status().message());
      }
      if ((*mapped)->file_uid() != ds.columnar_file_uid) {
        return Status::IoError(
            "snapshot dataset '" + ds.name + "' expects columnar file uid " +
            std::to_string(ds.columnar_file_uid) + " but '" +
            ds.columnar_path + "' has uid " +
            std::to_string((*mapped)->file_uid()) +
            " — the file was replaced since the snapshot was saved");
      }
      dataset = Dataset::FromMapped(std::move(*mapped), ds.columnar_rows);
      if (dataset.ok() && SchemaToJson(dataset->schema()) != ds.schema_json) {
        return Status::IoError("snapshot dataset '" + ds.name +
                               "' schema does not match the columnar file's");
      }
    } else {
      std::vector<NarrowColumn> columns;
      columns.reserve(ds.columns.size());
      for (const snapshot::ColumnState& cs : ds.columns) {
        if (cs.width_tag > static_cast<uint8_t>(ColumnWidth::k32)) {
          return Status::IoError("snapshot dataset '" + ds.name +
                                 "' carries an unknown column width");
        }
        const ColumnWidth width = static_cast<ColumnWidth>(cs.width_tag);
        if (cs.bytes.size() != cs.rows * ColumnWidthBytes(width)) {
          return Status::IoError("snapshot dataset '" + ds.name +
                                 "' has a column whose byte count does not "
                                 "match its row count");
        }
        NarrowColumn column(width);
        column.AssignRaw(width, cs.bytes.data(), cs.bytes.size());
        columns.push_back(std::move(column));
      }
      dataset = Dataset::FromColumns(std::move(schema), policy,
                                     std::move(columns));
    }
    DPX_RETURN_IF_ERROR(dataset.status());
    auto entry = std::make_shared<DatasetEntry>(
        ds.name, ds.source, std::move(*dataset), ds.cap_epsilon, ds.uid);
    // Pinned like the uid: cached release keys embed (uid, epoch).
    entry->PinEpoch(ds.epoch);
    if (entry->cap() == nullptr && !ds.cap_ledger.empty()) {
      return Status::IoError("snapshot dataset '" + ds.name +
                             "' has cap charges but no cap");
    }
    for (const snapshot::LedgerEntryState& charge : ds.cap_ledger) {
      // Replaying the saved entries in order rebuilds the cap's spent total
      // through the same floating-point additions — bit-for-bit.
      const Status spent = entry->cap()->Spend(charge.epsilon, charge.label);
      if (!spent.ok()) {
        return Status::IoError("snapshot cap ledger for dataset '" + ds.name +
                               "' does not fit its cap: " + spent.message());
      }
    }
    for (const snapshot::ClusteringState& cl : ds.clusterings) {
      auto view = std::make_shared<ClusteringView>();
      view->id = cl.id;
      view->description = cl.description;
      view->fingerprint = cl.fingerprint;
      view->num_clusters = cl.num_clusters;
      view->labels = cl.labels;
      // The StatsCache is rebuilt, not stored: Build is deterministic and
      // bitwise-identical for the same (columns, labels).
      DPX_ASSIGN_OR_RETURN(
          StatsCache stats,
          StatsCache::Build(*entry->dataset(), view->labels,
                            view->num_clusters));
      view->stats = std::make_shared<const StatsCache>(std::move(stats));
      DPX_RETURN_IF_ERROR(entry->PutClustering(std::move(view)).status());
    }
    if (ds.uid > max_uid) max_uid = ds.uid;
    DPX_RETURN_IF_ERROR(registry_.RestoreEntry(std::move(entry)));
    ++report->datasets;
  }
  // Uids minted after the restore must not collide with pinned ones (release
  // cache keys embed them).
  if (max_uid > 0) DatasetEntry::BumpUidFloor(max_uid + 1);

  for (const snapshot::SessionState& ss : state.sessions) {
    DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                         registry_.Get(ss.dataset_name));
    if (entry->uid() != ss.dataset_uid) {
      return Status::IoError(
          "snapshot session '" + ss.id + "' names dataset uid " +
          std::to_string(ss.dataset_uid) + " but the restored dataset '" +
          ss.dataset_name + "' has uid " + std::to_string(entry->uid()));
    }
    DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                         sessions_.Create(ss.id, entry, ss.total_epsilon));
    for (const snapshot::LedgerEntryState& charge : ss.ledger) {
      const Status charged =
          session->RestoreCharge(charge.epsilon, charge.label);
      if (!charged.ok()) {
        return Status::IoError("snapshot ledger for session '" + ss.id +
                               "' does not fit its budget: " +
                               charged.message());
      }
    }
    if (session->budget().spent_epsilon() != ss.spent) {
      return Status::IoError("restored ledger for session '" + ss.id +
                             "' does not reproduce its saved spent total");
    }
    ++report->sessions;
  }

  for (const snapshot::CacheEntryState& entry : state.cache) {
    cache_.Put(entry.key, entry.payload);
    ++report->cache_entries;
  }

  obs::AuditLog::State audit;
  audit.next_seq = state.audit.next_seq;
  audit.dropped = state.audit.dropped;
  audit.global = ToTotals(state.audit.global);
  for (const snapshot::AuditTotalsState& totals : state.audit.tenants) {
    audit.tenants.emplace(totals.tenant, ToTotals(totals));
  }
  for (const snapshot::AuditRecordState& record : state.audit.tail) {
    audit.tail.push_back(ToAuditRecord(record));
  }
  audit_.RestoreState(std::move(audit));
  return Status::OK();
}

Status ServiceEngine::ReplayJournal(const std::string& journal_path,
                                    uint64_t cursor, RestoreReport* report) {
  StatusOr<std::vector<snapshot::AuditRecordState>> records =
      snapshot::ReadAuditJournal(journal_path);
  // No journal file yet is a fresh deployment, not a recovery failure.
  if (records.status().code() == StatusCode::kNotFound) return Status::OK();
  DPX_RETURN_IF_ERROR(records.status());

  uint64_t expected = cursor;
  for (const snapshot::AuditRecordState& record : *records) {
    if (record.seq < cursor) continue;  // already inside the snapshot
    if (record.seq != expected) {
      // A hole at or after the cursor means records were lost (truncation,
      // a dropped write): ledgers rebuilt across it would be wrong.
      return Status::FailedPrecondition(
          "audit journal has a gap: expected seq " + std::to_string(expected) +
          " after the snapshot cursor, found " + std::to_string(record.seq) +
          " — refusing to rebuild ledgers across missing charges");
    }
    ++expected;
    // RestoreRecord keeps the journaled seq and does not re-invoke the sink,
    // so replay never double-journals.
    audit_.RestoreRecord(ToAuditRecord(record));
    if (record.granted) {
      StatusOr<std::shared_ptr<ServiceSession>> session =
          sessions_.Get(record.tenant);
      if (session.ok()) {
        const Status charged =
            (*session)->RestoreCharge(record.epsilon, record.label);
        if (!charged.ok()) {
          return Status::FailedPrecondition(
              "journal replay overflows the ledger of session '" +
              record.tenant + "': " + charged.message());
        }
        if (PrivacyBudget* cap = (*session)->dataset()->cap()) {
          // Post-cursor charges are not in the saved cap ledger; re-apply
          // with the same label shape ServiceSession::Spend uses.
          DPX_RETURN_IF_ERROR(
              cap->Spend(record.epsilon, record.tenant + "/" + record.label));
        }
      } else {
        // The session was created after the snapshot: its ledger cannot be
        // rebuilt (session creation is not journaled), but the dataset cap
        // must never understate — charge it and report the tenant.
        StatusOr<std::shared_ptr<DatasetEntry>> entry =
            registry_.Get(record.dataset);
        if (entry.ok() && (*entry)->cap() != nullptr) {
          DPX_RETURN_IF_ERROR((*entry)->cap()->Spend(
              record.epsilon, record.tenant + "/" + record.label));
        }
        if (std::find(report->unrecovered_sessions.begin(),
                      report->unrecovered_sessions.end(),
                      record.tenant) == report->unrecovered_sessions.end()) {
          report->unrecovered_sessions.push_back(record.tenant);
        }
      }
    }
    journal_replayed_->Increment();
    ++report->replayed_records;
  }
  return Status::OK();
}

StatusOr<ServiceEngine::RestoreReport> ServiceEngine::RestoreFromFiles(
    const std::string& snapshot_path, const std::string& journal_path) {
  DPX_SPAN("snapshot_restore");
  if (registry_.size() != 0 || sessions_.size() != 0 ||
      audit_.next_seq() != 1 || cache_.size() != 0) {
    return Status::FailedPrecondition(
        "restore requires an empty engine (datasets, sessions, audit, and "
        "cache must all be untouched)");
  }
  StatusOr<snapshot::ServiceSnapshot> state =
      snapshot::LoadSnapshotFile(snapshot_path);
  if (state.status().code() == StatusCode::kNotFound) {
    // No snapshot. An absent/empty journal is a genuinely fresh start; a
    // non-empty journal holds charges whose session budgets and dataset
    // contents were never snapshotted — rebuilding ledgers from the journal
    // alone would silently undercount, so refuse loudly instead.
    if (!journal_path.empty()) {
      StatusOr<std::vector<snapshot::AuditRecordState>> journaled =
          snapshot::ReadAuditJournal(journal_path);
      if (journaled.ok() && !journaled->empty()) {
        return Status::FailedPrecondition(
            "no snapshot at '" + snapshot_path + "' but the audit journal '" +
            journal_path + "' holds " + std::to_string(journaled->size()) +
            " records: snapshot-less recovery cannot rebuild correct ledgers "
            "(session budgets and dataset contents are not journaled) — "
            "restore from a snapshot or archive the journal first");
      }
    }
    return state.status();
  }
  DPX_RETURN_IF_ERROR(state.status());

  RestoreReport report;
  report.format_version = state->format_version;
  DPX_RETURN_IF_ERROR(ApplySnapshot(*state, &report));
  if (!journal_path.empty()) {
    DPX_RETURN_IF_ERROR(
        ReplayJournal(journal_path, state->audit.next_seq, &report));
  }
  // Cross-check: where audit/ledger equality held at save it must hold now —
  // both sides restarted from the same saved doubles and replay applied the
  // same additions to both in the same order.
  for (const snapshot::SessionState& ss : state->sessions) {
    if (!ss.audit_matches_ledger) continue;
    DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                         sessions_.Get(ss.id));
    if (audit_.TenantTotals(ss.id).epsilon_charged !=
        session->budget().spent_epsilon()) {
      return Status::Internal("post-recovery audit/ledger mismatch for "
                              "session '" + ss.id +
                              "': the journal and snapshot disagree");
    }
  }
  snapshot_restores_->Increment();
  return report;
}

StatusOr<JsonValue> ServiceEngine::OpSaveSnapshot(const JsonValue& request,
                                                  const Deadline&) {
  DPX_RETURN_IF_ERROR(RefuseIfReadOnly("save_snapshot"));
  DPX_ASSIGN_OR_RETURN(const std::string path, request.GetString("path"));
  DPX_RETURN_IF_ERROR(SaveSnapshotToFile(path));
  JsonValue body = JsonValue::Object();
  body.Set("path", JsonValue::String(path));
  body.Set("format_version",
           JsonValue::Number(
               static_cast<double>(snapshot::kSnapshotFormatVersion)));
  body.Set("datasets",
           JsonValue::Number(static_cast<double>(registry_.size())));
  body.Set("sessions",
           JsonValue::Number(static_cast<double>(sessions_.size())));
  body.Set("cache_entries",
           JsonValue::Number(static_cast<double>(cache_.size())));
  body.Set("audit_next_seq",
           JsonValue::Number(static_cast<double>(audit_.next_seq())));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpLoadSnapshot(const JsonValue& request,
                                                  const Deadline&) {
  // Deliberately NOT refused on read-only workers: a restore is how a
  // respawned replica gets the primary's paid-for releases in the first
  // place (RestoreFromFiles itself requires the engine to be empty).
  DPX_ASSIGN_OR_RETURN(const std::string path, request.GetString("path"));
  DPX_ASSIGN_OR_RETURN(const std::string journal,
                       OptString(request, "journal", ""));
  DPX_ASSIGN_OR_RETURN(const RestoreReport report,
                       RestoreFromFiles(path, journal));
  JsonValue unrecovered = JsonValue::Array();
  for (const std::string& tenant : report.unrecovered_sessions) {
    unrecovered.Append(JsonValue::String(tenant));
  }
  JsonValue body = JsonValue::Object();
  body.Set("path", JsonValue::String(path));
  body.Set("format_version",
           JsonValue::Number(static_cast<double>(report.format_version)));
  body.Set("datasets",
           JsonValue::Number(static_cast<double>(report.datasets)));
  body.Set("sessions",
           JsonValue::Number(static_cast<double>(report.sessions)));
  body.Set("cache_entries",
           JsonValue::Number(static_cast<double>(report.cache_entries)));
  body.Set("replayed_records",
           JsonValue::Number(static_cast<double>(report.replayed_records)));
  body.Set("unrecovered_sessions", std::move(unrecovered));
  return body;
}

}  // namespace dpclustx::service
