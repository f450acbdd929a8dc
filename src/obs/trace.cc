#include "obs/trace.h"

#include <time.h>

#include <atomic>
#include <cstdio>
#include <mutex>

#include "common/logging.h"

namespace dpclustx::obs {
namespace {

// Active trace for this thread. SpanScope does one load of tls_current_span
// on construction; both stay null except inside a ScopedTraceActivation.
thread_local Trace* tls_trace = nullptr;
thread_local TraceSpan* tls_current_span = nullptr;

uint64_t ThreadCpuMicros() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
#else
  return 0;
#endif
}

uint64_t CeilOffsetMicros(std::chrono::steady_clock::duration d) {
  // Offsets (start_micros) round up too but may legitimately be 0 (a span
  // starting in the same microsecond as the root).
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  if (ns.count() <= 0) return 0;
  return static_cast<uint64_t>((ns.count() + 999) / 1000);
}

void AppendSpanText(const TraceSpan& span, int depth, std::string* out) {
  char line[160];
  if (span.wall_micros == 0) {
    std::snprintf(line, sizeof(line), "%*s%s  (open)\n", depth * 2, "",
                  span.name);
  } else {
    std::snprintf(line, sizeof(line),
                  "%*s%s  wall=%lluus cpu=%lluus start=+%lluus\n", depth * 2,
                  "", span.name,
                  static_cast<unsigned long long>(span.wall_micros),
                  static_cast<unsigned long long>(span.cpu_micros),
                  static_cast<unsigned long long>(span.start_micros));
  }
  out->append(line);
  for (const auto& child : span.children) {
    AppendSpanText(*child, depth + 1, out);
  }
}

// Fatal-flush hook: render the crashing thread's in-progress trace to
// stderr. Uses only the crashing thread's thread-locals, so it is safe to
// run while other threads are wedged.
void FlushActiveTraceOnFatal() {
  if (tls_trace == nullptr) return;
  std::string text = "--- active trace at fatal error ---\n";
  AppendSpanText(tls_trace->root(), 0, &text);
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fflush(stderr);
}

void InstallFatalHookOnce() {
  static std::once_flag once;
  std::call_once(once,
                 [] { RegisterFatalFlushHook(&FlushActiveTraceOnFatal); });
}

JsonValue SpanToJson(const TraceSpan& span) {
  JsonValue node = JsonValue::Object();
  node.Set("name", JsonValue::String(span.name));
  node.Set("start_micros",
           JsonValue::Number(static_cast<double>(span.start_micros)));
  node.Set("wall_micros",
           JsonValue::Number(static_cast<double>(span.wall_micros)));
  node.Set("cpu_micros",
           JsonValue::Number(static_cast<double>(span.cpu_micros)));
  JsonValue children = JsonValue::Array();
  for (const auto& child : span.children) {
    children.Append(SpanToJson(*child));
  }
  node.Set("children", std::move(children));
  return node;
}

}  // namespace

Trace::Trace(const char* root_name) {
  root_.name = root_name;
  wall_start_ = std::chrono::steady_clock::now();
  cpu_start_ = ThreadCpuMicros();
}

void Trace::Finish() {
  if (finished_) return;
  finished_ = true;
  root_.wall_micros =
      CeilMicros(std::chrono::steady_clock::now() - wall_start_);
  const uint64_t cpu_now = ThreadCpuMicros();
  root_.cpu_micros = cpu_now > cpu_start_ ? cpu_now - cpu_start_ : 0;
}

JsonValue Trace::ToJson() {
  Finish();
  return SpanToJson(root_);
}

ScopedTraceActivation::ScopedTraceActivation(Trace* trace)
    : previous_trace_(tls_trace), previous_span_(tls_current_span) {
  if (trace != nullptr) {
    InstallFatalHookOnce();
    tls_trace = trace;
    tls_current_span = &trace->root_;
  }
}

ScopedTraceActivation::~ScopedTraceActivation() {
  tls_trace = previous_trace_;
  tls_current_span = previous_span_;
}

SpanScope::SpanScope(const char* name) {
  TraceSpan* parent = tls_current_span;
  if (parent == nullptr) return;  // no trace active: stay a no-op
  auto child = std::make_unique<TraceSpan>();
  child->name = name;
  child->start_micros = CeilOffsetMicros(std::chrono::steady_clock::now() -
                                         tls_trace->wall_start_);
  span_ = child.get();
  parent_ = parent;
  parent->children.push_back(std::move(child));
  tls_current_span = span_;
  wall_start_ = std::chrono::steady_clock::now();
  cpu_start_ = ThreadCpuMicros();
}

SpanScope::~SpanScope() {
  if (span_ == nullptr) return;
  span_->wall_micros =
      CeilMicros(std::chrono::steady_clock::now() - wall_start_);
  const uint64_t cpu_now = ThreadCpuMicros();
  span_->cpu_micros = cpu_now > cpu_start_ ? cpu_now - cpu_start_ : 0;
  tls_current_span = parent_;
}

bool TracingActive() { return tls_current_span != nullptr; }

void AddPrerecordedSpan(Trace& trace, const char* name, uint64_t wall_micros) {
  auto child = std::make_unique<TraceSpan>();
  child->name = name;
  child->start_micros = 0;
  child->wall_micros = wall_micros == 0 ? 1 : wall_micros;
  child->cpu_micros = 0;
  trace.root_.children.push_back(std::move(child));
}

std::string RenderTraceText(const TraceSpan& span) {
  std::string out;
  AppendSpanText(span, 0, &out);
  return out;
}

uint64_t CeilMicros(std::chrono::steady_clock::duration d) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d);
  if (ns.count() <= 0) return 1;
  return static_cast<uint64_t>((ns.count() + 999) / 1000);
}

void TraceRing::Push(JsonValue record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

JsonValue TraceRing::ToJson(size_t limit) const {
  JsonValue traces = JsonValue::Array();
  size_t retained = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retained = records_.size();
    const size_t start =
        limit != 0 && retained > limit ? retained - limit : 0;
    for (size_t i = start; i < retained; ++i) traces.Append(records_[i]);
  }
  JsonValue body = JsonValue::Object();
  body.Set("traces", std::move(traces));
  body.Set("ring_capacity", JsonValue::Number(static_cast<double>(capacity_)));
  body.Set("retained", JsonValue::Number(static_cast<double>(retained)));
  body.Set("dropped", JsonValue::Number(static_cast<double>(dropped())));
  return body;
}

}  // namespace dpclustx::obs
