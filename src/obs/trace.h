// Per-request span tracing for the explanation pipeline.
//
// A Trace is a tree of timed spans buffered in memory for one request (or
// one CLI run). Instrumented code marks scopes with DPX_SPAN("name"); the
// macro is an RAII object that does nothing — one thread-local load and a
// branch — unless a Trace is active on the current thread, so leaving the
// instrumentation compiled in costs nothing on untraced requests.
//
// Threading model: a Trace is single-threaded — it records spans only from
// the thread that activated it (ScopedTraceActivation). Work that fans out
// to the compute pool (ParallelFor shards) is attributed to the calling
// thread's enclosing span, which always participates in the region; pool
// threads see no active trace and record nothing. This keeps the hot path
// free of synchronization and the tree well-formed by construction.
//
// Timings: wall time from steady_clock and per-thread CPU time
// (CLOCK_THREAD_CPUTIME_ID), both in microseconds, rounded UP so a span
// that ran at all reports >= 1 µs of wall time ("ran" is distinguishable
// from "skipped" even for sub-microsecond stages).
//
// DP-safety boundary: span names are compile-time string constants, and a
// span carries nothing else but timings — never attribute values, labels,
// counts, or any function of the sensitive data (see DESIGN.md §10).
//
// Crash flushing: the first trace activation registers a fatal-flush hook
// (common/logging.h) that renders the crashing thread's in-progress trace
// to stderr before std::abort, so a DPX_CHECK failure leaves a usable last
// trace.

#ifndef DPCLUSTX_OBS_TRACE_H_
#define DPCLUSTX_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace dpclustx::obs {

struct TraceSpan {
  /// Static string — spans never carry runtime data (see file comment).
  const char* name = "";
  /// Offset of this span's start from the trace root's start, µs.
  uint64_t start_micros = 0;
  /// 0 while the span is still open.
  uint64_t wall_micros = 0;
  uint64_t cpu_micros = 0;
  std::vector<std::unique_ptr<TraceSpan>> children;
};

class Trace {
 public:
  explicit Trace(const char* root_name);
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Closes the root span's timings. Idempotent; ToJson calls it.
  void Finish();

  const TraceSpan& root() const { return root_; }

  /// {"name","start_micros","wall_micros","cpu_micros","children":[...]}
  /// recursively — stable field names, integers only (golden-tested).
  JsonValue ToJson();

 private:
  friend class ScopedTraceActivation;
  friend class SpanScope;
  friend void AddPrerecordedSpan(Trace&, const char*, uint64_t);

  TraceSpan root_;
  std::chrono::steady_clock::time_point wall_start_;
  uint64_t cpu_start_ = 0;
  bool finished_ = false;
};

/// Installs `trace` as the calling thread's active trace for the scope's
/// lifetime (nullptr = leave tracing off: callers can make tracing
/// conditional without duplicating the code path). Restores the previous
/// activation on destruction, so activations nest.
class ScopedTraceActivation {
 public:
  explicit ScopedTraceActivation(Trace* trace);
  ~ScopedTraceActivation();
  ScopedTraceActivation(const ScopedTraceActivation&) = delete;
  ScopedTraceActivation& operator=(const ScopedTraceActivation&) = delete;

 private:
  Trace* previous_trace_;
  TraceSpan* previous_span_;
};

/// RAII span. Near-free when no trace is active on this thread.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  TraceSpan* span_ = nullptr;    // nullptr = inactive
  TraceSpan* parent_ = nullptr;  // restore target
  std::chrono::steady_clock::time_point wall_start_;
  uint64_t cpu_start_ = 0;
};

/// True when DPX_SPAN would record on this thread.
bool TracingActive();

/// Appends a pre-measured child to the root — for work that finished
/// before the trace could be constructed (e.g. request parsing, which must
/// happen before the "trace" flag is readable).
void AddPrerecordedSpan(Trace& trace, const char* name, uint64_t wall_micros);

/// A steady_clock duration in whole microseconds, rounded UP with a floor
/// of 1 — the convention every closed span follows ("ran" is never 0 µs).
uint64_t CeilMicros(std::chrono::steady_clock::duration d);

/// Bounded drop-oldest ring of finished trace records — one per process
/// role, served by the engine's and the router's `trace` ops. Evictions
/// are counted, never silent. Thread-safe.
class TraceRing {
 public:
  explicit TraceRing(size_t capacity) : capacity_(capacity) {}

  void Push(JsonValue record);

  /// {"traces": the newest `limit` records (0 = all), oldest first,
  ///  "ring_capacity", "retained", "dropped"}.
  JsonValue ToJson(size_t limit) const;

  /// Records evicted so far; lock-free, for exposition-time gauges.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<JsonValue> records_;  // guarded by mutex_
  std::atomic<uint64_t> dropped_{0};
};

/// Indented human-readable rendering ("name  wall=12µs cpu=9µs"); open
/// spans render as "(open)". Used by dpclustx_cli --trace and the crash
/// flush hook.
std::string RenderTraceText(const TraceSpan& span);

#define DPX_OBS_CONCAT_INNER(a, b) a##b
#define DPX_OBS_CONCAT(a, b) DPX_OBS_CONCAT_INNER(a, b)
/// Marks the enclosing scope as a traced span. `name` must be a string
/// literal (it is stored by pointer and may outlive the scope).
#define DPX_SPAN(name) \
  ::dpclustx::obs::SpanScope DPX_OBS_CONCAT(dpx_span_, __LINE__)(name)

}  // namespace dpclustx::obs

#endif  // DPCLUSTX_OBS_TRACE_H_
