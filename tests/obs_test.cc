// Observability layer: metrics registry (sharded counters/gauges/latency
// histograms, Prometheus + JSON exposition), span tracing, the privacy-
// budget audit log, and build provenance. The concurrency tests are written
// to be meaningful under TSan (scripts/check.sh runs this binary in the
// DPCLUSTX_SANITIZE=thread configuration); the exposition tests are goldens
// — field names and formats are a stable surface.

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "dp/privacy_budget.h"
#include "gtest/gtest.h"
#include "obs/audit_log.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dpclustx::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics instruments

TEST(MetricsTest, CounterCountsAcrossShards) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("dpx_test_total", "help");
  EXPECT_EQ(counter->Value(), 0u);
  counter->Increment();
  counter->Increment(41);
  EXPECT_EQ(counter->Value(), 42u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* gauge = registry.RegisterGauge("dpx_test_gauge", "help");
  gauge->Set(7);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 4);
}

TEST(MetricsTest, RegistrationIsIdempotentPerNameAndLabels) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("dpx_requests_total", "help",
                                        {{"op", "explain"}});
  Counter* b = registry.RegisterCounter("dpx_requests_total", "help",
                                        {{"op", "explain"}});
  Counter* other = registry.RegisterCounter("dpx_requests_total", "help",
                                            {{"op", "ping"}});
  EXPECT_EQ(a, b) << "same (name, labels) must reuse the instrument";
  EXPECT_NE(a, other) << "different labels are a different instrument";
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
  EXPECT_EQ(other->Value(), 0u);
}

TEST(MetricsTest, HandlesStayStableAsRegistryGrows) {
  // Instruments live in deques: registering many more must not invalidate
  // earlier handles.
  MetricsRegistry registry;
  Counter* first = registry.RegisterCounter("dpx_first_total", "help");
  first->Increment();
  for (int i = 0; i < 200; ++i) {
    registry.RegisterCounter("dpx_filler_total", "help",
                             {{"i", std::to_string(i)}});
  }
  first->Increment();
  EXPECT_EQ(first->Value(), 2u);
}

TEST(MetricsTest, LatencyHistogramBucketsCountSumMax) {
  MetricsRegistry registry;
  LatencyHistogram* hist =
      registry.RegisterLatencyHistogram("dpx_latency_micros", "help");
  hist->Observe(10);       // <= 50 bucket
  hist->Observe(50);       // boundary: still the 50 bucket
  hist->Observe(51);       // 100 bucket
  hist->Observe(9000000);  // beyond the last bound: +Inf bucket
  EXPECT_EQ(hist->count(), 4u);
  EXPECT_EQ(hist->sum_micros(), 10u + 50u + 51u + 9000000u);
  EXPECT_EQ(hist->max_micros(), 9000000u);
  const auto buckets = hist->BucketCounts();
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[LatencyHistogram::kNumBuckets - 1], 1u);
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  // 8 writer threads (one per shard slot) hammering the same counter and
  // histogram must lose no updates; this is the TSan target for the sharded
  // hot path.
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("dpx_concurrent_total", "help");
  LatencyHistogram* hist =
      registry.RegisterLatencyHistogram("dpx_concurrent_micros", "help");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        hist->Observe(100);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->sum_micros(),
            static_cast<uint64_t>(kThreads) * kPerThread * 100u);
  EXPECT_EQ(hist->max_micros(), 100u);
}

TEST(MetricsTest, ConcurrentReadsDuringWritesAreClean) {
  // Exposition while writers are active: values race benignly (relaxed
  // atomics) but must be data-race-free and parseable.
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("dpx_rw_total", "help");
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) counter->Increment();
    });
  }
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(registry.PrometheusText().find("dpx_rw_total"),
              std::string::npos);
    (void)registry.ToJson();
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(counter->Value(), 20000u);
}

// ---------------------------------------------------------------------------
// Exposition goldens

TEST(MetricsTest, PrometheusTextGolden) {
  MetricsRegistry registry;
  Counter* requests = registry.RegisterCounter(
      "dpx_requests_total", "Requests by op", {{"op", "explain"}});
  requests->Increment(3);
  registry.RegisterCounter("dpx_requests_total", "Requests by op",
                           {{"op", "ping"}});
  Gauge* depth = registry.RegisterGauge("dpx_queue_depth", "Queued requests");
  depth->Set(5);
  LatencyHistogram* hist =
      registry.RegisterLatencyHistogram("dpx_latency_micros", "Latency");
  hist->Observe(40);
  hist->Observe(200);

  const std::string text = registry.PrometheusText();
  const std::string expected =
      "# HELP dpx_latency_micros Latency\n"
      "# TYPE dpx_latency_micros histogram\n"
      "dpx_latency_micros_bucket{le=\"50\"} 1\n"
      "dpx_latency_micros_bucket{le=\"100\"} 1\n"
      "dpx_latency_micros_bucket{le=\"250\"} 2\n"
      "dpx_latency_micros_bucket{le=\"500\"} 2\n"
      "dpx_latency_micros_bucket{le=\"1000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"2500\"} 2\n"
      "dpx_latency_micros_bucket{le=\"5000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"10000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"25000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"50000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"100000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"250000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"1000000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"4000000\"} 2\n"
      "dpx_latency_micros_bucket{le=\"+Inf\"} 2\n"
      "dpx_latency_micros_sum 240\n"
      "dpx_latency_micros_count 2\n"
      "# HELP dpx_queue_depth Queued requests\n"
      "# TYPE dpx_queue_depth gauge\n"
      "dpx_queue_depth 5\n"
      "# HELP dpx_requests_total Requests by op\n"
      "# TYPE dpx_requests_total counter\n"
      "dpx_requests_total{op=\"explain\"} 3\n"
      "dpx_requests_total{op=\"ping\"} 0\n"
      "# HELP dpx_latency_micros_max_micros Largest single observation of "
      "dpx_latency_micros\n"
      "# TYPE dpx_latency_micros_max_micros gauge\n"
      "dpx_latency_micros_max_micros 200\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsTest, CallbackGaugeClampsNonFiniteValues) {
  MetricsRegistry registry;
  registry.AddCallbackGauge("dpx_notfinite_a", "help", {}, [] {
    return std::numeric_limits<double>::quiet_NaN();
  });
  registry.AddCallbackGauge("dpx_notfinite_b", "help", {}, [] {
    return std::numeric_limits<double>::infinity();
  });
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("dpx_notfinite_a 0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("dpx_notfinite_b 0\n"), std::string::npos) << text;
  // The JSON side must survive the service gate: Dump never emits NaN/Inf.
  const std::string json = registry.ToJson().Dump();
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

TEST(MetricsTest, RemovedCallbackDisappearsFromExposition) {
  MetricsRegistry registry;
  const uint64_t id =
      registry.AddCallbackGauge("dpx_temp_gauge", "help", {}, [] {
        return 1.0;
      });
  EXPECT_NE(registry.PrometheusText().find("dpx_temp_gauge"),
            std::string::npos);
  registry.RemoveCallback(id);
  EXPECT_EQ(registry.PrometheusText().find("dpx_temp_gauge"),
            std::string::npos);
}

TEST(MetricsTest, ToJsonSchema) {
  MetricsRegistry registry;
  registry.RegisterCounter("dpx_c_total", "help")->Increment(2);
  registry.RegisterGauge("dpx_g", "help")->Set(-7);
  registry.RegisterLatencyHistogram("dpx_h_micros", "help")->Observe(60);
  const JsonValue json = registry.ToJson();
  EXPECT_EQ(json.at("counters").at("dpx_c_total").AsNumber(), 2.0);
  EXPECT_EQ(json.at("gauges").at("dpx_g").AsNumber(), -7.0);
  const JsonValue& hist = json.at("histograms").at("dpx_h_micros");
  EXPECT_EQ(hist.at("count").AsNumber(), 1.0);
  EXPECT_EQ(hist.at("sum_micros").AsNumber(), 60.0);
  EXPECT_EQ(hist.at("max_micros").AsNumber(), 60.0);
  EXPECT_EQ(hist.at("bounds_micros").size(),
            LatencyHistogram::kBucketBoundsMicros.size());
  EXPECT_EQ(hist.at("buckets").size(), LatencyHistogram::kNumBuckets);
}

// ---------------------------------------------------------------------------
// Span tracing

const TraceSpan* FindSpan(const TraceSpan& root, const std::string& name) {
  if (root.name == name) return &root;
  for (const auto& child : root.children) {
    if (const TraceSpan* found = FindSpan(*child, name)) return found;
  }
  return nullptr;
}

TEST(TraceTest, SpansAreNoOpsWithoutActivation) {
  EXPECT_FALSE(TracingActive());
  { DPX_SPAN("orphan"); }
  EXPECT_FALSE(TracingActive());
}

TEST(TraceTest, RecordsNestedSpanTree) {
  Trace trace("request");
  {
    ScopedTraceActivation activate(&trace);
    ASSERT_TRUE(TracingActive());
    {
      DPX_SPAN("outer");
      { DPX_SPAN("inner"); }
    }
    { DPX_SPAN("sibling"); }
  }
  EXPECT_FALSE(TracingActive());
  trace.Finish();

  const TraceSpan& root = trace.root();
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_STREQ(root.children[0]->name, "outer");
  EXPECT_STREQ(root.children[1]->name, "sibling");
  ASSERT_EQ(root.children[0]->children.size(), 1u);
  EXPECT_STREQ(root.children[0]->children[0]->name, "inner");
  // Closed spans report >= 1 µs wall time ("ran" is distinguishable from
  // "skipped"), and the root covers its children.
  EXPECT_GE(root.children[0]->wall_micros, 1u);
  EXPECT_GE(root.children[0]->children[0]->wall_micros, 1u);
  EXPECT_GE(root.wall_micros, root.children[0]->wall_micros);
}

TEST(TraceTest, NullActivationLeavesTracingOff) {
  ScopedTraceActivation activate(nullptr);
  EXPECT_FALSE(TracingActive());
  { DPX_SPAN("untraced"); }
}

TEST(TraceTest, OtherThreadsDoNotRecordIntoAnActiveTrace) {
  Trace trace("request");
  ScopedTraceActivation activate(&trace);
  std::thread other([] {
    EXPECT_FALSE(TracingActive());
    { DPX_SPAN("pool_work"); }
  });
  other.join();
  { DPX_SPAN("local_work"); }
  trace.Finish();
  EXPECT_EQ(FindSpan(trace.root(), "pool_work"), nullptr);
  EXPECT_NE(FindSpan(trace.root(), "local_work"), nullptr);
}

TEST(TraceTest, ToJsonGoldenFieldNames) {
  Trace trace("request");
  {
    ScopedTraceActivation activate(&trace);
    { DPX_SPAN("stage"); }
  }
  AddPrerecordedSpan(trace, "parse", 12);
  JsonValue json = trace.ToJson();
  EXPECT_EQ(json.at("name").AsString(), "request");
  ASSERT_TRUE(json.Has("start_micros"));
  ASSERT_TRUE(json.Has("wall_micros"));
  ASSERT_TRUE(json.Has("cpu_micros"));
  ASSERT_EQ(json.at("children").size(), 2u);
  EXPECT_EQ(json.at("children").at(0).at("name").AsString(), "stage");
  EXPECT_EQ(json.at("children").at(1).at("name").AsString(), "parse");
  EXPECT_EQ(json.at("children").at(1).at("wall_micros").AsNumber(), 12.0);
  // Integers only — the serialized tree passes the service JSON gate.
  const std::string dump = json.Dump();
  EXPECT_EQ(dump.find("nan"), std::string::npos) << dump;
  EXPECT_EQ(dump.find("inf"), std::string::npos) << dump;
}

TEST(TraceTest, RenderTraceTextShowsTimingsAndNesting) {
  Trace trace("request");
  {
    ScopedTraceActivation activate(&trace);
    { DPX_SPAN("stage"); }
  }
  trace.Finish();
  const std::string text = RenderTraceText(trace.root());
  EXPECT_NE(text.find("request"), std::string::npos) << text;
  EXPECT_NE(text.find("stage"), std::string::npos) << text;
  EXPECT_NE(text.find("wall="), std::string::npos) << text;
  EXPECT_NE(text.find("cpu="), std::string::npos) << text;
}

TEST(TraceTest, PipelineTraceCoversAllStages) {
  // Acceptance: one traced pipeline run yields spans for clustering fit,
  // StatsCache build, Stage-1, and Stage-2, all with non-zero wall time.
  const StatusOr<Dataset> dataset = synth::Generate(synth::DiabetesLike(400));
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  PipelineOptions options;
  options.clustering.num_clusters = 3;
  options.explain.num_candidates = 2;

  Trace trace("pipeline");
  {
    ScopedTraceActivation activate(&trace);
    const StatusOr<PipelineResult> result = RunPipeline(*dataset, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  trace.Finish();

  for (const char* stage :
       {"clustering_fit", "assign_all", "stats_cache_build",
        "stage1_candidates", "stage2_select", "stage2_histograms"}) {
    const TraceSpan* span = FindSpan(trace.root(), stage);
    ASSERT_NE(span, nullptr) << "missing span '" << stage << "' in\n"
                             << RenderTraceText(trace.root());
    EXPECT_GE(span->wall_micros, 1u) << stage;
  }
}

// ---------------------------------------------------------------------------
// Audit log

TEST(AuditLogTest, SequenceNumbersAreMonotonicFromOne) {
  AuditLog log;
  EXPECT_EQ(log.next_seq(), 1u);
  EXPECT_EQ(*log.Record("t1", "d", "explain", 0.5, true), 1u);
  EXPECT_EQ(*log.Record("t1", "d", "explain", 0.5, false, "session budget"),
            2u);
  EXPECT_EQ(log.next_seq(), 3u);
}

TEST(AuditLogTest, ASinkErrorComesOutOfRecordAndTheRecordTakesNoSeq) {
  AuditLog log;
  bool refuse = true;
  log.set_sink([&refuse](const AuditRecord&) {
    return refuse ? Status::IoError("journal write failed") : Status::OK();
  });
  const StatusOr<uint64_t> recorded =
      log.Record("t1", "d", "explain", 0.5, true);
  EXPECT_EQ(recorded.status().code(), StatusCode::kIoError);
  // The refused record is not in the log, so the journal behind the sink
  // never has a gap; the caller's ledger keeps the charge (it may
  // overstate, never understate).
  EXPECT_EQ(log.TenantTotals("t1").epsilon_charged, 0.0);
  EXPECT_TRUE(log.Tail().empty());
  EXPECT_EQ(log.next_seq(), 1u);
  refuse = false;
  EXPECT_EQ(*log.Record("t1", "d", "explain", 0.25, true), 1u);
  EXPECT_EQ(log.TenantTotals("t1").epsilon_charged, 0.25);
}

TEST(AuditLogTest, TotalsSeparateChargesFromDenials) {
  AuditLog log;
  log.Record("t1", "d", "explain", 0.25, true);
  log.Record("t1", "d", "explain", 0.25, true);
  log.Record("t1", "d", "hist", 1.0, false, "session budget");
  log.Record("t2", "d", "explain", 0.5, true);

  const AuditLog::Totals t1 = log.TenantTotals("t1");
  EXPECT_DOUBLE_EQ(t1.epsilon_charged, 0.5);
  EXPECT_DOUBLE_EQ(t1.epsilon_denied, 1.0);
  EXPECT_EQ(t1.charges, 2u);
  EXPECT_EQ(t1.denials, 1u);

  const AuditLog::Totals global = log.GlobalTotals();
  EXPECT_DOUBLE_EQ(global.epsilon_charged, 1.0);
  EXPECT_EQ(global.charges, 3u);
  EXPECT_EQ(global.denials, 1u);

  const AuditLog::Totals unknown = log.TenantTotals("nobody");
  EXPECT_EQ(unknown.charges, 0u);
  EXPECT_DOUBLE_EQ(unknown.epsilon_charged, 0.0);
}

TEST(AuditLogTest, BoundedBufferDropsOldestButKeepsTotals) {
  AuditLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Record("t", "d", "explain", 1.0, true);
  }
  EXPECT_EQ(log.dropped(), 2u);
  const std::vector<AuditRecord> tail = log.Tail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, 3u);  // oldest retained
  EXPECT_EQ(tail.back().seq, 5u);
  EXPECT_DOUBLE_EQ(log.GlobalTotals().epsilon_charged, 5.0);
  EXPECT_EQ(log.Tail(/*limit=*/1).size(), 1u);
}

TEST(AuditLogTest, ToJsonGoldenFieldNames) {
  AuditLog log;
  log.Record("t1", "d", "explain", 0.5, true);
  log.Record("t1", "d", "explain", 2.0, false, "session budget");
  const JsonValue json = log.ToJson();
  EXPECT_EQ(json.at("next_seq").AsNumber(), 3.0);
  EXPECT_EQ(json.at("dropped").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(json.at("global").at("epsilon_charged").AsNumber(), 0.5);
  EXPECT_DOUBLE_EQ(json.at("totals").at("t1").at("epsilon_denied").AsNumber(),
                   2.0);
  ASSERT_EQ(json.at("records").size(), 2u);
  const JsonValue& denied = json.at("records").at(1);
  EXPECT_EQ(denied.at("seq").AsNumber(), 2.0);
  EXPECT_EQ(denied.at("tenant").AsString(), "t1");
  EXPECT_EQ(denied.at("dataset").AsString(), "d");
  EXPECT_EQ(denied.at("label").AsString(), "explain");
  EXPECT_FALSE(denied.at("granted").AsBool());
  EXPECT_EQ(denied.at("reason").AsString(), "session budget");
}

TEST(AuditLogTest, ConcurrentRecordsAssignUniqueSequenceNumbers) {
  AuditLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string tenant = "t" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(tenant, "d", "explain", 0.001, true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(log.next_seq(),
            static_cast<uint64_t>(kThreads) * kPerThread + 1);
  EXPECT_EQ(log.GlobalTotals().charges,
            static_cast<uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(log.TenantTotals("t" + std::to_string(t)).charges,
              static_cast<uint64_t>(kPerThread));
  }
}

// ---------------------------------------------------------------------------
// Build provenance

TEST(BuildInfoTest, FieldsArePopulated) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.compiler.empty());
}

TEST(BuildInfoTest, JsonCarriesRuntimeParallelism) {
  const JsonValue json = BuildInfoJson();
  EXPECT_TRUE(json.Has("git_sha"));
  EXPECT_TRUE(json.Has("compiler"));
  EXPECT_TRUE(json.Has("flags"));
  EXPECT_TRUE(json.Has("build_type"));
  EXPECT_TRUE(json.Has("dpclustx_threads_env"));
  EXPECT_GE(json.at("compute_pool_width").AsNumber(), 1.0);
}

TEST(BuildInfoTest, VersionLineNamesTheBinaryAndSha) {
  const std::string line = BuildInfoVersionLine();
  EXPECT_EQ(line.rfind("dpclustx ", 0), 0u) << line;
  EXPECT_NE(line.find(GetBuildInfo().git_sha), std::string::npos) << line;
}

}  // namespace
}  // namespace dpclustx::obs
