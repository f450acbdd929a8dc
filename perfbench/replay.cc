// The traced replay: the workload's setup and request stream run once,
// serially, in this process against a ServiceEngine configured like a
// shard worker (dpclustx_serve defaults, audit journal on). Every call into
// a layer's public functions is wrapped in a span; spans stay in memory
// and are written out at the end.
//
// Calls whose internals the engine does not expose (DatasetEntry::
// AppendRows, ExplainDpClustXWithStats) are re-composed here from the same
// public steps, each in its own span, and checked against the library's
// own result so the decomposition cannot drift from what the engine runs.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "cluster/kmeans.h"
#include "cluster/kmodes.h"
#include "core/candidate_selection.h"
#include "core/explainer.h"
#include "core/serialization.h"
#include "data/columnar_format.h"
#include "dp/dp_histogram.h"
#include "service/json_relay.h"
#include "service/router_core.h"
#include "service/service_engine.h"

namespace perfbench {

/// In-memory span recorder for the traced replay: name, start, end, parent
/// and request id per span; self time = duration minus the children's.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Renames the span (an op's hit/miss split is known only afterwards).
    void Rename(const char* name);

   private:
    Tracer& tracer_;
    size_t index_;
  };

  void set_request(uint64_t request) { request_ = request; }
  /// Records a span measured elsewhere (another thread) with no parent.
  void AddDetached(const char* name, Clock::time_point start,
                   Clock::time_point end);

  /// Self time in µs of every span, grouped by name.
  std::map<std::string, std::vector<double>> SelfMicros() const;
  /// Writes every span as one JSON line to `path`.
  Status WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent = -1;
    uint64_t request = 0;
  };
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t request_ = 0;
};

namespace {

using dpclustx::AttrIndex;
using dpclustx::ClusterId;
using dpclustx::GlobalExplanation;
using dpclustx::StatsCache;
using dpclustx::service::ServiceEngine;
using Request = RequestStream::Request;

/// Spans on the request path report their share of the client p50; spans
/// of setup report their share of setup_s.
constexpr const char* kRequestSpans[] = {
    "json.request_parse",  "router_core.classify", "engine.explain_miss",
    "engine.explain_hit",  "engine.hist_miss",     "engine.hist_hit",
    "engine.budget",       "engine.append_rows",   "engine.async",
    "json_relay.splice",   "json.payload_parse",   "json.payload_dump",
    "session.spend",       "explain.compute",      "stage1.select",
    "stage2.tables",       "stage2.search",        "stage2.hist",
    "explain.serialize",   "hist.release",         "registry.append",
    "data.tail_rows",      "columnar.append",      "cluster.assign_tail",
    "stats.build_appended"};
constexpr const char* kSetupSpans[] = {"data.generate", "cluster.fit",
                                       "cluster.assign_all", "stats.build",
                                       "snapshot.save"};

/// The staged replica of one ingest table's append path.
struct Twin {
  std::shared_ptr<const dpclustx::MappedColumnar> mapped;
  std::shared_ptr<const StatsCache> stats;
  std::shared_ptr<const dpclustx::ClusteringFunction> model;
};

bool SameStats(const StatsCache& a, const StatsCache& b) {
  if (a.num_rows() != b.num_rows() || a.num_clusters() != b.num_clusters() ||
      a.num_attributes() != b.num_attributes()) {
    return false;
  }
  for (size_t attr = 0; attr < a.num_attributes(); ++attr) {
    const auto at = static_cast<AttrIndex>(attr);
    if (a.full_histogram(at).bins() != b.full_histogram(at).bins()) {
      return false;
    }
    for (size_t c = 0; c < a.num_clusters(); ++c) {
      const auto cl = static_cast<ClusterId>(c);
      if (a.cluster_histogram(cl, at).bins() !=
          b.cluster_histogram(cl, at).bins()) {
        return false;
      }
    }
  }
  return true;
}

class Replay {
 public:
  Replay(const RunConfig& config, const Workload& workload)
      : config_(config),
        workload_(workload),
        dir_(config.state_dir + "/replay"),
        engine_(dpclustx::service::ServiceEngineOptions{}),
        router_({"shard-0", "shard-1"}, 64) {}

  void Run(RunReport* report);

 private:
  void SetUpTables();
  JsonValue Handle(const Request& request);
  void StagedExplain(const Request& request, const JsonValue& parsed);
  void StagedHistRelease(const Request& request, const JsonValue& parsed);
  void StagedAppend(const Request& request);
  void AsyncPhase(std::vector<std::unique_ptr<RequestStream>>& streams);
  std::shared_ptr<const dpclustx::service::ClusteringView> View(size_t d);

  const RunConfig& config_;
  const Workload& workload_;
  const std::string dir_;
  ServiceEngine engine_;
  dpclustx::service::RouterCore router_;
  Tracer tracer_;
  std::vector<TableData> tables_;
  std::vector<std::vector<std::string>> attributes_;
  std::map<size_t, Twin> twins_;
  std::shared_ptr<dpclustx::service::ServiceSession> spend_probe_;
  uint64_t request_ = 0;
  uint64_t noise_seed_ = 1;
  size_t spliced_ = 0;
  size_t relayed_ = 0;
  std::vector<double> combinations_;
  std::vector<std::string> problems_;
};

std::shared_ptr<const dpclustx::service::ClusteringView> Replay::View(
    size_t d) {
  auto entry = engine_.registry().Get(workload_.datasets[d].name);
  if (!entry.ok()) Fail("replay: " + entry.status().ToString());
  auto view = (*entry)->GetClustering("default");
  if (!view.ok()) Fail("replay: " + view.status().ToString());
  return *view;
}

void Replay::SetUpTables() {
  tables_.resize(workload_.datasets.size());
  attributes_.resize(workload_.datasets.size());
  for (size_t d = 0; d < workload_.datasets.size(); ++d) {
    const DatasetSpec& spec = workload_.datasets[d];
    {
      Tracer::Scope span(tracer_, "data.generate");
      StatusOr<TableData> table = GenerateTable(spec);
      if (!table.ok()) Fail("replay generate: " + table.status().ToString());
      tables_[d] = std::move(table).value();
    }
    StatusOr<std::shared_ptr<dpclustx::service::DatasetEntry>> entry =
        Status::Internal("unset");
    if (spec.dpxcol) {
      const std::string path = dir_ + "/" + spec.name + ".dpxcol";
      dpclustx::ColumnarWriteOptions options;
      options.capacity_rows = spec.rows + 400000;
      const Status written =
          dpclustx::WriteColumnarFile(tables_[d].base, path, options);
      if (!written.ok()) Fail("replay dpxcol: " + written.ToString());
      std::filesystem::copy_file(path, path + ".twin");
      entry = engine_.registry().RegisterColumnar(spec.name, path, 0.0);
    } else {
      entry = engine_.registry().Register(
          spec.name,
          "synthetic generator=" + spec.generator +
              " rows=" + std::to_string(spec.rows) +
              " seed=" + std::to_string(spec.data_seed),
          tables_[d].base, 0.0);
    }
    if (!entry.ok()) Fail("replay register: " + entry.status().ToString());
    const std::shared_ptr<const dpclustx::Dataset> dataset =
        (*entry)->dataset();

    StatusOr<std::unique_ptr<dpclustx::ClusteringFunction>> model =
        Status::Internal("unset");
    {
      Tracer::Scope span(tracer_, "cluster.fit");
      if (spec.method == "k-means") {
        dpclustx::KMeansOptions options;
        options.num_clusters = spec.k;
        options.seed = spec.cluster_seed;
        model = dpclustx::FitKMeans(*dataset, options);
      } else {
        dpclustx::KModesOptions options;
        options.num_clusters = spec.k;
        options.seed = spec.cluster_seed;
        model = dpclustx::FitKModes(*dataset, options);
      }
    }
    if (!model.ok()) Fail("replay fit: " + model.status().ToString());
    auto view = std::make_shared<dpclustx::service::ClusteringView>();
    view->id = "default";
    view->description = (*model)->name();
    view->fingerprint = "method=" + spec.method + " k=" +
                        std::to_string(spec.k) + " seed=" +
                        std::to_string(spec.cluster_seed) + " eps=0";
    view->num_clusters = (*model)->num_clusters();
    {
      Tracer::Scope span(tracer_, "cluster.assign_all");
      view->labels = (*model)->AssignAll(*dataset);
    }
    {
      Tracer::Scope span(tracer_, "stats.build");
      StatusOr<StatsCache> stats =
          StatsCache::Build(*dataset, view->labels, view->num_clusters);
      if (!stats.ok()) Fail("replay stats: " + stats.status().ToString());
      view->stats = std::make_shared<const StatsCache>(std::move(*stats));
    }
    view->model = std::shared_ptr<const dpclustx::ClusteringFunction>(
        std::move(*model));
    if (spec.dpxcol) {
      StatusOr<std::shared_ptr<const dpclustx::MappedColumnar>> twin =
          dpclustx::MappedColumnar::Open(dir_ + "/" + spec.name +
                                         ".dpxcol.twin");
      if (!twin.ok()) Fail("replay twin: " + twin.status().ToString());
      twins_[d] = Twin{*twin, view->stats, view->model};
    }
    const auto published = (*entry)->PutClustering(view);
    if (!published.ok()) Fail("replay view: " + published.status().ToString());
    for (const auto& attr : dataset->schema().attributes()) {
      attributes_[d].push_back(attr.name());
    }
  }
}

JsonValue Replay::Handle(const Request& request) {
  tracer_.set_request(++request_);
  StatusOr<JsonValue> parsed = Status::Internal("unset");
  {
    Tracer::Scope span(tracer_, "json.request_parse");
    parsed = JsonValue::Parse(request.line);
  }
  if (!parsed.ok()) Fail("replay parse: " + parsed.status().ToString());
  {
    Tracer::Scope span(tracer_, "router_core.classify");
    const auto decision = router_.Classify(*parsed);
    if (!decision.ok()) Fail("replay classify: " + decision.status().ToString());
  }
  std::string line;
  {
    Tracer::Scope span(tracer_, "engine.request");
    line = engine_.Handle(request.line);
    // The hit/miss split is known once the response is in.
    const bool hit = line.find("\"cache_hit\":true") != std::string::npos;
    if (request.op == "explain") {
      span.Rename(hit ? "engine.explain_hit" : "engine.explain_miss");
    } else if (request.op == "hist") {
      span.Rename(hit ? "engine.hist_hit" : "engine.hist_miss");
    } else if (request.op == "budget") {
      span.Rename("engine.budget");
    } else if (request.op == "append_rows") {
      span.Rename("engine.append_rows");
    }
  }
  {
    // The router's relay: splice the client id into the worker line, or
    // fall back to a full parse when the scanner refuses the line.
    Tracer::Scope span(tracer_, "json_relay.splice");
    ++relayed_;
    StatusOr<dpclustx::service::RelayScan> scan =
        dpclustx::service::ScanTopLevelId(line);
    if (scan.ok()) {
      ++spliced_;
      const std::string out =
          dpclustx::service::SpliceId(line, *scan, "\"client-7\"");
      if (out.size() < line.size()) Fail("replay splice shrank a line");
    } else {
      StatusOr<JsonValue> full = JsonValue::Parse(line);
      if (full.ok()) {
        full->Set("id", JsonValue::String("client-7"));
        (void)full->Dump();
      }
    }
  }
  StatusOr<JsonValue> response = JsonValue::Parse(line);
  if (!response.ok() || !response->at("ok").AsBool()) {
    Fail("replay request failed: " + request.line.substr(0, 160) + " -> " +
         line.substr(0, 300));
  }
  if (request.op == "explain" || request.op == "hist") {
    JsonValue payload;
    {
      Tracer::Scope span(tracer_, "json.payload_parse");
      payload = JsonValue::Parse(line).value();
    }
    {
      Tracer::Scope span(tracer_, "json.payload_dump");
      if (payload.Dump().empty()) Fail("replay empty dump");
    }
    if (!response->at("cache_hit").AsBool()) {
      if (request.op == "explain") {
        StagedExplain(request, *parsed);
      } else {
        StagedHistRelease(request, *parsed);
      }
    }
  }
  if (request.op == "append_rows") StagedAppend(request);
  if (response->Has("epsilon_charged") &&
      response->at("epsilon_charged").AsNumber() > 0.0) {
    Tracer::Scope span(tracer_, "session.spend");
    const Status spent = spend_probe_->Spend(1e-6, "replay spend probe");
    if (!spent.ok()) Fail("replay spend: " + spent.ToString());
  }
  return std::move(response).value();
}

void Replay::StagedExplain(const Request& request, const JsonValue& parsed) {
  const auto view = View(request.dataset);
  const StatsCache& stats = *view->stats;
  const double epsilon = parsed.at("epsilon").AsNumber();
  dpclustx::DpClustXOptions options;
  options.epsilon_cand_set = epsilon / 3.0;
  options.epsilon_top_comb = epsilon / 3.0;
  options.epsilon_hist = epsilon / 3.0;
  options.num_candidates =
      workload_.num_candidates > 0 ? workload_.num_candidates : 3;
  options.seed = ++noise_seed_;

  GlobalExplanation explanation;
  {
    Tracer::Scope compute(tracer_, "explain.compute");
    dpclustx::Rng rng(options.seed);
    std::vector<std::vector<AttrIndex>> candidates;
    {
      Tracer::Scope span(tracer_, "stage1.select");
      dpclustx::CandidateSelectionOptions stage1;
      stage1.epsilon = options.epsilon_cand_set;
      stage1.k = options.num_candidates;
      stage1.gamma = options.lambda.ConditionalSingleClusterWeights();
      auto selected = dpclustx::SelectCandidates(stats, stage1, rng);
      if (!selected.ok()) Fail("replay stage1: " + selected.status().ToString());
      candidates = std::move(*selected);
    }
    dpclustx::core_internal::CombinationScoreTables tables;
    {
      Tracer::Scope span(tracer_, "stage2.tables");
      tables = dpclustx::core_internal::BuildLowSensitivityTables(
          stats, candidates, options.lambda);
    }
    {
      // threads = 1 (the request default): the engine runs the serial
      // search; SearchCombinationParallel serves threads > 1.
      Tracer::Scope span(tracer_, "stage2.search");
      auto combination = dpclustx::core_internal::SearchCombination(
          candidates, tables, options.epsilon_top_comb,
          dpclustx::kGlScoreSensitivity, options.max_combinations, rng);
      if (!combination.ok()) {
        Fail("replay stage2: " + combination.status().ToString());
      }
      explanation.combination = std::move(*combination);
    }
    double combos = 1.0;
    for (const auto& set : candidates) combos *= static_cast<double>(set.size());
    combinations_.push_back(combos);
    explanation.candidate_sets = std::move(candidates);
    {
      Tracer::Scope span(tracer_, "stage2.hist");
      const std::set<AttrIndex> distinct(explanation.combination.begin(),
                                         explanation.combination.end());
      const double eps_all = options.epsilon_hist /
                             (2.0 * static_cast<double>(distinct.size()));
      const double eps_cluster = options.epsilon_hist / 2.0;
      std::vector<dpclustx::Histogram> noisy_full(stats.num_attributes());
      for (const AttrIndex attr : distinct) {
        noisy_full[attr] = dpclustx::ReleaseDpHistogram(
                               stats.full_histogram(attr), eps_all, rng,
                               options.histogram)
                               .value();
      }
      explanation.per_cluster.resize(stats.num_clusters());
      for (size_t c = 0; c < stats.num_clusters(); ++c) {
        const auto cluster = static_cast<ClusterId>(c);
        const AttrIndex attr = explanation.combination[c];
        dpclustx::SingleClusterExplanation& e = explanation.per_cluster[c];
        e.cluster = cluster;
        e.attribute = attr;
        e.epsilon_inside = eps_cluster;
        e.epsilon_full = eps_all;
        e.noise = options.histogram.noise;
        e.inside = dpclustx::ReleaseDpHistogram(
                       stats.cluster_histogram(cluster, attr), eps_cluster,
                       rng, options.histogram)
                       .value();
        e.outside = noisy_full[attr].SubtractClamped(e.inside);
      }
    }
  }
  const dpclustx::Schema& schema = stats.schema();
  std::string staged_json;
  {
    Tracer::Scope span(tracer_, "explain.serialize");
    staged_json = dpclustx::ExplanationToJson(explanation, schema);
    const std::string text =
        dpclustx::RenderGlobalExplanation(explanation, schema);
    if (!JsonValue::Parse(staged_json).ok() || text.empty()) {
      Fail("replay serialize");
    }
  }
  // The decomposition must be the library's pipeline: same seed, same
  // release.
  auto library = dpclustx::ExplainDpClustXWithStats(stats, options, nullptr);
  if (!library.ok() ||
      dpclustx::ExplanationToJson(*library, schema) != staged_json) {
    problems_.push_back("staged explain differs from ExplainDpClustXWithStats");
  }
}

void Replay::StagedHistRelease(const Request& request,
                               const JsonValue& parsed) {
  const auto view = View(request.dataset);
  const StatsCache& stats = *view->stats;
  const auto attr =
      stats.schema().FindAttribute(parsed.at("attribute").AsString());
  if (!attr.ok()) Fail("replay hist attribute");
  const double epsilon = parsed.at("epsilon").AsNumber();
  dpclustx::Rng rng(++noise_seed_);
  Tracer::Scope span(tracer_, "hist.release");
  for (size_t c = 0; c < view->num_clusters; ++c) {
    const auto released = dpclustx::ReleaseDpHistogram(
        stats.cluster_histogram(static_cast<ClusterId>(c), *attr), epsilon,
        rng, dpclustx::DpHistogramOptions{});
    if (!released.ok()) Fail("replay hist release");
  }
}

void Replay::StagedAppend(const Request& request) {
  Twin& twin = twins_.at(request.dataset);
  const TableData& table = tables_[request.dataset];
  std::vector<std::vector<dpclustx::ValueCode>> rows;
  for (size_t i = 0; i < request.rows; ++i) {
    rows.push_back(table.pool[(request.pool_start + i) % table.pool.size()]);
  }
  Tracer::Scope append(tracer_, "registry.append");
  dpclustx::Dataset tail(twin.mapped->schema(), twin.mapped->width_policy());
  {
    Tracer::Scope span(tracer_, "data.tail_rows");
    tail.Reserve(rows.size());
    for (const auto& row : rows) {
      if (!tail.AppendRow(row).ok()) Fail("replay tail row");
    }
  }
  {
    Tracer::Scope span(tracer_, "columnar.append");
    auto extended = dpclustx::AppendRowsToColumnar(twin.mapped, rows);
    if (!extended.ok()) Fail("replay append: " + extended.status().ToString());
    twin.mapped = *extended;
    if (!dpclustx::Dataset::FromMapped(twin.mapped).ok()) {
      Fail("replay remap");
    }
  }
  std::vector<ClusterId> labels;
  {
    Tracer::Scope span(tracer_, "cluster.assign_tail");
    labels = twin.model->AssignAll(tail);
  }
  {
    Tracer::Scope span(tracer_, "stats.build_appended");
    auto stats = StatsCache::BuildAppended(*twin.stats, tail, labels);
    if (!stats.ok()) Fail("replay delta: " + stats.status().ToString());
    twin.stats = std::make_shared<const StatsCache>(std::move(*stats));
  }
}

void Replay::AsyncPhase(
    std::vector<std::unique_ptr<RequestStream>>& streams) {
  // Four submitter threads, each keeping one HandleAsync request in
  // flight; the span runs from submit to the completion callback.
  constexpr size_t kPerThread = 6;
  std::vector<std::thread> threads;
  std::mutex mutex;
  for (size_t t = 0; t < streams.size(); ++t) {
    threads.emplace_back([&, t] {
      // Each thread continues its own connection's stream, so fresh
      // releases stay fresh.
      RequestStream& stream = *streams[t];
      for (size_t i = 0; i < kPerThread; ++i) {
        const Request request = stream.Next();
        std::mutex done_mutex;
        std::condition_variable done_cv;
        bool done = false;
        std::string response;
        const Clock::time_point start = Clock::now();
        const Status submitted =
            engine_.HandleAsync(request.line, [&](std::string line) {
              std::lock_guard<std::mutex> lock(done_mutex);
              response = std::move(line);
              done = true;
              done_cv.notify_one();
            });
        if (!submitted.ok()) Fail("replay async: " + submitted.ToString());
        std::unique_lock<std::mutex> lock(done_mutex);
        done_cv.wait(lock, [&] { return done; });
        const Clock::time_point end = Clock::now();
        std::lock_guard<std::mutex> record(mutex);
        tracer_.AddDetached("engine.async", start, end);
        if (response.find("\"ok\":true") == std::string::npos) {
          problems_.push_back("async request failed: " +
                              response.substr(0, 160));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

void Replay::Run(RunReport* report) {
  std::filesystem::create_directories(dir_);
  const Status journal = engine_.EnableAuditJournal(dir_ + "/audit.journal");
  if (!journal.ok()) Fail("replay journal: " + journal.ToString());
  SetUpTables();
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope span(tracer_, "snapshot.save");
    const Status saved = engine_.SaveSnapshotToFile(dir_ + "/replay.snap");
    if (!saved.ok()) Fail("replay snapshot: " + saved.ToString());
  }

  std::vector<std::unique_ptr<RequestStream>> streams;
  for (size_t c = 0; c < workload_.conns.size(); ++c) {
    streams.push_back(
        std::make_unique<RequestStream>(workload_, c, attributes_, &tables_));
    const ConnSpec& spec = workload_.conns[c];
    for (size_t s = 0; s < spec.sessions.size(); ++s) {
      Request create;
      create.op = "create_session";
      create.line = "{\"op\":\"create_session\",\"session\":\"" +
                    spec.sessions[s] + "\",\"dataset\":\"" +
                    workload_.datasets[spec.tables[s]].name +
                    "\",\"epsilon\":1000000000,\"id\":\"setup\"}";
      Handle(create);
    }
  }
  {
    auto entry = engine_.registry().Get(workload_.datasets[0].name);
    auto probe = engine_.sessions().Create("replay-spend-probe", *entry, 1e9);
    if (!probe.ok()) Fail("replay probe session: " + probe.status().ToString());
    spend_probe_ = *probe;
  }
  // Setup-time traffic, then the measured mix round-robin across the
  // connections for half the window, then the ingest probe.
  for (size_t c = 0; c < streams.size(); ++c) {
    for (const Request& r : streams[c]->Warmup()) Handle(r);
    for (size_t i = 0; i < workload_.warmup_requests; ++i) {
      Handle(streams[c]->Next());
    }
  }
  const Clock::time_point start = Clock::now();
  size_t replayed = 0;
  while (SecondsSince(start) < config_.seconds / 2.0 || replayed < 40) {
    for (auto& stream : streams) {
      Handle(stream->Next());
      ++replayed;
    }
  }
  const size_t probe_batches = workload_.append_probe ? 200 : 0;
  for (size_t b = 0; b < probe_batches; ++b) Handle(streams[0]->Append(b / 2, b % 2));
  // Repeats (cache hits) and ledgers, as in the socket run's gates.
  for (size_t c = 0; c < streams.size(); ++c) {
    if (workload_.conns[c].role != Role::kReader) continue;
    for (const char* op : {"explain", "hist"}) {
      const Request fresh = streams[c]->NextRelease(op);
      Handle(fresh);
      Handle(Repeated(fresh));
    }
    for (size_t s = 0; s < workload_.conns[c].sessions.size(); ++s) {
      Handle(streams[c]->Budget(s));
    }
  }
  for (const auto& [d, twin] : twins_) {
    if (!SameStats(*twin.stats, *View(d)->stats)) {
      problems_.push_back("staged append of " + workload_.datasets[d].name +
                          " differs from DatasetEntry::AppendRows");
    }
  }
  AsyncPhase(streams);

  const Status written = tracer_.WriteJsonl(config_.trace_out);
  if (!written.ok()) Fail("write spans: " + written.ToString());

  const std::map<std::string, std::vector<double>> self = tracer_.SelfMicros();
  const double p50_us = report->metrics.at("p50_ms").first * 1000.0;
  const double setup_us = report->metrics.at("setup_s").first * 1e6;
  const auto emit = [&](const std::string& name, double denominator_us) {
    auto it = self.find(name);
    if (it == self.end() || it->second.empty()) {
      Fail("traced replay recorded no '" + name + "' span");
    }
    const double p50 = Quantile(it->second, 0.50);
    report->layers[name + "_p50_us"] = {p50, "us"};
    report->layers[name + "_p99_us"] = {Quantile(it->second, 0.99), "us"};
    report->layers[name + "_share"] = {p50 / denominator_us, "ratio"};
  };
  for (const char* name : kRequestSpans) emit(name, p50_us);
  for (const char* name : kSetupSpans) emit(name, setup_us);
  report->layers["json_relay.splice_path_share"] = {
      static_cast<double>(spliced_) / static_cast<double>(relayed_), "ratio"};
  report->layers["stage2.combinations"] = {Quantile(combinations_, 0.5),
                                           "count"};
  report->details.Set("replayed_requests",
                      JsonValue::Number(static_cast<double>(request_)));
  for (const std::string& p : problems_) {
    report->correct = false;
    JsonValue list = report->details.Has("problems")
                         ? report->details.at("problems")
                         : JsonValue::Array();
    list.Append(JsonValue::String(p));
    report->details.Set("problems", std::move(list));
  }
}

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  Span span;
  span.name = name;
  span.start = Clock::now();
  span.parent = tracer.open_.empty()
                    ? -1
                    : static_cast<int64_t>(tracer.open_.back());
  span.request = tracer.request_;
  index_ = tracer.spans_.size();
  tracer.spans_.push_back(std::move(span));
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[index_].end = Clock::now();
  tracer_.open_.pop_back();
}

void Tracer::Scope::Rename(const char* name) {
  tracer_.spans_[index_].name = name;
}

void Tracer::AddDetached(const char* name, Clock::time_point start,
                         Clock::time_point end) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.request = request_;
  spans_.push_back(std::move(span));
}

std::map<std::string, std::vector<double>> Tracer::SelfMicros() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = std::chrono::duration<double, std::micro>(spans_[i].end -
                                                        spans_[i].start)
                  .count();
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          std::chrono::duration<double, std::micro>(spans_[i].end -
                                                    spans_[i].start)
              .count();
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name].push_back(self[i]);
  }
  return out;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    JsonValue span = JsonValue::Object();
    span.Set("i", JsonValue::Number(static_cast<double>(i)));
    span.Set("name", JsonValue::String(spans_[i].name));
    span.Set("start_us", JsonValue::Number(us(spans_[i].start)));
    span.Set("end_us", JsonValue::Number(us(spans_[i].end)));
    span.Set("parent",
             JsonValue::Number(static_cast<double>(spans_[i].parent)));
    span.Set("request",
             JsonValue::Number(static_cast<double>(spans_[i].request)));
    out << span.Dump() << "\n";
  }
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

void RunReplay(const RunConfig& config, const Workload& workload,
               RunReport* report) {
  Replay replay(config, workload);
  replay.Run(report);
}

}  // namespace perfbench
