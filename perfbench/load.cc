// The measured socket run: set up the fleet (several times, for setup_s),
// drive it with four closed-loop connections for the window, run the
// correctness gates, and reduce everything to metrics.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"
#include "data/columnar_format.h"
#include "service/transport.h"

namespace perfbench {

namespace {

using dpclustx::service::ClientChannel;
using Request = RequestStream::Request;

constexpr int kRecvTimeoutMs = 60000;
constexpr size_t kSetups = 3;       // setup_s is the median of these
constexpr size_t kRttSamples = 200;  // idle round trips per path
constexpr size_t kSlices = 100;      // a measured phase's slices
constexpr size_t kQuietSlices = 40;  // ... of which the metrics use

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One synchronous request on `channel`. The reply must parse as an object
/// and carry exactly the id that was sent (one request is outstanding per
/// connection, so any other id is a misdelivered or duplicated line); a
/// violation aborts the run.
JsonValue RoundTrip(ClientChannel& channel, const Request& request,
                    double* ms) {
  const Clock::time_point sent = Clock::now();
  const Status written = channel.SendLine(request.line);
  if (!written.ok()) Fail("send " + request.id + ": " + written.ToString());
  StatusOr<std::string> line = channel.RecvLine(kRecvTimeoutMs);
  if (!line.ok()) Fail("lost response to " + request.id + ": " +
                       line.status().ToString());
  if (ms != nullptr) *ms = Ms(Clock::now() - sent);
  StatusOr<JsonValue> parsed = JsonValue::Parse(*line);
  if (!parsed.ok() || parsed->type() != JsonValue::Type::kObject ||
      !parsed->Has("ok") || !parsed->Has("id") ||
      parsed->at("id").type() != JsonValue::Type::kString ||
      parsed->at("id").AsString() != request.id) {
    Fail("garbled or misattributed response to " + request.id + ": " +
         line->substr(0, 200));
  }
  return std::move(parsed).value();
}

/// A setup call that must succeed.
JsonValue Must(ClientChannel& channel, const std::string& op_line,
               const std::string& id) {
  Request request;
  request.id = id;
  request.line = op_line.substr(0, op_line.size() - 1) + ",\"id\":\"" + id +
                 "\"}";
  JsonValue response = RoundTrip(channel, request, nullptr);
  if (!response.at("ok").AsBool()) {
    Fail("setup request failed: " + request.line.substr(0, 200) + " -> " +
         response.Dump().substr(0, 300));
  }
  return response;
}

std::unique_ptr<ClientChannel> Connect(const std::string& spec) {
  StatusOr<std::unique_ptr<ClientChannel>> channel =
      ClientChannel::Connect(spec);
  if (!channel.ok()) Fail("connect " + spec + ": " +
                          channel.status().ToString());
  return std::move(channel).value();
}

/// One request of a measured phase.
struct Sample {
  double ms = 0.0;    // send to full response line
  double at = 0.0;    // completion, seconds into the phase
  bool append = false;
  size_t rows = 0;    // append_rows: rows acknowledged
};

/// Per-connection bookkeeping; each connection thread owns one.
struct Conn {
  std::unique_ptr<ClientChannel> channel;
  std::unique_ptr<RequestStream> stream;
  std::vector<double> epsilon_charged;  // per session: every ε charged
  uint64_t attempted = 0;
  uint64_t failed = 0;    // ok:false, shed included
  uint64_t shed = 0;      // ResourceExhausted with retry_after_ms
  uint64_t charging = 0;  // responses with epsilon_charged > 0
  uint64_t releases = 0;  // explain/hist responses in the window
  uint64_t hits = 0;      // ... of which cache_hit:true
  std::map<size_t, uint64_t> appended;  // dataset → rows acknowledged
  std::map<size_t, double> rows_after;  // dataset → rows in last append ack
  std::vector<Sample> samples;  // the current measured phase's requests
  Clock::time_point phase_start;
  size_t probe_batches = 0;
  double cpu_s = 0.0;           // thread CPU over the measured phases
};

/// Sends `request` on `conn` and accounts the reply. `window` marks
/// requests whose latency and cache outcome feed the metrics.
JsonValue Exchange(Conn& conn, const Request& request, bool window,
                   double window_ms) {
  double ms = 0.0;
  JsonValue response = RoundTrip(*conn.channel, request, &ms);
  ++conn.attempted;
  const bool ok = response.at("ok").AsBool();
  if (!ok) {
    ++conn.failed;
    if (response.Has("error") && response.at("error").Has("retry_after_ms")) {
      ++conn.shed;
    }
    // A failed request misses every latency limit.
    ms = std::max(ms, window_ms);
  }
  if (ok && response.Has("epsilon_charged")) {
    const double charged = response.at("epsilon_charged").AsNumber();
    conn.epsilon_charged[request.session] += charged;
    if (charged > 0.0) ++conn.charging;
  }
  const bool append = request.op == "append_rows";
  if (append && ok) {
    conn.appended[request.dataset] += request.rows;
    conn.rows_after[request.dataset] = response.at("rows").AsNumber();
  }
  if (window) {
    conn.samples.push_back({ms, SecondsSince(conn.phase_start), append,
                            append && ok ? request.rows : 0});
    if (request.op == "explain" || request.op == "hist") {
      ++conn.releases;
      if (ok && response.at("cache_hit").AsBool()) ++conn.hits;
    }
  }
  return response;
}

/// The release payload of an explain/hist response, without the fields
/// that legitimately differ between a miss and its cached repeat.
std::string Payload(JsonValue response) {
  for (const char* key : {"id", "cache_hit", "epsilon_charged",
                          "epsilon_remaining"}) {
    response.Remove(key);
  }
  return response.Dump();
}

/// Everything the measured fleet needs after setup.
struct Setup {
  std::unique_ptr<Fleet> fleet;
  std::vector<std::vector<std::string>> attributes;  // per table
  std::vector<double> initial_rows;                  // per table
};

Setup SetUp(const RunConfig& config, const Workload& workload,
            const std::vector<TableData>& tables, const std::string& dir,
            std::vector<Conn>& conns) {
  Setup setup;
  std::filesystem::create_directories(dir);
  // DPXCOL tables are written by the runner, with room reserved for every
  // row the run can append (the file is sparse until rows land).
  for (size_t d = 0; d < workload.datasets.size(); ++d) {
    const DatasetSpec& spec = workload.datasets[d];
    if (!spec.dpxcol) continue;
    dpclustx::ColumnarWriteOptions options;
    options.capacity_rows = spec.rows + 400000 * static_cast<size_t>(
                                                     std::ceil(config.seconds));
    const Status written = dpclustx::WriteColumnarFile(
        tables[d].base, dir + "/" + spec.name + ".dpxcol", options);
    if (!written.ok()) Fail("write dpxcol: " + written.ToString());
  }
  StatusOr<std::unique_ptr<Fleet>> fleet =
      Fleet::Start(config.router_bin, config.serve_bin, dir, 2);
  if (!fleet.ok()) Fail("fleet start: " + fleet.status().ToString());
  setup.fleet = std::move(fleet).value();

  // Tables load and cluster on both shards at once: one setup connection
  // per shard, each working through its shard's tables in order.
  setup.attributes.resize(workload.datasets.size());
  setup.initial_rows.resize(workload.datasets.size());
  std::vector<std::thread> loaders;
  for (size_t shard = 0; shard < 2; ++shard) {
    loaders.emplace_back([&, shard] {
      std::unique_ptr<ClientChannel> channel =
          Connect(setup.fleet->socket_spec());
      for (size_t d = 0; d < workload.datasets.size(); ++d) {
        const DatasetSpec& spec = workload.datasets[d];
        if (spec.shard != shard) continue;
        const std::string tag = "setup-" + std::to_string(d);
        const std::string load =
            spec.dpxcol
                ? "{\"op\":\"load_dataset\",\"name\":\"" + spec.name +
                      "\",\"source\":\"dpxcol\",\"path\":\"" + dir + "/" +
                      spec.name + ".dpxcol\"}"
                : "{\"op\":\"load_dataset\",\"name\":\"" + spec.name +
                      "\",\"source\":\"synthetic\",\"generator\":\"" +
                      spec.generator + "\",\"rows\":" +
                      std::to_string(spec.rows) + ",\"seed\":" +
                      std::to_string(spec.data_seed) + "}";
        const JsonValue loaded = Must(*channel, load, tag + "-load");
        setup.initial_rows[d] = loaded.at("rows").AsNumber();
        Must(*channel,
             "{\"op\":\"cluster\",\"dataset\":\"" + spec.name +
                 "\",\"method\":\"" + spec.method + "\",\"k\":" +
                 std::to_string(spec.k) + ",\"seed\":" +
                 std::to_string(spec.cluster_seed) + "}",
             tag + "-cluster");
        const JsonValue schema =
            Must(*channel, "{\"op\":\"schema\",\"dataset\":\"" + spec.name +
                               "\"}",
                 tag + "-schema");
        const JsonValue& attrs = schema.at("attributes");
        for (size_t a = 0; a < attrs.size(); ++a) {
          setup.attributes[d].push_back(attrs.at(a).at("name").AsString());
        }
      }
    });
  }
  for (std::thread& t : loaders) t.join();

  // Shard placement, checked against the live workers: each must hold
  // exactly the tables the ring assigned to it.
  for (size_t shard = 0; shard < 2; ++shard) {
    std::unique_ptr<ClientChannel> direct =
        Connect(setup.fleet->worker_spec(shard));
    const JsonValue stats =
        Must(*direct, "{\"op\":\"stats\"}", "placement-" + std::to_string(shard));
    std::set<std::string> held;
    for (size_t i = 0; i < stats.at("datasets").size(); ++i) {
      held.insert(stats.at("datasets").at(i).AsString());
    }
    std::set<std::string> want;
    for (const DatasetSpec& spec : workload.datasets) {
      if (spec.shard == shard) want.insert(spec.name);
    }
    if (held != want) {
      Fail("shard-" + std::to_string(shard) +
           " does not hold exactly the tables the ring assigned to it");
    }
  }

  // Sessions and warm-up, one thread per connection.
  conns.clear();
  conns.resize(workload.conns.size());
  std::vector<std::thread> warmers;
  for (size_t c = 0; c < workload.conns.size(); ++c) {
    warmers.emplace_back([&, c] {
      Conn& conn = conns[c];
      conn.channel = Connect(setup.fleet->socket_spec());
      conn.stream = std::make_unique<RequestStream>(workload, c,
                                                    setup.attributes, &tables);
      const ConnSpec& spec = workload.conns[c];
      conn.epsilon_charged.assign(std::max<size_t>(spec.sessions.size(), 1),
                                  0.0);
      for (size_t s = 0; s < spec.sessions.size(); ++s) {
        Must(*conn.channel,
             "{\"op\":\"create_session\",\"session\":\"" +
                 spec.sessions[s] + "\",\"dataset\":\"" +
                 workload.datasets[spec.tables[s]].name +
                 "\",\"epsilon\":1000000000}",
             "session-" + spec.sessions[s]);
      }
      for (const Request& r : conn.stream->Warmup()) {
        Exchange(conn, r, false, 0.0);
      }
      for (size_t i = 0; i < workload.warmup_requests; ++i) {
        Exchange(conn, conn.stream->Next(), false, 0.0);
      }
    });
  }
  for (std::thread& t : warmers) t.join();
  return setup;
}

struct ScrapeTotals {
  std::map<std::string, std::vector<double>> op_buckets;
  double journal_records = 0.0;
  double snapshot_saves = 0.0;
};

ScrapeTotals ScrapeWorkers(const Fleet& fleet) {
  ScrapeTotals totals;
  for (size_t w = 0; w < fleet.workers(); ++w) {
    StatusOr<std::string> text = HttpGet(fleet.worker_port(w), "/metrics");
    if (!text.ok()) Fail("scrape shard-" + std::to_string(w) + ": " +
                         text.status().ToString());
    StatusOr<Scrape> scrape = ParseScrape(*text);
    if (!scrape.ok()) Fail("parse scrape: " + scrape.status().ToString());
    for (const auto& [op, buckets] : scrape->op_buckets) {
      std::vector<double>& sum = totals.op_buckets[op];
      sum.resize(buckets.size(), 0.0);
      for (size_t b = 0; b < buckets.size(); ++b) sum[b] += buckets[b];
    }
    totals.journal_records +=
        scrape->counters["dpclustx_audit_journal_records_total"];
    totals.snapshot_saves += scrape->counters["dpclustx_snapshot_saves_total"];
  }
  return totals;
}

std::vector<double> BucketDelta(const ScrapeTotals& before,
                                const ScrapeTotals& after,
                                const std::string& op) {
  std::vector<double> delta = after.op_buckets.at(op);
  const std::vector<double>& base = before.op_buckets.at(op);
  for (size_t b = 0; b < delta.size(); ++b) delta[b] -= base[b];
  return delta;
}

struct PhaseStats {
  size_t samples = 0;
  double requests_per_s = 0.0;
  double rows_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// One measured phase: every request its connections completed, and how
/// much CPU the hypervisor stole from this guest in each of its kSlices
/// equal slices. Another guest on the same host slows every request while
/// it takes CPU; the metrics use the kQuietSlices slices with the least
/// steal, so a burst of it moves the slices it hits, not the run.
struct Phase {
  double seconds = 0.0;
  std::vector<Sample> samples;
  std::vector<double> slice_steal;

  std::vector<bool> Quiet() const {
    std::vector<size_t> order(slice_steal.size());
    for (size_t s = 0; s < order.size(); ++s) order[s] = s;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return slice_steal[a] < slice_steal[b];
    });
    std::vector<bool> quiet(slice_steal.size(), false);
    for (size_t i = 0; i < kQuietSlices && i < order.size(); ++i) {
      quiet[order[i]] = true;
    }
    return quiet;
  }

  /// Throughput and latency of the appends (or of everything else) that
  /// completed in the quiet slices.
  PhaseStats Stats(bool appends) const {
    const std::vector<bool> quiet = Quiet();
    const double slice_s = seconds / static_cast<double>(kSlices);
    std::vector<double> ms;
    double rows = 0.0;
    for (const Sample& sample : samples) {
      const auto slice = std::min(static_cast<size_t>(sample.at / slice_s),
                                  kSlices - 1);
      if (sample.append != appends || !quiet[slice]) continue;
      ms.push_back(sample.ms);
      rows += static_cast<double>(sample.rows);
    }
    const double quiet_s = slice_s * static_cast<double>(kQuietSlices);
    PhaseStats stats;
    stats.samples = ms.size();
    stats.requests_per_s = static_cast<double>(ms.size()) / quiet_s;
    stats.rows_per_s = rows / quiet_s;
    stats.p50_ms = Quantile(ms, 0.50);
    stats.p99_ms = Quantile(ms, 0.99);
    return stats;
  }

  JsonValue Json(const PhaseStats& stats) const {
    const auto num = [](double v) { return JsonValue::Number(v); };
    JsonValue out = JsonValue::Object();
    JsonValue steal = JsonValue::Array();
    JsonValue quiet_list = JsonValue::Array();
    const std::vector<bool> quiet = Quiet();
    double total_steal = 0.0;
    for (size_t s = 0; s < slice_steal.size(); ++s) {
      steal.Append(num(slice_steal[s]));
      total_steal += slice_steal[s];
      if (quiet[s]) quiet_list.Append(num(static_cast<double>(s)));
    }
    out.Set("slice_steal_share", std::move(steal));
    out.Set("quiet_slices", std::move(quiet_list));
    out.Set("steal_share",
            num(total_steal / static_cast<double>(slice_steal.size())));
    out.Set("samples", num(static_cast<double>(stats.samples)));
    // The p99 is reported only where at least ten samples lie beyond it.
    out.Set("samples_beyond_p99",
            num(static_cast<double>(stats.samples) -
                std::ceil(0.99 * static_cast<double>(stats.samples))));
    out.Set("p50_ms", num(stats.p50_ms));
    out.Set("p99_ms", num(stats.p99_ms));
    return out;
  }
};

/// Runs connections `which` in a closed loop (send, wait for the reply,
/// repeat) for `seconds`, each on its own thread; the first one runs on
/// this thread and also marks the slice boundaries, so the generator uses
/// at most four threads.
Phase RunPhase(std::vector<Conn>& conns, const std::vector<size_t>& which,
               double seconds, const std::function<Request(size_t)>& next,
               double failed_ms) {
  Phase phase;
  phase.seconds = seconds;
  const Clock::time_point start = Clock::now();
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(kSlices)));
  const Clock::time_point end = start + slice * static_cast<int64_t>(kSlices);
  for (const size_t c : which) {
    conns[c].samples.clear();
    conns[c].phase_start = start;
  }
  std::vector<HostCpu> marks = {ReadHostCpu()};
  const auto mark = [&] {
    while (marks.size() <= kSlices &&
           Clock::now() >= start + slice * static_cast<int64_t>(marks.size())) {
      marks.push_back(ReadHostCpu());
    }
  };
  const auto loop = [&](size_t c, bool marker) {
    Conn& conn = conns[c];
    const double cpu_start = ThreadCpuSeconds();
    while (Clock::now() < end) {
      Exchange(conn, next(c), true, failed_ms);
      if (marker) mark();
    }
    conn.cpu_s += ThreadCpuSeconds() - cpu_start;
  };
  std::vector<std::thread> threads;
  for (size_t i = 1; i < which.size(); ++i) {
    threads.emplace_back(loop, which[i], false);
  }
  loop(which[0], true);
  for (std::thread& t : threads) t.join();
  mark();
  for (size_t s = 0; s < kSlices; ++s) {
    phase.slice_steal.push_back((marks[s + 1].steal - marks[s].steal) /
                                std::max(1.0, marks[s + 1].total -
                                                  marks[s].total));
  }
  for (const size_t c : which) {
    phase.samples.insert(phase.samples.end(), conns[c].samples.begin(),
                         conns[c].samples.end());
    conns[c].samples.clear();
  }
  return phase;
}

}  // namespace

RunReport RunEndToEnd(const RunConfig& config, const Workload& workload,
                      bool traced_run) {
  RunReport report;
  JsonValue& details = report.details;

  // Setup, repeated: setup_s is the median of kSetups full bring-ups; the
  // last fleet is the one measured.
  std::vector<double> setup_times;
  std::vector<Conn> conns;
  std::vector<TableData> tables(workload.datasets.size());
  Setup setup;
  const size_t setups = traced_run ? 1 : kSetups;
  for (size_t i = 0; i < setups; ++i) {
    if (setup.fleet != nullptr) {
      conns.clear();
      const Status stopped = setup.fleet->Stop();
      if (!stopped.ok()) Fail("fleet stop: " + stopped.ToString());
      std::filesystem::remove_all(config.state_dir + "/setup-" +
                                  std::to_string(i - 1));
    }
    const Clock::time_point start = Clock::now();
    // The runner generates the rows it writes or appends itself (DPXCOL
    // tables and append pools); synthetic heap tables are generated by
    // their worker inside load_dataset.
    std::vector<std::thread> generators;
    for (size_t d = 0; d < workload.datasets.size(); ++d) {
      if (!workload.datasets[d].dpxcol) continue;
      generators.emplace_back([&, d] {
        StatusOr<TableData> table = GenerateTable(workload.datasets[d]);
        if (!table.ok()) Fail("generate: " + table.status().ToString());
        tables[d] = std::move(table).value();
      });
    }
    for (std::thread& t : generators) t.join();
    setup = SetUp(config, workload, tables,
                  config.state_dir + "/setup-" + std::to_string(i), conns);
    setup_times.push_back(SecondsSince(start));
  }
  const double setup_s = Quantile(setup_times, 0.5);
  Fleet& fleet = *setup.fleet;

  const ScrapeTotals before = ScrapeWorkers(fleet);
  uint64_t charging_before = 0;
  for (const Conn& conn : conns) charging_before += conn.charging;
  const double phase_ms = config.seconds * 1000.0;
  const double cpu0 = ProcessCpuSeconds();

  // Read-only workloads first probe ingest: two connections send
  // back-to-back batches, one into each shard's DPXCOL ingest table, for
  // as long as the window lasts. Like the window, the probe then spans one
  // period of the workers' 10 s snapshot saves, so every run meets the
  // same number of background stalls.
  Phase probe;
  if (workload.append_probe) {
    probe = RunPhase(
        conns, {0, 1}, config.seconds,
        [&](size_t c) {
          return conns[c].stream->Append(conns[c].probe_batches++, c);
        },
        phase_ms);
  }
  // The measured window: every connection runs its share of the mix.
  const Phase window = RunPhase(
      conns, {0, 1, 2, 3}, config.seconds,
      [&](size_t c) { return conns[c].stream->Next(); }, phase_ms);
  const double window_cpu_s = ProcessCpuSeconds() - cpu0;

  // Gate: a release repeated after the window is a cache hit, charges
  // nothing and returns the paid-for bytes unchanged.
  bool correct = true;
  std::vector<std::string> problems;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  };
  for (size_t c = 0; c < conns.size(); ++c) {
    Conn& conn = conns[c];
    if (workload.conns[c].role != Role::kReader) continue;
    for (const char* op : {"explain", "hist"}) {
      const Request fresh = conn.stream->NextRelease(op);
      const JsonValue first = Exchange(conn, fresh, false, 0.0);
      const JsonValue second = Exchange(conn, Repeated(fresh), false, 0.0);
      check(first.at("ok").AsBool() && second.at("ok").AsBool() &&
                second.at("cache_hit").AsBool() &&
                second.at("epsilon_charged").AsNumber() == 0.0 &&
                Payload(first) == Payload(second),
            "connection " + std::to_string(c) + ": repeated " + op +
                " is not a byte-identical free cache hit");
    }
  }

  // Gate: each session's ledger equals the ε its connection saw charged.
  for (size_t c = 0; c < conns.size(); ++c) {
    Conn& conn = conns[c];
    const std::vector<std::string>& sessions = workload.conns[c].sessions;
    for (size_t s = 0; s < sessions.size(); ++s) {
      const JsonValue budget = Exchange(conn, conn.stream->Budget(s), false, 0.0);
      const double spent = budget.at("spent").AsNumber();
      check(std::abs(spent - conn.epsilon_charged[s]) <=
                1e-9 * std::max(1.0, std::abs(spent)),
            "session " + sessions[s] + " ledger " + std::to_string(spent) +
                " != charged " + std::to_string(conn.epsilon_charged[s]));
    }
  }

  // Gate: every ε-charging response after the first scrape is exactly one
  // journal record, and no connection has a stray (duplicated) line left.
  const ScrapeTotals after = ScrapeWorkers(fleet);
  uint64_t charging = 0;
  for (Conn& conn : conns) {
    charging += conn.charging;
    StatusOr<std::string> stray = conn.channel->RecvLine(0);
    check(!stray.ok(), "unsolicited response line: " +
                           (stray.ok() ? stray->substr(0, 120) : ""));
  }
  const double journal_delta = after.journal_records - before.journal_records;
  check(journal_delta == static_cast<double>(charging - charging_before),
        "audit journal grew by " + std::to_string(journal_delta) + " for " +
            std::to_string(charging - charging_before) +
            " charging responses");

  // Gate: ingest tables end with their initial rows plus every row acked.
  for (const size_t d : workload.ingest) {
    double appended = 0.0;
    double last = setup.initial_rows[d];
    for (Conn& conn : conns) {
      appended += static_cast<double>(conn.appended[d]);
      if (conn.rows_after.count(d)) last = std::max(last, conn.rows_after[d]);
    }
    check(appended > 0.0 && last == setup.initial_rows[d] + appended,
          workload.datasets[d].name + " ends with " + std::to_string(last) +
              " rows, expected " +
              std::to_string(setup.initial_rows[d] + appended));
  }

  // Gate: the cached workload is served from the release cache.
  uint64_t releases = 0;
  uint64_t hits = 0;
  for (Conn& conn : conns) {
    releases += conn.releases;
    hits += conn.hits;
  }
  const double hit_share =
      releases > 0 ? static_cast<double>(hits) / static_cast<double>(releases)
                   : 0.0;
  if (workload.cached) {
    check(hit_share >= 0.95,
          "cache hit share " + std::to_string(hit_share) + " < 0.95");
  }

  // End-to-end metrics.
  for (Conn& conn : conns) {
    report.attempted += conn.attempted;
    report.failed += conn.failed;
  }
  const PhaseStats reads = window.Stats(/*appends=*/false);
  const Phase& ingest = workload.append_probe ? probe : window;
  const PhaseStats appends = ingest.Stats(/*appends=*/true);
  const double p50_ms = reads.p50_ms;
  const double rss_mb = fleet.PeakRssMb();
  Metrics& m = report.metrics;
  m["rps"] = {reads.requests_per_s +
                  (workload.append_probe ? 0.0 : appends.requests_per_s),
              "req/s"};
  m["p50_ms"] = {p50_ms, "ms"};
  m["p99_ms"] = {reads.p99_ms, "ms"};
  m["append_rows_per_s"] = {appends.rows_per_s, "rows/s"};
  m["success_share"] = {
      1.0 - static_cast<double>(report.failed) /
                static_cast<double>(std::max<uint64_t>(report.attempted, 1)),
      "ratio"};
  m["setup_s"] = {setup_s, "s"};
  m["rss_mb"] = {rss_mb, "MB"};

  // Diagnostics printed before the result line.
  const auto num = [](double v) { return JsonValue::Number(v); };
  details.Set("window", window.Json(reads));
  details.Set("ingest", ingest.Json(appends));
  details.Set("setup_runs_s", [&] {
    JsonValue a = JsonValue::Array();
    for (const double s : setup_times) a.Append(num(s));
    return a;
  }());
  uint64_t shed = 0;
  for (Conn& conn : conns) shed += conn.shed;
  details.Set("shed", num(static_cast<double>(shed)));
  details.Set("cache_hit_share", num(hit_share));
  details.Set("journal_records_delta", num(journal_delta));
  details.Set("charging_responses",
              num(static_cast<double>(charging - charging_before)));
  details.Set("snapshot_saves",
              num(after.snapshot_saves - before.snapshot_saves));
  // Generator self-check: a client thread that is busy most of the window
  // means the runner, not the fleet, limited the rate.
  const double measured_s = config.seconds * (workload.append_probe ? 2 : 1);
  double max_thread_share = 0.0;
  for (Conn& conn : conns) {
    max_thread_share = std::max(max_thread_share, conn.cpu_s / measured_s);
  }
  JsonValue generator = JsonValue::Object();
  generator.Set("cpu_s", num(window_cpu_s));
  generator.Set("threads", num(static_cast<double>(conns.size())));
  generator.Set("connections", num(static_cast<double>(conns.size())));
  generator.Set("max_thread_cpu_share", num(max_thread_share));
  generator.Set("cpu_bound", JsonValue::Bool(max_thread_share > 0.8));
  details.Set("generator", std::move(generator));

  // Production instruments over the same interval: worker-side latency by
  // op from the /metrics deltas, and the front door's share of client p50.
  Metrics& layers = report.layers;
  std::vector<double> worker_reads(
      dpclustx::obs::LatencyHistogram::kNumBuckets, 0.0);
  for (const char* op : {"explain", "hist", "budget", "append_rows"}) {
    const std::vector<double> delta = BucketDelta(before, after, op);
    const std::string name = std::string("worker.") + op;
    layers[name + "_p50_us"] = {BucketQuantile(delta, 0.50), "us"};
    layers[name + "_p99_us"] = {BucketQuantile(delta, 0.99), "us"};
    if (std::string(op) != "append_rows") {
      for (size_t b = 0; b < delta.size(); ++b) worker_reads[b] += delta[b];
    }
  }
  layers["front.overhead_p50_us"] = {
      p50_ms * 1000.0 - BucketQuantile(worker_reads, 0.50), "us"};
  // The ingest tail: its run-to-run spread (fdatasync stalls) is wider
  // than any bound an end-to-end metric may carry, so it is reported here.
  layers["append_p99_ms"] = {appends.p99_ms, "ms"};
  layers["cache.hit_share"] = {hit_share, "ratio"};
  layers["snapshot.saves"] = {after.snapshot_saves - before.snapshot_saves,
                              "count"};

  if (traced_run) {
    // The idle fleet: the same shard-routed budget through the router
    // socket and straight to the owning worker's own listener.
    size_t reader = 0;
    while (workload.conns[reader].role != Role::kReader) ++reader;
    Conn& conn = conns[reader];
    const size_t shard =
        workload.datasets[workload.conns[reader].tables[0]].shard;
    Conn direct;
    direct.channel = Connect(fleet.worker_spec(shard));
    std::vector<double> router_us;
    std::vector<double> worker_us;
    for (size_t i = 0; i < kRttSamples; ++i) {
      const Request budget = conn.stream->Budget(0);
      double ms = 0.0;
      RoundTrip(*conn.channel, budget, &ms);
      router_us.push_back(ms * 1000.0);
      RoundTrip(*direct.channel, budget, &ms);
      worker_us.push_back(ms * 1000.0);
    }
    layers["router.rtt_p50_us"] = {Quantile(router_us, 0.50), "us"};
    layers["router.rtt_share"] = {Quantile(router_us, 0.50) / (p50_ms * 1000.0),
                                  "ratio"};
    layers["worker.rtt_share"] = {Quantile(worker_us, 0.50) / (p50_ms * 1000.0),
                                  "ratio"};
    layers["router.rtt_p99_us"] = {Quantile(router_us, 0.99), "us"};
    layers["worker.rtt_p50_us"] = {Quantile(worker_us, 0.50), "us"};
    layers["worker.rtt_p99_us"] = {Quantile(worker_us, 0.99), "us"};
  }

  details.Set("problems", [&] {
    JsonValue a = JsonValue::Array();
    for (const std::string& p : problems) a.Append(JsonValue::String(p));
    return a;
  }());
  report.correct = correct;
  conns.clear();
  const Status stopped = setup.fleet->Stop();
  if (!stopped.ok()) Fail("fleet stop: " + stopped.ToString());
  return report;
}

}  // namespace perfbench
