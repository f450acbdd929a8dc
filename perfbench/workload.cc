// Workload definitions: which tables each workload loads, which connection
// does what, and the deterministic request streams derived from --seed.

#include <cinttypes>
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "data/synthetic.h"
#include "service/router_core.h"

namespace perfbench {

namespace {

/// SplitMix64 step: independent sub-seeds from one workload seed.
uint64_t Derive(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string Num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Names the table so that the router's own ring (same shard names, same
/// vnode count) places it on `shard`. A hash collision that put both
/// tables on one shard would silently idle the other worker.
std::string PlacedName(const dpclustx::service::RouterCore& core,
                       const std::string& prefix, size_t shard) {
  const std::string want = "shard-" + std::to_string(shard);
  for (int i = 0;; ++i) {
    const std::string name = prefix + "-" + std::to_string(i);
    if (core.ShardFor(name) == want) return name;
  }
}

DatasetSpec Table(const std::string& generator, size_t rows, bool dpxcol,
                  size_t pool, const std::string& method, size_t k) {
  DatasetSpec spec;
  spec.generator = generator;
  spec.rows = rows;
  spec.dpxcol = dpxcol;
  spec.append_pool_rows = pool;
  spec.method = method;
  spec.k = k;
  return spec;
}

}  // namespace

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  // Read-only workloads carry a small DPXCOL ingest table per shard for
  // the post-window append probe, so every workload reports the ingest
  // metrics without touching the tables its reads depend on.
  const auto ingest_probe = [&w] {
    for (size_t s = 0; s < 2; ++s) {
      w.ingest.push_back(w.datasets.size());
      w.datasets.push_back(
          Table("diabetes", 20000, /*dpxcol=*/true, 5000, "k-modes", 5));
    }
    w.append_probe = true;
  };
  if (name == "explain_search") {
    for (size_t s = 0; s < 2; ++s) {
      w.datasets.push_back(
          Table("census", 250000, /*dpxcol=*/false, 0, "k-means", 8));
    }
    w.explain_share = 0.80;
    w.hist_share = 0.15;
    w.num_candidates = 4;
    w.warmup_requests = 2;
    ingest_probe();
  } else if (name == "cached_reads") {
    // Four tables per shard, two per reader: a run's working set averages
    // over eight drawn table shapes, so response sizes (what a cache hit
    // costs) vary little from seed to seed.
    for (size_t t = 0; t < 8; ++t) {
      w.datasets.push_back(
          Table("diabetes", 20000, /*dpxcol=*/false, 0, "k-means", 5));
    }
    w.explain_share = 0.40;
    w.hist_share = 0.40;
    w.cached = true;
    w.warm_explains_per_dataset = 12;
    ingest_probe();
  } else if (name == "append_mix") {
    // Three tables per shard: a run averages over six drawn table shapes,
    // so what an explain costs varies less from seed to seed.
    for (size_t t = 0; t < 6; ++t) {
      w.ingest.push_back(w.datasets.size());
      w.datasets.push_back(
          Table("census", 250000, /*dpxcol=*/true, 20000, "k-modes", 5));
    }
    w.explain_share = 0.60;
    w.hist_share = 0.40;
    w.num_candidates = 3;
    w.warmup_requests = 2;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (expected explain_search | cached_reads | append_mix)");
  }

  const dpclustx::service::RouterCore core({"shard-0", "shard-1"}, 64);
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "pb%" PRIu64, seed % 100000);
  for (size_t d = 0; d < w.datasets.size(); ++d) {
    DatasetSpec& spec = w.datasets[d];
    spec.shard = d % 2;
    spec.name = PlacedName(core, std::string(prefix) + "-t" + std::to_string(d),
                           spec.shard);
    spec.data_seed = 1 + Derive(seed, 10 + d) % 1000000;
    spec.cluster_seed = 1 + Derive(seed, 20 + d) % 1000;
  }

  // append_mix gives its first connection to ingest; it sends its batches
  // to the ingest tables in turn. Readers share the read tables round-robin
  // when one count divides the other: reader r reads every table t with
  // t % readers == r, or table r % tables when there are fewer tables than
  // readers. Otherwise every reader reads every table.
  const size_t appenders = w.append_probe ? 0 : 1;
  const size_t read_tables = w.append_probe ? w.datasets.size() - 2
                                            : w.datasets.size();
  const size_t readers = 4 - appenders;
  for (size_t c = 0; c < 4; ++c) {
    ConnSpec conn;
    if (c < appenders) {
      conn.role = Role::kAppender;
      w.conns.push_back(conn);
      continue;
    }
    const size_t r = c - appenders;
    for (size_t t = 0; t < read_tables; ++t) {
      const bool mine = read_tables % readers == 0   ? t % readers == r
                        : readers % read_tables == 0 ? t == r % read_tables
                                                     : true;
      if (mine) {
        conn.tables.push_back(t);
        conn.sessions.push_back(std::string(prefix) + "-s" +
                                std::to_string(c) + "-t" + std::to_string(t));
      }
    }
    w.conns.push_back(conn);
  }
  return w;
}

StatusOr<TableData> GenerateTable(const DatasetSpec& spec) {
  const size_t total = spec.rows + spec.append_pool_rows;
  const dpclustx::synth::SyntheticConfig config =
      spec.generator == "census"
          ? dpclustx::synth::CensusLike(total, spec.data_seed)
          : dpclustx::synth::DiabetesLike(total, spec.data_seed);
  DPX_ASSIGN_OR_RETURN(dpclustx::Dataset full,
                       dpclustx::synth::Generate(config));
  TableData table;
  if (spec.append_pool_rows == 0) {
    table.base = std::move(full);
    return table;
  }
  std::vector<uint32_t> head(spec.rows);
  std::iota(head.begin(), head.end(), 0u);
  table.base = full.SelectRows(head);
  for (size_t r = spec.rows; r < total; ++r) {
    std::vector<dpclustx::ValueCode> row = full.Row(r);
    std::string json = "[";
    for (size_t a = 0; a < row.size(); ++a) {
      if (a > 0) json += ',';
      json += std::to_string(row[a]);
    }
    json += ']';
    table.pool_json.push_back(std::move(json));
    table.pool.push_back(std::move(row));
  }
  return table;
}

WarmSet WarmSetFor(const Workload& workload,
                   const std::vector<std::string>& attributes) {
  WarmSet set;
  const double base = static_cast<double>(workload.seed % 1000) * 1e-5;
  for (size_t j = 0; j < workload.warm_explains_per_dataset; ++j) {
    set.explain_eps.push_back(0.3 + 0.01 * static_cast<double>(j) + base);
  }
  // One hist per attribute, so the set's mix of domain sizes (and with it
  // the response sizes behind the latency tail) is the table's own, not a
  // seed-dependent sample of it.
  for (size_t j = 0; j < attributes.size(); ++j) {
    set.hists.emplace_back(attributes[j],
                           0.05 + 0.001 * static_cast<double>(j) + base);
  }
  return set;
}

RequestStream::RequestStream(
    const Workload& workload, size_t conn,
    const std::vector<std::vector<std::string>>& attributes,
    const std::vector<TableData>* tables)
    : workload_(workload),
      conn_(conn),
      attributes_(attributes),
      tables_(tables),
      rng_(Derive(workload.seed, 1000 + conn)) {
  if (workload.cached) {
    for (const size_t table : workload.conns[conn].tables) {
      warm_.push_back(WarmSetFor(workload, attributes[table]));
    }
  }
}

std::string RequestStream::NextId() {
  return std::to_string(conn_) + "-" + std::to_string(seq_++);
}

RequestStream::Request RequestStream::Explain(size_t session,
                                              double epsilon) {
  const ConnSpec& conn = workload_.conns[conn_];
  Request r;
  r.id = NextId();
  r.op = "explain";
  r.dataset = conn.tables[session];
  r.session = session;
  r.line = "{\"op\":\"explain\",\"session\":\"" + conn.sessions[session] +
           "\",\"epsilon\":" + Num(epsilon);
  if (workload_.num_candidates > 0) {
    r.line += ",\"num_candidates\":" + std::to_string(workload_.num_candidates);
  }
  r.line += ",\"id\":\"" + r.id + "\"}";
  return r;
}

RequestStream::Request RequestStream::Hist(size_t session,
                                           const std::string& attribute,
                                           double epsilon) {
  const ConnSpec& conn = workload_.conns[conn_];
  Request r;
  r.id = NextId();
  r.op = "hist";
  r.dataset = conn.tables[session];
  r.session = session;
  r.line = "{\"op\":\"hist\",\"session\":\"" + conn.sessions[session] +
           "\",\"attribute\":\"" + attribute + "\",\"epsilon\":" +
           Num(epsilon) + ",\"id\":\"" + r.id + "\"}";
  return r;
}

RequestStream::Request RequestStream::Budget(size_t session) {
  const ConnSpec& conn = workload_.conns[conn_];
  Request r;
  r.id = NextId();
  r.op = "budget";
  r.dataset = conn.tables[session];
  r.session = session;
  r.line = "{\"op\":\"budget\",\"session\":\"" + conn.sessions[session] +
           "\",\"id\":\"" + r.id + "\"}";
  return r;
}

RequestStream::Request RequestStream::Next() {
  if (workload_.conns[conn_].role == Role::kAppender) {
    const size_t tables = workload_.ingest.size();
    const size_t batch = batches_++;
    return Append(batch / tables, batch % tables);
  }
  const std::vector<size_t>& tables = workload_.conns[conn_].tables;
  const size_t session = rng_.UniformInt(tables.size());
  const double u = rng_.UniformDouble();
  // Fresh releases get an ε no other request of the run uses (so they miss
  // the release cache); the offset ties the values to the seed.
  const double base = static_cast<double>(workload_.seed % 1000) * 1e-4;
  const double fresh = static_cast<double>(fresh_ * workload_.conns.size() +
                                           conn_);
  if (u < workload_.explain_share) {
    if (workload_.cached) {
      const std::vector<double>& eps = warm_[session].explain_eps;
      return Explain(session, eps[rng_.UniformInt(eps.size())]);
    }
    ++fresh_;
    return Explain(session, 0.3 + base + 1e-7 * fresh);
  }
  if (u < workload_.explain_share + workload_.hist_share) {
    if (workload_.cached) {
      const auto& hists = warm_[session].hists;
      const auto& [attribute, epsilon] = hists[rng_.UniformInt(hists.size())];
      return Hist(session, attribute, epsilon);
    }
    ++fresh_;
    const std::vector<std::string>& attrs = attributes_[tables[session]];
    return Hist(session, attrs[rng_.UniformInt(attrs.size())],
                0.05 + base / 10.0 + 1e-8 * fresh);
  }
  return Budget(session);
}

RequestStream::Request RequestStream::NextRelease(const std::string& op) {
  for (;;) {
    Request r = Next();
    if (r.op == op) return r;
  }
}

RequestStream::Request Repeated(const RequestStream::Request& request) {
  RequestStream::Request again = request;
  again.id = request.id + "r";
  const std::string old_member = ",\"id\":\"" + request.id + "\"}";
  again.line.replace(again.line.size() - old_member.size(), old_member.size(),
                     ",\"id\":\"" + again.id + "\"}");
  return again;
}

std::vector<RequestStream::Request> RequestStream::Warmup() {
  std::vector<Request> out;
  if (!workload_.cached) return out;
  const std::vector<size_t>& tables = workload_.conns[conn_].tables;
  for (size_t session = 0; session < tables.size(); ++session) {
    // The readers of one table split its working set between them, so each
    // release is paid for exactly once, by the session that warmed it.
    size_t rank = 0;
    size_t peers = 0;
    for (size_t c = 0; c < workload_.conns.size(); ++c) {
      const std::vector<size_t>& other = workload_.conns[c].tables;
      if (std::find(other.begin(), other.end(), tables[session]) ==
          other.end()) {
        continue;
      }
      if (c == conn_) rank = peers;
      ++peers;
    }
    const WarmSet& set = warm_[session];
    for (size_t j = rank; j < set.explain_eps.size(); j += peers) {
      out.push_back(Explain(session, set.explain_eps[j]));
    }
    for (size_t j = rank; j < set.hists.size(); j += peers) {
      out.push_back(Hist(session, set.hists[j].first, set.hists[j].second));
    }
  }
  return out;
}

RequestStream::Request RequestStream::Append(size_t batch, size_t slot) {
  const size_t table_index = workload_.ingest[slot % workload_.ingest.size()];
  const DatasetSpec& spec = workload_.datasets[table_index];
  const TableData& table = (*tables_)[table_index];
  const size_t pool = table.pool_json.size();
  const size_t start = batch * workload_.batch_rows % pool;
  Request r;
  r.id = NextId();
  r.op = "append_rows";
  r.dataset = table_index;
  r.rows = workload_.batch_rows;
  r.pool_start = start;
  r.line = "{\"op\":\"append_rows\",\"dataset\":\"" + spec.name +
           "\",\"rows\":[";
  for (size_t i = 0; i < workload_.batch_rows; ++i) {
    if (i > 0) r.line += ',';
    r.line += table.pool_json[(start + i) % pool];
  }
  r.line += "],\"id\":\"" + r.id + "\"}";
  return r;
}

}  // namespace perfbench
