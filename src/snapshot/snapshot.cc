#include "snapshot/snapshot.h"

#include <algorithm>
#include <unordered_map>

#include "common/file_util.h"
#include "common/logging.h"

namespace dpclustx::snapshot {

namespace {

// Counts come from the file, so no decoder reserves for one unchecked: a
// list grows as its elements are read (each reads at least one byte, so a
// corrupted count ends at the payload's end), and the one list worth
// reserving, a clustering's labels, is bounded by the bytes left first.

Status ExpectEnd(const ByteReader& r, const char* section) {
  if (r.AtEnd()) return Status::OK();
  return Status::IoError("snapshot " + std::string(section) + " section has " +
                         std::to_string(r.remaining()) +
                         " bytes left over (layout does not match its "
                         "format version)");
}

// ---- encode helpers -------------------------------------------------------

void PutBudget(ByteWriter& w, const PrivacyBudget::State& budget) {
  w.PutDouble(budget.spent);
  w.PutU64(budget.totals.size());
  for (const PrivacyBudget::LabelTotal& total : budget.totals) {
    w.PutString(total.label);
    w.PutU64(total.count);
    w.PutDouble(total.epsilon);
  }
}

StatusOr<PrivacyBudget::State> GetBudget(ByteReader& r) {
  PrivacyBudget::State budget;
  DPX_ASSIGN_OR_RETURN(budget.spent, r.GetDouble());
  DPX_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  for (uint64_t i = 0; i < count; ++i) {
    PrivacyBudget::LabelTotal total;
    DPX_ASSIGN_OR_RETURN(total.label, r.GetString());
    DPX_ASSIGN_OR_RETURN(total.count, r.GetU64());
    DPX_ASSIGN_OR_RETURN(total.epsilon, r.GetDouble());
    budget.totals.push_back(std::move(total));
  }
  return budget;
}

/// Formats 1 and 2 stored every charge. Folding them in order gives the
/// spent total those versions rebuilt by replaying each charge (a running
/// sum clamped at `total`), bit-for-bit, and the per-label rows.
StatusOr<PrivacyBudget::State> GetChargeList(ByteReader& r, double total) {
  DPX_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  PrivacyBudget::State budget;
  std::unordered_map<std::string, size_t> index;
  for (uint64_t i = 0; i < count; ++i) {
    DPX_ASSIGN_OR_RETURN(std::string label, r.GetString());
    DPX_ASSIGN_OR_RETURN(const double epsilon, r.GetDouble());
    budget.spent = std::min(budget.spent + epsilon, total);
    const auto [slot, added] = index.try_emplace(label, budget.totals.size());
    if (added) budget.totals.push_back({std::move(label), 0, 0.0});
    ++budget.totals[slot->second].count;
    budget.totals[slot->second].epsilon += epsilon;
  }
  return budget;
}

void PutTotals(ByteWriter& w, const std::string& tenant,
               const obs::AuditLog::Totals& totals) {
  w.PutString(tenant);
  w.PutDouble(totals.epsilon_charged);
  w.PutDouble(totals.epsilon_denied);
  w.PutU64(totals.charges);
  w.PutU64(totals.denials);
}

/// One tenant's totals; the global roll-up is stored under tenant "".
Status GetTotals(ByteReader& r, std::string* tenant,
                 obs::AuditLog::Totals* totals) {
  DPX_ASSIGN_OR_RETURN(*tenant, r.GetString());
  DPX_ASSIGN_OR_RETURN(totals->epsilon_charged, r.GetDouble());
  DPX_ASSIGN_OR_RETURN(totals->epsilon_denied, r.GetDouble());
  DPX_ASSIGN_OR_RETURN(totals->charges, r.GetU64());
  DPX_ASSIGN_OR_RETURN(totals->denials, r.GetU64());
  return Status::OK();
}

std::string EncodeMeta(const ServiceSnapshot& state) {
  ByteWriter w;
  w.PutU64(state.datasets.size());
  w.PutU64(state.sessions.size());
  w.PutU64(state.cache.size());
  w.PutU64(state.audit.next_seq);
  return w.Take();
}

std::string EncodeDatasets(const ServiceSnapshot& state) {
  ByteWriter w;
  w.PutU64(state.datasets.size());
  for (const DatasetState& ds : state.datasets) {
    w.PutString(ds.name);
    w.PutString(ds.source);
    w.PutU64(ds.uid);
    w.PutU64(ds.epoch);  // v2
    w.PutU8(ds.width_policy);
    w.PutDouble(ds.cap_epsilon);
    PutBudget(w, ds.cap);  // v3; v1/v2 listed every charge
    w.PutString(ds.schema_json);
    // v2: by-reference DPXCOL source. Rows are never written inline: the
    // column list that older images used for them is always empty.
    DPX_CHECK(ds.columns.empty())
        << "snapshot dataset '" << ds.name << "' carries inline columns";
    w.PutString(ds.columnar_path);
    w.PutU64(ds.columnar_file_uid);
    w.PutU64(ds.columnar_rows);
    w.PutU64(0);
    w.PutU64(ds.clusterings.size());
    for (const ClusteringState& cl : ds.clusterings) {
      w.PutString(cl.id);
      w.PutString(cl.description);
      w.PutString(cl.fingerprint);
      w.PutU64(cl.num_clusters);
      w.PutU64(cl.labels.size());
      for (const uint32_t label : cl.labels) w.PutU32(label);
    }
  }
  return w.Take();
}

StatusOr<std::vector<DatasetState>> DecodeDatasets(const std::string& payload,
                                                   uint32_t version) {
  ByteReader r(payload);
  DPX_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  std::vector<DatasetState> datasets;
  for (uint64_t i = 0; i < count; ++i) {
    DatasetState ds;
    DPX_ASSIGN_OR_RETURN(ds.name, r.GetString());
    DPX_ASSIGN_OR_RETURN(ds.source, r.GetString());
    DPX_ASSIGN_OR_RETURN(ds.uid, r.GetU64());
    if (version >= 2) {
      DPX_ASSIGN_OR_RETURN(ds.epoch, r.GetU64());
    }
    DPX_ASSIGN_OR_RETURN(ds.width_policy, r.GetU8());
    DPX_ASSIGN_OR_RETURN(ds.cap_epsilon, r.GetDouble());
    if (version >= 3) {
      DPX_ASSIGN_OR_RETURN(ds.cap, GetBudget(r));
    } else {
      DPX_ASSIGN_OR_RETURN(ds.cap, GetChargeList(r, ds.cap_epsilon));
    }
    DPX_ASSIGN_OR_RETURN(ds.schema_json, r.GetString());
    if (version >= 2) {
      DPX_ASSIGN_OR_RETURN(ds.columnar_path, r.GetString());
      DPX_ASSIGN_OR_RETURN(ds.columnar_file_uid, r.GetU64());
      DPX_ASSIGN_OR_RETURN(ds.columnar_rows, r.GetU64());
    }
    DPX_ASSIGN_OR_RETURN(const uint64_t num_columns, r.GetU64());
    for (uint64_t c = 0; c < num_columns; ++c) {
      ColumnState col;
      DPX_ASSIGN_OR_RETURN(col.width_tag, r.GetU8());
      DPX_ASSIGN_OR_RETURN(col.rows, r.GetU64());
      DPX_ASSIGN_OR_RETURN(col.bytes, r.GetString());
      ds.columns.push_back(std::move(col));
    }
    DPX_ASSIGN_OR_RETURN(const uint64_t num_clusterings, r.GetU64());
    for (uint64_t c = 0; c < num_clusterings; ++c) {
      ClusteringState cl;
      DPX_ASSIGN_OR_RETURN(cl.id, r.GetString());
      DPX_ASSIGN_OR_RETURN(cl.description, r.GetString());
      DPX_ASSIGN_OR_RETURN(cl.fingerprint, r.GetString());
      DPX_ASSIGN_OR_RETURN(cl.num_clusters, r.GetU64());
      DPX_ASSIGN_OR_RETURN(const uint64_t num_labels,
                           r.GetCount(sizeof(uint32_t)));
      cl.labels.reserve(num_labels);
      for (uint64_t l = 0; l < num_labels; ++l) {
        DPX_ASSIGN_OR_RETURN(const uint32_t label, r.GetU32());
        cl.labels.push_back(label);
      }
      ds.clusterings.push_back(std::move(cl));
    }
    datasets.push_back(std::move(ds));
  }
  DPX_RETURN_IF_ERROR(ExpectEnd(r, "datasets"));
  return datasets;
}

std::string EncodeSessions(const ServiceSnapshot& state) {
  ByteWriter w;
  w.PutU64(state.sessions.size());
  for (const SessionState& session : state.sessions) {
    w.PutString(session.id);
    w.PutString(session.dataset_name);
    w.PutU64(session.dataset_uid);
    w.PutDouble(session.total_epsilon);
    w.PutU8(session.audit_matches_ledger ? 1 : 0);
    PutBudget(w, session.budget);  // v3; v1/v2: spent, flag, every charge
  }
  return w.Take();
}

StatusOr<std::vector<SessionState>> DecodeSessions(const std::string& payload,
                                                   uint32_t version) {
  ByteReader r(payload);
  DPX_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  std::vector<SessionState> sessions;
  for (uint64_t i = 0; i < count; ++i) {
    SessionState session;
    DPX_ASSIGN_OR_RETURN(session.id, r.GetString());
    DPX_ASSIGN_OR_RETURN(session.dataset_name, r.GetString());
    DPX_ASSIGN_OR_RETURN(session.dataset_uid, r.GetU64());
    DPX_ASSIGN_OR_RETURN(session.total_epsilon, r.GetDouble());
    double saved_spent = 0.0;
    if (version < 3) {
      DPX_ASSIGN_OR_RETURN(saved_spent, r.GetDouble());
    }
    DPX_ASSIGN_OR_RETURN(const uint8_t matches, r.GetU8());
    session.audit_matches_ledger = matches != 0;
    if (version >= 3) {
      DPX_ASSIGN_OR_RETURN(session.budget, GetBudget(r));
    } else {
      DPX_ASSIGN_OR_RETURN(session.budget,
                           GetChargeList(r, session.total_epsilon));
      if (session.budget.spent != saved_spent) {
        return Status::IoError("snapshot ledger for session '" + session.id +
                               "' does not reproduce its saved spent total");
      }
    }
    sessions.push_back(std::move(session));
  }
  DPX_RETURN_IF_ERROR(ExpectEnd(r, "sessions"));
  return sessions;
}

std::string EncodeCache(const ServiceSnapshot& state) {
  ByteWriter w;
  w.PutU64(state.cache.size());
  for (const CacheEntryState& entry : state.cache) {
    w.PutString(entry.key);
    w.PutString(entry.payload);
  }
  return w.Take();
}

StatusOr<std::vector<CacheEntryState>> DecodeCache(
    const std::string& payload) {
  ByteReader r(payload);
  DPX_ASSIGN_OR_RETURN(const uint64_t count, r.GetU64());
  std::vector<CacheEntryState> cache;
  for (uint64_t i = 0; i < count; ++i) {
    CacheEntryState entry;
    DPX_ASSIGN_OR_RETURN(entry.key, r.GetString());
    DPX_ASSIGN_OR_RETURN(entry.payload, r.GetString());
    cache.push_back(std::move(entry));
  }
  DPX_RETURN_IF_ERROR(ExpectEnd(r, "cache"));
  return cache;
}

std::string EncodeAudit(const ServiceSnapshot& state) {
  const obs::AuditLog::State& audit = state.audit;
  ByteWriter w;
  w.PutU64(audit.next_seq);
  w.PutU64(audit.dropped);
  PutTotals(w, "", audit.global);
  w.PutU64(audit.tenants.size());
  for (const auto& [tenant, totals] : audit.tenants) {
    PutTotals(w, tenant, totals);
  }
  w.PutU64(audit.tail.size());
  for (const obs::AuditRecord& record : audit.tail) {
    w.PutU64(record.seq);
    w.PutString(record.tenant);
    w.PutString(record.dataset);
    w.PutString(record.label);
    w.PutDouble(record.epsilon);
    w.PutU8(record.granted ? 1 : 0);
    w.PutString(record.reason);
  }
  return w.Take();
}

StatusOr<obs::AuditLog::State> DecodeAudit(const std::string& payload) {
  ByteReader r(payload);
  obs::AuditLog::State audit;
  DPX_ASSIGN_OR_RETURN(audit.next_seq, r.GetU64());
  DPX_ASSIGN_OR_RETURN(audit.dropped, r.GetU64());
  std::string tenant;
  DPX_RETURN_IF_ERROR(GetTotals(r, &tenant, &audit.global));
  DPX_ASSIGN_OR_RETURN(const uint64_t num_tenants, r.GetU64());
  for (uint64_t i = 0; i < num_tenants; ++i) {
    obs::AuditLog::Totals totals;
    DPX_RETURN_IF_ERROR(GetTotals(r, &tenant, &totals));
    if (!audit.tenants.emplace(tenant, totals).second) {
      return Status::IoError("snapshot audit totals list tenant '" + tenant +
                             "' twice");
    }
  }
  DPX_ASSIGN_OR_RETURN(const uint64_t num_records, r.GetU64());
  for (uint64_t i = 0; i < num_records; ++i) {
    obs::AuditRecord record;
    DPX_ASSIGN_OR_RETURN(record.seq, r.GetU64());
    DPX_ASSIGN_OR_RETURN(record.tenant, r.GetString());
    DPX_ASSIGN_OR_RETURN(record.dataset, r.GetString());
    DPX_ASSIGN_OR_RETURN(record.label, r.GetString());
    DPX_ASSIGN_OR_RETURN(record.epsilon, r.GetDouble());
    DPX_ASSIGN_OR_RETURN(const uint8_t granted, r.GetU8());
    record.granted = granted != 0;
    DPX_ASSIGN_OR_RETURN(record.reason, r.GetString());
    audit.tail.push_back(std::move(record));
  }
  DPX_RETURN_IF_ERROR(ExpectEnd(r, "audit"));
  return audit;
}

}  // namespace

std::string EncodeServiceSnapshot(const ServiceSnapshot& state) {
  SectionWriter writer;
  writer.AddSection(SectionId::kMeta, EncodeMeta(state));
  writer.AddSection(SectionId::kDatasets, EncodeDatasets(state));
  writer.AddSection(SectionId::kSessions, EncodeSessions(state));
  writer.AddSection(SectionId::kCache, EncodeCache(state));
  writer.AddSection(SectionId::kAudit, EncodeAudit(state));
  return writer.Take();
}

StatusOr<ServiceSnapshot> DecodeServiceSnapshot(const std::string& bytes) {
  uint32_t version = 0;
  DPX_ASSIGN_OR_RETURN(const std::vector<Section> sections,
                       ParseSnapshotFile(bytes, &version));
  ServiceSnapshot state;
  state.format_version = version;
  bool saw_datasets = false, saw_sessions = false, saw_audit = false;
  for (const Section& section : sections) {
    switch (section.id) {
      case SectionId::kMeta:
        // Counts are advisory; the per-section payloads are authoritative.
        break;
      case SectionId::kDatasets: {
        DPX_ASSIGN_OR_RETURN(state.datasets,
                             DecodeDatasets(section.payload, version));
        saw_datasets = true;
        break;
      }
      case SectionId::kSessions: {
        DPX_ASSIGN_OR_RETURN(state.sessions,
                             DecodeSessions(section.payload, version));
        saw_sessions = true;
        break;
      }
      case SectionId::kCache: {
        DPX_ASSIGN_OR_RETURN(state.cache, DecodeCache(section.payload));
        break;
      }
      case SectionId::kAudit: {
        DPX_ASSIGN_OR_RETURN(state.audit, DecodeAudit(section.payload));
        saw_audit = true;
        break;
      }
      default:
        // Unknown-but-CRC-valid sections within a supported version are
        // skipped (compatible append; see header).
        break;
    }
  }
  if (!saw_datasets || !saw_sessions || !saw_audit) {
    return Status::IoError(
        "snapshot is missing a required section (datasets/sessions/audit)");
  }
  return state;
}

Status SaveSnapshotFile(const std::string& path,
                        const ServiceSnapshot& state) {
  return WriteFileAtomic(path, EncodeServiceSnapshot(state));
}

StatusOr<ServiceSnapshot> LoadSnapshotFile(const std::string& path) {
  DPX_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  return DecodeServiceSnapshot(bytes);
}

}  // namespace dpclustx::snapshot
