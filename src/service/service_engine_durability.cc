// ServiceEngine durability (src/snapshot; DESIGN.md §11): snapshot harvest
// and apply, the row files beside a snapshot, audit-journal replay, and the
// save_snapshot op.
#include "service/service_engine.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <shared_mutex>

#include "core/serialization.h"
#include "obs/trace.h"
#include "snapshot/audit_journal.h"
#include "snapshot/snapshot_io.h"

namespace dpclustx::service {

namespace {

JsonValue Count(uint64_t n) { return JsonValue::Number(static_cast<double>(n)); }

// The journal's records with seq >= `cursor`, in order — those not already
// inside the snapshot — or a refusal when one of them is missing. No
// journal file is a fresh deployment, not a recovery failure.
StatusOr<std::vector<obs::AuditRecord>> JournalAfterCursor(
    const std::string& journal_path, uint64_t cursor) {
  StatusOr<std::vector<obs::AuditRecord>> records =
      snapshot::ReadAuditJournal(journal_path);
  if (records.status().code() == StatusCode::kNotFound) {
    return std::vector<obs::AuditRecord>();
  }
  DPX_RETURN_IF_ERROR(records.status());
  std::vector<obs::AuditRecord> after;
  for (obs::AuditRecord& record : *records) {
    if (record.seq < cursor) continue;
    if (record.seq != cursor + after.size()) {
      // A hole at or after the cursor means records were lost (truncation,
      // a dropped write): ledgers rebuilt across it would be wrong.
      return Status::FailedPrecondition(
          "audit journal has a gap: expected seq " +
          std::to_string(cursor + after.size()) +
          " after the snapshot cursor, found " + std::to_string(record.seq) +
          " — refusing to rebuild ledgers across missing charges");
    }
    after.push_back(std::move(record));
  }
  return after;
}

// A save's row file: `<snapshot path>.<file uid as 16 hex digits>.dpxcol`.
constexpr char kRowFileSuffix[] = ".dpxcol";
constexpr size_t kRowFileUidDigits = 16;

// Writes `dataset` to a new row file beside `snapshot_path`, points `ds` at
// it, and returns the mapped dataset over the file. The file has the
// append headroom, so appends after a save commit in place instead of
// rewriting the file.
StatusOr<Dataset> WriteRowFile(const Dataset& dataset,
                               const std::string& snapshot_path,
                               snapshot::DatasetState* ds) {
  ColumnarWriteOptions options;
  options.capacity_rows = ColumnarCapacityWithHeadroom(dataset.num_rows());
  options.file_uid = MintColumnarFileUid();
  char uid[kRowFileUidDigits + 1];
  std::snprintf(uid, sizeof(uid), "%016" PRIx64, options.file_uid);
  const std::string path = snapshot_path + "." + uid + kRowFileSuffix;
  DPX_RETURN_IF_ERROR(WriteColumnarFile(dataset, path, options));
  DPX_ASSIGN_OR_RETURN(std::shared_ptr<const MappedColumnar> mapped,
                       MappedColumnar::Open(path));
  ds->columnar_path = path;
  ds->columnar_file_uid = options.file_uid;
  ds->columnar_rows = dataset.num_rows();
  return Dataset::FromMapped(std::move(mapped));
}

// The file uid in `name` when it is a row file name of the snapshot named
// `base`, else 0 (no file has uid 0).
uint64_t RowFileUid(const std::string& name, const std::string& base) {
  const size_t digits = base.size() + 1;
  const size_t suffix = digits + kRowFileUidDigits;
  if (name.size() != suffix + std::strlen(kRowFileSuffix) ||
      name.compare(0, base.size(), base) != 0 || name[base.size()] != '.' ||
      name.compare(suffix, std::string::npos, kRowFileSuffix) != 0) {
    return 0;
  }
  uint64_t uid = 0;
  const std::from_chars_result parsed = std::from_chars(
      name.data() + digits, name.data() + suffix, uid, 16);
  return parsed.ec == std::errc() && parsed.ptr == name.data() + suffix ? uid
                                                                        : 0;
}

// The file uids `state`'s datasets reference.
std::set<uint64_t> FileUids(const snapshot::ServiceSnapshot& state) {
  std::set<uint64_t> uids;
  for (const snapshot::DatasetState& ds : state.datasets) {
    uids.insert(ds.columnar_file_uid);
  }
  return uids;
}

// Deletes the row files beside `snapshot_path` whose uid is not in `named`:
// files of replaced or dropped datasets, and those of a save that failed
// or died before its image was renamed. The uid is in the name, and an
// append that grows a file keeps it (it renames a new inode over the
// path), so no file is examined and a concurrent append cannot make a
// live file look unnamed. Best effort: a file left behind is deleted by a
// later save.
void RemoveUnnamedRowFiles(const std::string& snapshot_path,
                           const std::set<uint64_t>& named) {
  const std::filesystem::path snapshot(snapshot_path);
  const std::string base = snapshot.filename().string();
  std::error_code error;
  std::filesystem::directory_iterator it(
      snapshot.has_parent_path() ? snapshot.parent_path()
                                 : std::filesystem::path("."),
      error);
  for (; !error && it != std::filesystem::directory_iterator();
       it.increment(error)) {
    const uint64_t uid = RowFileUid(it->path().filename().string(), base);
    if (uid != 0 && named.count(uid) == 0) ::unlink(it->path().c_str());
  }
}

}  // namespace

Status ServiceEngine::EnableAuditJournal(const std::string& path) {
  DPX_RETURN_IF_ERROR(journal_.Open(path));
  // The sink runs inside AuditLog::Record, under its lock, before the
  // charge's response is built — the journal is a write-ahead log for every
  // ε charge a client could have observed. A failed append fails the charge
  // (ServiceSession::Spend), so that client observes nothing.
  audit_.set_sink([this](const obs::AuditRecord& record) {
    const Status appended =
        journal_.AppendLine(obs::RecordToJson(record).Dump());
    (appended.ok() ? journal_records_ : journal_failures_)->Increment();
    return appended;
  });
  return Status::OK();
}

Status ServiceEngine::SaveSnapshotToFile(const std::string& path) {
  DPX_SPAN("snapshot_save");
  // One save at a time (the periodic save and the save_snapshot op share
  // the tmp file name), taken before the gate so a waiting save holds no
  // charge up.
  std::lock_guard<std::mutex> saving(snapshot_save_mutex_);
  snapshot::ServiceSnapshot state;
  std::vector<HeapGeneration> heap;
  {
    // Exclusive gate: every in-flight Spend holds it shared across its
    // whole ledger+cap+audit transaction, so once acquired, every charge is
    // either fully in the harvested state or fully after its audit cursor.
    // Writing row files and the image needs no gate.
    std::unique_lock<std::shared_mutex> gate(sessions_.spend_gate());
    DPX_ASSIGN_OR_RETURN(state, HarvestSnapshot(&heap));
  }
  // Each heap generation goes to its own file once; the image names it
  // like any DPXCOL dataset, and the entry serves the file from now on
  // unless an append replaced that generation meanwhile (the image still
  // names the file, which holds exactly the harvested rows).
  for (const HeapGeneration& generation : heap) {
    snapshot::DatasetState& ds = state.datasets[generation.index];
    DPX_ASSIGN_OR_RETURN(Dataset mapped,
                         WriteRowFile(*generation.dataset, path, &ds));
    generation.entry->AdoptMapped(generation.dataset, std::move(mapped));
  }
  DPX_RETURN_IF_ERROR(InjectFault("snapshot:image", JsonValue(), nullptr));
  DPX_RETURN_IF_ERROR(snapshot::SaveSnapshotFile(path, state));
  snapshot_saves_->Increment();
  // A file this image no longer names may still be named by the image at
  // another path (a save_snapshot elsewhere made the entry adopt it), and
  // that image must stay restorable.
  image_file_uids_[path] = FileUids(state);
  std::set<uint64_t> named;
  for (const auto& [image, uids] : image_file_uids_) {
    named.insert(uids.begin(), uids.end());
  }
  RemoveUnnamedRowFiles(path, named);
  return Status::OK();
}

StatusOr<snapshot::ServiceSnapshot> ServiceEngine::HarvestSnapshot(
    std::vector<HeapGeneration>* heap) {
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
    if (const PrivacyBudget* cap = entry->cap()) ds.cap = cap->state();
    ds.schema_json = SchemaToJson(dataset->schema());
    if (dataset->is_mapped()) {
      // By reference: the DPXCOL file is the durable copy of the bytes.
      // The saved row count pins the generation — the file may legitimately
      // grow past it before the snapshot is restored.
      ds.columnar_path = dataset->mapped()->path();
      ds.columnar_file_uid = dataset->mapped()->file_uid();
      ds.columnar_rows = dataset->num_rows();
    } else {
      heap->push_back({entry, state.datasets.size(), std::move(dataset)});
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
    ss.budget = session->budget().state();
    // Exact comparison on purpose: recovery re-asserts the equality only
    // where it held at save (a closed session reusing the tenant id breaks
    // it legitimately — its charges stay in the audit totals).
    ss.audit_matches_ledger =
        audit_.TenantTotals(session->id()).epsilon_charged == ss.budget.spent;
    state.sessions.push_back(std::move(ss));
  }

  for (auto& [key, payload] : cache_.Entries()) {
    state.cache.push_back(
        snapshot::CacheEntryState{std::move(key), std::move(payload)});
  }

  state.audit = audit_.SnapshotState();
  return state;
}

Status ServiceEngine::ApplySnapshot(
    const snapshot::ServiceSnapshot& state,
    const std::vector<obs::AuditRecord>& journal, RestoreReport* report) {
  // Every cached release, dataset and session is rebuilt and checked before
  // anything is registered: a snapshot refused anywhere leaves the engine
  // empty. The releases pass the check a fresh one passes before the cache
  // takes it, so a hit never serves a payload that is not a finite object.
  std::vector<std::shared_ptr<const CachedRelease>> releases;
  releases.reserve(state.cache.size());
  for (const snapshot::CacheEntryState& entry : state.cache) {
    StatusOr<std::shared_ptr<const CachedRelease>> release =
        CachedRelease::FromBytes(entry.payload);
    if (!release.ok()) {
      return Status::IoError("snapshot cache entry '" + entry.key +
                             "' is not a cacheable release: " +
                             release.status().message());
    }
    releases.push_back(std::move(*release));
  }
  std::map<std::string, std::shared_ptr<DatasetEntry>> entries;
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
      // An older image's inline columns: the dataset comes back on the
      // heap, and the next save moves it into a row file.
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
    if (entry->cap() != nullptr) {
      // The saved spent bits are the total itself: no replay, no drift.
      const Status restored = entry->cap()->Restore(ds.cap);
      if (!restored.ok()) {
        return Status::IoError("snapshot cap ledger for dataset '" + ds.name +
                               "' does not fit its cap: " +
                               restored.message());
      }
    } else if (ds.cap.spent != 0.0 || !ds.cap.totals.empty()) {
      return Status::IoError("snapshot dataset '" + ds.name +
                             "' has cap charges but no cap");
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
    if (!entries.emplace(ds.name, std::move(entry)).second) {
      return Status::IoError("snapshot lists dataset '" + ds.name +
                             "' twice");
    }
  }

  std::vector<std::shared_ptr<ServiceSession>> sessions;
  std::map<std::string, ServiceSession*> by_id;
  for (const snapshot::SessionState& ss : state.sessions) {
    const auto entry = entries.find(ss.dataset_name);
    if (entry == entries.end()) {
      return Status::IoError("snapshot session '" + ss.id +
                             "' names dataset '" + ss.dataset_name +
                             "', which the snapshot does not hold");
    }
    if (entry->second->uid() != ss.dataset_uid) {
      return Status::IoError(
          "snapshot session '" + ss.id + "' names dataset uid " +
          std::to_string(ss.dataset_uid) + " but the restored dataset '" +
          ss.dataset_name + "' has uid " +
          std::to_string(entry->second->uid()));
    }
    if (ss.id.empty() || !(ss.total_epsilon > 0.0) ||
        by_id.count(ss.id) != 0) {
      return Status::IoError("snapshot session '" + ss.id +
                             "' has an empty or repeated id or a "
                             "non-positive budget");
    }
    auto session = std::make_shared<ServiceSession>(ss.id, entry->second,
                                                    ss.total_epsilon);
    const Status restored = session->RestoreBudget(ss.budget);
    if (!restored.ok()) {
      return Status::IoError("snapshot ledger for session '" + ss.id +
                             "' does not fit its budget: " +
                             restored.message());
    }
    by_id[ss.id] = session.get();
    sessions.push_back(std::move(session));
  }

  // The journal's post-cursor charges, onto the rebuilt ledgers and caps
  // before anything is registered: a replay refused anywhere leaves the
  // engine empty too.
  for (const obs::AuditRecord& record : journal) {
    if (!record.granted) continue;
    const auto session = by_id.find(record.tenant);
    if (session != by_id.end()) {
      const Status charged =
          session->second->RestoreCharge(record.epsilon, record.label);
      if (!charged.ok()) {
        return Status::FailedPrecondition(
            "journal replay overflows the ledger of session '" +
            record.tenant + "': " + charged.message());
      }
      if (PrivacyBudget* cap = session->second->dataset()->cap()) {
        // Post-cursor charges are not in the saved cap ledger; re-apply
        // with the same label shape ServiceSession::Spend uses.
        DPX_RETURN_IF_ERROR(
            cap->Spend(record.epsilon, record.tenant + "/" + record.label));
      }
      continue;
    }
    // The session was created after the snapshot: its ledger cannot be
    // rebuilt (session creation is not journaled), but the dataset cap must
    // never understate — charge it and report the tenant.
    const auto entry = entries.find(record.dataset);
    if (entry != entries.end() && entry->second->cap() != nullptr) {
      DPX_RETURN_IF_ERROR(entry->second->cap()->Spend(
          record.epsilon, record.tenant + "/" + record.label));
    }
    if (std::find(report->unrecovered_sessions.begin(),
                  report->unrecovered_sessions.end(),
                  record.tenant) == report->unrecovered_sessions.end()) {
      report->unrecovered_sessions.push_back(record.tenant);
    }
  }

  // RestoreRecord keeps the journaled seq and does not re-invoke the sink,
  // so replay never double-journals.
  audit_.RestoreState(state.audit);
  for (const obs::AuditRecord& record : journal) audit_.RestoreRecord(record);
  // Cross-check: where audit/ledger equality held at save it must hold now —
  // both sides restarted from the same saved doubles and replay applied the
  // same additions to both in the same order.
  for (size_t i = 0; i < sessions.size(); ++i) {
    const snapshot::SessionState& ss = state.sessions[i];
    if (ss.audit_matches_ledger &&
        audit_.TenantTotals(ss.id).epsilon_charged !=
            sessions[i]->budget().spent_epsilon()) {
      audit_.RestoreState({});
      return Status::Internal("post-recovery audit/ledger mismatch for "
                              "session '" + ss.id +
                              "': the journal and snapshot disagree");
    }
  }

  for (auto& [name, entry] : entries) {
    DPX_RETURN_IF_ERROR(registry_.RestoreEntry(std::move(entry)));
    ++report->datasets;
  }
  // Uids minted after the restore must not collide with pinned ones (release
  // cache keys embed them).
  if (max_uid > 0) DatasetEntry::BumpUidFloor(max_uid + 1);
  for (std::shared_ptr<ServiceSession>& session : sessions) {
    DPX_RETURN_IF_ERROR(sessions_.Add(std::move(session)));
    ++report->sessions;
  }

  for (size_t i = 0; i < releases.size(); ++i) {
    cache_.Put(state.cache[i].key, std::move(releases[i]));
    ++report->cache_entries;
  }
  journal_replayed_->Increment(journal.size());
  report->replayed_records = journal.size();
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
      StatusOr<std::vector<obs::AuditRecord>> journaled =
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

  std::vector<obs::AuditRecord> journal;
  if (!journal_path.empty()) {
    DPX_ASSIGN_OR_RETURN(journal,
                         JournalAfterCursor(journal_path,
                                            state->audit.next_seq));
  }
  RestoreReport report;
  report.format_version = state->format_version;
  DPX_RETURN_IF_ERROR(ApplySnapshot(*state, journal, &report));
  snapshot_restores_->Increment();
  std::lock_guard<std::mutex> saving(snapshot_save_mutex_);
  image_file_uids_[snapshot_path] = FileUids(*state);
  return report;
}

StatusOr<JsonValue> ServiceEngine::OpSaveSnapshot(const JsonValue& request,
                                                  const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string path, request.GetString("path"));
  DPX_RETURN_IF_ERROR(SaveSnapshotToFile(path));
  JsonValue body = JsonValue::Object();
  body.Set("path", JsonValue::String(path));
  body.Set("format_version", Count(snapshot::kSnapshotFormatVersion));
  body.Set("datasets", Count(registry_.size()));
  body.Set("sessions", Count(sessions_.size()));
  body.Set("cache_entries", Count(cache_.size()));
  body.Set("audit_next_seq", Count(audit_.next_seq()));
  return body;
}

}  // namespace dpclustx::service
