// Durable snapshot of the hot explanation-service state.
//
// ServiceSnapshot is a plain-data image of everything a dpclustx_serve
// worker must not lose across a crash or restart: every registered dataset
// (schema, a DPXCOL file reference, pinned uid and epoch, ε cap and its
// accountant, clustering labels — the StatsCache is rebuilt on load,
// bitwise-identical), every open session's accountant (the spent
// total's exact bits plus one row per charge label, PrivacyBudget::State),
// the release cache in LRU order, and the audit log's own state
// (obs::AuditLog::State), which is the per-charge record. The audit cursor
// is the replay anchor: recovery loads the snapshot, then replays the audit
// journal strictly after it, so every ε charge lands exactly once.
//
// This layer sits below src/service: it holds the state structs and the
// byte codec only. ServiceEngine harvests and applies them, which keeps the
// format testable without a running engine.
//
// Versioning rules (DESIGN.md §11): loading refuses any format version
// newer than this build. Within a version, unknown section ids are skipped
// — appending sections is compatible; any other layout change bumps the
// version.

#ifndef DPCLUSTX_SNAPSHOT_SNAPSHOT_H_
#define DPCLUSTX_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dp/privacy_budget.h"
#include "obs/audit_log.h"
#include "snapshot/snapshot_io.h"

namespace dpclustx::snapshot {

/// One published clustering view: labels only; the StatsCache is rebuilt on
/// load from (columns, labels) and is bitwise-identical by construction.
struct ClusteringState {
  std::string id;
  std::string description;
  std::string fingerprint;
  uint64_t num_clusters = 0;
  std::vector<uint32_t> labels;
};

/// One inline column of a format 1–3 image, exactly as NarrowColumn stores
/// it. Decoded only: the writer never emits one.
struct ColumnState {
  uint8_t width_tag = 0;  // ColumnWidth as u8: 0 = k8, 1 = k16, 2 = k32
  uint64_t rows = 0;
  std::string bytes;  // rows * width bytes, host-order codes
};

/// One registered dataset, saved *by reference* to the DPXCOL file that
/// holds its rows: `columnar_path` names the file (a client's, or the row
/// file a save wrote beside the snapshot for a heap dataset),
/// `columnar_file_uid` pins its identity (the restore refuses a swapped
/// file), and `columnar_rows` is the row count at save time (the file may
/// have grown since: appends are durable in the file itself, and the
/// restore maps exactly the saved prefix so the rebuilt state matches the
/// snapshot's ledgers and caches). Images of formats 1–3 may instead carry
/// the rows inline in `columns` (format 1 always does, with no reference);
/// those still restore, onto the heap. EncodeServiceSnapshot refuses a
/// state with `columns` (it aborts: no engine harvest makes one).
struct DatasetState {
  std::string name;
  std::string source;
  uint64_t uid = 0;
  /// Append generation at save time (format v2+; 0 in v1 files). Release
  /// cache keys embed it, so it is pinned across restore like the uid.
  uint64_t epoch = 0;
  uint8_t width_policy = 0;  // WidthPolicy as u8
  double cap_epsilon = 0.0;  // <= 0 = uncapped
  PrivacyBudget::State cap;  // empty when uncapped
  std::string schema_json;  // serialization::SchemaToJson payload
  /// The DPXCOL file (format v2+). Empty only in an older image whose
  /// rows are inline in `columns`.
  std::string columnar_path;
  uint64_t columnar_file_uid = 0;
  uint64_t columnar_rows = 0;
  std::vector<ColumnState> columns;  // decoded from formats 1–3 only
  std::vector<ClusteringState> clusterings;
};

/// One open session's accountant. `budget.spent` is saved as its exact
/// bits, so the restored total is the saved one bit-for-bit; the per-label
/// rows must add up to it (checked on load — a mismatch means corruption).
struct SessionState {
  std::string id;
  std::string dataset_name;
  uint64_t dataset_uid = 0;
  double total_epsilon = 0.0;
  /// True when, at save time, the audit log's per-tenant granted total
  /// equaled this session's spent total exactly (false only when a closed
  /// session's records share the tenant id). Recovery re-asserts the
  /// equality after replay only when it held at save.
  bool audit_matches_ledger = true;
  PrivacyBudget::State budget;
};

/// One release-cache entry. Entries are saved least- to most-recently used
/// so a restore rebuilds the same LRU order.
struct CacheEntryState {
  std::string key;
  std::string payload;
};

/// The whole worker state.
struct ServiceSnapshot {
  /// The format version this state was decoded from (kSnapshotFormatVersion
  /// when built fresh for encoding). Older-version files load with the new
  /// fields at their defaults (epoch 0, no columnar reference), and their
  /// per-charge ledgers folded in charge order into per-label rows.
  uint32_t format_version = kSnapshotFormatVersion;
  std::vector<DatasetState> datasets;
  std::vector<SessionState> sessions;
  std::vector<CacheEntryState> cache;  // LRU order, oldest first
  /// Audit-log cursor + exact totals + retained tail. The cursor
  /// (next_seq) is the replay anchor: journal records >= it apply.
  obs::AuditLog::State audit;
};

/// Encodes to the complete snapshot file image (magic + version + CRC'd
/// sections). Deterministic: the same state encodes to the same bytes.
std::string EncodeServiceSnapshot(const ServiceSnapshot& state);

/// Decodes and verifies a snapshot file image. IoError on corruption,
/// truncation, a count larger than the bytes left, payload bytes left over
/// after a section, or a tenant listed twice in the audit totals,
/// FailedPrecondition on an unsupported (newer) format version.
StatusOr<ServiceSnapshot> DecodeServiceSnapshot(const std::string& bytes);

/// Writes the snapshot atomically (tmp + rename) to `path`.
Status SaveSnapshotFile(const std::string& path, const ServiceSnapshot& state);

/// Reads and decodes `path`. NotFound when the file does not exist.
StatusOr<ServiceSnapshot> LoadSnapshotFile(const std::string& path);

}  // namespace dpclustx::snapshot

#endif  // DPCLUSTX_SNAPSHOT_SNAPSHOT_H_
