// Append-only privacy-budget audit log.
//
// Every ε charge or denial flows through AuditLog::Record with a monotonic
// sequence number, so the SessionManager ledgers become externally
// verifiable: the sum of granted charges per tenant in the log must equal
// the ledger's spent total exactly (tested, not approximately). To make
// that hold for floating-point ε under concurrency, callers invoke Record
// while still holding the same lock that serialized the ledger update
// (ServiceSession::Spend does this), so the log observes charges in ledger
// order and per-tenant running totals accumulate in the same order as the
// ledger's own sum.
//
// The record buffer is bounded (drop-oldest); per-tenant/global totals are
// exact forever regardless of drops, and `dropped` is reported so an
// auditor knows whether the tail is complete.
//
// DP-safety: a record carries tenant/session id, dataset name, an
// operation label, ε, and the grant/deny outcome — all operational
// metadata the client already knows. Never data values or per-record
// information.

#ifndef DPCLUSTX_OBS_AUDIT_LOG_H_
#define DPCLUSTX_OBS_AUDIT_LOG_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace dpclustx::obs {

struct AuditRecord {
  uint64_t seq = 0;  // monotonic from 1, never reused
  std::string tenant;
  std::string dataset;
  std::string label;  // operation label, e.g. "explain" or "hist"
  double epsilon = 0.0;
  bool granted = false;
  std::string reason;  // empty when granted; denial reason otherwise
};

/// {"seq","tenant","dataset","label","epsilon","granted","reason"}: the
/// audit op's record and, dumped, one audit journal line.
JsonValue RecordToJson(const AuditRecord& record);

class AuditLog {
 public:
  /// Keeps at most `capacity` records in the tail buffer (older records are
  /// dropped; totals are unaffected).
  explicit AuditLog(size_t capacity = 4096);
  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Appends one charge/denial and returns its sequence number, or the
  /// sink's error when the sink refused it. A refused record takes no seq
  /// and is not in the log or its totals; the caller's ledger keeps its
  /// charge (it may overstate, never understate).
  StatusOr<uint64_t> Record(const std::string& tenant,
                            const std::string& dataset,
                            const std::string& label, double epsilon,
                            bool granted, const std::string& reason = "");

  struct Totals {
    double epsilon_charged = 0.0;  // sum of granted ε, in Record order
    double epsilon_denied = 0.0;   // sum of denied ε
    uint64_t charges = 0;
    uint64_t denials = 0;
  };

  /// Per-tenant totals (exact: accumulated in Record order).
  Totals TenantTotals(const std::string& tenant) const;
  Totals GlobalTotals() const;

  /// Last `limit` records, oldest first (0 = all retained).
  std::vector<AuditRecord> Tail(size_t limit = 0) const;

  uint64_t next_seq() const;
  uint64_t dropped() const;

  /// Durable sink invoked synchronously inside Record, under the log's
  /// lock, with the fully-assigned record — before Record returns, hence
  /// before any response leaves the service. The snapshot layer's journal
  /// hangs off this hook so every observable charge is on disk first; its
  /// error comes back out of Record, so a charge that is not on disk
  /// releases nothing. The sink must not call back into this log. nullptr
  /// disables.
  using Sink = std::function<Status(const AuditRecord&)>;
  void set_sink(Sink sink);

  /// The complete mutable state, for snapshotting. Totals are the exact
  /// running doubles, not recomputed sums — restoring them and continuing
  /// in record order keeps the ledger/audit equality bit-for-bit.
  struct State {
    uint64_t next_seq = 1;
    uint64_t dropped = 0;
    Totals global;
    std::map<std::string, Totals> tenants;
    std::vector<AuditRecord> tail;  // oldest first
  };

  State SnapshotState() const;

  /// Overwrites this log's cursor, totals, and tail wholesale. Restore-time
  /// only: must happen before the log is shared with serving threads.
  void RestoreState(State state);

  /// Re-applies one journaled record exactly as recorded: keeps its seq
  /// (advancing next_seq to seq + 1), updates totals in call order, appends
  /// to the tail. Does NOT invoke the sink — a replayed record is already
  /// durable. Crash recovery replays the journal through this.
  void RestoreRecord(const AuditRecord& record);

  /// {"next_seq","dropped","totals":{tenant:{...}},"records":[...]} with
  /// records limited to `tail_limit` (0 = all retained). Field names are
  /// stable (golden-tested).
  JsonValue ToJson(size_t tail_limit = 0) const;

 private:
  void ApplyLocked(AuditRecord record);  // totals + bounded tail

  const size_t capacity_;
  mutable std::mutex mutex_;
  Sink sink_;  // guarded by mutex_
  std::deque<AuditRecord> records_;
  std::map<std::string, Totals> tenant_totals_;
  Totals global_totals_;
  uint64_t next_seq_ = 1;
  uint64_t dropped_ = 0;
};

}  // namespace dpclustx::obs

#endif  // DPCLUSTX_OBS_AUDIT_LOG_H_
