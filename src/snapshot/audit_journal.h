// Durable audit journal: the write-ahead log for budget charges.
//
// The in-memory AuditLog (src/obs) is bounded and drops its oldest records
// under pressure; replaying a lossy ring cannot reconstruct ledgers. The
// journal fixes that: every audit record is appended as one JSON line and
// flushed *before* the response leaves the worker, so after a SIGKILL the
// journal holds every charge whose release a client could have observed.
// Crash recovery = load the last snapshot, then apply journal records with
// seq >= the snapshot's audit cursor, in order — exactly-once for every
// observable ε charge.
//
// One JSON line per record:
//
//   {"dataset":"d","epsilon":0.5,"granted":true,"label":"explain",
//    "reason":"","seq":7,"tenant":"t"}
//
// Doubles go through the %.17g JSON writer, which round-trips exactly, so a
// replayed charge is bit-for-bit the charge that was made. A crash can tear
// at most the final line; the reader tolerates exactly that (a trailing
// partial line is ignored — its response was never sent, so dropping it is
// the correct accounting) and refuses anything else.

#ifndef DPCLUSTX_SNAPSHOT_AUDIT_JOURNAL_H_
#define DPCLUSTX_SNAPSHOT_AUDIT_JOURNAL_H_

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/audit_log.h"

namespace dpclustx::snapshot {

/// Append-only JSONL writer. Thread-safe; each Append is written and
/// flushed before it returns.
class AuditJournal {
 public:
  AuditJournal() = default;
  ~AuditJournal();

  AuditJournal(const AuditJournal&) = delete;
  AuditJournal& operator=(const AuditJournal&) = delete;

  /// Opens `path` for append, creating it if absent.
  Status Open(const std::string& path);

  /// Serializes `record` as one JSON line, writes it, and flushes. IoError
  /// if the write or flush fails: an unjournaled charge cannot be
  /// recovered, so the engine fails that charge's request.
  Status Append(const obs::AuditRecord& record);

  void Close();

 private:
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Serializes one record to its JSON line (no trailing newline). Exposed so
/// tests can forge journals byte-for-byte.
std::string AuditRecordToJsonLine(const obs::AuditRecord& record);

/// Reads every record from a journal file, in file order. An empty or
/// absent read is not an error at this layer (the caller decides whether a
/// missing journal is fatal) — a missing file yields NotFound, an empty
/// file yields an empty vector. A torn *final* line is skipped; a malformed
/// line anywhere else is IoError (the journal is corrupt, not torn).
StatusOr<std::vector<obs::AuditRecord>> ReadAuditJournal(
    const std::string& path);

}  // namespace dpclustx::snapshot

#endif  // DPCLUSTX_SNAPSHOT_AUDIT_JOURNAL_H_
