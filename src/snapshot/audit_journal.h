// Durable audit journal: the write-ahead log for budget charges.
//
// The in-memory AuditLog (src/obs) is bounded and drops its oldest records
// under pressure; replaying a lossy ring cannot reconstruct ledgers. The
// journal fixes that: every audit record is appended as one whole JSON line
// (obs::RecordToJson, written by ServiceEngine's AppendFile sink) *before*
// the response leaves the worker, so after a SIGKILL the journal holds
// every charge whose release a client could have observed (lines are not
// synced: a host crash can lose the tail). Crash recovery = load the last
// snapshot, then apply journal records with seq >= the snapshot's audit
// cursor, in order — exactly-once for every observable ε charge.
//
// One JSON line per record:
//
//   {"dataset":"d","epsilon":0.5,"granted":true,"label":"explain",
//    "reason":"","seq":7,"tenant":"t"}
//
// Doubles are written by JsonValue::Dump (std::to_chars at precision 17),
// which round-trips exactly, so a replayed charge is bit-for-bit the charge
// that was made. A failed append cuts its own half line; a crash can tear
// at most the final line, which the next open cuts. The reader tolerates
// exactly that (a trailing partial line is ignored — its response was never
// sent, so dropping it is the correct accounting) and refuses anything
// else.

#ifndef DPCLUSTX_SNAPSHOT_AUDIT_JOURNAL_H_
#define DPCLUSTX_SNAPSHOT_AUDIT_JOURNAL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/audit_log.h"

namespace dpclustx::snapshot {

/// Reads every record from a journal file, in file order. An empty or
/// absent read is not an error at this layer (the caller decides whether a
/// missing journal is fatal) — a missing file yields NotFound, an empty
/// file yields an empty vector. A torn *final* line is skipped; a malformed
/// line anywhere else is IoError (the journal is corrupt, not torn).
StatusOr<std::vector<obs::AuditRecord>> ReadAuditJournal(
    const std::string& path);

}  // namespace dpclustx::snapshot

#endif  // DPCLUSTX_SNAPSHOT_AUDIT_JOURNAL_H_
