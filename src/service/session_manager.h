// Multi-tenant session management with enforced budget ledgers.
//
// Every analyst (tenant) works through a ServiceSession: a per-session
// PrivacyBudget ledger bound to one registered dataset. All ε spending goes
// through ServiceSession::Spend, which is an atomic dual check-and-charge —
// the charge lands on the session ledger AND the dataset's global
// cross-session cap (when configured), or on neither. The enforcement
// invariants:
//
//   1. A session can never spend more than its own total ε.
//   2. All sessions together can never spend more than the dataset cap.
//   3. A refused charge changes no state anywhere (no partial charges), and
//      no noise is drawn for refused requests.
//
// Atomicity without cross-accountant refunds: a per-session lock serializes
// this session's spends, so the session-ledger pre-check (CanSpend) cannot
// be invalidated before the final charge; the shared cap is charged in
// between by its own internal atomic check-and-charge. A cap refusal
// therefore happens before the session ledger is touched.

#ifndef DPCLUSTX_SERVICE_SESSION_MANAGER_H_
#define DPCLUSTX_SERVICE_SESSION_MANAGER_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dp/privacy_budget.h"
#include "obs/audit_log.h"
#include "service/dataset_registry.h"

namespace dpclustx::service {

class ServiceSession {
 public:
  /// Requires total_epsilon > 0 and a non-null dataset entry.
  ServiceSession(std::string id, std::shared_ptr<DatasetEntry> dataset,
                 double total_epsilon);

  const std::string& id() const { return id_; }
  const std::shared_ptr<DatasetEntry>& dataset() const { return dataset_; }

  /// The session's own ledger (thread-safe). Read-only uses (reports,
  /// remaining_epsilon) are fine; charge exclusively through Spend so the
  /// dataset cap stays in sync.
  const PrivacyBudget& budget() const { return budget_; }

  /// Atomic dual check-and-charge (see file comment). OutOfBudget names
  /// which limit refused — the session ledger or the dataset cap. When the
  /// audit sink (the journal) refuses a granted charge, returns its error
  /// with the charge kept: the caller must release nothing.
  Status Spend(double epsilon, const std::string& label);

  /// Audit sink for every charge/denial this session processes. Recorded
  /// while spend_mutex_ is held, so the log observes this session's charges
  /// in ledger order and its per-tenant ε totals accumulate in exactly the
  /// same floating-point order as the ledger's own sum (the cross-check in
  /// tests is an equality, not a tolerance). The log must outlive every
  /// Spend call; nullptr disables auditing.
  void set_audit_log(obs::AuditLog* log) { audit_log_ = log; }

  /// Snapshot-consistency gate (see SessionManager::spend_gate). Spend
  /// holds it shared for the whole ledger+cap+audit transaction; the
  /// snapshot harvester holds it exclusive, so a snapshot never observes a
  /// charge on one ledger but not the other. nullptr disables (tests that
  /// drive a bare session).
  void set_spend_gate(std::shared_mutex* gate) { spend_gate_ = gate; }

  /// Re-applies one journaled charge to the session ledger ONLY — no
  /// dataset-cap charge (journal replay charges the cap itself) and no
  /// audit record (the charge is already journaled). Charges replayed in
  /// journal order rebuild the spent total through the same floating-point
  /// additions, so the result is bit-for-bit the pre-crash ledger.
  /// OutOfBudget here means the journal and snapshot are inconsistent.
  Status RestoreCharge(double epsilon, const std::string& label);

  /// Sets a session nothing was charged to from its saved accountant
  /// (PrivacyBudget::Restore).
  Status RestoreBudget(const PrivacyBudget::State& state);

 private:
  const std::string id_;
  const std::shared_ptr<DatasetEntry> dataset_;
  std::mutex spend_mutex_;  // serializes this session's dual charges
  PrivacyBudget budget_;
  obs::AuditLog* audit_log_ = nullptr;
  std::shared_mutex* spend_gate_ = nullptr;
};

class SessionManager {
 public:
  /// Creates a session with a fresh ledger of `total_epsilon`. A taken id is
  /// FailedPrecondition (budgets are immutable; closing and reopening a
  /// session id does not reset the dataset cap).
  StatusOr<std::shared_ptr<ServiceSession>> Create(
      const std::string& id, std::shared_ptr<DatasetEntry> dataset,
      double total_epsilon);

  /// Registers a session built elsewhere (snapshot restore) with the same
  /// audit log and spend gate Create gives. FailedPrecondition when its id
  /// is taken.
  Status Add(std::shared_ptr<ServiceSession> session);

  StatusOr<std::shared_ptr<ServiceSession>> Get(const std::string& id) const;

  /// Removes the session. Spending already charged to the dataset cap stays
  /// charged — closing a session never returns ε to the shared pool.
  Status Close(const std::string& id);

  std::vector<std::string> Ids() const;
  /// Every open session, in id order (snapshot harvest).
  std::vector<std::shared_ptr<ServiceSession>> Sessions() const;
  size_t size() const;

  /// Audit sink handed to every session created afterwards (existing
  /// sessions are untouched). Must outlive the sessions; typically set once
  /// right after construction, before any Create.
  void set_audit_log(obs::AuditLog* log);

  /// The spend gate every created session shares. A snapshot harvester
  /// takes it exclusively to freeze all ledgers, caps, and the audit log in
  /// one coherent instant (each Spend holds it shared across its whole
  /// dual-charge + audit transaction); normal serving takes it shared, so
  /// concurrent spends are unaffected.
  std::shared_mutex& spend_gate() { return spend_gate_; }

 private:
  mutable std::mutex mutex_;
  mutable std::shared_mutex spend_gate_;
  std::map<std::string, std::shared_ptr<ServiceSession>> sessions_;
  obs::AuditLog* audit_log_ = nullptr;  // guarded by mutex_
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_SESSION_MANAGER_H_
