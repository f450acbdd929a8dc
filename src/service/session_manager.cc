#include "service/session_manager.h"

#include <cstdio>

#include "common/logging.h"

namespace dpclustx::service {

ServiceSession::ServiceSession(std::string id,
                               std::shared_ptr<DatasetEntry> dataset,
                               double total_epsilon)
    : id_(std::move(id)), dataset_(std::move(dataset)),
      budget_(total_epsilon) {
  DPX_CHECK(dataset_ != nullptr) << "session needs a dataset";
}

Status ServiceSession::Spend(double epsilon, const std::string& label) {
  if (epsilon <= 0.0) {
    // Malformed request, not a ledger event: nothing to audit.
    return Status::InvalidArgument("epsilon must be positive (label '" +
                                   label + "')");
  }
  // Shared gate first (never blocks other spenders), own lock second. A
  // snapshot harvester holding the gate exclusively therefore sees either
  // none or all of {session charge, cap charge, audit record}.
  std::shared_lock<std::shared_mutex> gate;
  if (spend_gate_ != nullptr) {
    gate = std::shared_lock<std::shared_mutex>(*spend_gate_);
  }
  std::lock_guard<std::mutex> lock(spend_mutex_);
  if (!budget_.CanSpend(epsilon)) {
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "session '%s': spending %.6g for '%s' exceeds the session "
                  "budget (spent %.6g of %.6g)",
                  id_.c_str(), epsilon, label.c_str(),
                  budget_.spent_epsilon(), budget_.total_epsilon());
    if (audit_log_ != nullptr) {
      audit_log_->Record(id_, dataset_->name(), label, epsilon,
                         /*granted=*/false, "session budget");
    }
    return Status::OutOfBudget(msg);
  }
  PrivacyBudget* cap = dataset_->cap();
  if (cap != nullptr) {
    const Status capped = cap->Spend(epsilon, id_ + "/" + label);
    if (!capped.ok()) {
      if (audit_log_ != nullptr) {
        audit_log_->Record(id_, dataset_->name(), label, epsilon,
                           /*granted=*/false, "dataset cap");
      }
      return Status::OutOfBudget("dataset '" + dataset_->name() +
                                 "' global cap: " + capped.message());
    }
  }
  // Cannot fail: spend_mutex_ serializes this session's spends, so the
  // CanSpend check above still holds.
  const Status charged = budget_.Spend(epsilon, label);
  DPX_CHECK(charged.ok()) << charged.ToString();
  // Audited under spend_mutex_, after the charge: the log sees this
  // session's grants in ledger order (see set_audit_log). A charge the
  // journal could not take stays charged but fails the request, so nothing
  // is released that a restart could not account for.
  if (audit_log_ != nullptr) {
    DPX_RETURN_IF_ERROR(audit_log_
                            ->Record(id_, dataset_->name(), label, epsilon,
                                     /*granted=*/true)
                            .status());
  }
  return Status::OK();
}

Status ServiceSession::RestoreCharge(double epsilon,
                                     const std::string& label) {
  if (epsilon <= 0.0) {
    return Status::InvalidArgument(
        "restored ledger entry has non-positive epsilon (label '" + label +
        "')");
  }
  std::lock_guard<std::mutex> lock(spend_mutex_);
  // Same code path as the original charge (budget_.Spend adds to the
  // running total and the label's row), so an in-order replay reproduces
  // the exact floating-point sum. No cap charge, no audit record.
  return budget_.Spend(epsilon, label);
}

Status ServiceSession::RestoreBudget(const PrivacyBudget::State& state) {
  std::lock_guard<std::mutex> lock(spend_mutex_);
  return budget_.Restore(state);
}

StatusOr<std::shared_ptr<ServiceSession>> SessionManager::Create(
    const std::string& id, std::shared_ptr<DatasetEntry> dataset,
    double total_epsilon) {
  if (id.empty()) {
    return Status::InvalidArgument("session id must be non-empty");
  }
  if (dataset == nullptr) {
    return Status::InvalidArgument("session needs a dataset");
  }
  if (!(total_epsilon > 0.0)) {  // NaN too: PrivacyBudget requires > 0
    return Status::InvalidArgument("session budget must be positive");
  }
  auto session =
      std::make_shared<ServiceSession>(id, std::move(dataset), total_epsilon);
  DPX_RETURN_IF_ERROR(Add(session));
  return session;
}

Status SessionManager::Add(std::shared_ptr<ServiceSession> session) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.count(session->id()) != 0) {
    return Status::FailedPrecondition("session '" + session->id() +
                                      "' already exists");
  }
  session->set_audit_log(audit_log_);
  session->set_spend_gate(&spend_gate_);
  sessions_.emplace(session->id(), std::move(session));
  return Status::OK();
}

StatusOr<std::shared_ptr<ServiceSession>> SessionManager::Get(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session '" + id + "'");
  }
  return it->second;
}

Status SessionManager::Close(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.erase(id) == 0) {
    return Status::NotFound("no session '" + id + "'");
  }
  return Status::OK();
}

std::vector<std::string> SessionManager::Ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

std::vector<std::shared_ptr<ServiceSession>> SessionManager::Sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<ServiceSession>> sessions;
  sessions.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) sessions.push_back(session);
  return sessions;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

void SessionManager::set_audit_log(obs::AuditLog* log) {
  std::lock_guard<std::mutex> lock(mutex_);
  audit_log_ = log;
}

}  // namespace dpclustx::service
