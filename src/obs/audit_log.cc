#include "obs/audit_log.h"

#include <utility>

namespace dpclustx::obs {
namespace {

JsonValue TotalsToJson(const AuditLog::Totals& t) {
  JsonValue out = JsonValue::Object();
  out.Set("epsilon_charged", JsonValue::Number(t.epsilon_charged));
  out.Set("epsilon_denied", JsonValue::Number(t.epsilon_denied));
  out.Set("charges", JsonValue::Number(static_cast<double>(t.charges)));
  out.Set("denials", JsonValue::Number(static_cast<double>(t.denials)));
  return out;
}

}  // namespace

JsonValue RecordToJson(const AuditRecord& r) {
  JsonValue out = JsonValue::Object();
  out.Set("seq", JsonValue::Number(static_cast<double>(r.seq)));
  out.Set("tenant", JsonValue::String(r.tenant));
  out.Set("dataset", JsonValue::String(r.dataset));
  out.Set("label", JsonValue::String(r.label));
  out.Set("epsilon", JsonValue::Number(r.epsilon));
  out.Set("granted", JsonValue::Bool(r.granted));
  out.Set("reason", JsonValue::String(r.reason));
  return out;
}

AuditLog::AuditLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

StatusOr<uint64_t> AuditLog::Record(const std::string& tenant,
                                    const std::string& dataset,
                                    const std::string& label, double epsilon,
                                    bool granted, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  AuditRecord record;
  record.seq = next_seq_;
  record.tenant = tenant;
  record.dataset = dataset;
  record.label = label;
  record.epsilon = epsilon;
  record.granted = granted;
  record.reason = reason;

  // Durable hook first: the journal write happens before the charge is
  // observable anywhere (the caller is still holding its spend lock and has
  // not yet built a response). A record the sink refused takes no seq, so
  // the journal never has a gap.
  if (sink_) DPX_RETURN_IF_ERROR(sink_(record));
  ApplyLocked(std::move(record));
  return next_seq_++;
}

void AuditLog::ApplyLocked(AuditRecord record) {
  Totals& tenant_totals = tenant_totals_[record.tenant];
  if (record.granted) {
    tenant_totals.epsilon_charged += record.epsilon;
    tenant_totals.charges++;
    global_totals_.epsilon_charged += record.epsilon;
    global_totals_.charges++;
  } else {
    tenant_totals.epsilon_denied += record.epsilon;
    tenant_totals.denials++;
    global_totals_.epsilon_denied += record.epsilon;
    global_totals_.denials++;
  }

  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
    dropped_++;
  }
}

void AuditLog::set_sink(Sink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

AuditLog::State AuditLog::SnapshotState() const {
  std::lock_guard<std::mutex> lock(mutex_);
  State state;
  state.next_seq = next_seq_;
  state.dropped = dropped_;
  state.global = global_totals_;
  state.tenants = tenant_totals_;
  state.tail.assign(records_.begin(), records_.end());
  return state;
}

void AuditLog::RestoreState(State state) {
  std::lock_guard<std::mutex> lock(mutex_);
  next_seq_ = state.next_seq;
  dropped_ = state.dropped;
  global_totals_ = state.global;
  tenant_totals_ = std::move(state.tenants);
  records_.assign(state.tail.begin(), state.tail.end());
  while (records_.size() > capacity_) {
    records_.pop_front();
    dropped_++;
  }
}

void AuditLog::RestoreRecord(const AuditRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (record.seq >= next_seq_) next_seq_ = record.seq + 1;
  ApplyLocked(record);
}

AuditLog::Totals AuditLog::TenantTotals(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenant_totals_.find(tenant);
  if (it == tenant_totals_.end()) return Totals{};
  return it->second;
}

AuditLog::Totals AuditLog::GlobalTotals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return global_totals_;
}

std::vector<AuditRecord> AuditLog::Tail(size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t start = 0;
  if (limit != 0 && records_.size() > limit) {
    start = records_.size() - limit;
  }
  std::vector<AuditRecord> out;
  out.reserve(records_.size() - start);
  for (size_t i = start; i < records_.size(); ++i) out.push_back(records_[i]);
  return out;
}

uint64_t AuditLog::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

uint64_t AuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

JsonValue AuditLog::ToJson(size_t tail_limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue out = JsonValue::Object();
  out.Set("next_seq", JsonValue::Number(static_cast<double>(next_seq_)));
  out.Set("dropped", JsonValue::Number(static_cast<double>(dropped_)));
  out.Set("global", TotalsToJson(global_totals_));
  JsonValue totals = JsonValue::Object();
  for (const auto& [tenant, t] : tenant_totals_) {
    totals.Set(tenant, TotalsToJson(t));
  }
  out.Set("totals", std::move(totals));
  JsonValue records = JsonValue::Array();
  size_t start = 0;
  if (tail_limit != 0 && records_.size() > tail_limit) {
    start = records_.size() - tail_limit;
  }
  for (size_t i = start; i < records_.size(); ++i) {
    records.Append(RecordToJson(records_[i]));
  }
  out.Set("records", std::move(records));
  return out;
}

}  // namespace dpclustx::obs
