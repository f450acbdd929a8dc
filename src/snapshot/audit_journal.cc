#include "snapshot/audit_journal.h"

#include "common/file_util.h"
#include "common/json.h"

namespace dpclustx::snapshot {

namespace {

StatusOr<obs::AuditRecord> ParseJournalLine(const std::string& line) {
  DPX_ASSIGN_OR_RETURN(const JsonValue obj, JsonValue::Parse(line));
  obs::AuditRecord record;
  DPX_ASSIGN_OR_RETURN(const double seq, obj.GetNumber("seq"));
  record.seq = static_cast<uint64_t>(seq);
  DPX_ASSIGN_OR_RETURN(record.tenant, obj.GetString("tenant"));
  DPX_ASSIGN_OR_RETURN(record.dataset, obj.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(record.label, obj.GetString("label"));
  DPX_ASSIGN_OR_RETURN(record.epsilon, obj.GetNumber("epsilon"));
  if (!obj.Has("granted") ||
      obj.at("granted").type() != JsonValue::Type::kBool) {
    return Status::InvalidArgument("journal record missing bool 'granted'");
  }
  record.granted = obj.at("granted").AsBool();
  DPX_ASSIGN_OR_RETURN(record.reason, obj.GetString("reason"));
  return record;
}

}  // namespace

StatusOr<std::vector<obs::AuditRecord>> ReadAuditJournal(
    const std::string& path) {
  DPX_ASSIGN_OR_RETURN(const std::string contents, ReadFileToString(path));
  std::vector<obs::AuditRecord> records;
  size_t pos = 0;
  while (pos < contents.size()) {
    const size_t newline = contents.find('\n', pos);
    if (newline == std::string::npos) {
      // No terminating newline: the process died mid-append. That record's
      // response was never sent, so skipping it keeps accounting exact.
      break;
    }
    const std::string line = contents.substr(pos, newline - pos);
    pos = newline + 1;
    if (line.empty()) continue;
    StatusOr<obs::AuditRecord> record = ParseJournalLine(line);
    if (!record.ok()) {
      return Status::IoError(
          "audit journal " + path + " is corrupt (not merely torn): " +
          record.status().message());
    }
    records.push_back(std::move(record).value());
  }
  return records;
}

}  // namespace dpclustx::snapshot
