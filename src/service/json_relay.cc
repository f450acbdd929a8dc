#include "service/json_relay.h"

namespace dpclustx::service {
namespace {

constexpr size_t kNpos = JsonMember::kNone;

size_t SkipWs(const std::string& s, size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) {
    ++i;
  }
  return i;
}

/// `i` is the opening quote of a JSON string; returns one past the closing
/// quote, or kNpos when the string never closes. Escapes are skipped as
/// two-byte units — enough to never mistake an escaped quote for the
/// terminator (\uXXXX needs no special case: its four hex digits cannot
/// contain a bare quote).
size_t SkipString(const std::string& s, size_t i) {
  ++i;  // opening quote
  while (i < s.size()) {
    const char c = s[i];
    if (c == '\\') {
      i += 2;
      continue;
    }
    if (c == '"') return i + 1;
    ++i;
  }
  return kNpos;
}

/// `i` is the first byte of any JSON value; returns one past its last byte,
/// or kNpos on structural breakage (unbalanced containers, unterminated
/// string). Scalars are consumed loosely (up to the next delimiter): the
/// relay forwards payload bytes verbatim, it does not re-validate grammar
/// the engine's own writer produced.
size_t SkipValue(const std::string& s, size_t i) {
  i = SkipWs(s, i);
  if (i >= s.size()) return kNpos;
  const char c = s[i];
  if (c == '"') return SkipString(s, i);
  if (c == '{' || c == '[') {
    size_t depth = 0;
    while (i < s.size()) {
      const char b = s[i];
      if (b == '"') {
        i = SkipString(s, i);
        if (i == kNpos) return kNpos;
        continue;
      }
      if (b == '{' || b == '[') {
        ++depth;
      } else if (b == '}' || b == ']') {
        if (depth == 0) return kNpos;  // close with no matching open
        if (--depth == 0) return i + 1;
      }
      ++i;
    }
    return kNpos;  // container never closed
  }
  // Number / true / false / null: consume until a structural delimiter.
  const size_t begin = i;
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
         s[i] != ' ' && s[i] != '\t' && s[i] != '\r' && s[i] != '\n') {
    ++i;
  }
  return i == begin ? kNpos : i;
}

}  // namespace

StatusOr<std::vector<JsonMember>> ScanTopLevelMembers(
    const std::string& line) {
  size_t i = SkipWs(line, 0);
  if (i >= line.size() || line[i] != '{') {
    return Status::InvalidArgument("response line is not a JSON object");
  }
  i = SkipWs(line, i + 1);

  std::vector<JsonMember> members;
  members.reserve(8);  // engine responses have a handful of members
  while (true) {
    if (i >= line.size()) {
      return Status::InvalidArgument("object never closes");
    }
    if (line[i] == '}') break;
    // One member: "key" : value
    if (line[i] != '"') {
      return Status::InvalidArgument("expected a member key");
    }
    JsonMember member;
    member.key_begin = i;
    member.key_end = SkipString(line, i);
    if (member.key_end == kNpos) {
      return Status::InvalidArgument("unterminated key");
    }
    i = SkipWs(line, member.key_end);
    if (i >= line.size() || line[i] != ':') {
      return Status::InvalidArgument("expected ':' after key");
    }
    member.value_begin = SkipWs(line, i + 1);
    member.value_end = SkipValue(line, member.value_begin);
    if (member.value_end == kNpos) {
      return Status::InvalidArgument("torn value");
    }
    i = SkipWs(line, member.value_end);

    if (i < line.size() && line[i] == ',') {
      member.comma = i;
      members.push_back(member);
      i = SkipWs(line, i + 1);
      if (i < line.size() && line[i] == '}') {
        return Status::InvalidArgument("trailing comma");
      }
      continue;
    }
    if (i >= line.size() || line[i] != '}') {
      return Status::InvalidArgument("expected ',' or '}' after value");
    }
    members.push_back(member);
  }

  // Nothing but whitespace may follow the closing brace.
  if (SkipWs(line, i + 1) != line.size()) {
    return Status::InvalidArgument("trailing bytes after object");
  }
  return members;
}

StatusOr<RelayScan> ScanTopLevelId(const std::string& line) {
  DPX_ASSIGN_OR_RETURN(const std::vector<JsonMember> members,
                       ScanTopLevelMembers(line));
  // Raw byte compare: an "id" key spelled with escapes would be missed
  // here, reported NotFound, and resolved by the caller's full-parse
  // fallback — never spliced wrong.
  const auto is_id = [&](const JsonMember& m) {
    return m.key_end - m.key_begin == 4 &&
           line.compare(m.key_begin, 4, "\"id\"") == 0;
  };
  size_t at = members.size();
  for (size_t m = 0; m < members.size(); ++m) {
    if (!is_id(members[m])) continue;
    if (at != members.size()) {
      return Status::InvalidArgument("duplicate top-level id");
    }
    at = m;
  }
  if (at == members.size()) return Status::NotFound("no top-level id member");

  const JsonMember& id = members[at];
  if (line[id.value_begin] != '"') {
    return Status::InvalidArgument("top-level id is not a string");
  }
  for (size_t b = id.value_begin + 1; b + 1 < id.value_end; ++b) {
    if (line[b] == '\\') {
      return Status::FailedPrecondition(
          "id value contains escapes; use the full parser");
    }
  }
  RelayScan scan;
  scan.id = line.substr(id.value_begin + 1, id.value_end - id.value_begin - 2);
  scan.value_begin = id.value_begin;
  scan.value_end = id.value_end;
  if (at > 0) {
    // `,"id":value` — eat the preceding comma.
    scan.erase_begin = members[at - 1].comma;
    scan.erase_end = id.value_end;
  } else if (at + 1 < members.size()) {
    // First member with a successor: eat the following comma.
    scan.erase_begin = id.key_begin;
    scan.erase_end = members[at + 1].key_begin;
  } else {
    // Only member: `{"id":value}` → `{}`.
    scan.erase_begin = id.key_begin;
    scan.erase_end = id.value_end;
  }
  return scan;
}

std::string SpliceId(const std::string& line, const RelayScan& scan,
                     const std::string& id_json) {
  std::string out;
  out.reserve(line.size() - (scan.value_end - scan.value_begin) +
              id_json.size());
  out.append(line, 0, scan.value_begin);
  out.append(id_json);
  out.append(line, scan.value_end, line.size() - scan.value_end);
  return out;
}

std::string EraseId(const std::string& line, const RelayScan& scan) {
  std::string out;
  out.reserve(line.size() - (scan.erase_end - scan.erase_begin));
  out.append(line, 0, scan.erase_begin);
  out.append(line, scan.erase_end, line.size() - scan.erase_end);
  return out;
}

}  // namespace dpclustx::service
