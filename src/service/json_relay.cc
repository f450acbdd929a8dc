#include "service/json_relay.h"

namespace dpclustx::service {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

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

StatusOr<RelayScan> ScanTopLevelId(const std::string& line) {
  size_t i = SkipWs(line, 0);
  if (i >= line.size() || line[i] != '{') {
    return Status::InvalidArgument("response line is not a JSON object");
  }
  i = SkipWs(line, i + 1);

  RelayScan scan;
  bool found = false;
  size_t prev_comma = kNpos;  // comma before the member being scanned

  while (true) {
    if (i >= line.size()) {
      return Status::InvalidArgument("object never closes");
    }
    if (line[i] == '}') break;
    // One member: "key" : value
    if (line[i] != '"') {
      return Status::InvalidArgument("expected a member key");
    }
    const size_t key_begin = i;
    const size_t key_end = SkipString(line, i);
    if (key_end == kNpos) {
      return Status::InvalidArgument("unterminated key");
    }
    // Raw byte compare: an "id" key spelled with escapes would be missed
    // here, reported NotFound, and resolved by the caller's full-parse
    // fallback — never spliced wrong.
    const bool is_id =
        key_end - key_begin == 4 && line.compare(key_begin, 4, "\"id\"") == 0;
    i = SkipWs(line, key_end);
    if (i >= line.size() || line[i] != ':') {
      return Status::InvalidArgument("expected ':' after key");
    }
    const size_t value_begin = SkipWs(line, i + 1);
    const size_t value_end = SkipValue(line, value_begin);
    if (value_end == kNpos) {
      return Status::InvalidArgument("torn value");
    }
    i = SkipWs(line, value_end);

    if (is_id) {
      if (found) return Status::InvalidArgument("duplicate top-level id");
      if (line[value_begin] != '"') {
        return Status::InvalidArgument("top-level id is not a string");
      }
      for (size_t b = value_begin + 1; b + 1 < value_end; ++b) {
        if (line[b] == '\\') {
          return Status::FailedPrecondition(
              "id value contains escapes; use the full parser");
        }
      }
      scan.id = line.substr(value_begin + 1, value_end - value_begin - 2);
      scan.value_begin = value_begin;
      scan.value_end = value_end;
      if (prev_comma != kNpos) {
        // `,"id":value` — eat the preceding comma.
        scan.erase_begin = prev_comma;
        scan.erase_end = value_end;
      } else if (i < line.size() && line[i] == ',') {
        // First member with a successor: eat the following comma.
        scan.erase_begin = key_begin;
        scan.erase_end = SkipWs(line, i + 1);
      } else {
        // Only member: `{"id":value}` → `{}`.
        scan.erase_begin = key_begin;
        scan.erase_end = value_end;
      }
      found = true;
    }

    if (i < line.size() && line[i] == ',') {
      prev_comma = i;
      i = SkipWs(line, i + 1);
      if (i < line.size() && line[i] == '}') {
        return Status::InvalidArgument("trailing comma");
      }
      continue;
    }
    if (i >= line.size() || line[i] != '}') {
      return Status::InvalidArgument("expected ',' or '}' after value");
    }
    prev_comma = kNpos;
  }

  // Nothing but whitespace may follow the closing brace.
  if (SkipWs(line, i + 1) != line.size()) {
    return Status::InvalidArgument("trailing bytes after object");
  }
  if (!found) return Status::NotFound("no top-level id member");
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
