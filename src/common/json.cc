#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace dpclustx {

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  // Deliberately no finiteness check: aborting here would let any NaN
  // produced anywhere in a response take down the whole process (the
  // serving path feeds data-dependent doubles through this constructor).
  // Dump() serializes non-finite values as null; IsFinite() lets
  // boundaries detect and reject them.
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Serialized(std::string json) {
  JsonValue v;
  v.type_ = Type::kSerialized;
  v.string_ = std::move(json);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  DPX_CHECK(type_ == Type::kBool);
  return bool_;
}

double JsonValue::AsNumber() const {
  DPX_CHECK(type_ == Type::kNumber);
  return number_;
}

const std::string& JsonValue::AsString() const {
  DPX_CHECK(type_ == Type::kString);
  return string_;
}

size_t JsonValue::size() const {
  DPX_CHECK(type_ == Type::kArray);
  return array_.size();
}

const JsonValue& JsonValue::at(size_t index) const {
  DPX_CHECK(type_ == Type::kArray);
  DPX_CHECK_LT(index, array_.size());
  return array_[index];
}

void JsonValue::Append(JsonValue value) {
  DPX_CHECK(type_ == Type::kArray);
  array_.push_back(std::move(value));
}

bool JsonValue::Has(const std::string& key) const {
  DPX_CHECK(type_ == Type::kObject);
  return object_.count(key) > 0;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  DPX_CHECK(type_ == Type::kObject);
  const auto it = object_.find(key);
  DPX_CHECK(it != object_.end()) << "missing key '" << key << "'";
  return it->second;
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  DPX_CHECK(type_ == Type::kObject);
  object_[key] = std::move(value);
}

void JsonValue::Remove(const std::string& key) {
  DPX_CHECK(type_ == Type::kObject);
  object_.erase(key);
}

std::vector<std::string> JsonValue::ObjectKeys() const {
  std::vector<std::string> keys;
  if (type_ != Type::kObject) return keys;
  keys.reserve(object_.size());
  for (const auto& [key, value] : object_) keys.push_back(key);
  return keys;
}

bool JsonValue::IsFinite() const {
  switch (type_) {
    case Type::kNumber:
      return std::isfinite(number_);
    case Type::kArray:
      for (const JsonValue& v : array_) {
        if (!v.IsFinite()) return false;
      }
      return true;
    case Type::kObject:
      for (const auto& [key, v] : object_) {
        if (!v.IsFinite()) return false;
      }
      return true;
    default:
      return true;
  }
}

StatusOr<double> JsonValue::GetNumber(const std::string& key) const {
  if (type_ != Type::kObject) {
    return Status::InvalidArgument("not an object");
  }
  const auto it = object_.find(key);
  if (it == object_.end() || it->second.type_ != Type::kNumber) {
    return Status::InvalidArgument("missing numeric field '" + key + "'");
  }
  return it->second.number_;
}

StatusOr<std::string> JsonValue::GetString(const std::string& key) const {
  if (type_ != Type::kObject) {
    return Status::InvalidArgument("not an object");
  }
  const auto it = object_.find(key);
  if (it == object_.end() || it->second.type_ != Type::kString) {
    return Status::InvalidArgument("missing string field '" + key + "'");
  }
  return it->second.string_;
}

namespace {

void EscapeInto(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void NumberInto(double x, std::string& out) {
  // JSON has no NaN/Inf literals; serialize them as null so output is
  // always parseable (boundaries that must not lose the value gate on
  // IsFinite() before dumping).
  if (!std::isfinite(x)) {
    out += "null";
    return;
  }
  // Integers print without exponent/decimals; others with enough digits to
  // round-trip. std::to_chars prints what printf's "%lld" and "%.17g" print
  // (json_test sweeps both), without the format-string parse.
  char buf[32];
  const std::to_chars_result written =
      x == std::floor(x) && std::fabs(x) < 1e15
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(x))
          : std::to_chars(buf, buf + sizeof(buf), x,
                          std::chars_format::general, 17);
  out.append(buf, written.ptr);
}

}  // namespace

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(out);
  return out;
}

void JsonValue::DumpTo(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      NumberInto(number_, out);
      return;
    case Type::kString:
      EscapeInto(string_, out);
      return;
    case Type::kSerialized:
      out += string_;
      return;
    case Type::kArray: {
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        array_[i].DumpTo(out);
      }
      out += ']';
      return;
    }
    case Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ',';
        first = false;
        EscapeInto(key, out);
        out += ':';
        value.DumpTo(out);
      }
      out += '}';
      return;
    }
  }
}

namespace {

// Recursive-descent parser over a string view with position tracking.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    DPX_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      DPX_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeLiteral("true")) return JsonValue::Bool(true);
    if (ConsumeLiteral("false")) return JsonValue::Bool(false);
    if (ConsumeLiteral("null")) return JsonValue::Null();
    return ParseNumber();
  }

  StatusOr<JsonValue> ParseObject() {
    Consume('{');
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      DPX_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      DPX_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      object.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    Consume('[');
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      DPX_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      array.Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("dangling escape");
        const char escape = text_[pos_++];
        switch (escape) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
            unsigned int code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return Error("bad \\u escape digit");
            }
            // BMP code points only; encode as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    if (!std::isfinite(value)) return Error("non-finite number");
    return JsonValue::Number(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace dpclustx
