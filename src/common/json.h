// Minimal JSON document model, writer, and parser.
//
// Supports the JSON subset the library emits (objects, arrays, strings with
// escapes, finite doubles, booleans, null). Used to serialize explanations
// and schemas for downstream consumers (the DPClustX demo UI renders
// exactly this kind of payload); kept dependency-free on purpose.

#ifndef DPCLUSTX_COMMON_JSON_H_
#define DPCLUSTX_COMMON_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpclustx {

class JsonValue {
 public:
  enum class Type {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
    kSerialized,
  };

  /// Constructs null.
  JsonValue() : type_(Type::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  /// Accepts any double, including NaN/Inf — constructing a number must
  /// never abort, because numbers on the serving path are data-dependent
  /// (a degenerate request can legitimately produce a non-finite metric).
  /// JSON has no non-finite literals, so Dump() serializes them as `null`;
  /// boundaries that must not emit such a hole check IsFinite() first and
  /// turn it into an error response (see ServiceEngine::Dispatch).
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();
  /// A value that is already JSON text: `json` must be what Dump() wrote
  /// for a value whose numbers are all finite. Dump() copies it verbatim
  /// and IsFinite() passes it without a walk, so a stored release can be
  /// answered without re-parsing it. Parse() never makes one; the typed
  /// accessors treat it as a type mismatch.
  static JsonValue Serialized(std::string json);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// True when every number in this value (recursively) is finite — i.e.
  /// Dump() loses nothing. Serving boundaries use this to reject responses
  /// that picked up a NaN/Inf instead of silently emitting `null`.
  bool IsFinite() const;

  /// Typed accessors; DPX_CHECK on type mismatch (programming error — use
  /// the Typed* lookups below for data-dependent access).
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;

  /// Array operations.
  size_t size() const;
  const JsonValue& at(size_t index) const;
  void Append(JsonValue value);

  /// Object operations. Keys are ordered lexicographically on output.
  bool Has(const std::string& key) const;
  const JsonValue& at(const std::string& key) const;
  void Set(const std::string& key, JsonValue value);
  /// Drops `key` if present (no-op otherwise). Proxies use this to strip
  /// internal correlation fields before relaying a response.
  void Remove(const std::string& key);
  /// Object keys in output (lexicographic) order; empty for non-objects.
  /// For callers that fold one document into another (the router's fleet
  /// metrics rollup) without knowing the key set up front.
  std::vector<std::string> ObjectKeys() const;

  /// Checked lookups returning Status on shape mismatches; for parsing
  /// untrusted documents.
  StatusOr<double> GetNumber(const std::string& key) const;
  StatusOr<std::string> GetString(const std::string& key) const;

  /// Serializes to compact JSON text.
  std::string Dump() const;

  /// Parses a JSON document. Returns InvalidArgument with a position on
  /// malformed input. Rejects trailing garbage.
  static StatusOr<JsonValue> Parse(const std::string& text);

 private:
  /// Appends the Dump() text to `out`: one buffer for the whole document.
  void DumpTo(std::string& out) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  // kString's value, or kSerialized's JSON text
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_JSON_H_
