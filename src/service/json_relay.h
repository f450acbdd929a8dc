// Zero-reparse JSON line surgery: one structural scanner finds the byte
// ranges of an object line's top-level members without building a document
// tree. Two callers use it:
//   - the router locates a worker response's top-level "id" and splices the
//     client's original id bytes in (SpliceId/EraseId), forwarding the rest
//     of the payload verbatim;
//   - the explanation cache records where each member of a stored release
//     lies, so a repeat is answered from those bytes (JsonValue::Serialized
//     members) with no parse and no dump.
//
// The old relay hot path was parse → mutate → dump: every worker response
// was decoded into a JsonValue (allocating a node per key and per bin of
// every histogram), had its "id" rewritten, and was re-serialized. For a
// response whose payload is a few kilobytes of histogram bins, that work
// dwarfs the routing decision itself. The scanner walks the line once,
// tracking only string/escape state and container depth; the splice is then
// two memcpys.
//
// Contract (enforced by tests/json_relay_test.cc against the full-parse
// path): for any line produced by JsonValue::Dump, SpliceId/EraseId output
// is byte-identical to parse → Set("id")/Remove("id") → Dump, and each
// member's value bytes are that value's Dump. This holds because Dump emits
// object keys in lexicographic order — rewriting one member's value in
// place cannot reorder anything — and the scanner validates the whole line
// (the object must close cleanly with no trailing garbage) so a torn or
// corrupt worker line falls back to the full parser rather than being
// spliced blind.
//
// Deliberate non-goals: the scanner does not validate token grammar beyond
// structure (a worker emitting `{"id":"r1","x":bogus}` relays verbatim —
// workers are our own engines whose output is Dump() text; the cache scans
// only bytes it has just dumped), and an "id" whose string value contains
// escapes is refused (kFailedPrecondition) so the caller falls back to the
// full parser; router-generated ids are plain ASCII and never hit that path.

#ifndef DPCLUSTX_SERVICE_JSON_RELAY_H_
#define DPCLUSTX_SERVICE_JSON_RELAY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace dpclustx::service {

/// Byte geometry of one top-level member of a scanned object line.
struct JsonMember {
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t key_begin = 0;    // the key's opening quote
  size_t key_end = 0;      // one past the key's closing quote
  size_t value_begin = 0;  // the value's first byte
  size_t value_end = 0;    // one past the value's last byte
  size_t comma = kNone;    // the comma after the member; kNone for the last
};

/// Scans one JSON object line's top-level members, in line order, and
/// validates the line's structure (strings, nesting, final '}' with nothing
/// after). InvalidArgument when the line is not an object or is torn.
StatusOr<std::vector<JsonMember>> ScanTopLevelMembers(const std::string& line);

/// Byte geometry of the top-level "id" member of one scanned line.
struct RelayScan {
  std::string id;          // decoded string value of the top-level "id"
  size_t value_begin = 0;  // byte offset of the id value's opening quote
  size_t value_end = 0;    // one past the id value's closing quote
  size_t erase_begin = 0;  // byte range deleting the whole member,
  size_t erase_end = 0;    //   including exactly one separating comma
};

/// ScanTopLevelMembers, then finds the one top-level "id" member.
///   InvalidArgument  not an object / structurally torn / id not a string /
///                    id repeated
///   NotFound         well-formed object with no top-level "id"
///   FailedPrecondition  id value contains escapes (caller must full-parse)
StatusOr<RelayScan> ScanTopLevelId(const std::string& line);

/// `line` with the id value's bytes replaced by `id_json` (the client id
/// already serialized, e.g. "\"42\"" or "7"). Everything outside
/// [value_begin, value_end) is copied verbatim.
std::string SpliceId(const std::string& line, const RelayScan& scan,
                     const std::string& id_json);

/// `line` with the whole "id" member (and one separating comma) removed —
/// for responses to clients that sent no id.
std::string EraseId(const std::string& line, const RelayScan& scan);

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_JSON_RELAY_H_
