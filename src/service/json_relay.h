// Zero-reparse response relay: locate the top-level "id" member of a JSON
// response line without building a document tree, so the router can splice
// the client's original id bytes into a worker response and forward the
// rest of the payload verbatim.
//
// The old relay hot path was parse → mutate → dump: every worker response
// was decoded into a JsonValue (allocating a node per key and per bin of
// every histogram), had its "id" rewritten, and was re-serialized. For a
// response whose payload is a few kilobytes of histogram bins, that work
// dwarfs the routing decision itself. The scanner here walks the line once,
// tracking only string/escape state and container depth, and records the
// byte range of the top-level "id" member; the splice is then two memcpys.
//
// Contract (enforced by tests/json_relay_test.cc against the full-parse
// path): for any line produced by JsonValue::Dump, SpliceId/EraseId output
// is byte-identical to parse → Set("id")/Remove("id") → Dump. This holds
// because Dump emits object keys in lexicographic order — rewriting one
// member's value in place cannot reorder anything — and the scanner
// validates the whole line (the object must close cleanly with no trailing
// garbage) so a torn or corrupt worker line falls back to the full parser
// rather than being spliced blind.
//
// Deliberate non-goals: the scanner does not validate token grammar beyond
// structure (a worker emitting `{"id":"r1","x":bogus}` relays verbatim —
// workers are our own engines whose output is Dump() text), and an "id"
// whose string value contains escapes is refused (kFailedPrecondition) so the
// caller falls back to the full parser; router-generated ids are plain
// ASCII and never hit that path.

#ifndef DPCLUSTX_SERVICE_JSON_RELAY_H_
#define DPCLUSTX_SERVICE_JSON_RELAY_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace dpclustx::service {

/// Byte geometry of the top-level "id" member of one scanned line.
struct RelayScan {
  std::string id;          // decoded string value of the top-level "id"
  size_t value_begin = 0;  // byte offset of the id value's opening quote
  size_t value_end = 0;    // one past the id value's closing quote
  size_t erase_begin = 0;  // byte range deleting the whole member,
  size_t erase_end = 0;    //   including exactly one separating comma
};

/// Scans one JSON object line for its top-level "id" member and validates
/// the line's structure (strings, nesting, final '}' with nothing after).
///   InvalidArgument  not an object / structurally torn / id not a string
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
