// JSON serialization of explanations and schemas.
//
// The DPClustX demo renders explanations in a UI; this module produces (and
// re-reads) the interchange payload: attribute names instead of indices,
// value labels alongside bin estimates, and the Stage-1 candidate sets for
// auditability. Serialization is pure post-processing of the DP release —
// it never touches sensitive data.

#ifndef DPCLUSTX_CORE_SERIALIZATION_H_
#define DPCLUSTX_CORE_SERIALIZATION_H_

#include <string>

#include "common/json.h"
#include "common/status.h"
#include "core/explanation.h"
#include "data/schema.h"

namespace dpclustx {

/// Serializes a schema (attribute names + domains).
std::string SchemaToJson(const Schema& schema);

/// Same document as SchemaToJson, as a JsonValue — for callers embedding
/// the schema into a larger payload (the `schema` service op, snapshot
/// provenance) without a dump/re-parse round trip.
JsonValue SchemaToJsonValue(const Schema& schema);

/// Parses a schema produced by SchemaToJson.
StatusOr<Schema> SchemaFromJson(const std::string& json);

/// Serializes a global explanation against its schema. Attribute references
/// are serialized by name. Requires every attribute index to be valid for
/// `schema`.
std::string ExplanationToJson(const GlobalExplanation& explanation,
                              const Schema& schema);

/// Same document as ExplanationToJson, as a JsonValue — for the explain op,
/// which embeds it into its response without a dump/re-parse round trip.
JsonValue ExplanationToJsonValue(const GlobalExplanation& explanation,
                                 const Schema& schema);

/// Parses an explanation produced by ExplanationToJson, resolving attribute
/// names against `schema`. Returns InvalidArgument on shape mismatches and
/// NotFound for unknown attribute names.
StatusOr<GlobalExplanation> ExplanationFromJson(const std::string& json,
                                                const Schema& schema);

}  // namespace dpclustx

#endif  // DPCLUSTX_CORE_SERIALIZATION_H_
