// Tests for the zero-reparse relay scanner (service/json_relay.h).
//
// The load-bearing property is byte-identity: for any line produced by
// JsonValue::Dump, splicing or erasing the top-level "id" must produce
// exactly the bytes the old parse → mutate → dump path produced, and each
// top-level member the scanner reports must be exactly its key's and its
// value's Dump (the explanation cache answers repeats from them). The
// golden section checks that over a corpus shaped like real engine
// responses (histograms, nested explanations, broadcast merges, error
// envelopes); the unit section pins the scanner's error vocabulary so the
// router's fallback logic (full-parse on anything but OK) stays correct;
// the differential section feeds it every single-byte corruption and every
// truncation of that corpus.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/status.h"
#include "service/json_relay.h"

namespace dpclustx::service {
namespace {

using dpclustx::JsonValue;
using dpclustx::StatusCode;
using dpclustx::StatusOr;

TEST(ScanTopLevelId, FindsPlainId) {
  const std::string line = R"({"id":"r42","ok":true})";
  StatusOr<RelayScan> scan = ScanTopLevelId(line);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->id, "r42");
  EXPECT_EQ(line.substr(scan->value_begin, scan->value_end - scan->value_begin),
            "\"r42\"");
}

TEST(ScanTopLevelId, IgnoresNestedIdMembers) {
  // "id" inside nested objects/arrays must not be mistaken for the
  // top-level member; only the outermost one is relayed.
  const std::string line =
      R"({"a":{"id":"inner"},"b":[{"id":"x"}],"id":"outer","z":1})";
  StatusOr<RelayScan> scan = ScanTopLevelId(line);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->id, "outer");
}

TEST(ScanTopLevelId, IgnoresIdInsideStringValues) {
  // A value whose *text* looks like an id member must not confuse the
  // string-state tracking.
  const std::string line =
      R"({"id":"real","note":"looks like \"id\":\"fake\" inside"})";
  StatusOr<RelayScan> scan = ScanTopLevelId(line);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->id, "real");
}

TEST(ScanTopLevelId, NotFoundWhenNoId) {
  StatusOr<RelayScan> scan = ScanTopLevelId(R"({"ok":true,"pong":true})");
  EXPECT_EQ(scan.status().code(), StatusCode::kNotFound);
}

TEST(ScanTopLevelId, InvalidOnTornLine) {
  // A worker crash mid-write leaves a structurally open line; the scanner
  // must refuse rather than splice into garbage.
  EXPECT_EQ(ScanTopLevelId(R"({"id":"r1","ok":tr)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScanTopLevelId(R"({"id":"r1","nested":{"open":1)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScanTopLevelId(R"({"id":"r1","s":"unterminated)").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanTopLevelId, InvalidOnTrailingGarbage) {
  EXPECT_EQ(ScanTopLevelId(R"({"id":"r1"} trailing)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScanTopLevelId(R"({"id":"r1"}{"id":"r2"})").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanTopLevelId, InvalidOnNonObject) {
  EXPECT_EQ(ScanTopLevelId(R"([1,2,3])").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScanTopLevelId("42").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ScanTopLevelId("").status().code(), StatusCode::kInvalidArgument);
}

TEST(ScanTopLevelId, InvalidOnNonStringId) {
  // The router only ever stamps string ids on worker requests; a numeric
  // id means the line is not one of ours.
  EXPECT_EQ(ScanTopLevelId(R"({"id":42,"ok":true})").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanTopLevelId, RefusesEscapedIdValue) {
  // Escapes inside the id value mean the raw bytes differ from the
  // decoded string; the caller must take the full-parse path.
  EXPECT_EQ(ScanTopLevelId(R"({"id":"a\"b","ok":true})").status().code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Golden byte-identity against the full-parse path.

/// The reference implementation the splice path replaced.
std::string FullParseSplice(const std::string& line,
                            const JsonValue& client_id) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok());
  parsed->Set("id", client_id);
  return parsed->Dump();
}

std::string FullParseErase(const std::string& line) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok());
  parsed->Remove("id");
  return parsed->Dump();
}

/// Response lines shaped like what ServiceEngine actually emits. Each is
/// canonicalized through Dump() first — the relay only ever sees worker
/// output, which is Dump() text by construction.
std::vector<std::string> ResponseCorpus() {
  std::vector<std::string> corpus;
  auto add = [&](const std::string& raw) {
    StatusOr<JsonValue> parsed = JsonValue::Parse(raw);
    EXPECT_TRUE(parsed.ok()) << raw;
    corpus.push_back(parsed->Dump());
  };
  add(R"({"id":"r1","ok":true,"pong":true})");
  add(R"({"id":"r2","ok":false,)"
      R"("error":{"code":"OutOfBudget","message":"0.1 > 0.05"}})");
  // Histogram payload: long numeric arrays around the id.
  add(R"({"bins":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],)"
      R"("counts":[12.5,0.25,-3.125,7,19,0.0625,44,8],)"
      R"("epsilon_spent":0.30000001,"id":"r3","ok":true,)"
      R"("session":"tenant7"})");
  // Explanation payload: nested objects with string fields that contain
  // braces, quotes-adjacent text, and unicode escapes.
  add(R"({"clusters":[{"explanation":[{"attribute":"age","hi":64,"lo":18,)"
      R"("score":0.91}],"label":"c {0}"},{"explanation":[],"label":"c1"}],)"
      R"("id":"r4","note":"quality µ=0.5, \"quoted\"","ok":true})");
  // Broadcast-merge shape: per-worker nested response objects, each with
  // its own nested "id"-free body.
  add(R"({"id":"r5","ok":true,"workers":{"shard-0":{"ok":true,"pong":true},)"
      R"("shard-1":{"ok":true,"pong":true}}})");
  // id first, id last, id mid-object.
  add(R"({"id":"r6","z":1})");
  add(R"({"a":1,"id":"r7"})");
  add(R"({"a":1,"id":"r8","z":[{"deep":{"id":"decoy"}}]})");
  // Empty-ish payloads.
  add(R"({"id":"r9","ok":true,"rows":0,"schema":[]})");
  return corpus;
}

/// Checks `members` against the full parse of `line`: the same keys in
/// the same order, each value's bytes that value's Dump.
void ExpectMembersMatchParse(const std::string& line,
                             const std::vector<JsonMember>& members,
                             const JsonValue& parsed) {
  const std::vector<std::string> keys = parsed.ObjectKeys();
  ASSERT_EQ(members.size(), keys.size()) << line;
  for (size_t m = 0; m < members.size(); ++m) {
    const JsonMember& member = members[m];
    EXPECT_EQ(line.substr(member.key_begin,
                          member.key_end - member.key_begin),
              JsonValue::String(keys[m]).Dump())
        << line;
    EXPECT_EQ(line.substr(member.value_begin,
                          member.value_end - member.value_begin),
              parsed.at(keys[m]).Dump())
        << line;
  }
}

/// The scanner's ranges are ordered and inside the line, whatever it read.
void ExpectMembersInBounds(const std::string& line,
                           const std::vector<JsonMember>& members) {
  size_t floor = 0;
  for (size_t m = 0; m < members.size(); ++m) {
    const JsonMember& member = members[m];
    ASSERT_LE(floor, member.key_begin) << line;
    ASSERT_LT(member.key_begin, member.key_end) << line;
    ASSERT_LE(member.key_end, member.value_begin) << line;
    ASSERT_LT(member.value_begin, member.value_end) << line;
    ASSERT_LE(member.value_end, line.size()) << line;
    const bool last = m + 1 == members.size();
    ASSERT_EQ(member.comma == JsonMember::kNone, last) << line;
    if (!last) {
      ASSERT_LE(member.value_end, member.comma) << line;
      ASSERT_EQ(line[member.comma], ',') << line;
      floor = member.comma + 1;
    }
  }
}

TEST(ScanTopLevelMembers, FindsEveryTopLevelMemberInOrder) {
  const std::string line =
      R"({"a":{"id":"inner"}, "b" : [1,{"c":2}],"s":"x,}\"y","z":-1.5e3})";
  StatusOr<std::vector<JsonMember>> members = ScanTopLevelMembers(line);
  ASSERT_TRUE(members.ok()) << members.status().ToString();
  ASSERT_EQ(members->size(), 4u);
  const auto text = [&](size_t begin, size_t end) {
    return line.substr(begin, end - begin);
  };
  EXPECT_EQ(text((*members)[0].key_begin, (*members)[0].key_end), "\"a\"");
  EXPECT_EQ(text((*members)[0].value_begin, (*members)[0].value_end),
            R"({"id":"inner"})");
  EXPECT_EQ(text((*members)[1].value_begin, (*members)[1].value_end),
            R"([1,{"c":2}])");
  EXPECT_EQ(text((*members)[2].value_begin, (*members)[2].value_end),
            R"("x,}\"y")");
  EXPECT_EQ(text((*members)[3].value_begin, (*members)[3].value_end),
            "-1.5e3");
  EXPECT_EQ((*members)[3].comma, JsonMember::kNone);
  ExpectMembersInBounds(line, *members);
}

TEST(ScanTopLevelMembers, EmptyObjectHasNoMembers) {
  StatusOr<std::vector<JsonMember>> members = ScanTopLevelMembers(" { } ");
  ASSERT_TRUE(members.ok());
  EXPECT_TRUE(members->empty());
}

TEST(ScanTopLevelMembers, InvalidOnTornOrNonObjectLines) {
  for (const std::string line :
       {R"({"a":1,})", R"({"a":1)", R"({"a" 1})", R"({a:1})", R"([1])",
        R"({"a":1} x)", R"({"a":})", ""}) {
    EXPECT_EQ(ScanTopLevelMembers(line).status().code(),
              StatusCode::kInvalidArgument)
        << line;
  }
}

TEST(RelayGolden, MembersMatchFullParseByteForByte) {
  for (const std::string& line : ResponseCorpus()) {
    StatusOr<std::vector<JsonMember>> members = ScanTopLevelMembers(line);
    ASSERT_TRUE(members.ok()) << line;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ExpectMembersInBounds(line, *members);
    ExpectMembersMatchParse(line, *members, *parsed);
  }
}

TEST(RelayGolden, SpliceMatchesFullParseByteForByte) {
  const std::vector<JsonValue> client_ids = {
      JsonValue::String("client-17"), JsonValue::String("x"),
      JsonValue::Number(42), JsonValue::Number(-1.5), JsonValue::Bool(true),
      JsonValue::Null()};
  for (const std::string& line : ResponseCorpus()) {
    StatusOr<RelayScan> scan = ScanTopLevelId(line);
    ASSERT_TRUE(scan.ok()) << line;
    for (const JsonValue& client_id : client_ids) {
      const std::string spliced = SpliceId(line, *scan, client_id.Dump());
      EXPECT_EQ(spliced, FullParseSplice(line, client_id))
          << "line: " << line << "\nclient id: " << client_id.Dump();
    }
  }
}

TEST(RelayGolden, EraseMatchesFullParseByteForByte) {
  for (const std::string& line : ResponseCorpus()) {
    StatusOr<RelayScan> scan = ScanTopLevelId(line);
    ASSERT_TRUE(scan.ok()) << line;
    EXPECT_EQ(EraseId(line, *scan), FullParseErase(line)) << "line: " << line;
  }
}

// ---------------------------------------------------------------------------
// Differential: hostile bytes against the full-parse path.

/// Every single-byte corruption and every truncation of every corpus line.
/// Each byte is XOR-flipped and also overwritten with each structural
/// character, so the mutants hit the scanner's string, escape and depth
/// tracking, not just its letters.
std::vector<std::string> MutatedCorpus() {
  std::vector<std::string> mutants;
  const std::string structural = "\"\\{}[],: \x01";
  for (const std::string& line : ResponseCorpus()) {
    for (size_t i = 0; i < line.size(); ++i) {
      mutants.push_back(line.substr(0, i));
      std::string flipped = line;
      flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
      mutants.push_back(flipped);
      for (const char c : structural) {
        if (line[i] == c) continue;
        std::string replaced = line;
        replaced[i] = c;
        mutants.push_back(std::move(replaced));
      }
    }
  }
  return mutants;
}

TEST(RelayDifferential, MutatedLinesNeverCrashAndRelayLikeTheFullParser) {
  // A worker that crashed mid-write hands the router arbitrary bytes. The
  // scanner must answer every one with a Status (ASan watches the walk),
  // and whenever it accepts a line the full parser would reproduce byte
  // for byte, the splice and the erase must agree with the full-parse
  // relay — the router's fallback decision depends on exactly that.
  const JsonValue client_id = JsonValue::String("client-17");
  size_t accepted = 0;
  size_t compared = 0;
  size_t members_accepted = 0;
  size_t members_compared = 0;
  for (const std::string& line : MutatedCorpus()) {
    // The member scanner: in-bounds ranges on every line it accepts, and
    // the full parser's members on every canonical one.
    StatusOr<std::vector<JsonMember>> members = ScanTopLevelMembers(line);
    if (members.ok()) {
      ++members_accepted;
      ExpectMembersInBounds(line, *members);
      StatusOr<JsonValue> reference = JsonValue::Parse(line);
      if (reference.ok() && reference->Dump() == line) {
        ++members_compared;
        ExpectMembersMatchParse(line, *members, *reference);
      }
    }

    StatusOr<RelayScan> scan = ScanTopLevelId(line);
    if (!scan.ok()) continue;
    ++accepted;
    ASSERT_LE(scan->value_begin, scan->value_end) << line;
    ASSERT_LE(scan->value_end, line.size()) << line;
    ASSERT_LE(scan->erase_begin, scan->erase_end) << line;
    ASSERT_LE(scan->erase_end, line.size()) << line;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok() || parsed->Dump() != line) continue;
    ++compared;
    ASSERT_TRUE(parsed->Has("id")) << line;
    ASSERT_EQ(parsed->at("id").AsString(), scan->id) << line;
    EXPECT_EQ(SpliceId(line, *scan, client_id.Dump()),
              FullParseSplice(line, client_id))
        << "line: " << line;
    EXPECT_EQ(EraseId(line, *scan), FullParseErase(line)) << "line: " << line;
  }
  // The sweep must reach both branches, or it proves nothing.
  EXPECT_GT(accepted, compared);
  EXPECT_GT(compared, 0u);
  EXPECT_GT(members_accepted, members_compared);
  EXPECT_GT(members_compared, 0u);
}

TEST(RelayGolden, SpliceThenRescanRoundTrips) {
  // The spliced output must itself be a valid relay input — the replica
  // retry path re-stamps an already-spliced line.
  for (const std::string& line : ResponseCorpus()) {
    StatusOr<RelayScan> scan = ScanTopLevelId(line);
    ASSERT_TRUE(scan.ok());
    const std::string spliced = SpliceId(line, *scan, "\"second-hop\"");
    StatusOr<RelayScan> rescan = ScanTopLevelId(spliced);
    ASSERT_TRUE(rescan.ok()) << spliced;
    EXPECT_EQ(rescan->id, "second-hop");
  }
}

}  // namespace
}  // namespace dpclustx::service
