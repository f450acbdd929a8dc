#include "common/json.h"

#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dpclustx {
namespace {

TEST(JsonValueTest, ScalarConstruction) {
  EXPECT_TRUE(JsonValue::Null().is_null());
  EXPECT_TRUE(JsonValue::Bool(true).AsBool());
  EXPECT_DOUBLE_EQ(JsonValue::Number(2.5).AsNumber(), 2.5);
  EXPECT_EQ(JsonValue::String("hi").AsString(), "hi");
}

TEST(JsonValueTest, ArrayOperations) {
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Number(1));
  array.Append(JsonValue::String("two"));
  ASSERT_EQ(array.size(), 2u);
  EXPECT_DOUBLE_EQ(array.at(size_t{0}).AsNumber(), 1.0);
  EXPECT_EQ(array.at(size_t{1}).AsString(), "two");
}

TEST(JsonValueTest, ObjectOperations) {
  JsonValue object = JsonValue::Object();
  object.Set("k", JsonValue::Number(7));
  EXPECT_TRUE(object.Has("k"));
  EXPECT_FALSE(object.Has("missing"));
  EXPECT_DOUBLE_EQ(object.at("k").AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(object.GetNumber("k").value(), 7.0);
  EXPECT_FALSE(object.GetNumber("missing").ok());
  EXPECT_FALSE(object.GetString("k").ok());  // wrong type
}

TEST(JsonDumpTest, CompactOutput) {
  JsonValue object = JsonValue::Object();
  object.Set("b", JsonValue::Number(2));
  object.Set("a", JsonValue::Bool(false));
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Null());
  array.Append(JsonValue::Number(1.5));
  object.Set("c", std::move(array));
  // Keys are emitted in lexicographic order.
  EXPECT_EQ(object.Dump(), R"({"a":false,"b":2,"c":[null,1.5]})");
}

TEST(JsonDumpTest, StringEscapes) {
  EXPECT_EQ(JsonValue::String("a\"b\\c\nd").Dump(), R"("a\"b\\c\nd")");
}

TEST(JsonDumpTest, IntegersWithoutDecimals) {
  EXPECT_EQ(JsonValue::Number(42).Dump(), "42");
  EXPECT_EQ(JsonValue::Number(-3).Dump(), "-3");
}

/// The number text Dump wrote when it formatted through printf: "%lld" for
/// integers below 1e15 in magnitude, "%.17g" otherwise.
std::string PrintfNumber(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  if (x == std::floor(x) && std::fabs(x) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(x));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", x);
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// Dump formats numbers with std::to_chars; every response byte depends on
// it printing exactly what printf printed.
TEST(JsonDumpTest, NumbersPrintAsPrintfDidOverAMillionDoubles) {
  std::mt19937_64 rng(20261020);
  std::vector<double> values = {
      0.0, -0.0, 1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 1, 0.1, 0.3,
      1.0 / 3.0, 2.5, -2.5, 1e-300, 1e300, 9007199254740993.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon()};
  constexpr size_t kPerFamily = 260000;
  for (size_t i = 0; i < kPerFamily; ++i) {
    // Any finite bit pattern.
    double x;
    do {
      x = FromBits(rng());
    } while (!std::isfinite(x));
    values.push_back(x);
    // Subnormals: zero exponent, any sign and mantissa.
    values.push_back(FromBits(rng() & 0x800fffffffffffffULL));
    // Integers and half-integers around the 1e15 integer cutoff.
    const double offset = static_cast<double>(rng() % 2000001) - 1000000.0;
    values.push_back((i % 2 == 0 ? 1e15 : -1e15) + offset +
                     (i % 4 < 2 ? 0.0 : 0.5));
    // Values shaped like releases: noisy counts, ε shares, scores.
    values.push_back(
        (static_cast<double>(rng() % 2000000) - 1000000.0) /
        static_cast<double>(1 + rng() % 1000));
  }
  ASSERT_GE(values.size(), 1000000u);
  size_t mismatches = 0;
  for (const double x : values) {
    const std::string dumped = JsonValue::Number(x).Dump();
    const std::string expected = PrintfNumber(x);
    if (dumped != expected && ++mismatches <= 5) {
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      ADD_FAILURE() << "bits " << std::hex << bits << ": Dump " << dumped
                    << " vs printf " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(JsonSerializedTest, DumpsVerbatimAndPassesIsFinite) {
  const std::string text = R"({"a":[1,2.5,null],"b":"x"})";
  const JsonValue raw = JsonValue::Serialized(text);
  EXPECT_EQ(raw.type(), JsonValue::Type::kSerialized);
  EXPECT_EQ(raw.Dump(), text);
  EXPECT_TRUE(raw.IsFinite());

  // Members held as their Dump text dump like the parsed tree: the object
  // still orders every key, old and new.
  const std::string body = R"({"explanation":{"k":[0.29999999999999999,-1]},)"
                           R"("text":"line\none"})";
  StatusOr<JsonValue> parsed = JsonValue::Parse(body);
  ASSERT_TRUE(parsed.ok());
  JsonValue stored = JsonValue::Object();
  for (const std::string& key : parsed->ObjectKeys()) {
    stored.Set(key, JsonValue::Serialized(parsed->at(key).Dump()));
  }
  for (JsonValue* tree : {&*parsed, &stored}) {
    tree->Set("cache_hit", JsonValue::Bool(true));
    tree->Set("ok", JsonValue::Bool(true));
    tree->Set("id", JsonValue::String("7"));
  }
  EXPECT_EQ(stored.Dump(), parsed->Dump());
}

TEST(JsonParseTest, RoundTripsComplexDocument) {
  JsonValue object = JsonValue::Object();
  object.Set("name", JsonValue::String("lab_proc"));
  object.Set("count", JsonValue::Number(12345));
  object.Set("ratio", JsonValue::Number(0.12345678901234567));
  object.Set("flag", JsonValue::Bool(true));
  JsonValue nested = JsonValue::Array();
  nested.Append(JsonValue::String("x,y"));
  nested.Append(JsonValue::Null());
  object.Set("values", std::move(nested));
  const std::string dumped = object.Dump();

  const auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Dump(), dumped);
}

TEST(JsonParseTest, WhitespaceTolerant) {
  const auto parsed = JsonValue::Parse("  { \"a\" : [ 1 , 2 ] }\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("a").size(), 2u);
}

TEST(JsonParseTest, UnicodeEscape) {
  const auto parsed = JsonValue::Parse(R"("café")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "caf\xC3\xA9");
}

TEST(JsonParseTest, NegativeAndExponentNumbers) {
  const auto parsed = JsonValue::Parse("[-1.5e3, 0.25]");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->at(size_t{0}).AsNumber(), -1500.0);
  EXPECT_DOUBLE_EQ(parsed->at(size_t{1}).AsNumber(), 0.25);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{'single':1}").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
}

TEST(JsonParseTest, ErrorsIncludeOffset) {
  const auto parsed = JsonValue::Parse("[1, oops]");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("offset"), std::string::npos);
}

// Regression: Number(NaN) used to DPX_CHECK-abort, so any computation that
// produced a NaN took down the whole service while serializing the response.
// Construction must succeed and Dump must emit valid JSON (null).
TEST(JsonNonFiniteTest, NumberAcceptsNonFiniteAndDumpsNull) {
  const JsonValue nan = JsonValue::Number(std::nan(""));
  EXPECT_EQ(nan.Dump(), "null");
  const JsonValue inf =
      JsonValue::Number(std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf.Dump(), "null");
  JsonValue nested = JsonValue::Object();
  nested.Set("x", JsonValue::Number(-std::numeric_limits<double>::infinity()));
  EXPECT_EQ(nested.Dump(), R"({"x":null})");
}

TEST(JsonNonFiniteTest, IsFiniteRecursesIntoContainers) {
  EXPECT_TRUE(JsonValue::Number(1.5).IsFinite());
  EXPECT_TRUE(JsonValue::String("NaN").IsFinite());
  EXPECT_TRUE(JsonValue::Null().IsFinite());
  EXPECT_FALSE(JsonValue::Number(std::nan("")).IsFinite());

  JsonValue deep = JsonValue::Object();
  JsonValue inner = JsonValue::Array();
  inner.Append(JsonValue::Number(1.0));
  inner.Append(JsonValue::Number(std::nan("")));
  deep.Set("bins", std::move(inner));
  EXPECT_FALSE(deep.IsFinite());

  JsonValue clean = JsonValue::Object();
  JsonValue bins = JsonValue::Array();
  bins.Append(JsonValue::Number(1.0));
  clean.Set("bins", std::move(bins));
  EXPECT_TRUE(clean.IsFinite());
}

// The parser never manufactures non-finite numbers: bare NaN/Infinity
// literals are malformed JSON, so hostile requests cannot smuggle one in.
TEST(JsonNonFiniteTest, ParserRejectsNonFiniteLiterals) {
  EXPECT_FALSE(JsonValue::Parse("NaN").ok());
  EXPECT_FALSE(JsonValue::Parse("Infinity").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"epsilon":NaN})").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"epsilon":-Infinity})").ok());
}

}  // namespace
}  // namespace dpclustx
