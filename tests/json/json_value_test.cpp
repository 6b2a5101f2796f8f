// Tests for the pdt report JSON reader: full-grammar parsing, insertion
// order preservation, escape handling, and error reporting with byte
// offsets.
#include "json/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace pdt::tools {
namespace {

JsonValue parse_ok(std::string_view text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_parse(text, &v, &err)) << err;
  return v;
}

TEST(JsonValue, ParsesScalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_EQ(parse_ok("true").as_bool(), true);
  EXPECT_EQ(parse_ok("false").as_bool(true), false);
  EXPECT_DOUBLE_EQ(parse_ok("3.5").as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse_ok("-1.25e2").as_double(), -125.0);
  EXPECT_EQ(parse_ok("42").as_int(), 42);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
}

TEST(JsonValue, ParsesNestedContainers) {
  const JsonValue v = parse_ok(
      R"({"schema":"pdt-comm-v1","matrix":{"bytes":[[0,4],[8,0]]},"n":2})");
  EXPECT_EQ(v.get("schema").as_string(), "pdt-comm-v1");
  EXPECT_DOUBLE_EQ(v.get("matrix").get("bytes").at(1).at(0).as_double(), 8.0);
  EXPECT_EQ(v.get("n").as_int(), 2);
  EXPECT_TRUE(v.has("matrix"));
  EXPECT_FALSE(v.has("absent"));
  // Chained access through a missing key is safe and yields null.
  EXPECT_TRUE(v.get("absent").get("deeper").at(3).is_null());
}

TEST(JsonValue, ObjectKeepsInsertionOrder) {
  const JsonValue v = parse_ok(R"({"z":1,"a":2,"m":3})");
  ASSERT_EQ(v.object().size(), 3u);
  EXPECT_EQ(v.object()[0].first, "z");
  EXPECT_EQ(v.object()[1].first, "a");
  EXPECT_EQ(v.object()[2].first, "m");
}

TEST(JsonValue, HandlesEscapesAndUnicode) {
  const JsonValue v = parse_ok(R"(["a\"b", "tab\there", "\u00e9", "\ud83d\ude00"])");
  EXPECT_EQ(v.at(0).as_string(), "a\"b");
  EXPECT_EQ(v.at(1).as_string(), "tab\there");
  EXPECT_EQ(v.at(2).as_string(), "\xc3\xa9");          // é as UTF-8
  EXPECT_EQ(v.at(3).as_string(), "\xf0\x9f\x98\x80");  // surrogate pair
}

TEST(JsonValue, WrongTypeAccessorsFallBack) {
  const JsonValue v = parse_ok(R"({"s":"x"})");
  EXPECT_DOUBLE_EQ(v.get("s").as_double(7.5), 7.5);
  EXPECT_EQ(v.get("s").as_bool(true), true);
  EXPECT_EQ(v.get("missing").as_int(-3), -3);
  EXPECT_EQ(v.at(0).type(), JsonValue::Type::Null) << "not an array";
}

TEST(JsonValue, RejectsMalformedInputWithOffset) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("{\"a\":}", &v, &err));
  EXPECT_NE(err.find("at byte"), std::string::npos) << err;
  EXPECT_FALSE(json_parse("[1,2", &v, &err));
  EXPECT_FALSE(json_parse("", &v, &err));
  EXPECT_FALSE(json_parse("nul", &v, &err));
  EXPECT_FALSE(json_parse("\"\\q\"", &v, &err)) << "bad escape";
}

TEST(JsonValue, RejectsTrailingContent) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("{} extra", &v, &err));
  EXPECT_TRUE(json_parse("{}  \n", &v, &err)) << "trailing whitespace is fine";
}

TEST(JsonValue, RejectsOverDeepNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse(deep, &v, &err));
  EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

// Malformed-corpus coverage for the hardened reader: the files pdt report
// and pdt diff ingest come from interrupted bench runs and hand edits, so
// truncation, IEEE-special literals, overflowing numbers, and duplicate
// keys must all fail loudly with a byte offset — never parse to garbage.

TEST(JsonValue, RejectsTruncatedDocument) {
  // A bench run killed mid-write: the envelope opens but never closes.
  const std::string doc =
      R"({"schema":"pdt-bench-v1","sections":[{"type":"fault_tolerance",)";
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse(doc, &v, &err));
  EXPECT_NE(err.find("at byte"), std::string::npos) << err;
  // Truncation mid-string and mid-number fail too.
  EXPECT_FALSE(json_parse(R"({"label":"unterm)", &v, &err));
  EXPECT_NE(err.find("unterminated string"), std::string::npos) << err;
  EXPECT_FALSE(json_parse(R"({"x": 12.)", &v, &err));
}

TEST(JsonValue, RejectsNaNAndInfinityLiterals) {
  JsonValue v;
  std::string err;
  for (const char* doc : {"[NaN]", "[Infinity]", "[-Infinity]",
                          R"({"overhead_pct": NaN})"}) {
    EXPECT_FALSE(json_parse(doc, &v, &err)) << doc;
    EXPECT_NE(err.find("NaN/Infinity literals are not valid JSON"),
              std::string::npos)
        << doc << ": " << err;
    EXPECT_NE(err.find("at byte"), std::string::npos) << err;
  }
  // The offset points at the literal, not past it ("[NaN]" -> byte 1;
  // "[-Infinity]" rewinds over the consumed minus sign).
  EXPECT_FALSE(json_parse("[NaN]", &v, &err));
  EXPECT_NE(err.find("at byte 1"), std::string::npos) << err;
  EXPECT_FALSE(json_parse("[-Infinity]", &v, &err));
  EXPECT_NE(err.find("at byte 1"), std::string::npos) << err;
}

TEST(JsonValue, RejectsOverflowingNumbers) {
  // strtod saturates 1e999 to +inf; accepting it would smuggle in the
  // very infinity the literal check rejects.
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("[1e999]", &v, &err));
  EXPECT_NE(err.find("number out of range"), std::string::npos) << err;
  EXPECT_NE(err.find("at byte 1"), std::string::npos) << err;
  EXPECT_FALSE(json_parse("[-1e999]", &v, &err));
  EXPECT_NE(err.find("number out of range"), std::string::npos) << err;
  // Subnormal underflow is fine — it rounds, it does not explode.
  EXPECT_DOUBLE_EQ(parse_ok("[1e-999]").at(0).as_double(-1.0), 0.0);
}

TEST(JsonValue, RejectsDuplicateObjectKeys) {
  // get() returns the first match, so a duplicate would silently shadow
  // later data; our writers never emit one, so it marks corruption.
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse(R"({"a":1,"a":2})", &v, &err));
  EXPECT_NE(err.find("duplicate object key \"a\""), std::string::npos) << err;
  EXPECT_NE(err.find("at byte"), std::string::npos) << err;
  // Nested objects are checked per scope: the same key in two different
  // objects is fine.
  EXPECT_TRUE(json_parse(R"({"a":{"x":1},"b":{"x":2}})", &v, &err)) << err;
  // ...but a duplicate deep inside still fails.
  EXPECT_FALSE(json_parse(R"({"a":{"x":1,"x":2}})", &v, &err));
  EXPECT_NE(err.find("duplicate object key \"x\""), std::string::npos) << err;
}

TEST(JsonValue, ParsesNonFiniteAsNullPerWriterContract) {
  // The simulator's JsonWriter emits null for NaN/Inf; a reader round-trip
  // sees a null, and the fallback accessor turns it into the default.
  const JsonValue v = parse_ok(R"({"delta_us": null})");
  EXPECT_TRUE(v.get("delta_us").is_null());
  EXPECT_DOUBLE_EQ(v.get("delta_us").as_double(0.0), 0.0);
}

TEST(JsonValue, RejectsEmptyAndWhitespaceOnlyInput) {
  // An empty PDT_JSON_DIR artifact (e.g. a file touched but never
  // written) must read as a parse error with a position, not as a
  // silent null document.
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("", &v, &err));
  EXPECT_NE(err.find("unexpected end of input"), std::string::npos) << err;
  EXPECT_NE(err.find("at byte 0"), std::string::npos) << err;
  err.clear();
  EXPECT_FALSE(json_parse("  \n\t ", &v, &err));
  EXPECT_NE(err.find("unexpected end of input"), std::string::npos) << err;
}

TEST(JsonValue, SerializeRoundTripsDocumentsCompactly) {
  // json_serialize is how pdt trend copies fingerprint objects from
  // envelopes into registry records: insertion order and exact doubles
  // must survive a parse -> serialize -> parse cycle.
  const std::string text =
      R"({"git_sha":"abc","git_dirty":true,"cores":4,"ratio":0.1,)"
      R"("env":{"PDT_SCALE":"0.05"},"list":[1,"two",null,false]})";
  const JsonValue v = parse_ok(text);
  EXPECT_EQ(json_serialize(v), text) << "compact form is the fixed point";

  const JsonValue again = parse_ok(json_serialize(v));
  EXPECT_EQ(json_serialize(again), text);
  EXPECT_DOUBLE_EQ(again.get("ratio").as_double(), 0.1) << "bit-exact";
  // Escapes survive.
  const JsonValue esc = parse_ok(R"({"a":"q\"b\\c"})");
  EXPECT_EQ(json_serialize(esc), R"({"a":"q\"b\\c"})");
}

}  // namespace
}  // namespace pdt::tools
