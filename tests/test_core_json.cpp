// Tests for the JSON document model (writer + parser) and the golden
// comparator that the bench regression gate is built on.
#include "core/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/error.h"
#include "core/golden.h"

namespace json = wild5g::json;
namespace golden = wild5g::golden;
using wild5g::Error;

namespace {

json::Value sample_document() {
  json::Value doc = json::Value::object();
  doc.set("bench", "fig99_example");
  doc.set("seed", 20210823);
  json::Value tolerance = json::Value::object();
  tolerance.set("rel", 1e-6);
  tolerance.set("abs", 1e-9);
  doc.set("tolerance", std::move(tolerance));
  json::Value tables = json::Value::array();
  json::Value table = json::Value::object();
  table.set("title", "example table");
  json::Value header = json::Value::array();
  header.push_back("setting");
  header.push_back("total");
  table.set("header", std::move(header));
  json::Value rows = json::Value::array();
  json::Value row = json::Value::array();
  row.push_back("SA only");
  row.push_back("13.0");
  rows.push_back(std::move(row));
  table.set("rows", std::move(rows));
  tables.push_back(std::move(table));
  doc.set("tables", std::move(tables));
  json::Value metrics = json::Value::object();
  metrics.set("stall_pct", 4.25);
  doc.set("metrics", std::move(metrics));
  return doc;
}

}  // namespace

TEST(Json, DumpParseRoundTripIsByteIdentical) {
  const std::string once = json::dump(sample_document());
  const std::string twice = json::dump(json::parse(once));
  EXPECT_EQ(once, twice);
}

TEST(Json, RoundTripPreservesValuesAndOrder) {
  const json::Value doc = json::parse(json::dump(sample_document()));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.as_object()[0].key, "bench");  // insertion order kept
  EXPECT_EQ(doc.find("bench")->as_string(), "fig99_example");
  EXPECT_DOUBLE_EQ(doc.find("seed")->as_number(), 20210823.0);
  EXPECT_DOUBLE_EQ(doc.find("metrics")->find("stall_pct")->as_number(), 4.25);
  const json::Value& table = doc.find("tables")->as_array().at(0);
  EXPECT_EQ(table.find("rows")->as_array()[0].as_array()[1].as_string(),
            "13.0");
}

TEST(Json, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(json::format_number(13.5), "13.5");
  EXPECT_EQ(json::format_number(0.0), "0");
  EXPECT_EQ(json::format_number(-3.0), "-3");
  EXPECT_EQ(json::format_number(1e-6), "1e-06");
  // 0.1 has no short exact decimal form; whatever is printed must parse
  // back to the identical double.
  const double value = 0.1;
  EXPECT_EQ(json::parse(json::format_number(value)).as_number(), value);
}

TEST(Json, NonFiniteNumbersRejectedOnWrite) {
  EXPECT_THROW((void)json::format_number(std::nan("")), Error);
  EXPECT_THROW((void)json::format_number(1.0 / 0.0), Error);
  json::Value doc = json::Value::object();
  doc.set("bad", std::nan(""));
  EXPECT_THROW((void)json::dump(doc), Error);
}

TEST(Json, StringEscapingRoundTrips) {
  json::Value doc = json::Value::object();
  doc.set("s", "quote \" backslash \\ newline \n tab \t ctrl \x01 end");
  const json::Value back = json::parse(json::dump(doc));
  EXPECT_EQ(back.find("s")->as_string(), doc.find("s")->as_string());
}

TEST(Json, ParsesEscapesAndLiterals) {
  const json::Value v =
      json::parse(R"({"a": [true, false, null, -1.5e2], "u": "\u0041"})");
  EXPECT_TRUE(v.find("a")->as_array()[0].as_bool());
  EXPECT_FALSE(v.find("a")->as_array()[1].as_bool());
  EXPECT_TRUE(v.find("a")->as_array()[2].is_null());
  EXPECT_DOUBLE_EQ(v.find("a")->as_array()[3].as_number(), -150.0);
  EXPECT_EQ(v.find("u")->as_string(), "A");
}

TEST(Json, MalformedInputsRejectedCleanly) {
  const char* cases[] = {
      "",                      // empty
      "{",                     // truncated object
      "[1, 2",                 // truncated array
      "\"abc",                 // unterminated string
      "{\"a\": }",             // missing value
      "{\"a\": 1,}",           // would need a key after comma
      "1.5 garbage",           // trailing garbage
      "nan",                   // not a JSON literal
      "inf",                   // not a JSON literal
      "-",                     // sign without digits
      "1.",                    // missing fraction digits
      "2e",                    // missing exponent digits
      "1e999",                 // overflows to infinity
      "\"bad \\x escape\"",    // invalid escape
      "\"trunc \\u12\"",       // truncated \u escape
      "\"\\ud800\"",           // surrogate escape
      "\"ctrl \x01\"",         // raw control character
  };
  for (const char* text : cases) {
    EXPECT_THROW((void)json::parse(text), Error) << "input: " << text;
  }
}

TEST(Json, DeeplyNestedInputRejected) {
  std::string text(1000, '[');
  EXPECT_THROW((void)json::parse(text), Error);
}

TEST(GoldenCompare, IdenticalDocumentsHaveNoDrift) {
  const json::Value doc = sample_document();
  EXPECT_TRUE(golden::compare(doc, doc).empty());
}

TEST(GoldenCompare, WithinToleranceMatches) {
  json::Value baseline = sample_document();
  json::Value fresh = sample_document();
  // stall_pct: tol is rel 1e-6 on 4.25.
  fresh.set("metrics", [] {
    json::Value m = json::Value::object();
    m.set("stall_pct", 4.25 * (1.0 + 5e-7));
    return m;
  }());
  EXPECT_TRUE(golden::compare(baseline, fresh).empty());
}

TEST(GoldenCompare, BeyondToleranceDriftsWithPath) {
  json::Value baseline = sample_document();
  json::Value fresh = sample_document();
  json::Value m = json::Value::object();
  m.set("stall_pct", 4.30);
  fresh.set("metrics", std::move(m));
  const auto drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "metrics.stall_pct");
  EXPECT_NE(drifts[0].message.find("4.25"), std::string::npos);
  EXPECT_NE(drifts[0].message.find("4.3"), std::string::npos);
}

TEST(GoldenCompare, NumericTableCellsCompareUnderTolerance) {
  const json::Value baseline = sample_document();
  // Rewrite the "13.0" cell beyond tolerance -> drift at the cell's path.
  const std::string text = json::dump(sample_document());
  const json::Value perturbed = json::parse(
      std::string(text).replace(text.find("\"13.0\""), 6, "\"13.2\""));
  const auto drifts = golden::compare(baseline, perturbed);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "tables[0].rows[0][1]");
}

TEST(GoldenCompare, StructuralChangesAreDrifts) {
  const json::Value baseline = sample_document();
  // Dropped metric.
  json::Value fresh = sample_document();
  fresh.set("metrics", json::Value::object());
  auto drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "metrics.stall_pct");
  EXPECT_EQ(drifts[0].message, "missing in fresh run");
  // New unexpected metric.
  fresh = sample_document();
  json::Value m = json::Value::object();
  m.set("stall_pct", 4.25);
  m.set("surprise", 1.0);
  fresh.set("metrics", std::move(m));
  drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].message, "unexpected new field in fresh run");
  // Type change.
  fresh = sample_document();
  fresh.set("bench", 7.0);
  drifts = golden::compare(baseline, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_NE(drifts[0].message.find("type changed"), std::string::npos);
}

TEST(GoldenCompare, ArrayLengthChangeIsDrift) {
  const json::Value baseline = sample_document();
  // Drop the only table row.
  json::Value fresh = sample_document();
  json::Value table = fresh.find("tables")->as_array()[0];
  table.set("rows", json::Value::array());
  json::Value tables = json::Value::array();
  tables.push_back(std::move(table));
  fresh.set("tables", std::move(tables));
  const auto drifts = golden::compare(baseline, fresh);
  ASSERT_FALSE(drifts.empty());
  EXPECT_EQ(drifts[0].path, "tables[0].rows");
  EXPECT_NE(drifts[0].message.find("length changed"), std::string::npos);
}

TEST(GoldenCompare, DocumentToleranceDefaultsApply)
{
  json::Value doc = json::Value::object();
  const auto tol = golden::document_tolerance(doc);
  EXPECT_DOUBLE_EQ(tol.rel, 1e-6);
  EXPECT_DOUBLE_EQ(tol.abs, 1e-9);
}
