// Direct unit tests for the golden-metrics comparator (src/core/golden.cpp):
// the document tolerance, type-change drift, array length mismatches, and
// numeric-string table-cell comparison. The golden.*
// ctest gate exercises these paths end to end, but only on documents that
// match — these tests pin down what a *mismatch* reports.
#include <gtest/gtest.h>

#include <string>

#include "core/golden.h"
#include "core/json.h"

namespace wg = wild5g::golden;
namespace wj = wild5g::json;

namespace {

wj::Value doc(const std::string& text) { return wj::parse(text); }

bool any_path_contains(const std::vector<wg::Drift>& drifts,
                       const std::string& fragment) {
  for (const auto& d : drifts) {
    if (d.path.find(fragment) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

TEST(GoldenComparator, IdenticalDocumentsProduceNoDrift) {
  const auto golden = doc(R"({"bench":"x","metrics":{"a":1.5}})");
  EXPECT_TRUE(wg::compare(golden, golden).empty());
}

TEST(GoldenComparator, DocumentToleranceDefaultsAndOverride) {
  const auto strict = doc(R"({"tolerance":{"rel":0.5,"abs":2.0}})");
  const auto tol = wg::document_tolerance(strict);
  EXPECT_DOUBLE_EQ(tol.rel, 0.5);
  EXPECT_DOUBLE_EQ(tol.abs, 2.0);
  const auto defaults = wg::document_tolerance(doc(R"({})"));
  EXPECT_DOUBLE_EQ(defaults.rel, 1e-6);
  EXPECT_DOUBLE_EQ(defaults.abs, 1e-9);
}

TEST(GoldenComparator, NumberDriftBeyondToleranceIsReported) {
  const auto golden =
      doc(R"({"tolerance":{"rel":1e-6,"abs":1e-9},"metrics":{"m":100.0}})");
  // rel drift 1e-5 > tol 1e-6 → drift; rel drift 1e-7 < tol → clean.
  const auto fresh_drifted =
      doc(R"({"tolerance":{"rel":1e-6,"abs":1e-9},"metrics":{"m":100.001}})");
  EXPECT_FALSE(wg::compare(golden, fresh_drifted).empty());
  const auto fresh_close =
      doc(R"({"tolerance":{"rel":1e-6,"abs":1e-9},"metrics":{"m":100.00001}})");
  EXPECT_TRUE(wg::compare(golden, fresh_close).empty());
}

TEST(GoldenComparator, TypeChangeIsStructuralDrift) {
  const auto golden = doc(R"({"metrics":{"m":1.0}})");
  const auto fresh = doc(R"({"metrics":{"m":"1.0"}})");
  const auto drifts = wg::compare(golden, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].path, "metrics.m");
  EXPECT_NE(drifts[0].message.find("type changed"), std::string::npos)
      << drifts[0].message;
  EXPECT_NE(drifts[0].message.find("number"), std::string::npos);
  EXPECT_NE(drifts[0].message.find("string"), std::string::npos);
}

TEST(GoldenComparator, ArrayLengthMismatchReportedAndPrefixCompared) {
  // A dropped table row is a drift in its own right; surviving rows are
  // still compared so one report shows everything actionable.
  const auto golden = doc(R"({"tables":[["1.0","2.0","3.0"]]})");
  const auto fresh = doc(R"({"tables":[["1.0","9.0"]]})");
  const auto drifts = wg::compare(golden, fresh);
  ASSERT_EQ(drifts.size(), 2u);
  EXPECT_NE(drifts[0].message.find("length changed"), std::string::npos);
  EXPECT_NE(drifts[0].message.find("golden 3"), std::string::npos);
  EXPECT_TRUE(any_path_contains(drifts, "tables[0][1]"));
}

TEST(GoldenComparator, NumericStringCellsCompareUnderTolerance) {
  // Formatted table cells ("13.50" vs "13.5") get numeric comparison, not
  // byte equality.
  const auto golden = doc(R"({"tables":[["13.50"]]})");
  const auto fresh = doc(R"({"tables":[["13.5"]]})");
  EXPECT_TRUE(wg::compare(golden, fresh).empty());
}

TEST(GoldenComparator, NonNumericStringsCompareExactly) {
  const auto golden = doc(R"({"tables":[["Verizon, Minneapolis"]]})");
  const auto fresh = doc(R"({"tables":[["Verizon, St. Paul"]]})");
  const auto drifts = wg::compare(golden, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_NE(drifts[0].message.find("Verizon, Minneapolis"), std::string::npos);
}

TEST(GoldenComparator, MixedNumericAndTextCellDrifts) {
  // "3.0 Gbps" does not parse fully as a number, so it must byte-compare
  // (and differ); "-" vs "-" matches exactly.
  const auto golden = doc(R"({"tables":[["3.0 Gbps","-"]]})");
  const auto fresh = doc(R"({"tables":[["3.1 Gbps","-"]]})");
  const auto drifts = wg::compare(golden, fresh);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_NE(drifts[0].message.find("3.0 Gbps"), std::string::npos);
}

TEST(GoldenComparator, MissingAndUnexpectedKeysAreDrifts) {
  const auto golden = doc(R"({"metrics":{"kept":1.0,"dropped":2.0}})");
  const auto fresh = doc(R"({"metrics":{"kept":1.0,"added":3.0}})");
  const auto drifts = wg::compare(golden, fresh);
  ASSERT_EQ(drifts.size(), 2u);
  EXPECT_TRUE(any_path_contains(drifts, "metrics.dropped"));
  EXPECT_TRUE(any_path_contains(drifts, "metrics.added"));
}

TEST(GoldenComparator, FormatReportOneLinePerDrift) {
  const auto golden = doc(R"({"metrics":{"a":1.0,"b":2.0}})");
  const auto fresh = doc(R"({"metrics":{"a":9.0,"b":9.0}})");
  const auto report = wg::format_report(wg::compare(golden, fresh));
  EXPECT_NE(report.find("metrics.a"), std::string::npos);
  EXPECT_NE(report.find("metrics.b"), std::string::npos);
}
