// Tests for tools/wild5g_lint: every fixture in tests/lint_fixtures/ must
// trip exactly its intended rule, justified suppressions must silence their
// finding, and the real tree (src/, bench/, tools/, examples/) must lint
// clean — that last assertion is the determinism contract the golden-metrics
// harness rests on.
//
// The linter binary path and fixture directory come in as compile
// definitions (see tests/CMakeLists.txt); runs go through popen so we
// exercise the actual CLI, --json output, and exit codes end to end.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/json.h"

namespace {

namespace json = wild5g::json;

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  const std::string command =
      std::string(WILD5G_LINT_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch: " << command;
  LintRun run;
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string fixture(const std::string& name) {
  return std::string(WILD5G_LINT_FIXTURES) + "/" + name;
}

/// Runs the linter on one fixture and asserts that it exits 1 and that every
/// finding carries exactly the expected rule (counts may exceed one, rules
/// may not differ — a fixture that trips a neighboring rule is a test bug).
void expect_only_rule(const std::string& name, const std::string& rule) {
  const LintRun run = run_lint("--json " + fixture(name));
  ASSERT_EQ(run.exit_code, 1) << name << " output:\n" << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* findings = doc.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_GE(findings->size(), 1u) << name;
  for (const auto& entry : findings->as_array()) {
    const json::Value* got = entry.find("rule");
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->as_string(), rule)
        << name << " tripped a rule it should not have:\n"
        << run.output;
    const json::Value* line = entry.find("line");
    ASSERT_NE(line, nullptr);
    EXPECT_GT(line->as_number(), 0) << name;
  }
}

void expect_clean(const std::string& name) {
  const LintRun run = run_lint("--json " + fixture(name));
  EXPECT_EQ(run.exit_code, 0) << name << " output:\n" << run.output;
  const json::Value doc = json::parse(run.output);
  const json::Value* count = doc.find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->as_number(), 0) << name;
}

TEST(lint, fixture_ban_random_device) {
  expect_only_rule("bad_random_device.cpp", "ban-random-device");
}

TEST(lint, fixture_ban_c_rand) {
  expect_only_rule("bad_c_rand.cpp", "ban-c-rand");
}

TEST(lint, fixture_ban_wall_clock_time) {
  expect_only_rule("bad_wall_clock.cpp", "ban-wall-clock");
}

TEST(lint, fixture_ban_wall_clock_chrono) {
  expect_only_rule("bad_chrono_clock.cpp", "ban-wall-clock");
}

TEST(lint, fixture_ban_raw_engine) {
  expect_only_rule("bad_raw_engine.cpp", "ban-raw-engine");
}

TEST(lint, fixture_ban_raw_distribution) {
  expect_only_rule("bad_distribution.cpp", "ban-raw-engine");
}

TEST(lint, fixture_unordered_iteration) {
  expect_only_rule("bad_unordered_iteration.cpp", "unordered-iteration");
}

TEST(lint, fixture_float_equality) {
  expect_only_rule("bad_float_equality.cpp", "float-equality");
}

TEST(lint, fixture_printf_float) {
  expect_only_rule("bad_printf_float.cpp", "printf-float");
}

TEST(lint, fixture_catch_swallow) {
  expect_only_rule("bad_catch_swallow.cpp", "catch-swallow");
}

TEST(lint, fixture_bench_sample_hoard) {
  // Virtual path maps tests/lint_fixtures/bench/... to bench/..., so the
  // store-all percentile pattern trips the bench/figure rule.
  expect_only_rule("bench/bad_sample_hoard.cpp", "bench-sample-hoard");
}

TEST(lint, fixture_figure_sample_hoard) {
  // The figure campaigns moved from bench/ to src/engine/figures/; the rule
  // follows them there.
  expect_only_rule("src/engine/figures/bad_sample_hoard.cpp",
                   "bench-sample-hoard");
}

TEST(lint, fixture_allow_needs_justification) {
  expect_only_rule("bad_allow_missing_justification.cpp",
                   "allow-needs-justification");
}

TEST(lint, fixture_unknown_rule) {
  expect_only_rule("bad_unknown_rule.cpp", "unknown-rule");
}

TEST(lint, fixture_unit_mismatch_assign) {
  expect_only_rule("bad_unit_assign.cpp", "unit-mismatch-assign");
}

TEST(lint, fixture_unit_mismatch_call) {
  expect_only_rule("bad_unit_call.cpp", "unit-mismatch-call");
}

TEST(lint, fixture_unit_double_conversion) {
  expect_only_rule("bad_unit_double_conversion.cpp", "unit-double-conversion");
}

TEST(lint, fixture_engine_blocking_call) {
  // Virtual path maps tests/lint_fixtures/src/engine/... to src/engine/...,
  // so blocking filesystem/sleep calls trip the compute-thread purity rule.
  expect_only_rule("src/engine/bad_engine_blocking.cpp",
                   "engine-blocking-call");
}

TEST(lint, fixture_engine_snapshot_writer_is_exempt) {
  // The sanctioned checkpoint writer (virtual path src/engine/snapshot.cpp)
  // may touch the filesystem without a finding.
  expect_clean("src/engine/snapshot.cpp");
}

TEST(lint, fixture_integer_parse) {
  // Virtual path tools/...: integer text parsing outside the core reader.
  expect_only_rule("tools/bad_integer_parse.cpp", "integer-parse");
}

TEST(lint, fixture_core_integer_reader_is_exempt) {
  // The core reader's own file (virtual path src/core/integer.h) is the
  // one place integer text may be parsed.
  expect_clean("src/core/integer.h");
}

TEST(lint, fixture_layering) {
  // The fixture's virtual path (…/src/core/…) puts it in src/core, so its
  // radio include violates the layer DAG.
  expect_only_rule("src/core/bad_layering.cpp", "layering");
}

TEST(lint, fixture_include_cycle) {
  expect_only_rule("src/geo/bad_include_cycle.h", "include-cycle");
}

TEST(lint, fixture_line_splice_cannot_hide_a_banned_call) {
  // Phase-2 splicing happens before lexing: ra\<newline>nd() is rand().
  expect_only_rule("bad_line_splice.cpp", "ban-c-rand");
}

TEST(lint, fixture_good_allow_suppresses) { expect_clean("good_allow.cpp"); }

TEST(lint, fixture_good_clean) { expect_clean("good_clean.cpp"); }

TEST(lint, fixture_good_tokenizer_edges) {
  // Raw strings quoting banned identifiers, digit separators, a comment
  // line-splice, and UTF-8 prose must not confuse any rule.
  expect_clean("good_tokenizer_edges.cpp");
}

TEST(lint, every_bad_fixture_has_a_test) {
  // Walking the fixture dir keeps this suite honest: adding a fixture
  // without a matching expect_only_rule() call fails here.
  const std::set<std::string> covered = {
      "bad_random_device.cpp",    "bad_c_rand.cpp",
      "bad_wall_clock.cpp",       "bad_chrono_clock.cpp",
      "bad_raw_engine.cpp",       "bad_distribution.cpp",
      "bad_unordered_iteration.cpp", "bad_float_equality.cpp",
      "bad_printf_float.cpp",     "bad_allow_missing_justification.cpp",
      "bad_unknown_rule.cpp",     "bad_catch_swallow.cpp",
      "bad_unit_assign.cpp",      "bad_unit_call.cpp",
      "bad_unit_double_conversion.cpp", "src/core/bad_layering.cpp",
      "src/geo/bad_include_cycle.h", "bad_line_splice.cpp",
      "bench/bad_sample_hoard.cpp", "src/engine/figures/bad_sample_hoard.cpp",
      "src/engine/bad_engine_blocking.cpp",
      "src/engine/snapshot.cpp",  "tools/bad_integer_parse.cpp",
      "src/core/integer.h",     "good_allow.cpp",
      "good_clean.cpp",           "good_tokenizer_edges.cpp"};
  const LintRun listing =
      run_lint("--json " + std::string(WILD5G_LINT_FIXTURES));
  const json::Value doc = json::parse(listing.output);
  const json::Value* scanned = doc.find("files_scanned");
  ASSERT_NE(scanned, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(scanned->as_number()), covered.size())
      << "fixture added or removed without updating test_lint_fixtures.cpp";
}

TEST(lint, clean_tree) {
  // The repo's own sources must satisfy the determinism contract. This is
  // the same gate as ctest's lint.tree, asserted here with --json so a
  // regression names the offending rule in the failure message.
  const std::string root(WILD5G_SOURCE_ROOT);
  const LintRun run = run_lint("--json " + root + "/src " + root + "/bench " +
                               root + "/tools " + root + "/examples");
  EXPECT_EQ(run.exit_code, 0) << "tree has lint findings:\n" << run.output;
}

TEST(lint, list_rules_covers_registry) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  for (const std::string rule :
       {"ban-random-device", "ban-c-rand", "ban-wall-clock", "ban-raw-engine",
        "unordered-iteration", "float-equality", "printf-float",
        "catch-swallow", "bench-sample-hoard", "engine-blocking-call",
        "integer-parse", "unit-mismatch-assign", "unit-mismatch-call",
        "unit-double-conversion", "layering", "include-cycle",
        "allow-needs-justification", "unknown-rule"}) {
    EXPECT_NE(run.output.find(rule), std::string::npos) << rule;
  }
}

TEST(lint, list_rules_json_is_machine_readable) {
  // --list-rules --json is the contract --rules-doc and external tooling
  // build on: every rule carries an id, a family, and a summary.
  const LintRun run = run_lint("--list-rules --json");
  ASSERT_EQ(run.exit_code, 0);
  const json::Value doc = json::parse(run.output);
  const json::Value* rules = doc.find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_GE(rules->size(), 18u) << "registry lost a rule";
  const json::Value* count = doc.find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(count->as_number()), rules->size());
  std::set<std::string> families;
  for (const auto& rule : rules->as_array()) {
    const json::Value* id = rule.find("id");
    const json::Value* family = rule.find("family");
    const json::Value* summary = rule.find("summary");
    ASSERT_NE(id, nullptr);
    ASSERT_NE(family, nullptr);
    ASSERT_NE(summary, nullptr);
    EXPECT_FALSE(summary->as_string().empty()) << id->as_string();
    families.insert(family->as_string());
  }
  for (const std::string family :
       {"determinism", "units", "layering", "hygiene", "meta"}) {
    EXPECT_EQ(families.count(family), 1u) << family;
  }
  EXPECT_EQ(families.size(), 5u) << "a rule names an unlisted family";
}

TEST(lint, sarif_output_matches_code_scanning_shape) {
  // The SARIF log must carry the 2.1.0 fields GitHub code scanning requires:
  // version, runs[0].tool.driver.{name,rules}, and per-result ruleId/level/
  // message.text/locations[0].physicalLocation with a uri and a 1-based
  // startLine.
  const std::string sarif_path =
      ::testing::TempDir() + "/wild5g_lint_fixture.sarif";
  const LintRun run =
      run_lint("--sarif " + sarif_path + " " + fixture("bad_c_rand.cpp"));
  EXPECT_EQ(run.exit_code, 1);
  std::ifstream in(sarif_path);
  ASSERT_TRUE(in.good()) << sarif_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const json::Value doc = json::parse(buffer.str());
  const json::Value* version = doc.find("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->as_string(), "2.1.0");
  const json::Value* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->size(), 1u);
  const json::Value& the_run = runs->as_array()[0];
  const json::Value* tool = the_run.find("tool");
  ASSERT_NE(tool, nullptr);
  const json::Value* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  const json::Value* name = driver->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->as_string(), "wild5g-lint");
  const json::Value* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_GE(rules->size(), 18u);
  const json::Value* results = the_run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_GE(results->size(), 1u);
  for (const auto& result : results->as_array()) {
    const json::Value* rule_id = result.find("ruleId");
    ASSERT_NE(rule_id, nullptr);
    EXPECT_EQ(rule_id->as_string(), "ban-c-rand");
    const json::Value* level = result.find("level");
    ASSERT_NE(level, nullptr);
    EXPECT_EQ(level->as_string(), "error");
    const json::Value* message = result.find("message");
    ASSERT_NE(message, nullptr);
    ASSERT_NE(message->find("text"), nullptr);
    const json::Value* locations = result.find("locations");
    ASSERT_NE(locations, nullptr);
    ASSERT_EQ(locations->size(), 1u);
    const json::Value* physical =
        locations->as_array()[0].find("physicalLocation");
    ASSERT_NE(physical, nullptr);
    const json::Value* artifact = physical->find("artifactLocation");
    ASSERT_NE(artifact, nullptr);
    ASSERT_NE(artifact->find("uri"), nullptr);
    const json::Value* region = physical->find("region");
    ASSERT_NE(region, nullptr);
    const json::Value* start_line = region->find("startLine");
    ASSERT_NE(start_line, nullptr);
    EXPECT_GE(start_line->as_number(), 1);
  }
}

TEST(lint, rules_doc_is_fresh) {
  // docs/LINT_RULES.md is generated from the registry; this gate fails when
  // a rule is added or reworded without regenerating the doc.
  const LintRun run = run_lint("--rules-doc");
  ASSERT_EQ(run.exit_code, 0);
  std::ifstream in(WILD5G_LINT_RULES_DOC);
  ASSERT_TRUE(in.good())
      << "docs/LINT_RULES.md missing; regenerate with wild5g_lint "
         "--rules-doc";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), run.output)
      << "docs/LINT_RULES.md is stale; regenerate with:\n"
         "  ./build/tools/wild5g_lint --rules-doc > docs/LINT_RULES.md";
}

}  // namespace
