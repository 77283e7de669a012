// Supervision suite (`ctest -R supervision`): wild5g_run's signal and
// deadline behavior, exercised end to end on real campaign runs.
//
// Contracts under test (bench/bench_common.h):
//   - SIGTERM/SIGINT mid-run: the run stops at its next engine::run_steps
//     yield, flushes a *valid* partial metrics document annotated with a
//     top-level "interrupted": true, and exits 128+signo;
//   - --deadline-ms: wall-clock budget; expiry stops the run at a yield,
//     the partial document carries a "deadline_hit" metric, exit code 0.
//     The WILD5G_DEADLINE_AFTER_YIELDS env hook trips the same path after
//     a fixed yield count, making the partial document deterministic;
//   - garbage / non-positive --deadline-ms values exit 2 (usage error), and
//     so does a mistyped flag, on every registered campaign;
//   - a stopped sweep's partial document keeps every row it completed.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "engine/campaign.h"

extern char** environ;

namespace {

using namespace wild5g;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct RunResult {
  int exit_code = -1;
  std::string document;  // contents of the --json file ("" if missing)
};

/// Spawns `wild5g_run <campaign> --json <tmp> <extra_args>` with optional
/// env hooks; when `kill_after_ms` is positive, delivers `signo` after that
/// delay. Reaps and returns the raw exit status semantics: exit code, or
/// 128+signo if the process died to an unhandled signal (it should not —
/// the handler converts it).
RunResult run_bench(const std::string& campaign,
                    const std::vector<std::string>& extra_args,
                    const std::vector<std::string>& extra_env,
                    int kill_after_ms = 0, int signo = SIGTERM) {
  const std::string out_path = ::testing::TempDir() + "wild5g_supervision_" +
                               campaign + "_" + std::to_string(::getpid()) +
                               ".json";
  std::remove(out_path.c_str());

  std::vector<std::string> args = {WILD5G_RUN_BIN, campaign, "--json",
                                   out_path};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
  env.insert(env.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> envp;
  envp.reserve(env.size() + 1);
  for (auto& entry : env) envp.push_back(entry.data());
  envp.push_back(nullptr);

  // Silence the bench's stdout so test logs stay readable.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);

  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               envp.data());
  posix_spawn_file_actions_destroy(&actions);
  EXPECT_EQ(rc, 0) << "posix_spawn failed for " << argv[0];
  RunResult result;
  if (rc != 0) return result;

  if (kill_after_ms > 0) {
    ::usleep(static_cast<useconds_t>(kill_after_ms) * 1000);
    ::kill(pid, signo);
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exit_code = 128 + WTERMSIG(status);
    ADD_FAILURE() << campaign << " died to unhandled signal "
                  << WTERMSIG(status);
  }
  result.document = read_file(out_path);
  std::remove(out_path.c_str());
  return result;
}

// The regression target: a campaign with many yield points and a long
// enough runtime that a mid-run signal lands between them. Most figures
// are one step and yield only before it, so this is a metro sweep (nine
// steps).
constexpr const char* kSweepBench = "extension_metro_load";

/// Runs the sweep at 4 cells x 10 UEs: still nine steps, each short enough
/// that the suite stays fast.
RunResult run_sweep(std::vector<std::string> extra_args,
                    const std::vector<std::string>& extra_env,
                    int kill_after_ms = 0, int signo = SIGTERM) {
  extra_args.insert(extra_args.end(), {"--cells", "4", "--ues", "10"});
  return run_bench(kSweepBench, extra_args, extra_env, kill_after_ms, signo);
}

TEST(supervision, sigterm_flushes_valid_partial_with_interrupted_key) {
  // The dwell hook stretches each yield to 40 ms so a 200 ms kill lands
  // mid-sweep deterministically enough to matter, while the handler-based
  // design keeps any landing spot valid.
  const RunResult run =
      run_sweep({}, {"WILD5G_TEST_YIELD_DELAY_MS=40"},
                /*kill_after_ms=*/200, SIGTERM);
  EXPECT_EQ(run.exit_code, 128 + SIGTERM);
  ASSERT_FALSE(run.document.empty())
      << "interrupted bench left no partial document";
  const json::Value doc = json::parse(run.document);  // valid JSON or throw
  const json::Value* interrupted = doc.find("interrupted");
  ASSERT_NE(interrupted, nullptr) << run.document.substr(0, 200);
  EXPECT_TRUE(interrupted->as_bool());
  // Identity fields must survive the partial flush.
  ASSERT_NE(doc.find("bench"), nullptr);
  EXPECT_EQ(doc.find("bench")->as_string(), "extension_metro_load");
}

TEST(supervision, sigint_behaves_like_sigterm_with_its_own_code) {
  const RunResult run =
      run_sweep({}, {"WILD5G_TEST_YIELD_DELAY_MS=40"},
                /*kill_after_ms=*/200, SIGINT);
  EXPECT_EQ(run.exit_code, 128 + SIGINT);
  ASSERT_FALSE(run.document.empty());
  const json::Value doc = json::parse(run.document);
  ASSERT_NE(doc.find("interrupted"), nullptr);
}

TEST(supervision, deadline_yield_hook_is_deterministic_and_exits_zero) {
  // Trip the deadline path after exactly 3 yields — no clock involved, so
  // two runs must produce byte-identical partial documents.
  const RunResult first = run_sweep({"--deadline-ms", "3600000"},
                                    {"WILD5G_DEADLINE_AFTER_YIELDS=3"});
  const RunResult second = run_sweep({"--deadline-ms", "3600000"},
                                     {"WILD5G_DEADLINE_AFTER_YIELDS=3"});
  EXPECT_EQ(first.exit_code, 0) << "a deadline is a supervised outcome";
  ASSERT_FALSE(first.document.empty());
  EXPECT_EQ(first.document, second.document)
      << "deterministic deadline partials diverged";
  const json::Value doc = json::parse(first.document);
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* deadline = metrics->find("deadline_hit");
  ASSERT_NE(deadline, nullptr) << first.document.substr(0, 200);
  EXPECT_EQ(deadline->as_number(), 1.0);
  EXPECT_EQ(doc.find("interrupted"), nullptr)
      << "deadline and interruption are distinct outcomes";
}

TEST(supervision, wall_clock_deadline_stops_a_long_run) {
  // A real (clock-based) deadline: 1 ms budget plus a 20 ms dwell per
  // yield guarantees expiry at the first yield checked after the budget.
  const RunResult run = run_sweep({"--deadline-ms", "1"},
                                  {"WILD5G_TEST_YIELD_DELAY_MS=20"});
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_FALSE(run.document.empty());
  const json::Value doc = json::parse(run.document);
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("deadline_hit"), nullptr);
}

TEST(supervision, garbage_deadline_values_are_usage_errors) {
  for (const auto& args :
       {std::vector<std::string>{"--deadline-ms", "soon"},
        std::vector<std::string>{"--deadline-ms", "0"},
        std::vector<std::string>{"--deadline-ms", "-5"},
        std::vector<std::string>{"--deadline-ms", "10x"},
        std::vector<std::string>{"--deadline-ms", "4294967296"}}) {
    const RunResult run = run_sweep(args, {});
    EXPECT_EQ(run.exit_code, 2) << args[1];
    EXPECT_TRUE(run.document.empty())
        << "usage errors must not leave a document behind";
  }
}

TEST(supervision, clean_run_document_mentions_no_supervision_keys) {
  // Golden byte-identity depends on supervision being invisible when no
  // supervision event fired.
  const RunResult run = run_sweep({}, {});
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_FALSE(run.document.empty());
  EXPECT_EQ(run.document.find("interrupted"), std::string::npos);
  EXPECT_EQ(run.document.find("deadline_hit"), std::string::npos);
}

TEST(supervision, engine_backed_bench_honors_deadline_hook) {
  // Campaign params from the command line must not change the
  // deterministic-deadline contract.
  const RunResult first = run_bench(
      "extension_metro_load", {"--cells", "4", "--ues", "10"},
      {"WILD5G_DEADLINE_AFTER_YIELDS=2"});
  const RunResult second = run_bench(
      "extension_metro_load", {"--cells", "4", "--ues", "10"},
      {"WILD5G_DEADLINE_AFTER_YIELDS=2"});
  EXPECT_EQ(first.exit_code, 0);
  ASSERT_FALSE(first.document.empty());
  EXPECT_EQ(first.document, second.document);
  const json::Value doc = json::parse(first.document);
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->find("deadline_hit"), nullptr);
}

TEST(supervision, deadline_partial_keeps_the_rows_completed_before_the_stop) {
  // table7 runs one network per step: the deadline at the second yield
  // stops it after exactly one row, and that row must be in the partial
  // document, byte-equal to the completed run's first row.
  const RunResult run = run_bench("table7_rrc_params", {},
                                  {"WILD5G_DEADLINE_AFTER_YIELDS=2"});
  EXPECT_EQ(run.exit_code, 0);
  ASSERT_FALSE(run.document.empty());
  const json::Value golden = json::parse(read_file(
      std::string(WILD5G_GOLDEN_DIR) + "/bench_table7_rrc_params.json"));
  const json::Value doc = json::parse(run.document);
  const auto& tables = doc.find("tables")->as_array();
  ASSERT_EQ(tables.size(), 1u) << run.document;
  const json::Value& golden_table = golden.find("tables")->as_array().at(0);
  EXPECT_EQ(tables[0].find("title")->as_string(),
            golden_table.find("title")->as_string());
  const auto& rows = tables[0].find("rows")->as_array();
  ASSERT_EQ(rows.size(), 1u) << run.document;
  EXPECT_EQ(json::dump(rows[0]),
            json::dump(golden_table.find("rows")->as_array().at(0)));
}

/// Every registered campaign, so a new campaign is covered without touching
/// this file.
std::vector<std::string> registered_campaigns() {
  engine::register_builtin_campaigns();
  return engine::campaign_names();
}

class MistypedFlag : public ::testing::TestWithParam<std::string> {};

TEST_P(MistypedFlag, exits_two_and_writes_no_document) {
  // `--jsn` for `--json`: the path is not a count, so the flag parser
  // refuses it; `--jsn 3` parses, reaches the campaign's factory as param
  // "jsn", and the factory refuses it. Either way nothing may run and no
  // document may appear — before this was gated, most figure binaries
  // ignored unknown flags and exited 0.
  const std::string& campaign = GetParam();
  const std::string path =
      ::testing::TempDir() + "wild5g_mistyped_" + campaign + ".json";
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--jsn", path},
        std::vector<std::string>{"--jsn", "3", "--json", path}}) {
    std::remove(path.c_str());
    std::string command = std::string(WILD5G_RUN_BIN) + " " + campaign;
    for (const auto& flag : flags) command += " " + flag;
    const int rc = std::system((command + " > /dev/null 2>&1").c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << command;
    EXPECT_EQ(WEXITSTATUS(rc), 2) << command;
    EXPECT_NE(::access(path.c_str(), F_OK), 0) << command << " wrote " << path;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCampaigns, MistypedFlag,
                         ::testing::ValuesIn(registered_campaigns()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
