// Determinism gate: a figure run twice at the default seed must produce
// byte-identical JSON metrics documents. This is what lets the committed
// goldens in bench/golden/ act as regression baselines at all — any hidden
// nondeterminism (unseeded RNG, iteration over pointer-keyed maps, time- or
// address-dependent output) shows up here as a byte diff.
//
// WILD5G_RUN_BIN, WILD5G_MICRO_BIN and WILD5G_GOLDEN_DIR are injected by
// tests/CMakeLists.txt. Every figure is a registered engine campaign that
// `wild5g_run <id>` runs; bench_micro is the one golden outside the
// registry.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "engine/campaign.h"

namespace {

constexpr const char* kMicro = "bench_micro";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs the golden `name` ("bench_<id>") with --json and returns the
/// document: `wild5g_run <id>` for a figure, bench_micro for its inventory.
std::string run_bench_json(const std::string& name, const std::string& tag,
                           const std::string& extra_args = "") {
  const std::string out_path =
      ::testing::TempDir() + "wild5g_determinism_" + name + "_" + tag +
      ".json";
  std::remove(out_path.c_str());
  const std::string binary =
      name == kMicro ? std::string(WILD5G_MICRO_BIN)
                     : std::string(WILD5G_RUN_BIN) + " " + name.substr(6);
  const std::string command = binary + " --json " + out_path +
                              (extra_args.empty() ? "" : " " + extra_args) +
                              " > /dev/null";
  const int rc = std::system(command.c_str());
  EXPECT_EQ(rc, 0) << command;
  const std::string content = read_file(out_path);
  std::remove(out_path.c_str());
  return content;
}

void expect_two_runs_identical(const std::string& name) {
  const std::string first = run_bench_json(name, "a");
  const std::string second = run_bench_json(name, "b");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << name << " is not run-to-run deterministic";
  // Sanity: the document is a real metrics document, not an error page.
  EXPECT_NE(first.find("\"bench\""), std::string::npos);
  EXPECT_NE(first.find("\"seed\""), std::string::npos);
  EXPECT_NE(first.find("\"tables\""), std::string::npos);
}

/// The registered figure campaigns: every campaign but the drive_soak
/// service workload.
std::vector<std::string> registered_figures() {
  wild5g::engine::register_builtin_campaigns();
  std::vector<std::string> figures;
  for (const auto& name : wild5g::engine::campaign_names()) {
    if (name != "drive_soak") figures.push_back(name);
  }
  return figures;
}

}  // namespace

TEST(GoldenDeterminism, HandoffBenchIsByteIdentical) {
  expect_two_runs_identical("bench_fig09_handoffs");
}

TEST(GoldenDeterminism, AbrQoeBenchIsByteIdentical) {
  expect_two_runs_identical("bench_fig17_abr_qoe");
}

TEST(GoldenDeterminism, RegistryMatchesGoldens) {
  // The golden.* gate comes from the golden files and the thread gate below
  // from the registry; equal sets mean a new figure cannot skip either.
  std::set<std::string> goldens;
  for (const auto& entry :
       std::filesystem::directory_iterator(WILD5G_GOLDEN_DIR)) {
    const std::string stem = entry.path().stem().string();
    if (entry.path().extension() == ".json" && stem.rfind("bench_", 0) == 0 &&
        stem != kMicro) {
      goldens.insert(stem.substr(6));
    }
  }
  const std::vector<std::string> figures = registered_figures();
  EXPECT_EQ(std::set<std::string>(figures.begin(), figures.end()), goldens);
}

TEST(GoldenDeterminism, MicroInventoryMatchesRegisteredBenchmarks) {
  // golden.bench_micro pins bench_micro's hand-typed inventory table; this
  // ties that table to the BENCHMARK(...) registrations themselves, so a
  // deleted or added variant fails here. Listing the tests runs no timings.
  std::map<std::string, int> registered;
  const std::string command =
      std::string(WILD5G_MICRO_BIN) + " --benchmark_list_tests=true";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << command;
  char line[256];
  while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    std::string name(line);
    if (!name.empty() && name.back() == '\n') name.pop_back();
    ++registered[name.substr(0, name.find('/'))];
  }
  ASSERT_EQ(::pclose(pipe), 0) << command;

  std::map<std::string, int> inventory;
  const wild5g::json::Value golden = wild5g::json::parse(
      read_file(std::string(WILD5G_GOLDEN_DIR) + "/bench_micro.json"));
  const auto& tables = golden.find("tables")->as_array();
  ASSERT_EQ(tables.size(), 1u);
  for (const auto& row : tables[0].find("rows")->as_array()) {
    inventory[row.as_array()[0].as_string()] =
        std::stoi(row.as_array()[1].as_string());
  }
  EXPECT_FALSE(inventory.empty());
  EXPECT_EQ(registered, inventory);
}

// The parallel campaign runner's contract: thread count is a pure
// performance knob. One worker vs eight must emit byte-identical metrics
// documents (per-task forked Rng substreams, index-ordered reduction). The
// gate runs every registered figure plus bench_micro, so each parallel_map
// call site a figure reaches runs at both counts; under TSan the
// eight-worker run also reports any race between its tasks.
class GoldenDeterminismThreads : public ::testing::TestWithParam<std::string> {
};

TEST_P(GoldenDeterminismThreads, OneAndEightWorkersEmitIdenticalBytes) {
  const std::string& name = GetParam();
  const std::string serial = run_bench_json(name, "t1", "--threads 1");
  const std::string threaded = run_bench_json(name, "t8", "--threads 8");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded) << name << " output depends on thread count";
  // The document must not record the thread count, or byte-identity across
  // --threads values could never hold.
  EXPECT_EQ(serial.find("threads"), std::string::npos);
}

namespace {

/// Golden names ("bench_<id>") of every registered figure, and bench_micro.
std::vector<std::string> thread_gate_benches() {
  std::vector<std::string> benches;
  for (const auto& id : registered_figures()) benches.push_back("bench_" + id);
  benches.push_back(kMicro);
  return benches;
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    EveryBench, GoldenDeterminismThreads,
    ::testing::ValuesIn(thread_gate_benches()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(GoldenDeterminism, ThreadCountEnvVarDoesNotChangeBytes) {
  const std::string flagged =
      run_bench_json("bench_fig09_handoffs", "flag", "--threads 8");
  const std::string via_env = [] {
    ::setenv("WILD5G_THREADS", "3", 1);
    std::string out = run_bench_json("bench_fig09_handoffs", "env");
    ::unsetenv("WILD5G_THREADS");
    return out;
  }();
  EXPECT_EQ(flagged, via_env)
      << "fig09_handoffs output depends on WILD5G_THREADS";
}
