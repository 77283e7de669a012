// Determinism gate: a bench binary invoked twice at kBenchSeed must produce
// byte-identical JSON metrics documents. This is what lets the committed
// goldens in bench/golden/ act as regression baselines at all — any hidden
// nondeterminism (unseeded RNG, iteration over pointer-keyed maps, time- or
// address-dependent output) shows up here as a byte diff.
//
// WILD5G_BENCH_DIR is injected by tests/CMakeLists.txt and points at the
// build tree's bench/ output directory.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string run_bench_json(const std::string& bench, const std::string& tag,
                           const std::string& extra_args = "") {
  const std::string out_path =
      ::testing::TempDir() + "wild5g_determinism_" + bench + "_" + tag +
      ".json";
  std::remove(out_path.c_str());
  const std::string command = std::string(WILD5G_BENCH_DIR) + "/" + bench +
                              " --json " + out_path +
                              (extra_args.empty() ? "" : " " + extra_args) +
                              " > /dev/null";
  const int rc = std::system(command.c_str());
  EXPECT_EQ(rc, 0) << command;
  const std::string content = read_file(out_path);
  std::remove(out_path.c_str());
  return content;
}

void expect_two_runs_identical(const std::string& bench) {
  const std::string first = run_bench_json(bench, "a");
  const std::string second = run_bench_json(bench, "b");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << bench << " is not run-to-run deterministic";
  // Sanity: the document is a real metrics document, not an error page.
  EXPECT_NE(first.find("\"bench\""), std::string::npos);
  EXPECT_NE(first.find("\"seed\""), std::string::npos);
  EXPECT_NE(first.find("\"tables\""), std::string::npos);
}

}  // namespace

TEST(GoldenDeterminism, HandoffBenchIsByteIdentical) {
  expect_two_runs_identical("bench_fig09_handoffs");
}

TEST(GoldenDeterminism, AbrQoeBenchIsByteIdentical) {
  expect_two_runs_identical("bench_fig17_abr_qoe");
}

// The parallel campaign runner's contract: thread count is a pure
// performance knob. One worker vs eight must emit byte-identical metrics
// documents (per-task forked Rng substreams, index-ordered reduction). The
// gate runs every bench WILD5G_BENCHES names, so each parallel_map call site
// a bench reaches, in bench/ or in src/, runs at both counts; under TSan the
// eight-worker run also reports any race between its tasks.
class GoldenDeterminismThreads : public ::testing::TestWithParam<std::string> {
};

TEST_P(GoldenDeterminismThreads, OneAndEightWorkersEmitIdenticalBytes) {
  const std::string& bench = GetParam();
  const std::string serial = run_bench_json(bench, "t1", "--threads 1");
  const std::string threaded = run_bench_json(bench, "t8", "--threads 8");
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, threaded) << bench << " output depends on thread count";
  // The document must not record the thread count, or byte-identity across
  // --threads values could never hold.
  EXPECT_EQ(serial.find("threads"), std::string::npos);
}

namespace {

std::vector<std::string> thread_gate_benches() {
  std::vector<std::string> benches;
  std::stringstream list(WILD5G_BENCHES);
  for (std::string name; std::getline(list, name, ',');) {
    benches.push_back(name);
  }
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
      << "bench_fig09_handoffs output depends on WILD5G_THREADS";
}
