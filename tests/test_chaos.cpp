// Chaos suite (`ctest -R chaos`): sweeps seeded fault plans over the
// measurement harnesses and representative figure campaigns, asserting that
// the substrate degrades gracefully — campaigns finish with exit 0 and
// parseable metrics (json::parse rejects NaN/Inf, so parse success is the
// no-NaN gate), invariants hold (rebuffer time never negative, throughput
// zero across a full outage window), and the determinism contract extends
// to faulted runs: same plan + same seed is byte-identical at any thread
// count.
//
// The suite name is lowercase `chaos` so `ctest -R chaos` selects exactly
// these tests (same convention as the `lint` suite).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "abr/algorithms.h"
#include "abr/session.h"
#include "abr/video.h"
#include "core/json.h"
#include "core/rng.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "geo/geo.h"
#include "net/speedtest.h"
#include "radio/ue.h"
#include "traces/trace_io.h"
#include "web/selector.h"
#include "web/website.h"

namespace {

using namespace wild5g;

constexpr std::uint64_t kChaosSeed = 20210823;

faults::FaultPlan plan_of(std::vector<faults::FaultWindow> windows) {
  faults::FaultPlan plan;
  plan.name = "chaos_unit";
  plan.windows = std::move(windows);
  return plan;
}

net::SpeedtestConfig speedtest_config(const faults::Injector* faults) {
  net::SpeedtestConfig config;
  config.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                    radio::DeploymentMode::kNsa};
  config.ue = radio::galaxy_s20u();
  config.ue_location = geo::minneapolis().point;
  config.faults = faults;
  return config;
}

net::SpeedtestServer local_server() {
  return {.name = "local", .location = geo::minneapolis().point,
          .carrier_hosted = true};
}

// --- net: retry, partial results, outage invariants ------------------------

TEST(chaos, speedtest_exhausted_retries_degrade_to_failed_result) {
  const faults::Injector injector(
      plan_of({{faults::FaultKind::kServerUnreachable, 0.0, 1e6, 0.0}}),
      kChaosSeed);
  const net::SpeedtestHarness harness(speedtest_config(&injector));
  Rng rng(kChaosSeed);
  const auto result =
      harness.run_at(local_server(), net::ConnectionMode::kMultiple, rng, 0.0);
  EXPECT_TRUE(result.failed);
  EXPECT_EQ(result.errors, net::kMaxRetries + 1);
  EXPECT_DOUBLE_EQ(result.downlink_mbps, 0.0);
  EXPECT_DOUBLE_EQ(result.rtt_ms, 0.0);
}

TEST(chaos, speedtest_retries_through_short_unreachable_window) {
  // Unreachable for [0, 2.5): attempts at t=0 and t=1 fail, the backoff
  // doubles, and the attempt at t=3 lands past the window and succeeds.
  const faults::Injector injector(
      plan_of({{faults::FaultKind::kServerUnreachable, 0.0, 2.5, 0.0}}),
      kChaosSeed);
  const net::SpeedtestHarness harness(speedtest_config(&injector));
  Rng rng(kChaosSeed);
  const auto result =
      harness.run_at(local_server(), net::ConnectionMode::kMultiple, rng, 0.0);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.errors, 2);
  EXPECT_GT(result.downlink_mbps, 0.0);
}

TEST(chaos, speedtest_throughput_is_zero_across_full_outage) {
  const faults::Injector injector(
      plan_of({{faults::FaultKind::kRadioOutage, 0.0, 1e6, 0.0}}),
      kChaosSeed);
  const net::SpeedtestHarness harness(speedtest_config(&injector));
  Rng rng(kChaosSeed);
  const auto result =
      harness.run_at(local_server(), net::ConnectionMode::kMultiple, rng, 0.0);
  EXPECT_FALSE(result.failed);  // the session connects; the air is dead
  EXPECT_DOUBLE_EQ(result.downlink_mbps, 0.0);
  EXPECT_DOUBLE_EQ(result.uplink_mbps, 0.0);
}

TEST(chaos, speedtest_partial_outage_degrades_but_not_to_zero) {
  // The outage covers half of the 15 s measurement window.
  const faults::Injector injector(
      plan_of({{faults::FaultKind::kRadioOutage, 0.0, 7.5, 0.0}}),
      kChaosSeed);
  const net::SpeedtestHarness faulted(speedtest_config(&injector));
  const net::SpeedtestHarness clean(speedtest_config(nullptr));
  Rng rng_f(kChaosSeed);
  Rng rng_c(kChaosSeed);
  const auto with_fault = faulted.run_at(
      local_server(), net::ConnectionMode::kMultiple, rng_f, 0.0);
  const auto without = clean.run_at(local_server(),
                                    net::ConnectionMode::kMultiple, rng_c, 0.0);
  EXPECT_GT(with_fault.downlink_mbps, 0.0);
  EXPECT_LT(with_fault.downlink_mbps, without.downlink_mbps);
  EXPECT_NEAR(with_fault.downlink_mbps, without.downlink_mbps * 0.5, 1e-9);
}

TEST(chaos, speedtest_campaign_aggregates_partial_results) {
  // Trials are 20 s apart; the unreachable window kills only trial 0 (even
  // its last retry at t = 0+1+2+4 = 7 s is inside [0, 10)).
  const faults::Injector injector(
      plan_of({{faults::FaultKind::kServerUnreachable, 0.0, 10.0, 0.0}}),
      kChaosSeed);
  const net::SpeedtestHarness harness(speedtest_config(&injector));
  Rng rng(kChaosSeed);
  const auto result =
      harness.peak_of(local_server(), net::ConnectionMode::kMultiple, 5, rng);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.errors, 4);  // trial 0's four doomed attempts
  EXPECT_GT(result.downlink_mbps, 0.0);
  EXPECT_TRUE(std::isfinite(result.downlink_mbps));
}

// --- abr: stalls become rebuffer time, sessions always finish ---------------

TEST(chaos, abr_session_converts_stall_windows_into_rebuffer_time) {
  traces::Trace trace;
  trace.id = "flat10";
  trace.interval_s = 1.0;
  trace.mbps.assign(600, 10.0);
  const abr::TraceSource source(trace);
  const auto video = abr::video_ladder_4g();

  abr::SessionOptions options;
  options.chunk_count = 40;
  abr::BbaAbr clean_abr;
  const auto baseline = abr::stream(video, source, clean_abr, options);

  const faults::Injector injector(
      plan_of({{faults::FaultKind::kChunkStall, 20.0, 40.0, 0.98}}),
      kChaosSeed);
  options.faults = &injector;
  abr::BbaAbr faulted_abr;
  const auto faulted = abr::stream(video, source, faulted_abr, options);

  // The session still delivers every chunk; the stall shows up as rebuffer
  // time, never as a failure or a negative/NaN metric.
  EXPECT_EQ(faulted.chunks.size(), static_cast<std::size_t>(40));
  EXPECT_GE(faulted.total_stall_s, 0.0);
  EXPECT_GE(baseline.total_stall_s, 0.0);
  EXPECT_GT(faulted.total_stall_s + faulted.startup_delay_s,
            baseline.total_stall_s + baseline.startup_delay_s);
  EXPECT_TRUE(std::isfinite(faulted.qoe));
  EXPECT_TRUE(std::isfinite(faulted.avg_bitrate_mbps));
}

TEST(chaos, abr_session_survives_total_radio_outage_window) {
  traces::Trace trace;
  trace.id = "flat10";
  trace.interval_s = 1.0;
  trace.mbps.assign(2000, 10.0);
  const abr::TraceSource source(trace);
  const auto video = abr::video_ladder_4g();

  const faults::Injector injector(
      plan_of({{faults::FaultKind::kRadioOutage, 10.0, 30.0, 0.0}}),
      kChaosSeed);
  abr::SessionOptions options;
  options.chunk_count = 30;
  options.faults = &injector;
  abr::RateBasedAbr algorithm;
  const auto result = abr::stream(video, source, algorithm, options);
  EXPECT_EQ(result.chunks.size(), static_cast<std::size_t>(30));
  EXPECT_GE(result.total_stall_s, 0.0);
  EXPECT_TRUE(std::isfinite(result.qoe));
}

// --- web: failed objects degrade PLT, never abort the corpus ----------------

TEST(chaos, web_corpus_counts_failed_objects_and_inflates_plt) {
  Rng rng_clean(kChaosSeed);
  Rng rng_fault(kChaosSeed);
  const auto corpus = [] {
    Rng rng(kChaosSeed);
    return web::generate_corpus(30, rng);
  }();
  const auto device = power::DevicePowerProfile::s10();
  const auto clean = web::measure_corpus(corpus, 2, device, rng_clean);

  const faults::Injector injector(
      plan_of({{faults::FaultKind::kObjectFail, 0.0, 1e6, 0.25}}),
      kChaosSeed);
  const auto faulted =
      web::measure_corpus(corpus, 2, device, rng_fault, &injector);

  ASSERT_EQ(clean.size(), faulted.size());
  int failed_objects = 0;
  double clean_plt = 0.0;
  double faulted_plt = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].failed_objects, 0);
    failed_objects += faulted[i].failed_objects;
    clean_plt += clean[i].plt_5g_s + clean[i].plt_4g_s;
    faulted_plt += faulted[i].plt_5g_s + faulted[i].plt_4g_s;
    EXPECT_TRUE(std::isfinite(faulted[i].plt_5g_s));
    EXPECT_TRUE(std::isfinite(faulted[i].energy_5g_j));
  }
  EXPECT_GT(failed_objects, 0);
  // Timeouts on failed objects push page completion later on aggregate.
  EXPECT_GT(faulted_plt, clean_plt);
}

// --- traces: strict readers throw, lenient readers skip-and-count -----------

TEST(chaos, trace_reader_skips_and_counts_corrupt_records) {
  traces::Trace trace;
  trace.id = "t0";
  trace.interval_s = 1.0;
  for (int i = 0; i < 50; ++i) trace.mbps.push_back(100.0 + i);

  // Corrupt the tail records [45, 50) with certainty.
  const faults::Injector injector(
      plan_of({{faults::FaultKind::kTraceCorrupt, 45.0, 5.0, 1.0}}),
      kChaosSeed);
  std::size_t corrupted = 0;
  const std::string csv =
      traces::corrupt_traces_csv({trace}, injector, &corrupted);
  EXPECT_EQ(corrupted, 5u);

  {  // Strict mode: corruption is an error.
    std::istringstream in(csv);
    EXPECT_THROW((void)traces::read_traces_csv(in), Error);
  }
  {  // Lenient mode: the readable prefix survives, the damage is counted.
    std::istringstream in(csv);
    traces::TraceReadStats stats;
    const auto recovered = traces::read_traces_csv(in, &stats);
    EXPECT_EQ(stats.skipped_records, 5u);
    ASSERT_EQ(recovered.size(), 1u);
    EXPECT_EQ(recovered[0].mbps.size(), 45u);
    EXPECT_DOUBLE_EQ(recovered[0].mbps[44], 144.0);
  }
}

TEST(chaos, trace_reader_lenient_mode_is_noop_on_clean_input) {
  traces::Trace trace;
  trace.id = "t0";
  trace.interval_s = 0.5;
  trace.mbps = {1.0, 2.0, 3.0};
  std::ostringstream out;
  traces::write_traces_csv(out, {trace});

  std::istringstream strict_in(out.str());
  const auto strict = traces::read_traces_csv(strict_in);
  std::istringstream lenient_in(out.str());
  traces::TraceReadStats stats;
  const auto lenient = traces::read_traces_csv(lenient_in, &stats);
  EXPECT_EQ(stats.skipped_records, 0u);
  ASSERT_EQ(strict.size(), lenient.size());
  EXPECT_EQ(strict[0].mbps, lenient[0].mbps);
}

// --- campaign sweep: seeded plans over real wild5g_run runs ------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs `wild5g_run <campaign> --json <tmp> [--faults <plan>] [extra]`,
/// asserts exit 0, and returns the metrics document text.
std::string run_bench(const std::string& campaign, const std::string& tag,
                      const std::string& plan = "",
                      const std::string& extra = "") {
  const std::string out_path =
      ::testing::TempDir() + "wild5g_chaos_" + campaign + "_" + tag + ".json";
  std::remove(out_path.c_str());
  std::string command =
      std::string(WILD5G_RUN_BIN) + " " + campaign + " --json " + out_path;
  if (!plan.empty()) {
    command += " --faults " + std::string(WILD5G_FAULT_PLAN_DIR) + "/" + plan;
  }
  if (!extra.empty()) command += " " + extra;
  command += " > /dev/null";
  const int rc = std::system(command.c_str());
  EXPECT_EQ(rc, 0) << command;
  const std::string content = read_file(out_path);
  std::remove(out_path.c_str());
  return content;
}

/// The no-NaN/no-Inf gate: core/json.h's parser rejects non-finite numbers,
/// so a successful parse certifies the document.
void expect_valid_metrics(const std::string& text, const std::string& plan) {
  ASSERT_FALSE(text.empty());
  json::Value doc;
  ASSERT_NO_THROW(doc = json::parse(text)) << "unparseable metrics document";
  const json::Value* fault_plan = doc.find("fault_plan");
  ASSERT_NE(fault_plan, nullptr)
      << "faulted run did not record its plan name";
  EXPECT_EQ(fault_plan->as_string(), plan);
}

TEST(chaos, bench_server_survey_under_mixed_plan_is_deterministic) {
  const std::string first =
      run_bench("fig24_server_survey", "a", "chaos_mixed.json");
  const std::string second =
      run_bench("fig24_server_survey", "b", "chaos_mixed.json");
  expect_valid_metrics(first, "chaos_mixed");
  EXPECT_EQ(first, second) << "faulted run is not run-to-run deterministic";
  // Faults must actually perturb the measurement (and the document must be
  // distinguishable from the committed golden via fault_plan).
  const std::string clean = run_bench("fig24_server_survey", "clean");
  EXPECT_NE(first, clean) << "fault plan had no observable effect";
  EXPECT_EQ(clean.find("fault_plan"), std::string::npos)
      << "default run must not mention faults (golden byte-identity)";
}

TEST(chaos, bench_server_survey_faulted_is_thread_count_invariant) {
  const std::string serial =
      run_bench("fig24_server_survey", "t1", "chaos_mixed.json", "--threads 1");
  const std::string threaded =
      run_bench("fig24_server_survey", "t8", "chaos_mixed.json", "--threads 8");
  expect_valid_metrics(serial, "chaos_mixed");
  EXPECT_EQ(serial, threaded)
      << "faulted output depends on thread count";
}

TEST(chaos, bench_server_survey_survives_total_unreachability) {
  const std::string text = run_bench("fig24_server_survey", "dead",
                                     "chaos_outage_total.json");
  expect_valid_metrics(text, "chaos_outage_total");
  // Every trial fails, yet the bench exits 0 with a parseable document and
  // a non-zero error tally.
  json::Value doc = json::parse(text);
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* errors = metrics->find("connection_errors");
  ASSERT_NE(errors, nullptr);
  EXPECT_GT(errors->as_number(), 0.0);
}

TEST(chaos, bench_abr_qoe_under_stall_plan) {
  const std::string first =
      run_bench("fig17_abr_qoe", "a", "chaos_abr_stall.json");
  const std::string second =
      run_bench("fig17_abr_qoe", "b", "chaos_abr_stall.json");
  expect_valid_metrics(first, "chaos_abr_stall");
  EXPECT_EQ(first, second);
  const std::string clean = run_bench("fig17_abr_qoe", "clean");
  EXPECT_NE(first, clean) << "stall plan had no observable effect";
}

TEST(chaos, bench_web_qoe_under_object_failure_plan) {
  const std::string text = run_bench("fig19_20_web_qoe", "objfail",
                                     "chaos_web_objectfail.json");
  expect_valid_metrics(text, "chaos_web_objectfail");
  json::Value doc = json::parse(text);
  const json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* failed = metrics->find("failed_objects");
  ASSERT_NE(failed, nullptr);
  EXPECT_GT(failed->as_number(), 0.0);
}

TEST(chaos, bench_rejects_malformed_fault_plan) {
  const std::string plan_path =
      ::testing::TempDir() + "wild5g_chaos_bad_plan.json";
  {
    std::ofstream out(plan_path);
    out << R"({"windows": [{"kind": "nope", "start_s": 0, "duration_s": 1}]})";
  }
  const std::string command = std::string(WILD5G_RUN_BIN) +
                              " fig24_server_survey --faults " + plan_path +
                              " > /dev/null 2>&1";
  const int rc = std::system(command.c_str());
  EXPECT_NE(rc, 0) << "bench accepted a malformed fault plan";
  std::remove(plan_path.c_str());
}

// --- metro campaigns: fault sweep + argument edges ---------------------------

/// Runs `wild5g_run <campaign> <args>` and returns its exit code (usage
/// errors exit 2; the contract is a *clean refusal*, never a crash or a
/// half-run campaign).
int bench_exit_code(const std::string& campaign, const std::string& args) {
  const std::string command = std::string(WILD5G_RUN_BIN) + " " + campaign +
                              " " + args + " > /dev/null 2>&1";
  const int rc = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << "bench crashed: " << command;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(chaos, bench_metro_load_under_radio_plan_is_deterministic) {
  const std::string first = run_bench("extension_metro_load", "a",
                                      "chaos_metro_radio.json");
  const std::string second = run_bench("extension_metro_load", "b",
                                       "chaos_metro_radio.json");
  expect_valid_metrics(first, "chaos_metro_radio");
  EXPECT_EQ(first, second) << "faulted run is not run-to-run deterministic";
  const std::string clean = run_bench("extension_metro_load", "clean");
  EXPECT_NE(first, clean) << "radio fault plan had no observable effect";
  EXPECT_EQ(clean.find("fault_plan"), std::string::npos)
      << "default run must not mention faults (golden byte-identity)";
}

TEST(chaos, bench_metro_qoe_faulted_is_thread_count_invariant) {
  const std::string serial = run_bench("extension_metro_qoe", "t1",
                                       "chaos_metro_radio.json",
                                       "--threads 1");
  const std::string threaded = run_bench("extension_metro_qoe", "t8",
                                         "chaos_metro_radio.json",
                                         "--threads 8");
  expect_valid_metrics(serial, "chaos_metro_radio");
  EXPECT_EQ(serial, threaded) << "faulted output depends on thread count";
}

TEST(chaos, bench_metro_rejects_plans_with_unsupported_kinds) {
  // chaos_mixed carries transport/net kinds the metro campaign does not
  // model; running anyway would silently measure a half-applied plan.
  for (const char* bench :
       {"extension_metro_load", "extension_metro_qoe"}) {
    EXPECT_EQ(bench_exit_code(bench,
                              "--faults " + std::string(WILD5G_FAULT_PLAN_DIR) +
                                  "/chaos_mixed.json"),
              2)
        << bench;
  }
}

TEST(chaos, bench_rejects_zero_and_garbage_thread_counts) {
  // `--threads 0` silently meaning "auto" would mislabel recorded timings;
  // the contract is exit 2 with a clear message, on every bench.
  for (const char* bench :
       {"extension_metro_load", "fig24_server_survey"}) {
    EXPECT_EQ(bench_exit_code(bench, "--threads 0"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--threads nope"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--threads"), 2) << bench;
    // A negative count must not wrap to 2^64 - 1 threads, and a count is
    // plain digits: no sign, no whitespace.
    EXPECT_EQ(bench_exit_code(bench, "--threads -1"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--threads +2"), 2) << bench;
  }
}

TEST(chaos, bench_metro_rejects_degenerate_campaign_sizes) {
  for (const char* bench :
       {"extension_metro_load", "extension_metro_qoe"}) {
    EXPECT_EQ(bench_exit_code(bench, "--ues 0"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--cells 0"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--ues -3"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--ues 1x"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--ues +5"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--ues 4294967297"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--ues"), 2) << bench;
    EXPECT_EQ(bench_exit_code(bench, "--frobnicate"), 2) << bench;
    // Each count is in range, but the population is not an int: the run
    // must be refused, not wrapped to 1,410,065,408 UEs and started.
    EXPECT_EQ(bench_exit_code(bench, "--cells 100000 --ues 100000"), 2)
        << bench;
    EXPECT_EQ(bench_exit_code(bench, "--cells 46341 --ues 46341"), 2)
        << bench;
  }
}

// Every count flag goes through one strict parser: the whole value must be
// plain decimal digits naming a count the flag accepts. Each (flag, value)
// pair below must exit 2 before the campaign starts. Counts above INT_MAX
// are tried only on the flags that never become a thread count.
struct CountFlagCase {
  std::string name;
  std::string flag;
  std::string value;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const CountFlagCase& c, std::ostream* os) {
  *os << c.name;
}

std::vector<CountFlagCase> rejected_count_flags() {
  const std::pair<const char*, const char*> malformed[] = {
      {"minus_1", "-1"},       {"plus_2", "+2"},
      {"leading_space", " 5"}, {"trailing_space", "5 "},
      {"empty", ""},           {"hex", "0x10"},
      {"exponent", "1e3"},     {"decimal", "2.5"},
  };
  const std::pair<const char*, const char*> too_large[] = {
      {"above_int_max", "2147483648"},
      {"int64_max", "9223372036854775807"},
      {"int64_overflow", "9223372036854775808"},
  };
  std::vector<CountFlagCase> cases;
  const std::pair<const char*, const char*> flags[] = {
      {"threads", "--threads"},
      {"deadline_ms", "--deadline-ms"},
      {"ues", "--ues"},
  };
  for (const auto& [prefix, flag] : flags) {
    for (const auto& [label, value] : malformed) {
      cases.push_back({std::string(prefix) + "_" + label, flag, value});
    }
    for (const auto& [label, value] : too_large) {
      cases.push_back({std::string(prefix) + "_" + label, flag, value});
    }
  }
  // One past parallel::kMaxThreads: refused at the command line, before
  // any thread starts.
  cases.push_back({"threads_above_cap", "--threads", "257"});
  return cases;
}

class BenchRejectsCountFlag : public ::testing::TestWithParam<CountFlagCase> {
};

TEST_P(BenchRejectsCountFlag, ExitsTwo) {
  const CountFlagCase& c = GetParam();
  EXPECT_EQ(bench_exit_code("extension_metro_load",
                            c.flag + " '" + c.value + "'"),
            2)
      << c.flag << " '" << c.value << "'";
}

INSTANTIATE_TEST_SUITE_P(
    chaos, BenchRejectsCountFlag,
    ::testing::ValuesIn(rejected_count_flags()),
    [](const ::testing::TestParamInfo<CountFlagCase>& info) {
      return info.param.name;
    });

TEST(chaos, bench_metro_faults_compose_with_multi_ue_flags) {
  // `--faults` + `--ues/--cells` + `--threads` together: still exit 0,
  // still deterministic, still perturbed by the plan.
  const std::string args = "--ues 20 --cells 6";
  const std::string faulted = run_bench("extension_metro_load", "fx",
                                        "chaos_metro_radio.json", args);
  const std::string faulted2 = run_bench("extension_metro_load", "fy",
                                         "chaos_metro_radio.json", args);
  expect_valid_metrics(faulted, "chaos_metro_radio");
  EXPECT_EQ(faulted, faulted2);
  const std::string clean =
      run_bench("extension_metro_load", "fclean", "", args);
  EXPECT_NE(faulted, clean) << "plan had no effect on the sized-down run";
}

}  // namespace
