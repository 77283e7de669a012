// Unit tests for the fault-injection layer: FaultPlan JSON parsing and
// validation rejects, and the Injector's pure deterministic query surface.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/error.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"

namespace {

using wild5g::Error;
using wild5g::faults::FaultKind;
using wild5g::faults::FaultPlan;
using wild5g::faults::FaultWindow;
using wild5g::faults::Injector;

FaultPlan plan_of(std::vector<FaultWindow> windows) {
  FaultPlan plan;
  plan.name = "test";
  plan.windows = std::move(windows);
  return plan;
}

TEST(FaultPlan, ParsesWellFormedDocument) {
  const auto plan = FaultPlan::parse(R"({
    "name": "demo", "seed_salt": 7,
    "windows": [
      {"kind": "nr_to_lte_outage", "start_s": 3, "duration_s": 5,
       "magnitude": 0.1},
      {"kind": "server_unreachable", "start_s": 20, "duration_s": 2}
    ]
  })");
  EXPECT_EQ(plan.name, "demo");
  EXPECT_EQ(plan.seed_salt, 7u);
  ASSERT_EQ(plan.windows.size(), 2u);
  EXPECT_EQ(plan.windows[0].kind, FaultKind::kNrToLteOutage);
  EXPECT_DOUBLE_EQ(plan.windows[0].end_s(), 8.0);
  EXPECT_DOUBLE_EQ(plan.windows[1].magnitude, 0.0);  // optional, defaults 0
}

TEST(FaultPlan, RoundTripsThroughJson) {
  const auto plan = FaultPlan::parse(R"({
    "name": "rt", "seed_salt": 3,
    "windows": [{"kind": "loss_burst", "start_s": 1, "duration_s": 2,
                 "magnitude": 0.5}]
  })");
  const auto reparsed = FaultPlan::from_json(plan.to_json());
  EXPECT_EQ(reparsed.name, plan.name);
  ASSERT_EQ(reparsed.windows.size(), 1u);
  EXPECT_EQ(reparsed.windows[0].kind, FaultKind::kLossBurst);
  EXPECT_DOUBLE_EQ(reparsed.windows[0].magnitude, 0.5);
}

// Each entry is a plan document FaultPlan::parse must refuse with
// wild5g::Error: malformed JSON, a wrong document shape, a missing or
// mistyped field, a window breaking a validation rule, or a seed_salt that is
// not an integer in [0, 2^53). Every entry runs as its own named case.
struct PlanCase {
  const char* name;
  const char* text;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const PlanCase& c, std::ostream* os) { *os << c.name; }

const PlanCase kMalformedPlans[] = {
    {"not_json", "not json at all"},
    {"truncated_json",
     R"({"windows": [{"kind": "radio_outage", "start_s": 0)"},
    {"empty_text", ""},
    {"array_document",
     R"([{"kind": "radio_outage", "start_s": 0, "duration_s": 1}])"},
    {"string_document", R"("radio_outage")"},
    {"missing_windows", R"({"name": "no windows key"})"},
    {"object_windows", R"({"windows": {"kind": "radio_outage"}})"},
    {"string_windows", R"({"windows": "radio_outage"})"},
    {"non_object_window", R"({"windows": [42]})"},
    {"missing_kind", R"({"windows": [{"start_s": 0, "duration_s": 5}]})"},
    {"numeric_kind",
     R"({"windows": [{"kind": 3, "start_s": 0, "duration_s": 5}]})"},
    {"unknown_kind", R"({"windows": [
        {"kind": "gamma_ray_burst", "start_s": 0, "duration_s": 1}]})"},
    {"missing_start",
     R"({"windows": [{"kind": "radio_outage", "duration_s": 5}]})"},
    {"missing_duration",
     R"({"windows": [{"kind": "radio_outage", "start_s": 0}]})"},
    {"string_start", R"({"windows": [
        {"kind": "radio_outage", "start_s": "0", "duration_s": 5}]})"},
    {"string_duration", R"({"windows": [
        {"kind": "radio_outage", "start_s": 0, "duration_s": "5"}]})"},
    {"negative_start", R"({"windows": [
        {"kind": "radio_outage", "start_s": -1, "duration_s": 5}]})"},
    {"zero_duration", R"({"windows": [
        {"kind": "radio_outage", "start_s": 0, "duration_s": 0}]})"},
    {"negative_duration", R"({"windows": [
        {"kind": "radio_outage", "start_s": 0, "duration_s": -5}]})"},
    {"negative_magnitude", R"({"windows": [{"kind": "latency_spike",
        "start_s": 0, "duration_s": 1, "magnitude": -20}]})"},
    {"fraction_above_one", R"({"windows": [{"kind": "object_fail",
        "start_s": 0, "duration_s": 1, "magnitude": 1.5}]})"},
    {"overlapping_same_kind", R"({"windows": [
        {"kind": "radio_outage", "start_s": 0, "duration_s": 10},
        {"kind": "radio_outage", "start_s": 5, "duration_s": 10}]})"},
    {"numeric_name", R"({"name": 7, "windows": []})"},
    {"negative_seed_salt", R"({"seed_salt": -1, "windows": []})"},
    {"fractional_seed_salt", R"({"seed_salt": 0.5, "windows": []})"},
    {"huge_seed_salt", R"({"seed_salt": 1e30, "windows": []})"},
    {"seed_salt_at_2_pow_53",
     R"({"seed_salt": 9007199254740992, "windows": []})"},
    {"string_seed_salt", R"({"seed_salt": "7", "windows": []})"},
};

class FaultPlanRejects : public ::testing::TestWithParam<PlanCase> {};

TEST_P(FaultPlanRejects, MalformedPlan) {
  EXPECT_THROW((void)FaultPlan::parse(GetParam().text), Error)
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FaultPlanRejects, ::testing::ValuesIn(kMalformedPlans),
    [](const ::testing::TestParamInfo<PlanCase>& info) {
      return std::string(info.param.name);
    });

// Plans that look close to a rejected entry but that the rules allow.
const PlanCase kAllowedPlans[] = {
    // Different kinds may overlap freely.
    {"overlapping_different_kinds", R"({"windows": [
        {"kind": "radio_outage", "start_s": 0, "duration_s": 10},
        {"kind": "latency_spike", "start_s": 5, "duration_s": 10,
         "magnitude": 20}]})"},
    // Touching half-open windows do not overlap.
    {"touching_same_kind", R"({"windows": [
        {"kind": "radio_outage", "start_s": 0, "duration_s": 10},
        {"kind": "radio_outage", "start_s": 10, "duration_s": 10}]})"},
    // Additive magnitudes (dB, ms) may exceed 1.
    {"additive_magnitude_above_one", R"({"windows": [
        {"kind": "latency_spike", "start_s": 0, "duration_s": 1,
         "magnitude": 250}]})"},
};

class FaultPlanAccepts : public ::testing::TestWithParam<PlanCase> {};

TEST_P(FaultPlanAccepts, EdgeCaseTheRulesAllow) {
  EXPECT_NO_THROW((void)FaultPlan::parse(GetParam().text)) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, FaultPlanAccepts, ::testing::ValuesIn(kAllowedPlans),
    [](const ::testing::TestParamInfo<PlanCase>& info) {
      return std::string(info.param.name);
    });

// Integer salts across [0, 2^53), up to 2^53 - 1 (the largest integer a
// double holds exactly), survive parse and a to_json/from_json round trip.
class SeedSaltRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSaltRoundTrip, ExactThroughParseAndJson) {
  const std::uint64_t salt = GetParam();
  const auto plan = FaultPlan::parse(R"({"seed_salt": )" +
                                     std::to_string(salt) +
                                     R"(, "windows": []})");
  EXPECT_EQ(plan.seed_salt, salt);
  EXPECT_EQ(FaultPlan::from_json(plan.to_json()).seed_salt, salt);
}

INSTANTIATE_TEST_SUITE_P(Salts, SeedSaltRoundTrip,
                         ::testing::Values(std::uint64_t{0}, std::uint64_t{1},
                                           std::uint64_t{1} << 32,
                                           (std::uint64_t{1} << 53) - 1));

TEST(FaultWindow, CoversIsHalfOpen) {
  const FaultWindow w{FaultKind::kRadioOutage, 2.0, 3.0, 0.0};
  EXPECT_FALSE(w.covers(1.999));
  EXPECT_TRUE(w.covers(2.0));
  EXPECT_TRUE(w.covers(4.999));
  EXPECT_FALSE(w.covers(5.0));
}

TEST(Injector, AnswersTimeQueries) {
  const Injector injector(
      plan_of({{FaultKind::kMmwaveBlockage, 10.0, 5.0, 18.0},
               {FaultKind::kLatencySpike, 10.0, 5.0, 40.0},
               {FaultKind::kRadioOutage, 30.0, 10.0, 0.0}}),
      1234);
  EXPECT_DOUBLE_EQ(injector.rsrp_penalty_db_at(12.0), 18.0);
  EXPECT_DOUBLE_EQ(injector.rsrp_penalty_db_at(16.0), 0.0);
  EXPECT_DOUBLE_EQ(injector.extra_rtt_ms_at(12.0), 40.0);
  EXPECT_TRUE(injector.radio_outage_at(35.0));
  EXPECT_FALSE(injector.radio_outage_at(29.0));
  // Half the [25, 45) window sits inside the outage.
  EXPECT_DOUBLE_EQ(injector.outage_fraction(25.0, 45.0), 0.5);
  EXPECT_DOUBLE_EQ(injector.outage_fraction(30.0, 40.0), 1.0);
  EXPECT_DOUBLE_EQ(injector.outage_fraction(0.0, 10.0), 0.0);
}

TEST(Injector, BandwidthScaleComposes) {
  const Injector injector(
      plan_of({{FaultKind::kChunkStall, 0.0, 10.0, 0.9},
               {FaultKind::kNrToLteOutage, 5.0, 10.0, 0.2},
               {FaultKind::kRadioOutage, 20.0, 5.0, 0.0}}),
      1);
  EXPECT_NEAR(injector.bandwidth_scale_at(2.0), 0.1, 1e-12);
  EXPECT_NEAR(injector.bandwidth_scale_at(7.0), 0.1 * 0.2, 1e-12);
  EXPECT_NEAR(injector.bandwidth_scale_at(12.0), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(injector.bandwidth_scale_at(22.0), 0.0);
  EXPECT_DOUBLE_EQ(injector.bandwidth_scale_at(50.0), 1.0);
}

TEST(Injector, StochasticDecisionsAreDeterministicAndSeedSensitive) {
  const auto plan = plan_of({{FaultKind::kObjectFail, 0.0, 100.0, 0.3}});
  const Injector a(plan, 42);
  const Injector b(plan, 42);
  const Injector c(plan, 43);
  int differs = 0;
  int fails = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(a.object_fetch_fails(9, i, 1.0), b.object_fetch_fails(9, i, 1.0));
    if (a.object_fetch_fails(9, i, 1.0) != c.object_fetch_fails(9, i, 1.0)) {
      ++differs;
    }
    if (a.object_fetch_fails(9, i, 1.0)) ++fails;
  }
  EXPECT_GT(differs, 0) << "campaign seed does not reach decisions";
  // ~30% of 500 draws; generous envelope.
  EXPECT_GT(fails, 90);
  EXPECT_LT(fails, 220);
  // Outside any window nothing fails.
  EXPECT_FALSE(a.object_fetch_fails(9, 1, 200.0));
  // Different salts select different object subsets.
  int salt_differs = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    if (a.object_fetch_fails(1, i, 1.0) != a.object_fetch_fails(2, i, 1.0)) {
      ++salt_differs;
    }
  }
  EXPECT_GT(salt_differs, 0);
}

TEST(Injector, CorruptRecordRespectsIndexWindows) {
  const Injector injector(
      plan_of({{FaultKind::kTraceCorrupt, 100.0, 50.0, 1.0}}), 7);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.corrupt_record(i));
  }
  int corrupted = 0;
  for (std::uint64_t i = 100; i < 150; ++i) {
    if (injector.corrupt_record(i)) ++corrupted;
  }
  EXPECT_EQ(corrupted, 50);  // magnitude 1.0 = every record in the window
  EXPECT_FALSE(injector.corrupt_record(150));
}

TEST(Injector, RejectsInvalidPlanAtConstruction) {
  EXPECT_THROW(Injector(plan_of({{FaultKind::kRadioOutage, 0.0, -1.0, 0.0}}),
                        1),
               Error);
}

}  // namespace
