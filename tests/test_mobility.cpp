// Tests for routes and the Fig. 9 drive/handoff simulation.
#include "mobility/drive.h"
#include "mobility/route.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/rng.h"

namespace wm = wild5g::mobility;
using wild5g::Rng;

TEST(Route, WalkingLoopMatchesPaper) {
  const auto route = wm::walking_loop();
  EXPECT_NEAR(route.length_m(), 1600.0, 1.0);
  EXPECT_NEAR(route.duration_s(), 1200.0, 1.0);
}

TEST(Route, PositionMonotoneAndClamped) {
  const auto route = wm::walking_loop();
  double prev = -1.0;
  for (double t = 0.0; t <= route.duration_s() + 100.0; t += 10.0) {
    const double pos = route.position_m(t);
    EXPECT_GE(pos, prev);
    prev = pos;
  }
  EXPECT_NEAR(route.position_m(route.duration_s() + 1000.0),
              route.length_m(), 1e-6);
}

TEST(Route, RejectsInvalidLegs) {
  EXPECT_THROW(wm::Route({}), wild5g::Error);
  EXPECT_THROW(wm::Route({{-1.0, 10.0}}), wild5g::Error);
  EXPECT_THROW(wm::Route({{1.0, 0.0}}), wild5g::Error);
}

TEST(Route, DrivingRouteNormalizedTo10kmIn600s) {
  Rng rng(1);
  const auto route = wm::driving_route(rng);
  EXPECT_NEAR(route.length_m(), 10000.0, 1.0);
  EXPECT_NEAR(route.duration_s(), 600.0, 1.0);
}

TEST(Route, DrivingRouteSpeedsWithinLimits) {
  Rng rng(2);
  const auto route = wm::driving_route(rng);
  for (double t = 1.0; t < route.duration_s(); t += 1.0) {
    const double v = route.position_m(t) - route.position_m(t - 1.0);
    EXPECT_GE(v, -1e-9);
    EXPECT_LT(v, 29.0);  // < ~104 kph after normalization
  }
}

namespace {
wm::DriveResult drive(wm::BandSetting setting, std::uint64_t seed) {
  Rng rng(seed);
  const auto route = wm::driving_route(rng);
  return wm::simulate_drive(setting, route, rng);
}
}  // namespace

TEST(Drive, SaOnlyHasFewHandoffsAllHorizontal) {
  const auto result = drive(wm::BandSetting::kSaOnly, 10);
  EXPECT_EQ(result.vertical_handoffs(), 0);
  EXPECT_GE(result.total_handoffs(), 7);
  EXPECT_LE(result.total_handoffs(), 22);
  EXPECT_NEAR(result.time_fraction(wm::ActiveRadio::kSa5g), 1.0, 1e-9);
}

TEST(Drive, NsaDominatedByVerticalHandoffs) {
  const auto result = drive(wm::BandSetting::kNsaPlusLte, 10);
  // Paper: ~110 total, ~90 vertical.
  EXPECT_GT(result.vertical_handoffs(), 55);
  EXPECT_GT(result.total_handoffs(), 75);
  EXPECT_LT(result.total_handoffs(), 165);
  EXPECT_GT(result.vertical_handoffs(), result.horizontal_handoffs());
}

TEST(Drive, PaperOrderingAcrossSettings) {
  // Fig. 9: SA(13) < LTE(30) < SA+LTE(38) < All(64) < NSA+LTE(110).
  // Average over seeds to damp run-to-run noise.
  auto avg_total = [](wm::BandSetting setting) {
    double total = 0.0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
      Rng rng(seed);
      const auto route = wm::driving_route(rng);
      total += wm::simulate_drive(setting, route, rng).total_handoffs();
    }
    return total / 5.0;
  };
  const double sa = avg_total(wm::BandSetting::kSaOnly);
  const double lte = avg_total(wm::BandSetting::kLteOnly);
  const double sa_lte = avg_total(wm::BandSetting::kSaPlusLte);
  const double all = avg_total(wm::BandSetting::kAllBands);
  const double nsa = avg_total(wm::BandSetting::kNsaPlusLte);
  EXPECT_LT(sa, lte);
  EXPECT_LT(lte, sa_lte + 8.0);  // close in the paper (30 vs 38)
  EXPECT_LT(sa_lte, all);
  EXPECT_LT(all, nsa);
}

TEST(Drive, SegmentsTileTheTimeline) {
  const auto result = drive(wm::BandSetting::kAllBands, 11);
  ASSERT_FALSE(result.segments.empty());
  EXPECT_DOUBLE_EQ(result.segments.front().start_s, 0.0);
  for (std::size_t i = 1; i < result.segments.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.segments[i].start_s,
                     result.segments[i - 1].end_s);
  }
  EXPECT_NEAR(result.segments.back().end_s, 600.0, 1.0);
}

TEST(Drive, VerticalEventsChangeRadio) {
  const auto result = drive(wm::BandSetting::kNsaPlusLte, 12);
  for (const auto& handoff : result.handoffs) {
    if (handoff.vertical) {
      EXPECT_NE(handoff.from, handoff.to);
    } else {
      EXPECT_EQ(handoff.from, handoff.to);
    }
  }
}

TEST(Drive, LteOnlyNeverUses5g) {
  const auto result = drive(wm::BandSetting::kLteOnly, 13);
  EXPECT_NEAR(result.time_fraction(wm::ActiveRadio::kLte), 1.0, 1e-9);
  EXPECT_EQ(result.vertical_handoffs(), 0);
}

TEST(Drive, DeterministicInSeed) {
  const auto a = drive(wm::BandSetting::kAllBands, 77);
  const auto b = drive(wm::BandSetting::kAllBands, 77);
  EXPECT_EQ(a.total_handoffs(), b.total_handoffs());
  EXPECT_EQ(a.vertical_handoffs(), b.vertical_handoffs());
}
