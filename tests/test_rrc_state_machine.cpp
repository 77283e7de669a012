// Tests for RRC configs (Table 7) and the ground-truth state machine.
#include "rrc/state_machine.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "rrc/rrc_config.h"

namespace wr = wild5g::rrc;
using wr::RrcState;

TEST(Config, Table7HasAllSixNetworks) {
  const auto profiles = wr::table7_profiles();
  ASSERT_EQ(profiles.size(), 6u);
  EXPECT_EQ(profiles[0].config.name, "T-Mobile SA low-band");
  EXPECT_EQ(profiles[5].config.name, "Verizon 4G");
}

TEST(Config, LookupByNameWorksAndThrows) {
  EXPECT_EQ(wr::profile_by_name("Verizon NSA mmWave").config.inactivity_timer_ms,
            10500.0);
  EXPECT_THROW((void)wr::profile_by_name("Sprint 6G"), wild5g::Error);
}

TEST(Config, OnlySaHasInactiveState) {
  for (const auto& profile : wr::table7_profiles()) {
    if (profile.config.is_sa()) {
      EXPECT_TRUE(profile.config.inactive_hold_ms.has_value());
    } else {
      EXPECT_FALSE(profile.config.inactive_hold_ms.has_value());
    }
  }
}

TEST(Config, DualTailOnlyOnNsaLowBand) {
  EXPECT_TRUE(wr::profile_by_name("T-Mobile NSA low-band")
                  .config.anchor_tail_ms.has_value());
  EXPECT_TRUE(wr::profile_by_name("Verizon NSA low-band (DSS)")
                  .config.anchor_tail_ms.has_value());
  EXPECT_FALSE(
      wr::profile_by_name("Verizon NSA mmWave").config.anchor_tail_ms);
  EXPECT_FALSE(wr::profile_by_name("Verizon 4G").config.anchor_tail_ms);
}

// State after gap across the config grid.
class StateAfterGap : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StateAfterGap, BoundariesRespected) {
  const auto& profile = wr::table7_profiles()[GetParam()];
  const auto& config = profile.config;

  EXPECT_EQ(wr::state_after_gap(config, 0.0), RrcState::kConnected);
  EXPECT_EQ(wr::state_after_gap(config, config.inactivity_timer_ms - 1.0),
            RrcState::kConnected);

  const double just_after = config.inactivity_timer_ms + 1.0;
  if (config.anchor_tail_ms) {
    EXPECT_EQ(wr::state_after_gap(config, just_after),
              RrcState::kConnectedAnchor);
    EXPECT_EQ(wr::state_after_gap(config, *config.anchor_tail_ms + 1.0),
              RrcState::kIdle);
  } else if (config.inactive_hold_ms) {
    EXPECT_EQ(wr::state_after_gap(config, just_after), RrcState::kInactive);
    EXPECT_EQ(wr::state_after_gap(
                  config, config.inactivity_timer_ms +
                              *config.inactive_hold_ms + 1.0),
              RrcState::kIdle);
  } else {
    EXPECT_EQ(wr::state_after_gap(config, just_after), RrcState::kIdle);
  }
  EXPECT_EQ(wr::state_after_gap(config, 120000.0), RrcState::kIdle);

  // Interior gaps: the config's timers cut the gap axis into half-open
  // segments, each with one state. Every boundary (where the next segment's
  // state already holds) and every point of a 497 ms grid must read the
  // state of the segment it falls in.
  std::vector<std::pair<double, RrcState>> segments = {
      {config.inactivity_timer_ms, RrcState::kConnected}};
  if (config.anchor_tail_ms) {
    segments.emplace_back(*config.anchor_tail_ms, RrcState::kConnectedAnchor);
  }
  if (config.inactive_hold_ms) {
    segments.emplace_back(
        config.inactivity_timer_ms + *config.inactive_hold_ms,
        RrcState::kInactive);
  }
  const auto expected = [&](double gap) {
    for (const auto& [end_ms, state] : segments) {
      if (gap < end_ms) return state;
    }
    return RrcState::kIdle;
  };
  const double horizon = segments.back().first + 10000.0;
  std::vector<double> gaps;
  for (const auto& segment : segments) gaps.push_back(segment.first);
  for (double gap = 500.0; gap <= horizon; gap += 497.0) gaps.push_back(gap);
  for (const double gap : gaps) {
    EXPECT_EQ(wr::state_after_gap(config, gap), expected(gap))
        << config.name << " at gap " << gap;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, StateAfterGap,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

// The two views of the machine agree: every point of build_timeline's decay
// chains carries the state state_after_gap gives for the time since the last
// burst ended. The second burst lands inside the first one's tail, so its
// chain must restart from the second burst's end; the third finds the UE in
// IDLE again.
class TimelineMatchesStateAfterGap
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimelineMatchesStateAfterGap, EveryPointAfterEveryBurst) {
  const auto& config = wr::table7_profiles()[GetParam()].config;
  const double decay =
      config.anchor_tail_ms.value_or(config.inactivity_timer_ms) +
      config.inactive_hold_ms.value_or(0.0);
  std::vector<wr::ActivityBurst> bursts = {{1000.0, 3000.0, 50.0, 5.0}};
  const double second = 3000.0 + config.inactivity_timer_ms / 2.0;
  bursts.push_back({second, second + 1000.0, 50.0, 5.0});
  const double third = second + 1000.0 + decay + 5000.0;
  bursts.push_back({third, third + 1000.0, 50.0, 5.0});
  const double horizon = third + 1000.0 + decay + 10000.0;
  const auto timeline = wr::build_timeline(config, bursts, horizon);

  const auto expected = [&](double t) {
    if (t < bursts.front().start_ms) return RrcState::kIdle;
    double last_end = 0.0;
    for (const auto& burst : bursts) {
      if (t < burst.start_ms) break;
      if (t < burst.end_ms) return RrcState::kConnected;
      last_end = burst.end_ms;
    }
    return wr::state_after_gap(config, t - last_end);
  };
  const auto actual = [&](double t) {
    for (const auto& segment : timeline) {
      if (segment.start_ms <= t && t < segment.end_ms) return segment.state;
    }
    ADD_FAILURE() << config.name << ": no segment covers " << t;
    return RrcState::kIdle;
  };

  // A 97 ms grid over the horizon, plus every timer boundary after the last
  // two bursts (where the next state already holds).
  std::vector<double> times;
  for (double t = 0.0; t < horizon; t += 97.0) times.push_back(t);
  for (const auto& burst : {bursts[1], bursts[2]}) {
    times.push_back(burst.end_ms + config.inactivity_timer_ms);
    if (config.anchor_tail_ms) {
      times.push_back(burst.end_ms + *config.anchor_tail_ms);
    }
    if (config.inactive_hold_ms) {
      times.push_back(burst.end_ms + config.inactivity_timer_ms +
                      *config.inactive_hold_ms);
    }
  }
  for (const double t : times) {
    EXPECT_EQ(actual(t), expected(t)) << config.name << " at t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, TimelineMatchesStateAfterGap,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

// Probe RTT ordering: idle >> mid > connected.
class ProbeRttLevels : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProbeRttLevels, IdleSlowerThanConnected) {
  const auto& config = wr::table7_profiles()[GetParam()].config;
  wild5g::Rng rng(3);
  auto mean_rtt = [&](double gap) {
    double sum = 0.0;
    for (int i = 0; i < 200; ++i) sum += wr::probe_rtt_ms(config, gap, rng);
    return sum / 200.0;
  };
  const double connected = mean_rtt(config.inactivity_timer_ms * 0.5);
  const double idle = mean_rtt(60000.0);
  EXPECT_GT(idle, connected + 50.0);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProbeRttLevels,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u));

TEST(ProbeRtt, ContinuousReceptionIsFastest) {
  const auto& config = wr::profile_by_name("Verizon NSA mmWave").config;
  wild5g::Rng rng(4);
  // Within the continuous-rx window there is no DRX wait at all.
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(wr::probe_rtt_ms(config, 50.0, rng),
              config.base_rtt_ms + 20.0);
  }
}

TEST(Timeline, CoversHorizonWithoutGapsOrOverlap) {
  const auto& config = wr::profile_by_name("T-Mobile SA low-band").config;
  const std::vector<wr::ActivityBurst> bursts = {
      {1000.0, 3000.0, 100.0, 5.0}, {40000.0, 42000.0, 50.0, 2.0}};
  const auto timeline = wr::build_timeline(config, bursts, 90000.0);
  ASSERT_FALSE(timeline.empty());
  EXPECT_DOUBLE_EQ(timeline.front().start_ms, 0.0);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(timeline[i].start_ms, timeline[i - 1].end_ms);
  }
  EXPECT_DOUBLE_EQ(timeline.back().end_ms, 90000.0);
}

TEST(Timeline, SaDecayChainConnectedInactiveIdle) {
  const auto& config = wr::profile_by_name("T-Mobile SA low-band").config;
  const std::vector<wr::ActivityBurst> bursts = {{0.0, 1000.0, 100.0, 5.0}};
  const auto timeline = wr::build_timeline(config, bursts, 60000.0);
  // Expect, after the burst: CONNECTED tail, then INACTIVE, then IDLE.
  std::vector<RrcState> states;
  for (const auto& seg : timeline) {
    if (!seg.transferring && !seg.promoting) states.push_back(seg.state);
  }
  ASSERT_GE(states.size(), 3u);
  EXPECT_EQ(states[states.size() - 3], RrcState::kConnected);
  EXPECT_EQ(states[states.size() - 2], RrcState::kInactive);
  EXPECT_EQ(states[states.size() - 1], RrcState::kIdle);
}

TEST(Timeline, NsaDecayChainUsesAnchor) {
  const auto& config = wr::profile_by_name("T-Mobile NSA low-band").config;
  const std::vector<wr::ActivityBurst> bursts = {{0.0, 1000.0, 100.0, 5.0}};
  const auto timeline = wr::build_timeline(config, bursts, 60000.0);
  bool saw_anchor = false;
  for (const auto& seg : timeline) {
    if (seg.state == RrcState::kConnectedAnchor) {
      saw_anchor = true;
      // Anchor window: [tail, anchor_tail] after the burst end.
      EXPECT_NEAR(seg.start_ms, 1000.0 + config.inactivity_timer_ms, 1e-6);
      EXPECT_NEAR(seg.end_ms, 1000.0 + *config.anchor_tail_ms, 1e-6);
    }
  }
  EXPECT_TRUE(saw_anchor);
}

TEST(Timeline, PromotionConsumesBurstHead) {
  const auto& config = wr::profile_by_name("Verizon NSA mmWave").config;
  const std::vector<wr::ActivityBurst> bursts = {{5000.0, 15000.0, 500.0, 10.0}};
  const auto timeline = wr::build_timeline(config, bursts, 30000.0);
  // Find the promoting segment: must start at the burst and last the 5G
  // promotion delay.
  bool found = false;
  for (const auto& seg : timeline) {
    if (seg.promoting) {
      found = true;
      EXPECT_DOUBLE_EQ(seg.start_ms, 5000.0);
      EXPECT_NEAR(seg.duration_ms(), *config.promotion_5g_ms, 1e-6);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Timeline, BackToBackBurstsStayConnected) {
  const auto& config = wr::profile_by_name("Verizon 4G").config;
  const std::vector<wr::ActivityBurst> bursts = {
      {0.0, 1000.0, 50.0, 5.0}, {2000.0, 3000.0, 50.0, 5.0}};
  const auto timeline = wr::build_timeline(config, bursts, 10000.0);
  // Second burst arrives inside the tail: no promotion segment after t=0.
  for (const auto& seg : timeline) {
    if (seg.start_ms >= 1500.0 && seg.promoting) {
      FAIL() << "unexpected promotion at " << seg.start_ms;
    }
  }
}

TEST(Timeline, RejectsOverlappingBursts) {
  const auto& config = wr::profile_by_name("Verizon 4G").config;
  const std::vector<wr::ActivityBurst> bursts = {
      {0.0, 2000.0, 1.0, 1.0}, {1000.0, 3000.0, 1.0, 1.0}};
  EXPECT_THROW((void)wr::build_timeline(config, bursts, 10000.0),
               wild5g::Error);
}
