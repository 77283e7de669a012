// Tests for 5G-aware interface selection (Sec. 5.4, Fig. 18c, Table 4).
#include "abr/interface_selection.h"

#include <gtest/gtest.h>

#include "abr/video.h"
#include "core/rng.h"

namespace wa = wild5g::abr;
namespace wt = wild5g::traces;
using wild5g::Rng;

namespace {

struct Fixture {
  std::vector<wt::Trace> traces_5g;
  std::vector<wt::Trace> traces_4g;
  wa::SessionOptions options;
  wa::InterfaceSelectionConfig selection;
  wild5g::power::DevicePowerProfile device =
      wild5g::power::DevicePowerProfile::s20u();

  Fixture() {
    Rng rng(11);
    auto c5 = wt::lumos5g_mmwave_config();
    c5.count = 25;
    traces_5g = wt::generate_traces(c5, rng);
    Rng rng2(12);
    auto c4 = wt::lumos5g_lte_config();
    c4.count = 25;
    traces_4g = wt::generate_traces(c4, rng2);
    options.chunk_count = 50;
    // The 5G-aware scheme runs with progress monitoring enabled (Sec. 5.4).
    options.allow_abandonment = true;
  }
};

}  // namespace

TEST(SwitchableSource, BlackoutDuringSwitch) {
  wt::Trace t5;
  t5.mbps.assign(100, 200.0);
  wt::Trace t4;
  t4.mbps.assign(100, 20.0);
  wa::SwitchableSource source(t5, t4);
  EXPECT_DOUBLE_EQ(source.mbps_at(1.0), 200.0);
  source.request_switch(wa::Interface::k4g, 5.0, 1.5);
  EXPECT_DOUBLE_EQ(source.mbps_at(5.5), 0.0);   // mid-blackout
  EXPECT_DOUBLE_EQ(source.mbps_at(7.0), 20.0);  // now on 4G
  EXPECT_EQ(source.switch_count(), 1);
}

TEST(SwitchableSource, SwitchToSameInterfaceIsNoop) {
  wt::Trace t5;
  t5.mbps.assign(10, 100.0);
  wt::Trace t4;
  t4.mbps.assign(10, 10.0);
  wa::SwitchableSource source(t5, t4);
  source.request_switch(wa::Interface::k5g, 1.0, 1.5);
  EXPECT_EQ(source.switch_count(), 0);
  EXPECT_DOUBLE_EQ(source.mbps_at(1.2), 100.0);
}

TEST(SwitchableSource, InterfaceAtReconstructsTimeline) {
  wt::Trace t5;
  t5.mbps.assign(100, 100.0);
  wt::Trace t4;
  t4.mbps.assign(100, 10.0);
  wa::SwitchableSource source(t5, t4);
  source.request_switch(wa::Interface::k4g, 10.0, 1.0);
  source.request_switch(wa::Interface::k5g, 30.0, 1.0);
  EXPECT_EQ(source.interface_at(5.0), wa::Interface::k5g);
  EXPECT_EQ(source.interface_at(15.0), wa::Interface::k4g);
  EXPECT_EQ(source.interface_at(35.0), wa::Interface::k5g);
}

TEST(InterfaceSelection, ReducesStallsOnBlockyTraces) {
  // Fig. 18c: 5G-aware MPC cuts stall time vs 5G-only (paper: ~27%).
  Fixture f;
  double stall_only = 0.0;
  double stall_aware = 0.0;
  for (std::size_t i = 0; i < f.traces_5g.size(); ++i) {
    const auto& t4 = f.traces_4g[i % f.traces_4g.size()];
    stall_only += wa::stream_5g_only(wa::video_ladder_5g(), f.traces_5g[i],
                                     f.options, f.device)
                      .session.total_stall_s;
    stall_aware +=
        wa::stream_5g_aware(wa::video_ladder_5g(), f.traces_5g[i], t4,
                            f.options, f.selection, f.device)
            .session.total_stall_s;
  }
  EXPECT_LT(stall_aware, stall_only);
}

TEST(InterfaceSelection, SavesEnergy) {
  // Table 4: the 5G-aware scheme consumes less energy than 5G-only.
  Fixture f;
  double energy_only = 0.0;
  double energy_aware = 0.0;
  for (std::size_t i = 0; i < f.traces_5g.size(); ++i) {
    const auto& t4 = f.traces_4g[i % f.traces_4g.size()];
    energy_only += wa::stream_5g_only(wa::video_ladder_5g(), f.traces_5g[i],
                                      f.options, f.device)
                       .energy_j;
    energy_aware +=
        wa::stream_5g_aware(wa::video_ladder_5g(), f.traces_5g[i], t4,
                            f.options, f.selection, f.device)
            .energy_j;
  }
  EXPECT_LT(energy_aware, energy_only);
  // Saving is moderate (single-digit percent in the paper), not a collapse.
  EXPECT_GT(energy_aware, 0.7 * energy_only);
}

TEST(InterfaceSelection, NoOverheadVariantNeverWorseOnStalls) {
  Fixture f;
  auto no_overhead = f.selection;
  no_overhead.model_switch_overhead = false;
  double stall_with = 0.0;
  double stall_without = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& t4 = f.traces_4g[i];
    stall_with += wa::stream_5g_aware(wa::video_ladder_5g(), f.traces_5g[i],
                                      t4, f.options, f.selection, f.device)
                      .session.total_stall_s;
    stall_without +=
        wa::stream_5g_aware(wa::video_ladder_5g(), f.traces_5g[i], t4,
                            f.options, no_overhead, f.device)
            .session.total_stall_s;
  }
  EXPECT_LE(stall_without, stall_with * 1.05);
}

TEST(InterfaceSelection, SessionEnergyAllFiveGMatchesHelper) {
  Fixture f;
  const auto run = wa::stream_5g_only(wa::video_ladder_5g(), f.traces_5g[0],
                                      f.options, f.device);
  const double recomputed = wa::session_energy_j(run.session, {}, f.device);
  EXPECT_NEAR(run.energy_j, recomputed, 1e-9);
}

TEST(InterfaceSelection, SwitchesActuallyHappen) {
  Fixture f;
  int total_switches = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    total_switches +=
        wa::stream_5g_aware(wa::video_ladder_5g(), f.traces_5g[i],
                            f.traces_4g[i], f.options, f.selection, f.device)
            .switch_count;
  }
  EXPECT_GT(total_switches, 0);
}

TEST(InterfaceSelection, MixedInterfaceEnergyBetweenPureCases) {
  // Energy with a 4G/5G mix must sit between the all-4G and all-5G costs
  // for the same throughput series.
  Fixture f;
  const auto run = wa::stream_5g_only(wa::video_ladder_5g(), f.traces_5g[1],
                                      f.options, f.device);
  const std::size_t seconds = run.session.per_second_dl_mbps.size();
  const std::vector<wa::Interface> all_5g(seconds, wa::Interface::k5g);
  const std::vector<wa::Interface> all_4g(seconds, wa::Interface::k4g);
  std::vector<wa::Interface> mixed(seconds);
  for (std::size_t s = 0; s < seconds; ++s) {
    mixed[s] = s % 2 == 0 ? wa::Interface::k5g : wa::Interface::k4g;
  }
  const double e5 = wa::session_energy_j(run.session, all_5g, f.device);
  const double e4 = wa::session_energy_j(run.session, all_4g, f.device);
  const double em = wa::session_energy_j(run.session, mixed, f.device);
  // 4G is cheap at low rates but its uplink/downlink slopes are steep; for
  // a video workload the 5G base dominates, so all-5G costs most.
  EXPECT_GT(e5, em);
  EXPECT_GT(em, e4 * 0.5);
}

TEST(InterfaceSelection, DeterministicEndToEnd) {
  Fixture f;
  const auto a = wa::stream_5g_aware(wa::video_ladder_5g(), f.traces_5g[2],
                                     f.traces_4g[2], f.options, f.selection,
                                     f.device);
  const auto b = wa::stream_5g_aware(wa::video_ladder_5g(), f.traces_5g[2],
                                     f.traces_4g[2], f.options, f.selection,
                                     f.device);
  EXPECT_DOUBLE_EQ(a.session.total_stall_s, b.session.total_stall_s);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.switch_count, b.switch_count);
}
