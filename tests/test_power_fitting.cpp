// Tests for walking campaigns and ML power-model fitting (Sec. 4.4-4.5).
#include "power/fitting.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/rng.h"
#include "core/stats.h"
#include "power/campaign.h"
#include "radio/ue.h"

namespace wp = wild5g::power;
namespace wr = wild5g::radio;
using wild5g::Rng;

namespace {

wp::WalkingCampaignConfig mmwave_campaign() {
  wp::WalkingCampaignConfig config;
  config.network = {wr::Carrier::kVerizon, wr::Band::kNrMmWave,
                    wr::DeploymentMode::kNsa};
  config.ue = wr::galaxy_s20u();
  return config;
}

}  // namespace

TEST(Campaign, ProducesAlignedSamples) {
  Rng rng(1);
  const auto samples =
      wp::run_walking_campaign(mmwave_campaign(),
                               wp::DevicePowerProfile::s20u(), rng);
  EXPECT_EQ(samples.size(), 12000u);  // 1200 s at 10 Hz
  for (const auto& s : samples) {
    EXPECT_GE(s.dl_mbps, 0.0);
    EXPECT_GT(s.power_mw, 0.0);
    EXPECT_LE(s.rsrp_dbm, -60.0);
    EXPECT_GE(s.rsrp_dbm, -140.0);
  }
}

TEST(Campaign, DeterministicInSeed) {
  Rng a(2);
  Rng b(2);
  const auto sa = wp::run_walking_campaign(mmwave_campaign(),
                                           wp::DevicePowerProfile::s20u(), a);
  const auto sb = wp::run_walking_campaign(mmwave_campaign(),
                                           wp::DevicePowerProfile::s20u(), b);
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_DOUBLE_EQ(sa[100].power_mw, sb[100].power_mw);
}

TEST(Campaign, PowerCorrelatesWithThroughput) {
  Rng rng(3);
  const auto samples = wp::run_walking_campaign(
      mmwave_campaign(), wp::DevicePowerProfile::s20u(), rng);
  std::vector<double> tput, power;
  for (const auto& s : samples) {
    tput.push_back(s.dl_mbps);
    power.push_back(s.power_mw);
  }
  const auto fit = wild5g::stats::linear_fit(tput, power);
  EXPECT_GT(fit.slope, 0.5);  // higher throughput -> more power (Fig. 13)
  EXPECT_GT(fit.r_squared, 0.3);
}

TEST(Fitting, FeatureSetNames) {
  EXPECT_EQ(wp::to_string(wp::FeatureSet::kThroughputAndSignal), "TH+SS");
  EXPECT_EQ(wp::to_string(wp::FeatureSet::kThroughputOnly), "TH");
  EXPECT_EQ(wp::to_string(wp::FeatureSet::kSignalOnly), "SS");
}

TEST(Fitting, ThroughputPlusSignalBeatsBothAblations) {
  // Fig. 15: TH+SS < TH < SS in MAPE, for every configuration. Exercise the
  // mmWave config where the effect is largest.
  Rng rng(4);
  const auto samples = wp::run_walking_campaign(
      mmwave_campaign(), wp::DevicePowerProfile::s20u(), rng);

  auto fit_mape = [&](wp::FeatureSet features, std::uint64_t seed) {
    wp::PowerModelFit fit(features);
    Rng split_rng(seed);
    fit.fit(samples, split_rng);
    return fit.test_mape_percent();
  };
  const double both = fit_mape(wp::FeatureSet::kThroughputAndSignal, 10);
  const double th = fit_mape(wp::FeatureSet::kThroughputOnly, 10);
  const double ss = fit_mape(wp::FeatureSet::kSignalOnly, 10);
  EXPECT_LT(both, th);
  EXPECT_LT(th, ss);
  EXPECT_LT(both, 6.0);   // Fig. 15 shows TH+SS in the low single digits
  EXPECT_GT(ss, 8.0);     // SS-only is far off for mmWave
}

TEST(Fitting, PredictionTracksGroundTruthRail) {
  Rng rng(5);
  const auto samples = wp::run_walking_campaign(
      mmwave_campaign(), wp::DevicePowerProfile::s20u(), rng);
  wp::PowerModelFit fit(wp::FeatureSet::kThroughputAndSignal);
  Rng split_rng(6);
  fit.fit(samples, split_rng);

  const auto device = wp::DevicePowerProfile::s20u();
  const double truth =
      device.transfer_power_mw(wp::RailKey::kNsaMmWave, 800.0, 24.0, -82.0);
  EXPECT_NEAR(fit.predict_mw(800.0, 24.0, -82.0), truth, 0.15 * truth);
}

TEST(Fitting, EnergyEstimateMatchesHandIntegration) {
  Rng rng(7);
  const auto samples = wp::run_walking_campaign(
      mmwave_campaign(), wp::DevicePowerProfile::s20u(), rng);
  wp::PowerModelFit fit(wp::FeatureSet::kThroughputAndSignal);
  Rng split_rng(8);
  fit.fit(samples, split_rng);

  const std::vector<wp::PowerModelFit::UsageSlot> usage = {
      {500.0, 15.0, -80.0, 2.0}, {50.0, 2.0, -95.0, 3.0}};
  double expected = 0.0;
  for (const auto& slot : usage) {
    expected += fit.predict_mw(slot.dl_mbps, slot.ul_mbps, slot.rsrp_dbm) /
                1000.0 * slot.duration_s;
  }
  EXPECT_NEAR(fit.estimate_energy_j(usage), expected, 1e-9);
}

TEST(Fitting, RejectsTinyCampaign) {
  wp::PowerModelFit fit(wp::FeatureSet::kThroughputOnly);
  std::vector<wp::CampaignSample> tiny(10);
  Rng rng(9);
  EXPECT_THROW(fit.fit(tiny, rng), wild5g::Error);
}

TEST(Fitting, LowBandCampaignAlsoFits) {
  wp::WalkingCampaignConfig config;
  config.network = {wr::Carrier::kTMobile, wr::Band::kNrLowBand,
                    wr::DeploymentMode::kSa};
  config.ue = wr::galaxy_s20u();
  Rng rng(10);
  const auto samples = wp::run_walking_campaign(
      config, wp::DevicePowerProfile::s20u(), rng);
  wp::PowerModelFit fit(wp::FeatureSet::kThroughputAndSignal);
  Rng split_rng(11);
  fit.fit(samples, split_rng);
  EXPECT_LT(fit.test_mape_percent(), 8.0);
}

TEST(ControlledSweep, CoversLowThroughputAtGoodSignal) {
  wp::ControlledSweepConfig sweep;
  sweep.network = {wr::Carrier::kVerizon, wr::Band::kNrMmWave,
                   wr::DeploymentMode::kNsa};
  sweep.ue = wr::galaxy_s20u();
  Rng rng(20);
  const auto samples = wp::run_controlled_sweep(
      sweep, wp::DevicePowerProfile::s20u(), rng);
  ASSERT_FALSE(samples.empty());
  int low_rate_good_signal = 0;
  for (const auto& s : samples) {
    EXPECT_GE(s.dl_mbps, 0.0);
    EXPECT_GT(s.power_mw, 0.0);
    if (s.dl_mbps < 50.0 && s.rsrp_dbm > -85.0) ++low_rate_good_signal;
  }
  // The whole point of the controlled sweep: dense coverage of the
  // low-throughput/good-signal region walking campaigns miss.
  EXPECT_GT(low_rate_good_signal, static_cast<int>(samples.size()) / 10);
}

TEST(ControlledSweep, TargetsReachLinkCapacity) {
  wp::ControlledSweepConfig sweep;
  sweep.network = {wr::Carrier::kVerizon, wr::Band::kNrMmWave,
                   wr::DeploymentMode::kNsa};
  sweep.ue = wr::galaxy_s20u();
  Rng rng(21);
  const auto samples = wp::run_controlled_sweep(
      sweep, wp::DevicePowerProfile::s20u(), rng);
  double max_dl = 0.0;
  for (const auto& s : samples) max_dl = std::max(max_dl, s.dl_mbps);
  const double capacity = wr::link_capacity_mbps(
      sweep.network, sweep.ue, wr::Direction::kDownlink, wp::kSweepRsrpDbm);
  EXPECT_GT(max_dl, 0.9 * capacity);
}

TEST(ControlledSweep, CombinedTrainingImprovesAppRegionAccuracy) {
  // Fitting on walking + controlled data must predict the low-rate/good-
  // signal operating point better than walking data alone.
  Rng rng(22);
  auto walking = wp::run_walking_campaign(
      mmwave_campaign(), wp::DevicePowerProfile::s20u(), rng);
  wp::PowerModelFit walking_only(wp::FeatureSet::kThroughputAndSignal);
  Rng split_a(23);
  walking_only.fit(walking, split_a);

  wp::ControlledSweepConfig sweep;
  sweep.network = mmwave_campaign().network;
  sweep.ue = mmwave_campaign().ue;
  Rng sweep_rng(24);
  const auto controlled = wp::run_controlled_sweep(
      sweep, wp::DevicePowerProfile::s20u(), sweep_rng);
  auto combined = walking;
  combined.insert(combined.end(), controlled.begin(), controlled.end());
  wp::PowerModelFit both(wp::FeatureSet::kThroughputAndSignal);
  Rng split_b(25);
  both.fit(combined, split_b);

  const auto device = wp::DevicePowerProfile::s20u();
  const double truth =
      device.transfer_power_mw(wp::RailKey::kNsaMmWave, 15.0, 0.5, -79.0);
  const double err_walking =
      std::abs(walking_only.predict_mw(15.0, 0.5, -79.0) - truth);
  const double err_both =
      std::abs(both.predict_mw(15.0, 0.5, -79.0) - truth);
  EXPECT_LT(err_both, err_walking + 1.0);
  EXPECT_LT(err_both / truth, 0.05);
}
