#include "power/campaign.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace wild5g::power {

namespace {
constexpr double kLogPeriodS = 0.1;       // 10 Hz network logging
constexpr double kUplinkRatio = 0.03;     // ack traffic share
constexpr double kSecondsPerStep = 5.0;   // sweep dwell per target (10 Hz log)
constexpr double kMeanUtilization = 0.9;  // bulk transfer fills most capacity
}  // namespace

std::vector<CampaignSample> run_walking_campaign(
    const WalkingCampaignConfig& config, const DevicePowerProfile& device,
    Rng& rng) {
  require(config.duration_s > 0.0, "run_walking_campaign: invalid duration");
  const RailKey rail = rail_key(config.network);
  require(device.has_rail(rail),
          "run_walking_campaign: device lacks this network's rail");

  radio::ChannelProcess channel(
      radio::default_channel_process(config.network.band), rng.fork(1));
  Rng noise = rng.fork(2);

  std::vector<CampaignSample> samples;
  samples.reserve(
      static_cast<std::size_t>(config.duration_s / kLogPeriodS));

  // Link utilization wanders slowly around the mean (application pacing,
  // server share, cross traffic).
  double utilization = kMeanUtilization;
  for (double t = 0.0; t < config.duration_s; t += kLogPeriodS) {
    const auto sample = channel.step(kLogPeriodS);
    // Unconstrained walk over (0.05, 1]: campaigns cover idle-ish seconds
    // too, so fitted models have support at low throughput (the Sec. 4.5
    // app-validation workloads spend much of their time there).
    utilization = std::clamp(
        utilization + noise.normal(0.0, 0.012), 0.05, 1.0);
    const double capacity = radio::link_capacity_mbps(
        config.network, config.ue, radio::Direction::kDownlink,
        sample.rsrp_dbm);
    const double dl = capacity * utilization;
    const double ul = dl * kUplinkRatio;
    const double clean =
        device.transfer_power_mw(rail, dl, ul, sample.rsrp_dbm);
    const double power =
        std::max(0.0, clean * (1.0 + noise.normal(0.0, 0.03)));
    samples.push_back({t, sample.rsrp_dbm, dl, ul, power});
  }
  return samples;
}

std::vector<CampaignSample> run_controlled_sweep(
    const ControlledSweepConfig& config, const DevicePowerProfile& device,
    Rng& rng) {
  require(config.throughput_steps >= 2,
          "run_controlled_sweep: invalid config");
  const RailKey rail = rail_key(config.network);
  require(device.has_rail(rail),
          "run_controlled_sweep: device lacks this network's rail");
  const double capacity = radio::link_capacity_mbps(
      config.network, config.ue, radio::Direction::kDownlink,
      kSweepRsrpDbm);

  std::vector<CampaignSample> samples;
  double t = 0.0;
  for (int step = 0; step < config.throughput_steps; ++step) {
    // Quadratic spacing: dense targets at low rates, where applications
    // spend most of their time and where energy-per-bit changes fastest.
    const double fraction = static_cast<double>(step) /
                            static_cast<double>(config.throughput_steps - 1);
    const double target = capacity * fraction * fraction;
    for (double dwell = 0.0; dwell < kSecondsPerStep; dwell += 0.1) {
      const double rsrp = kSweepRsrpDbm + rng.normal(0.0, 1.0);
      const double dl = std::max(0.0, target * rng.uniform(0.97, 1.0));
      const double ul = dl * 0.02;
      const double power = std::max(
          0.0, device.transfer_power_mw(rail, dl, ul, rsrp) *
                   (1.0 + rng.normal(0.0, 0.03)));
      samples.push_back({t, rsrp, dl, ul, power});
      t += 0.1;
    }
  }
  return samples;
}

}  // namespace wild5g::power
