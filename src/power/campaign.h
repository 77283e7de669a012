// wild5g/power: in-the-wild walking campaigns (Sec. 4.1, "Data Collection
// Methodology") — the joint network/power traces used to study the
// power-RSRP-throughput relationship (Figs. 13-14) and to train the power
// models (Fig. 15).
#pragma once

#include <vector>

#include "core/rng.h"
#include "power/power_model.h"
#include "radio/channel.h"
#include "radio/types.h"
#include "radio/ue.h"

namespace wild5g::power {

/// One logged instant of a walking trace (10 Hz logger in the paper).
struct CampaignSample {
  double t_s = 0.0;
  double rsrp_dbm = 0.0;
  double dl_mbps = 0.0;
  double ul_mbps = 0.0;
  double power_mw = 0.0;  // hardware-measured radio power
};

struct WalkingCampaignConfig {
  radio::NetworkConfig network;
  radio::UeProfile ue;
  double duration_s = 1200.0;    // the 20-minute loop
};

/// Simulates one walking loop: the channel wanders (shadowing/blockage per
/// band), the bulk transfer tracks the varying capacity, and the device's
/// power rails produce the measured power. Deterministic in `rng`.
[[nodiscard]] std::vector<CampaignSample> run_walking_campaign(
    const WalkingCampaignConfig& config, const DevicePowerProfile& device,
    Rng& rng);

struct ControlledSweepConfig {
  radio::NetworkConfig network;
  radio::UeProfile ue;
  int throughput_steps = 20;     // iPerf3 target rates, 0..capacity
};

/// Mean RSRP of the controlled sweep: stationary LoS to the panel.
inline constexpr double kSweepRsrpDbm = -78.0;

/// The paper's controlled experiments (Sec. 4.1): stationary LoS, UDP at
/// fixed target throughputs swept from idle to link capacity. Covers the
/// low-throughput/good-signal region walking campaigns miss; the paper's
/// power models train on both.
[[nodiscard]] std::vector<CampaignSample> run_controlled_sweep(
    const ControlledSweepConfig& config, const DevicePowerProfile& device,
    Rng& rng);

}  // namespace wild5g::power
