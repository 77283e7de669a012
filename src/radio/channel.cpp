#include "radio/channel.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace wild5g::radio {

namespace {

// Carrier-aggregation scheduling efficiency: each extra component carrier
// adds slightly less than linear capacity (scheduler + beam-management
// overhead grows with CC count). Calibrated so S20U(8CC) ~3.4 Gbps and
// PX5/S10(4CC) ~2.0 Gbps on mmWave, matching Appendix A.1.
double aggregation_efficiency(int cc_count) {
  return 1.0 - 0.03 * static_cast<double>(cc_count - 1);
}

// Component carriers used for a transfer on this band by this UE.
int cc_count(Band band, const UeProfile& ue, Direction direction) {
  switch (band) {
    case Band::kNrMmWave:
      return direction == Direction::kDownlink
                 ? ue.mmwave_dl_component_carriers
                 : ue.mmwave_ul_component_carriers;
    case Band::kLte:
      return direction == Direction::kDownlink ? 3 : 1;  // typical LTE CA
    case Band::kNrLowBand:
    case Band::kNrMidBand:
      return 1;  // no NR CA on low/mid band in the study's deployments
  }
  return 1;
}

// Nominal LTE-anchor contribution to an NSA low-band EN-DC split bearer at
// perfect signal, scaled down with signal quality.
constexpr double kNsaAnchorDlMbps = 110.0;
constexpr double kNsaAnchorUlMbps = 35.0;

// SA low-band derate (Sec. 3.2: SA achieves about half of NSA; downlink gets
// there naturally by losing the anchor, uplink additionally suffers from
// coverage-driven power control and the immature SA core).
constexpr double kSaUplinkDerate = 0.8;

// Correlation time of the slow distance wander around the mean.
constexpr double kDistanceTauS = 30.0;

}  // namespace

const BandParams& band_params(Band band) {
  static const BandParams kMmWave{
      .carrier_freq_ghz = 28.0,
      .cc_bandwidth_mhz = 100.0,
      .pathloss_const_db = 61.4,
      .pathloss_slope_db = 20.0,
      .tx_eirp_dbm = 60.0,
      .rsrp_ref_offset_db = 33.0,
      .noise_floor_dbm = -100.0,
      .cell_radius_m = 200.0,
      .access_latency_ms = 5.6,
      .dl_se_cap_bps_hz = 7.8,
      .ul_se_cap_bps_hz = 1.6,
      .overhead = 0.70,
  };
  static const BandParams kLowBand{
      .carrier_freq_ghz = 0.7,
      .cc_bandwidth_mhz = 20.0,
      .pathloss_const_db = 32.0,
      .pathloss_slope_db = 22.0,
      .tx_eirp_dbm = 46.0,
      .rsrp_ref_offset_db = 27.0,
      .noise_floor_dbm = -112.0,
      .cell_radius_m = 5000.0,
      .access_latency_ms = 12.4,
      .dl_se_cap_bps_hz = 6.0,
      .ul_se_cap_bps_hz = 4.5,
      .overhead = 0.70,
  };
  static const BandParams kMidBand{
      .carrier_freq_ghz = 2.5,
      .cc_bandwidth_mhz = 100.0,
      .pathloss_const_db = 36.0,
      .pathloss_slope_db = 23.0,
      .tx_eirp_dbm = 48.0,
      .rsrp_ref_offset_db = 27.0,
      .noise_floor_dbm = -108.0,
      .cell_radius_m = 1500.0,
      .access_latency_ms = 9.0,
      .dl_se_cap_bps_hz = 6.5,
      .ul_se_cap_bps_hz = 2.5,
      .overhead = 0.70,
  };
  static const BandParams kLte{
      .carrier_freq_ghz = 2.1,
      .cc_bandwidth_mhz = 20.0,
      .pathloss_const_db = 34.0,
      .pathloss_slope_db = 23.0,
      .tx_eirp_dbm = 46.0,
      .rsrp_ref_offset_db = 27.0,
      .noise_floor_dbm = -110.0,
      .cell_radius_m = 2500.0,
      .access_latency_ms = 19.0,
      .dl_se_cap_bps_hz = 5.2,
      .ul_se_cap_bps_hz = 2.6,
      .overhead = 0.65,
  };
  switch (band) {
    case Band::kNrMmWave: return kMmWave;
    case Band::kNrLowBand: return kLowBand;
    case Band::kNrMidBand: return kMidBand;
    case Band::kLte: return kLte;
  }
  return kLte;
}

double path_loss_db(Band band, double distance_m) {
  const auto& params = band_params(band);
  const double d = std::max(1.0, distance_m);
  return params.pathloss_const_db +
         params.pathloss_slope_db * std::log10(d);
}

double rsrp_dbm(Band band, double distance_m, double extra_loss_db) {
  const auto& params = band_params(band);
  const double raw = params.tx_eirp_dbm - path_loss_db(band, distance_m) -
                     params.rsrp_ref_offset_db - extra_loss_db;
  return std::clamp(raw, -140.0, -60.0);
}

double snr_db(Band band, double rsrp) {
  return rsrp - band_params(band).noise_floor_dbm;
}

double interference_rise_db(double cell_load) {
  require(cell_load >= 0.0 && cell_load <= 1.0,
          "interference_rise_db: cell_load out of [0, 1]");
  // Noise-rise dimensioning curve: interference grows linearly with the
  // surrounding utilization; kFullLoadFactor = 3 puts the full-load rise at
  // 10*log10(4) ~ 6 dB. log10(1) == 0 exactly, so zero load adds exactly
  // 0.0 dB and the unloaded SNR (hence every committed golden) is
  // bit-identical to the pre-load model.
  constexpr double kFullLoadFactor = 3.0;
  return 10.0 * std::log10(1.0 + kFullLoadFactor * cell_load);
}

double snr_db(Band band, double rsrp, double cell_load) {
  return rsrp -
         (band_params(band).noise_floor_dbm + interference_rise_db(cell_load));
}

double link_capacity_mbps(const NetworkConfig& config, const UeProfile& ue,
                          Direction direction, double rsrp) {
  return loaded_link_capacity_mbps(config, ue, direction, rsrp, 0.0);
}

double loaded_link_capacity_mbps(const NetworkConfig& config,
                                 const UeProfile& ue, Direction direction,
                                 double rsrp, double cell_load) {
  const auto& params = band_params(config.band);
  const double snr_linear =
      std::pow(10.0, snr_db(config.band, rsrp, cell_load) / 10.0);
  const double se_cap = direction == Direction::kDownlink
                            ? params.dl_se_cap_bps_hz
                            : params.ul_se_cap_bps_hz;
  // Shannon capacity shaped by the band's modulation ceiling; the ceiling
  // also defines the "signal quality" factor used for the NSA anchor share.
  const double shannon = std::log2(1.0 + snr_linear);
  const double se = std::min(se_cap, std::max(0.0, shannon) *
                                         (se_cap / params.dl_se_cap_bps_hz));
  const int ccs = cc_count(config.band, ue, direction);
  double capacity = params.cc_bandwidth_mhz * static_cast<double>(ccs) * se *
                    params.overhead * aggregation_efficiency(ccs);

  const double quality = std::clamp(se / se_cap, 0.0, 1.0);
  if (config.band == Band::kNrLowBand &&
      config.mode == DeploymentMode::kNsa) {
    // EN-DC split bearer: the LTE anchor carries part of the data plane.
    const double anchor = direction == Direction::kDownlink
                              ? kNsaAnchorDlMbps
                              : kNsaAnchorUlMbps;
    capacity += anchor * quality;
  }
  if (is_nr(config.band) && config.mode == DeploymentMode::kSa &&
      direction == Direction::kUplink) {
    capacity *= kSaUplinkDerate;
  }

  const double ue_cap = direction == Direction::kDownlink ? ue.max_dl_mbps
                                                          : ue.max_ul_mbps;
  return std::max(0.0, std::min(capacity, ue_cap));
}

double access_latency_ms(const NetworkConfig& config) {
  return band_params(config.band).access_latency_ms;
}

ChannelProcessConfig default_channel_process(Band band) {
  ChannelProcessConfig config;
  config.band = band;
  switch (band) {
    case Band::kNrMmWave:
      config.mean_distance_m = 120.0;
      config.distance_jitter_m = 60.0;
      config.shadowing_sigma_db = 5.0;
      config.shadowing_tau_s = 6.0;
      config.blockage_rate_per_s = 0.04;  // ~2.4 obstructions per minute
      config.blockage_mean_duration_s = 3.0;
      config.blockage_loss_db = 25.0;
      break;
    case Band::kNrMidBand:
      config.mean_distance_m = 700.0;
      config.distance_jitter_m = 300.0;
      config.shadowing_sigma_db = 4.0;
      config.shadowing_tau_s = 10.0;
      break;
    case Band::kNrLowBand:
      config.mean_distance_m = 2200.0;
      config.distance_jitter_m = 900.0;
      config.shadowing_sigma_db = 3.0;
      config.shadowing_tau_s = 15.0;
      break;
    case Band::kLte:
      config.mean_distance_m = 1100.0;
      config.distance_jitter_m = 450.0;
      config.shadowing_sigma_db = 3.0;
      config.shadowing_tau_s = 15.0;
      break;
  }
  return config;
}

ChannelProcess::ChannelProcess(ChannelProcessConfig config, Rng rng)
    : config_(config), rng_(rng) {
  require(config_.mean_distance_m > 0.0,
          "ChannelProcess: mean_distance_m must be positive");
  refresh_sample();
}

ChannelSample ChannelProcess::step(double dt_s) {
  require(dt_s > 0.0, "ChannelProcess::step: dt must be positive");

  // Ornstein-Uhlenbeck updates for slow distance wander and shadowing.
  auto ou_step = [&](double value, double sigma, double tau) {
    const double decay = std::exp(-dt_s / tau);
    const double noise =
        sigma * std::sqrt(std::max(0.0, 1.0 - decay * decay));
    return value * decay + rng_.normal(0.0, noise);
  };
  distance_offset_m_ =
      ou_step(distance_offset_m_, config_.distance_jitter_m, kDistanceTauS);
  shadowing_db_ = ou_step(shadowing_db_, config_.shadowing_sigma_db,
                          config_.shadowing_tau_s);

  // Blockage: memoryless arrivals, exponential durations. Deep (building)
  // and partial (foliage/vehicle/body) obstructions run independently.
  if (blockage_remaining_s_ > 0.0) {
    blockage_remaining_s_ -= dt_s;
  } else if (config_.blockage_rate_per_s > 0.0 &&
             rng_.bernoulli(std::min(1.0, config_.blockage_rate_per_s * dt_s))) {
    blockage_remaining_s_ =
        rng_.exponential(config_.blockage_mean_duration_s);
  }
  if (partial_remaining_s_ > 0.0) {
    partial_remaining_s_ -= dt_s;
  } else if (config_.partial_rate_per_s > 0.0 &&
             rng_.bernoulli(std::min(1.0, config_.partial_rate_per_s * dt_s))) {
    partial_remaining_s_ =
        rng_.exponential(config_.partial_mean_duration_s);
  }

  refresh_sample();
  return current_;
}

void ChannelProcess::refresh_sample() {
  const double distance =
      std::max(5.0, config_.mean_distance_m + distance_offset_m_);
  const bool blocked = blockage_remaining_s_ > 0.0;
  const double extra =
      shadowing_db_ + (blocked ? config_.blockage_loss_db : 0.0) +
      (partial_remaining_s_ > 0.0 ? config_.partial_loss_db : 0.0);
  current_ = {
      .rsrp_dbm = rsrp_dbm(config_.band, distance, extra),
      .extra_loss_db = extra,
      .blocked = blocked,
  };
}

}  // namespace wild5g::radio
