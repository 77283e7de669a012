// wild5g/radio: physical-layer channel model.
//
// Maps band + geometry to RSRP, and RSRP + UE capability to achievable link
// capacity. Constants are calibrated so that the simulated networks land on
// the paper's measured operating points:
//   - Verizon NSA mmWave: ~3 Gbps DL / ~220 Mbps UL on S20U (8CC), ~2-2.2 Gbps
//     on PX5/S10 (4CC); NR-SS-RSRP in the -110..-75 dBm range (Figs. 3,4,13).
//   - Low-band NSA (n71/n5-DSS): ~200 Mbps DL / ~100 Mbps UL; SA roughly half
//     of NSA (no carrier aggregation, immature core) (Figs. 6,7).
//   - LTE: ~150-200 Mbps DL / ~40 Mbps UL.
//   - Access latency: mmWave lowest; low-band +6-8 ms; LTE +6-15 ms (Fig. 2).
#pragma once

#include "core/rng.h"
#include "radio/types.h"
#include "radio/ue.h"

namespace wild5g::radio {

/// Static per-band radio parameters.
struct BandParams {
  double carrier_freq_ghz = 0.0;
  double cc_bandwidth_mhz = 0.0;   // bandwidth of one component carrier
  double pathloss_const_db = 0.0;  // PL(d) = const + slope*log10(d_m)
  double pathloss_slope_db = 0.0;
  double tx_eirp_dbm = 0.0;        // effective incl. beamforming gain
  double rsrp_ref_offset_db = 0.0; // wideband power -> per-RE RSRP
  double noise_floor_dbm = 0.0;    // effective (incl. interference margin)
  double cell_radius_m = 0.0;      // usable coverage radius
  double access_latency_ms = 0.0;  // radio+core contribution to RTT
  double dl_se_cap_bps_hz = 0.0;   // spectral-efficiency ceiling, downlink
  double ul_se_cap_bps_hz = 0.0;   // ceiling, uplink (power-limited)
  double overhead = 0.0;           // PHY -> transport goodput factor
};

/// Band parameter table (single source of truth).
[[nodiscard]] const BandParams& band_params(Band band);

/// Log-distance path loss in dB at `distance_m` (>= 1 m enforced).
[[nodiscard]] double path_loss_db(Band band, double distance_m);

/// NR-SS-RSRP (or LTE RSRP) in dBm at `distance_m` with `extra_loss_db` of
/// blockage/shadowing, clamped to the reportable [-140, -60] range.
[[nodiscard]] double rsrp_dbm(Band band, double distance_m,
                              double extra_loss_db = 0.0);

/// Effective SNR in dB for capacity purposes.
[[nodiscard]] double snr_db(Band band, double rsrp);

/// Interference-driven rise of the effective noise floor (dB) when the
/// surrounding network runs at `cell_load` utilization in [0, 1]. Exactly
/// 0.0 at zero load (the unloaded path is bit-identical to the pre-load
/// model); ~6 dB at full load, the classic UMTS/NR dimensioning figure.
[[nodiscard]] double interference_rise_db(double cell_load);

/// SNR with the serving/neighbor cells at `cell_load` utilization.
[[nodiscard]] double snr_db(Band band, double rsrp, double cell_load);

/// Achievable transport-layer capacity in Mbps for one UE camped on
/// `config`, at the given signal strength. Models component-carrier
/// aggregation (per UE modem), the EN-DC split bearer for NSA low-band
/// (NR + LTE anchor share the data plane), the SA derate the paper observed
/// ("half the performance of NSA", Sec. 3.2), and the UE processing ceiling.
[[nodiscard]] double link_capacity_mbps(const NetworkConfig& config,
                                        const UeProfile& ue,
                                        Direction direction, double rsrp);

/// Achievable capacity with the network at `cell_load` utilization in
/// [0, 1]: the interference rise degrades SNR, so capacity is strictly
/// non-increasing in load. `cell_load == 0.0` is bit-identical to
/// link_capacity_mbps (the unloaded campaigns' goldens depend on that).
/// This is the whole-cell number; radio::CellScheduler divides it across
/// the attached UEs' airtime shares.
[[nodiscard]] double loaded_link_capacity_mbps(const NetworkConfig& config,
                                               const UeProfile& ue,
                                               Direction direction,
                                               double rsrp,
                                               double cell_load);

/// Radio access latency (air interface + carrier core) component of RTT.
[[nodiscard]] double access_latency_ms(const NetworkConfig& config);

/// One sample of the time-varying channel.
struct ChannelSample {
  double rsrp_dbm = 0.0;
  double extra_loss_db = 0.0;  // shadowing + blockage actually applied
  bool blocked = false;        // inside an obstruction event
};

/// Configuration of the stochastic channel evolution used for walking
/// campaigns and trace generation. Shadowing follows an Ornstein-Uhlenbeck
/// process; mmWave additionally suffers Poisson blockage events with large
/// attenuation (Sec. 4.4: signal "fluctuates frequently and wildly").
struct ChannelProcessConfig {
  Band band = Band::kNrMmWave;
  double mean_distance_m = 120.0;
  double distance_jitter_m = 60.0;   // slow wandering around the mean
  double shadowing_sigma_db = 4.0;
  double shadowing_tau_s = 8.0;
  double blockage_rate_per_s = 0.0;  // Poisson arrival rate of obstructions
  double blockage_mean_duration_s = 2.0;
  double blockage_loss_db = 25.0;
  /// Secondary, partial obstructions (foliage, vehicles, body): shallower
  /// and more frequent than the deep building blockages.
  double partial_rate_per_s = 0.0;
  double partial_mean_duration_s = 4.0;
  double partial_loss_db = 12.0;
};

/// Default stochastic configs per band (blockage only for mmWave).
[[nodiscard]] ChannelProcessConfig default_channel_process(Band band);

/// Evolves RSRP over time; deterministic in the seed of the supplied Rng.
class ChannelProcess {
 public:
  ChannelProcess(ChannelProcessConfig config, Rng rng);

  /// Advances the channel by dt_s and returns the new sample.
  ChannelSample step(double dt_s);

  /// Most recent sample without advancing.
  [[nodiscard]] const ChannelSample& current() const { return current_; }

 private:
  ChannelProcessConfig config_;
  Rng rng_;
  double distance_offset_m_ = 0.0;  // OU around mean_distance
  double shadowing_db_ = 0.0;       // OU around 0
  double blockage_remaining_s_ = 0.0;
  double partial_remaining_s_ = 0.0;
  ChannelSample current_;

  void refresh_sample();
};

}  // namespace wild5g::radio
