#include "power/power_model.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace wild5g::power {

std::string to_string(RailKey key) {
  switch (key) {
    case RailKey::k4g: return "4G/LTE";
    case RailKey::kNsaLowBand: return "5G NSA Low-Band";
    case RailKey::kNsaMmWave: return "5G NSA mmWave";
    case RailKey::kSaLowBand: return "5G SA Low-Band";
  }
  return "?";
}

RailKey rail_key(const radio::NetworkConfig& config) {
  if (config.band == radio::Band::kLte) return RailKey::k4g;
  if (config.band == radio::Band::kNrMmWave) return RailKey::kNsaMmWave;
  return config.mode == radio::DeploymentMode::kSa ? RailKey::kSaLowBand
                                                   : RailKey::kNsaLowBand;
}

std::optional<double> crossover_mbps(const PowerRail& a, const PowerRail& b) {
  const double slope_gap = a.slope_mw_per_mbps - b.slope_mw_per_mbps;
  if (std::abs(slope_gap) < 1e-12) return std::nullopt;
  const double at = (b.base_mw - a.base_mw) / slope_gap;
  if (at < 0.0) return std::nullopt;
  return at;
}

double efficiency_uj_per_bit(double power_mw, double throughput_mbps) {
  require(throughput_mbps > 0.0,
          "efficiency_uj_per_bit: throughput must be positive");
  // P[mW] / (T[Mbps] * 1000) = (P*1e-3 W) / (T*1e6 bit/s) * 1e6 uJ/J.
  return power_mw / (throughput_mbps * 1000.0);
}

double signal_penalty(double rsrp_dbm, double good_rsrp_dbm,
                      double edge_rsrp_dbm, double max_penalty) {
  if (rsrp_dbm >= good_rsrp_dbm) return 0.0;
  const double span = good_rsrp_dbm - edge_rsrp_dbm;
  const double depth = std::min(span, good_rsrp_dbm - rsrp_dbm);
  return max_penalty * depth / span;
}

namespace {
constexpr std::size_t index_of(RailKey key) {
  return static_cast<std::size_t>(key);
}
}  // namespace

const DevicePowerProfile::RailPair& DevicePowerProfile::pair(
    RailKey key) const {
  const auto& p = rails_[index_of(key)];
  // Every rail evaluation passes through here: build the message only on
  // failure.
  WILD5G_REQUIRE(p.present, "DevicePowerProfile: no rail measured for " +
                                to_string(key) + " on " + name_);
  return p;
}

DevicePowerProfile::RailPair& DevicePowerProfile::pair(RailKey key) {
  return rails_[index_of(key)];
}

bool DevicePowerProfile::has_rail(RailKey key) const {
  return rails_[index_of(key)].present;
}

const PowerRail& DevicePowerProfile::rail(RailKey key,
                                          radio::Direction direction) const {
  const auto& p = pair(key);
  return direction == radio::Direction::kDownlink ? p.downlink : p.uplink;
}

double DevicePowerProfile::good_rsrp_dbm(RailKey key) const {
  return pair(key).good_rsrp_dbm;
}

double DevicePowerProfile::transfer_power_mw(RailKey key, double dl_mbps,
                                             double ul_mbps,
                                             double rsrp_dbm) const {
  require(dl_mbps >= 0.0 && ul_mbps >= 0.0,
          "transfer_power_mw: negative throughput");
  const auto& p = pair(key);
  const double penalty =
      signal_penalty(rsrp_dbm, p.good_rsrp_dbm, p.edge_rsrp_dbm);
  // The intercept (RF chain + modem active) is paid once; weak signal also
  // raises it moderately (PA bias, denser reference-signal processing).
  const double base =
      std::max(p.downlink.base_mw, p.uplink.base_mw) * (1.0 + 0.25 * penalty);
  const double variable = (p.downlink.slope_mw_per_mbps * dl_mbps +
                           p.uplink.slope_mw_per_mbps * ul_mbps) *
                          (1.0 + penalty);
  return base + variable;
}

DevicePowerProfile DevicePowerProfile::s20u() {
  DevicePowerProfile profile;
  profile.name_ = "S20U";
  // Slopes: Table 8. Bases: solve the Fig. 11 crossovers
  //   DL: mmWave x 4G at 187 Mbps, mmWave x LB at 189 Mbps
  //   UL: mmWave x 4G at 40 Mbps,  mmWave x LB at 123 Mbps
  // anchored at a 4G intercept of 800 mW DL / 700 mW UL.
  auto& lte = profile.pair(RailKey::k4g);
  lte = {.downlink = {14.55, 800.0},
         .uplink = {80.21, 700.0},
         .good_rsrp_dbm = -85.0,
         .edge_rsrp_dbm = -115.0,
         .present = true};
  auto& mm = profile.pair(RailKey::kNsaMmWave);
  mm = {.downlink = {1.81, 800.0 + (14.55 - 1.81) * 187.0},   // 3182.4
        .uplink = {9.42, 700.0 + (80.21 - 9.42) * 40.0},      // 3531.6
        .good_rsrp_dbm = -80.0,
        .edge_rsrp_dbm = -110.0,
        .present = true};
  auto& lb = profile.pair(RailKey::kNsaLowBand);
  lb = {.downlink = {13.52, mm.downlink.base_mw - (13.52 - 1.81) * 189.0},
        .uplink = {29.15, mm.uplink.base_mw - (29.15 - 9.42) * 123.0},
        .good_rsrp_dbm = -90.0,
        .edge_rsrp_dbm = -120.0,
        .present = true};
  // SA low-band: no Table-8 slope; same silicon as NSA low-band but no
  // dual-connectivity anchor, hence a slightly lower intercept.
  auto& sa = profile.pair(RailKey::kSaLowBand);
  sa = {.downlink = {13.52, lb.downlink.base_mw * 0.9},
        .uplink = {29.15, lb.uplink.base_mw * 0.9},
        .good_rsrp_dbm = -90.0,
        .edge_rsrp_dbm = -120.0,
        .present = true};
  return profile;
}

DevicePowerProfile DevicePowerProfile::s10() {
  DevicePowerProfile profile;
  profile.name_ = "S10";
  // Slopes: Table 8. Crossovers: Fig. 26 (DL 213 Mbps, UL 44 Mbps).
  auto& lte = profile.pair(RailKey::k4g);
  lte = {.downlink = {13.38, 750.0},
         .uplink = {57.99, 650.0},
         .good_rsrp_dbm = -85.0,
         .edge_rsrp_dbm = -115.0,
         .present = true};
  auto& mm = profile.pair(RailKey::kNsaMmWave);
  mm = {.downlink = {2.06, 750.0 + (13.38 - 2.06) * 213.0},   // 3161.2
        .uplink = {5.27, 650.0 + (57.99 - 5.27) * 44.0},      // 2969.7
        .good_rsrp_dbm = -80.0,
        .edge_rsrp_dbm = -110.0,
        .present = true};
  return profile;
}

}  // namespace wild5g::power
