// wild5g/core: unit conventions and conversion helpers.
//
// The library passes physical quantities as plain doubles with the unit fixed
// by the parameter/variable name suffix:
//   *_mbps   throughput in megabits per second
//   *_ms     time in milliseconds
//   *_s      time in seconds
//   *_km     distance in kilometers
//   *_m      distance in meters
//   *_mw     power in milliwatts
//   *_w      power in watts
//   *_j      energy in joules
//   *_dbm    received signal power (RSRP) in dBm
//   *_mhz    bandwidth in MHz
// These helpers keep the conversions in one audited place.
#pragma once

namespace wild5g {

inline constexpr double kBitsPerMegabit = 1e6;
inline constexpr double kMsPerSecond = 1e3;

/// Megabits/second -> bits/second.
constexpr double mbps_to_bps(double mbps) { return mbps * kBitsPerMegabit; }
/// Bits/second -> megabits/second.
constexpr double bps_to_mbps(double bps) { return bps / kBitsPerMegabit; }
/// Milliwatts -> watts.
constexpr double mw_to_w(double mw) { return mw / 1e3; }
/// Watts -> milliwatts.
constexpr double w_to_mw(double w) { return w * 1e3; }
/// Milliseconds -> seconds.
constexpr double ms_to_s(double ms) { return ms / kMsPerSecond; }
/// Seconds -> milliseconds.
constexpr double s_to_ms(double s) { return s * kMsPerSecond; }
/// Kilometers -> meters.
constexpr double km_to_m(double km) { return km * 1e3; }
/// Meters -> kilometers.
constexpr double m_to_km(double m) { return m / 1e3; }

}  // namespace wild5g
