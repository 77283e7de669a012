// wild5g/web: page-load simulation over a radio (Sec. 6's measurement).
//
// Loads a website over mmWave 5G or 4G: connection setup, objects fetched in
// dependency rounds over a parallel-connection pool, per-object slow-start
// cost (small objects cannot fill a fat pipe), and server think time for
// dynamic objects. Produces the two Sec.-6 QoE metrics: page load time and
// radio energy (from the device power rails over the transfer timeline).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "faults/injector.h"
#include "power/power_model.h"
#include "radio/types.h"
#include "radio/ue.h"
#include "web/website.h"

namespace wild5g::web {

struct PageLoadConfig {
  radio::NetworkConfig network;
  radio::UeProfile ue;
  double rtt_ms = 26.0;             // UE to web server (CDN-close)
  double rsrp_dbm = -80.0;
  /// HTTP/2-style multiplexing: all objects of a round stream over one warm
  /// connection (one request round-trip per round, no per-object slow-start
  /// ramps). Narayanan et al. [39] studied protocol versions over mmWave;
  /// this knob reproduces that comparison (see bench_extension_http2).
  bool multiplexed = false;
  /// Optional fault injector (not owned; null = no faults). Object fetches
  /// that the injector fails occupy their connection slot for 2 s (the
  /// client's give-up deadline), transfer no bytes, and are counted in
  /// PageLoadResult::failed_objects — the page still completes, with the
  /// timeout folded into PLT like a real browser's error-and-continue
  /// behavior.
  const faults::Injector* faults = nullptr;
  /// Keys the injector's per-object failure decisions; give each page of a
  /// corpus a distinct salt (e.g. its site index) so one plan fails
  /// different object subsets on different pages.
  std::uint64_t fault_salt = 0;
};

/// Defaults for the paper's two settings: stationary LoS Verizon mmWave 5G
/// and Verizon 4G, on the rooted PX5.
[[nodiscard]] PageLoadConfig mmwave_page_config();
[[nodiscard]] PageLoadConfig lte_page_config();

struct PageLoadResult {
  double plt_s = 0.0;
  double energy_j = 0.0;
  /// Object fetches the fault injector failed (0 without an injector).
  int failed_objects = 0;
  /// Downlink megabits transferred per integral second (for power models).
  std::vector<double> per_second_dl_mbps;
};

/// Simulates one page load; deterministic in `rng`.
[[nodiscard]] PageLoadResult load_page(const Website& site,
                                       const PageLoadConfig& config,
                                       const power::DevicePowerProfile& device,
                                       Rng& rng);

}  // namespace wild5g::web
