// Figures 5-7: T-Mobile low-band SA vs NSA — latency, downlink, uplink vs
// UE-server distance.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "geo/geo.h"
#include "net/speedtest.h"
#include "radio/ue.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "fig05_07_tmobile_sa_nsa");
  bench::banner("Fig. 5-7",
                "[T-Mobile] SA vs NSA low-band: RTT / downlink / uplink");
  bench::paper_note(
      "No significant RTT difference between SA and NSA low-band; SA reaches"
      " only about half the NSA downlink and uplink throughput (no carrier"
      " aggregation, immature SA core).");

  const auto ue_location = geo::minneapolis().point;
  auto servers = net::carrier_server_pool();
  std::sort(servers.begin(), servers.end(), [&](const auto& a, const auto& b) {
    return geo::haversine_km(ue_location, a.location) <
           geo::haversine_km(ue_location, b.location);
  });

  auto make_harness = [&](radio::DeploymentMode mode) {
    net::SpeedtestConfig config;
    config.network = {radio::Carrier::kTMobile, radio::Band::kNrLowBand,
                      mode};
    config.ue = radio::galaxy_s20u();
    config.ue_location = ue_location;
    config.session_rsrp_mean_dbm = -84.0;
    return net::SpeedtestHarness(config);
  };
  const auto nsa = make_harness(radio::DeploymentMode::kNsa);
  const auto sa = make_harness(radio::DeploymentMode::kSa);

  Table& table = emitter.doc().open_table(
      "T-Mobile low-band, p95 of 10 tests (multi-conn)",
      {"server", "km", "NSA rtt", "SA rtt", "NSA dl", "SA dl", "NSA ul",
       "SA ul"});
  Rng rng(bench::kBenchSeed);

  double dl_ratio = 0.0;
  double ul_ratio = 0.0;
  double rtt_gap = 0.0;
  int rows = 0;
  for (const auto& server : servers) {
    if (!emitter.keep_going()) return emitter.exit_code();
    const double km = geo::haversine_km(ue_location, server.location);
    const auto r_nsa =
        nsa.peak_of(server, net::ConnectionMode::kMultiple, 10, rng);
    const auto r_sa =
        sa.peak_of(server, net::ConnectionMode::kMultiple, 10, rng);
    table.add_row({server.name, Table::num(km, 0),
                   Table::num(r_nsa.rtt_ms, 1), Table::num(r_sa.rtt_ms, 1),
                   Table::num(r_nsa.downlink_mbps, 0),
                   Table::num(r_sa.downlink_mbps, 0),
                   Table::num(r_nsa.uplink_mbps, 0),
                   Table::num(r_sa.uplink_mbps, 0)});
    dl_ratio += r_sa.downlink_mbps / r_nsa.downlink_mbps;
    ul_ratio += r_sa.uplink_mbps / r_nsa.uplink_mbps;
    rtt_gap += r_sa.rtt_ms - r_nsa.rtt_ms;
    ++rows;
  }
  table.print(std::cout);

  bench::measured_note("mean SA/NSA downlink ratio = " +
                       Table::num(dl_ratio / rows, 2) + " (paper: ~0.5)");
  bench::measured_note("mean SA/NSA uplink ratio = " +
                       Table::num(ul_ratio / rows, 2) + " (paper: ~0.5)");
  bench::measured_note("mean SA-NSA RTT gap = " +
                       Table::num(rtt_gap / rows, 2) +
                       " ms (paper: no significant difference)");
  return emitter.exit_code();
}
