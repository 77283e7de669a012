// Figure 4: Verizon mmWave uplink throughput vs UE-server distance.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "geo/geo.h"
#include "net/speedtest.h"
#include "radio/ue.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "fig04_uplink_distance");
  bench::banner("Fig. 4", "[Verizon mmWave] uplink vs UE-server distance");
  bench::paper_note(
      "Both single and multiple connection uplink tests reach ~220 Mbps"
      " (3-4x over the 2019 baseline); distance matters far less than on"
      " the downlink because the rate is radio-limited, not BDP-limited.");

  net::SpeedtestConfig config;
  config.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                    radio::DeploymentMode::kNsa};
  config.ue = radio::galaxy_s20u();
  config.ue_location = geo::minneapolis().point;
  net::SpeedtestHarness harness(config);

  auto servers = net::carrier_server_pool();
  std::sort(servers.begin(), servers.end(), [&](const auto& a, const auto& b) {
    return geo::haversine_km(config.ue_location, a.location) <
           geo::haversine_km(config.ue_location, b.location);
  });

  Table& table = emitter.doc().open_table(
      "Uplink (Mbps, p95 of 10) vs distance",
      {"server", "km", "multi-conn", "single-conn"});
  Rng rng(bench::kBenchSeed);

  // Server sweep: one task per server, per-task substreams forked up front;
  // table rows and the peak scan run in server order on this thread.
  struct ServerResult {
    net::SpeedtestResult multi;
    net::SpeedtestResult single;
  };
  Rng base = rng.split();
  const auto results =
      parallel::parallel_map(servers.size(), [&](std::size_t i) {
        Rng multi_rng = base.fork(2 * i);
        Rng single_rng = base.fork(2 * i + 1);
        return ServerResult{
            harness.peak_of(servers[i], net::ConnectionMode::kMultiple, 10,
                            multi_rng),
            harness.peak_of(servers[i], net::ConnectionMode::kSingle, 10,
                            single_rng)};
      });
  double peak = 0.0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (!emitter.keep_going()) return emitter.exit_code();
    const double km =
        geo::haversine_km(config.ue_location, servers[i].location);
    table.add_row({servers[i].name, Table::num(km, 0),
                   Table::num(results[i].multi.uplink_mbps, 0),
                   Table::num(results[i].single.uplink_mbps, 0)});
    peak = std::max(peak, results[i].multi.uplink_mbps);
  }
  table.print(std::cout);
  bench::measured_note("peak uplink = " + Table::num(peak, 0) +
                       " Mbps (paper: ~220 Mbps)");
  return emitter.exit_code();
}
