// Figure 3: Verizon mmWave downlink throughput vs UE-server distance,
// single vs multiple TCP connections (S20U, 8CC, 95th-pct of 10 tests).
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "geo/geo.h"
#include "net/speedtest.h"
#include "radio/ue.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "fig03_downlink_distance");
  bench::banner("Fig. 3", "[Verizon mmWave] downlink vs UE-server distance");
  bench::paper_note(
      "Multiple connections sustain >3 Gbps across all US servers; a single"
      " connection reaches ~3 Gbps only near the server and decays with"
      " distance (RTT + loss vs CUBIC).");

  net::SpeedtestConfig config;
  config.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                    radio::DeploymentMode::kNsa};
  config.ue = radio::galaxy_s20u();
  config.ue_location = geo::minneapolis().point;
  config.faults = emitter.faults();
  net::SpeedtestHarness harness(config);

  // Sort servers by distance for a readable series.
  auto servers = net::carrier_server_pool();
  std::sort(servers.begin(), servers.end(), [&](const auto& a, const auto& b) {
    return geo::haversine_km(config.ue_location, a.location) <
           geo::haversine_km(config.ue_location, b.location);
  });

  Table& table = emitter.doc().open_table(
      "Downlink (Mbps, p95 of 10) vs distance",
      {"server", "km", "multi-conn", "single-conn", "RTT ms"});
  Rng rng(bench::kBenchSeed);

  // Server sweep: one task per server, two substreams forked up front
  // (multi- and single-connection campaigns); reductions in server order.
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

  double multi_min = 1e18;
  double single_near = 0.0;
  double single_far = 0.0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    if (!emitter.keep_going()) return emitter.exit_code();
    const double km =
        geo::haversine_km(config.ue_location, servers[i].location);
    const auto& [multi, single] = results[i];
    table.add_row({servers[i].name, Table::num(km, 0),
                   Table::num(multi.downlink_mbps, 0),
                   Table::num(single.downlink_mbps, 0),
                   Table::num(multi.rtt_ms, 1)});
    multi_min = std::min(multi_min, multi.downlink_mbps);
    if (km < 100.0) single_near = single.downlink_mbps;
    single_far = single.downlink_mbps;  // last (farthest) after sort
  }
  table.print(std::cout);

  bench::measured_note("multi-conn minimum across servers = " +
                       Table::num(multi_min, 0) +
                       " Mbps (paper: >3000 Mbps everywhere)");
  bench::measured_note("single-conn near/far = " + Table::num(single_near, 0) +
                       " / " + Table::num(single_far, 0) +
                       " Mbps (paper: ~3 Gbps near, decaying with distance)");
  return emitter.exit_code();
}
