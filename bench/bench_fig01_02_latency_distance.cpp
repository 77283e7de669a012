// Figures 1 & 2: RTT vs UE-server distance for Verizon mmWave, low-band 5G,
// and 4G/LTE, over the carrier-hosted speedtest server network (UE pinned in
// Minneapolis).
#include <iostream>

#include "bench_common.h"
#include "core/stats.h"
#include "geo/geo.h"
#include "net/speedtest.h"
#include "radio/ue.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "fig01_02_latency_distance");
  bench::banner("Fig. 1 + Fig. 2", "Impact of UE-Server distance on RTT");
  bench::paper_note(
      "RTT ~6 ms at the nearest (~3 km) server, roughly doubling by ~320 km;"
      " low-band adds ~6-8 ms over mmWave; LTE adds a further 6-15 ms.");

  const auto ue_location = geo::minneapolis().point;
  const auto servers = net::carrier_server_pool();

  struct RadioRow {
    std::string label;
    radio::NetworkConfig network;
  };
  const std::vector<RadioRow> radios = {
      {"mmWave", {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                  radio::DeploymentMode::kNsa}},
      {"Low-Band", {radio::Carrier::kVerizon, radio::Band::kNrLowBand,
                    radio::DeploymentMode::kNsa}},
      {"LTE/4G", {radio::Carrier::kVerizon, radio::Band::kLte,
                  radio::DeploymentMode::kNsa}},
  };

  Table& table = emitter.doc().open_table(
      "Fig. 2 [Verizon] RTT (ms, 5th pct of 10 tests) vs distance",
      {"server", "km", "mmWave", "Low-Band", "LTE/4G"});

  std::vector<double> distances;
  std::vector<std::vector<double>> rtts(radios.size());
  Rng rng(bench::kBenchSeed);

  for (const auto& server : servers) {
    if (!emitter.keep_going()) return emitter.exit_code();
    const double km = geo::haversine_km(ue_location, server.location);
    std::vector<std::string> row{server.name, Table::num(km, 0)};
    for (std::size_t r = 0; r < radios.size(); ++r) {
      net::SpeedtestConfig config;
      config.network = radios[r].network;
      config.ue = radio::galaxy_s20u();
      config.ue_location = ue_location;
      config.session_rsrp_mean_dbm =
          radios[r].network.band == radio::Band::kNrMmWave ? -76.0 : -84.0;
      net::SpeedtestHarness harness(config);
      const auto result =
          harness.peak_of(server, net::ConnectionMode::kSingle, 10, rng);
      row.push_back(Table::num(result.rtt_ms, 1));
      rtts[r].push_back(result.rtt_ms);
    }
    distances.push_back(km);
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  // Headline comparisons.
  const auto fit_mm = stats::linear_fit(distances, rtts[0]);
  double min_mm = 1e9;
  for (double v : rtts[0]) min_mm = std::min(min_mm, v);
  double lb_gap = 0.0;
  double lte_gap = 0.0;
  for (std::size_t i = 0; i < distances.size(); ++i) {
    lb_gap += rtts[1][i] - rtts[0][i];
    lte_gap += rtts[2][i] - rtts[1][i];
  }
  lb_gap /= static_cast<double>(distances.size());
  lte_gap /= static_cast<double>(distances.size());

  bench::measured_note("min mmWave RTT (nearest server) = " +
                       Table::num(min_mm, 1) + " ms (paper: ~6 ms)");
  bench::measured_note("RTT-vs-distance slope = " +
                       Table::num(fit_mm.slope * 1000.0, 1) +
                       " ms per 1000 km (r2 = " +
                       Table::num(fit_mm.r_squared, 3) + ")");
  bench::measured_note("low-band adds " + Table::num(lb_gap, 1) +
                       " ms over mmWave (paper: 6-8 ms)");
  bench::measured_note("LTE adds " + Table::num(lte_gap, 1) +
                       " ms over low-band (paper: 6-15 ms over 5G)");
  return emitter.exit_code();
}
