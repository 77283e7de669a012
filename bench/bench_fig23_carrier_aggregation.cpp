// Figure 23 (Appendix A.1): carrier aggregation and UE capability — PX5
// (4CC, X52) vs S20U (8CC, X55) downlink throughput, single and multiple
// connections, against the nearest carrier-hosted server.
#include <iostream>

#include "bench_common.h"
#include "geo/geo.h"
#include "net/speedtest.h"
#include "radio/ue.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "fig23_carrier_aggregation");
  bench::banner("Fig. 23", "UE carrier-aggregation capability (PX5 vs S20U)");
  bench::paper_note(
      "S20U's 8CC downlink lifts throughput 50-60% over PX5's 4CC"
      " (~3.4 Gbps vs ~2.2 Gbps multi-conn); UE specs do not move latency.");

  const net::SpeedtestServer server{.name = "Verizon, Minneapolis",
                                    .location = {44.98, -93.26},
                                    .carrier_hosted = true};
  Table& table = emitter.doc().open_table(
      "Downlink Mbps vs UE (nearest server, p95 of 10)",
      {"UE", "modem", "DL CCs", "single-conn", "multi-conn", "RTT ms"});

  double px5_multi = 0.0;
  double s20_multi = 0.0;
  for (const auto& ue : {radio::pixel5(), radio::galaxy_s20u()}) {
    if (!emitter.keep_going()) return emitter.exit_code();
    net::SpeedtestConfig config;
    config.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                      radio::DeploymentMode::kNsa};
    config.ue = ue;
    config.ue_location = geo::minneapolis().point;
    net::SpeedtestHarness harness(config);
    Rng rng(bench::kBenchSeed);
    const auto single =
        harness.peak_of(server, net::ConnectionMode::kSingle, 10, rng);
    const auto multi =
        harness.peak_of(server, net::ConnectionMode::kMultiple, 10, rng);
    table.add_row({ue.name, ue.modem,
                   std::to_string(ue.mmwave_dl_component_carriers),
                   Table::num(single.downlink_mbps, 0),
                   Table::num(multi.downlink_mbps, 0),
                   Table::num(multi.rtt_ms, 1)});
    if (ue.name == "PX5") px5_multi = multi.downlink_mbps;
    if (ue.name == "S20U") s20_multi = multi.downlink_mbps;
  }
  table.print(std::cout);

  bench::measured_note("S20U over PX5 = +" +
                       Table::num(100.0 * (s20_multi - px5_multi) / px5_multi,
                                  0) +
                       "% (paper: +50-60%)");
  return emitter.exit_code();
}
