// wild5g_study: regenerate the study's datasets as CSV files, in the spirit
// of the paper's released artifact (per-experiment folders of data).
//
//   ./build/tools/wild5g_study <output-dir> [seed]
//
// Writes:
//   speedtest_verizon.csv    Figs. 1-4: per-server RTT/downlink/uplink
//   speedtest_tmobile.csv    Figs. 5-7: SA vs NSA low-band
//   handoffs.csv             Fig. 9: per-setting handoff counts
//   rrc_probe.csv            Figs. 10/25: gap -> RTT samples, all configs
//   traces_5g.csv            Sec. 5: the 121-trace mmWave population
//   traces_4g.csv            Sec. 5: the 175-trace LTE population
//   walking_campaign.csv     Sec. 4.4: throughput/RSRP/power log
//   web_measurements.csv     Sec. 6: per-site PLT and energy on both radios
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/integer.h"
#include "core/table.h"
#include "geo/geo.h"
#include "mobility/drive.h"
#include "mobility/route.h"
#include "net/speedtest.h"
#include "power/campaign.h"
#include "radio/ue.h"
#include "rrc/probe.h"
#include "traces/trace_io.h"
#include "web/selector.h"

using namespace wild5g;

namespace {

void write_table(const std::filesystem::path& path, const Table& table) {
  std::ofstream out(path);
  require(out.good(), "wild5g_study: cannot write " + path.string());
  table.write_csv(out);
  std::cout << "  wrote " << path.string() << " (" << table.row_count()
            << " rows)\n";
}

Table speedtest_table(const radio::Carrier carrier,
                      std::span<const radio::NetworkConfig> networks,
                      std::uint64_t seed) {
  Table table(radio::to_string(carrier));
  table.set_header({"server", "distance_km", "network", "mode", "rtt_ms",
                    "downlink_mbps", "uplink_mbps"});
  const auto ue_location = geo::minneapolis().point;
  Rng rng(seed);
  for (const auto& network : networks) {
    net::SpeedtestConfig config;
    config.network = network;
    config.ue = radio::galaxy_s20u();
    config.ue_location = ue_location;
    if (network.band != radio::Band::kNrMmWave) {
      config.session_rsrp_mean_dbm = -84.0;
    }
    net::SpeedtestHarness harness(config);
    for (const auto& server : net::carrier_server_pool()) {
      const double km = geo::haversine_km(ue_location, server.location);
      for (const auto mode : {net::ConnectionMode::kMultiple,
                              net::ConnectionMode::kSingle}) {
        const auto result = harness.peak_of(server, mode, 10, rng);
        table.add_row({server.name, Table::num(km, 1),
                       radio::to_string(network),
                       mode == net::ConnectionMode::kMultiple ? "multi"
                                                              : "single",
                       Table::num(result.rtt_ms, 2),
                       Table::num(result.downlink_mbps, 1),
                       Table::num(result.uplink_mbps, 1)});
      }
    }
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: wild5g_study <output-dir> [seed]\n";
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::filesystem::path out_dir = argv[1];
  std::uint64_t seed = 20210823;
  try {
    if (argc > 2) {
      seed = integer_from_text<std::uint64_t>(argv[2], "wild5g_study: seed",
                                              0, UINT64_MAX);
    }
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << kUsage;
    return 2;
  }
  std::filesystem::create_directories(out_dir);
  std::cout << "Regenerating the study datasets into " << out_dir
            << " (seed " << seed << ")\n";

  // --- Sec. 3: speedtest campaigns. ---
  {
    using radio::Band;
    using radio::Carrier;
    using radio::DeploymentMode;
    const std::vector<radio::NetworkConfig> verizon = {
        {Carrier::kVerizon, Band::kNrMmWave, DeploymentMode::kNsa},
        {Carrier::kVerizon, Band::kNrLowBand, DeploymentMode::kNsa},
        {Carrier::kVerizon, Band::kLte, DeploymentMode::kNsa}};
    write_table(out_dir / "speedtest_verizon.csv",
                speedtest_table(Carrier::kVerizon, verizon, seed));
    const std::vector<radio::NetworkConfig> tmobile = {
        {Carrier::kTMobile, Band::kNrLowBand, DeploymentMode::kNsa},
        {Carrier::kTMobile, Band::kNrLowBand, DeploymentMode::kSa}};
    write_table(out_dir / "speedtest_tmobile.csv",
                speedtest_table(Carrier::kTMobile, tmobile, seed + 1));
  }

  // --- Sec. 3.3: drive handoffs. ---
  {
    Table table("handoffs");
    table.set_header({"setting", "drive", "total", "horizontal", "vertical"});
    for (const auto setting :
         {mobility::BandSetting::kSaOnly, mobility::BandSetting::kNsaPlusLte,
          mobility::BandSetting::kLteOnly, mobility::BandSetting::kSaPlusLte,
          mobility::BandSetting::kAllBands}) {
      for (int drive = 0; drive < 4; ++drive) {
        Rng rng(seed + static_cast<std::uint64_t>(drive));
        const auto route = mobility::driving_route(rng);
        const auto result = mobility::simulate_drive(setting, route, rng);
        table.add_row({mobility::to_string(setting), std::to_string(drive),
                       std::to_string(result.total_handoffs()),
                       std::to_string(result.horizontal_handoffs()),
                       std::to_string(result.vertical_handoffs())});
      }
    }
    write_table(out_dir / "handoffs.csv", table);
  }

  // --- Sec. 4: RRC probe samples. ---
  {
    Table table("rrc_probe");
    table.set_header({"network", "gap_ms", "rtt_ms", "true_state"});
    for (const auto& profile : rrc::table7_profiles()) {
      auto schedule = rrc::schedule_for(profile.config);
      schedule.repeats = 21;
      Rng rng(seed);
      for (const auto& sample :
           rrc::run_probe(profile.config, schedule, rng)) {
        table.add_row({profile.config.name, Table::num(sample.gap_ms, 0),
                       Table::num(sample.rtt_ms, 2),
                       rrc::to_string(sample.true_state)});
      }
    }
    write_table(out_dir / "rrc_probe.csv", table);
  }

  // --- Sec. 5: trace populations. ---
  {
    Rng rng(seed);
    const auto mm =
        traces::generate_traces(traces::lumos5g_mmwave_config(), rng);
    traces::save_traces_csv((out_dir / "traces_5g.csv").string(), mm);
    std::cout << "  wrote " << (out_dir / "traces_5g.csv").string() << " ("
              << mm.size() << " traces)\n";
    Rng rng2(seed + 1);
    const auto lte =
        traces::generate_traces(traces::lumos5g_lte_config(), rng2);
    traces::save_traces_csv((out_dir / "traces_4g.csv").string(), lte);
    std::cout << "  wrote " << (out_dir / "traces_4g.csv").string() << " ("
              << lte.size() << " traces)\n";
  }

  // --- Sec. 4.4: walking campaign. ---
  {
    power::WalkingCampaignConfig campaign;
    campaign.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                        radio::DeploymentMode::kNsa};
    campaign.ue = radio::galaxy_s20u();
    Rng rng(seed);
    const auto samples = power::run_walking_campaign(
        campaign, power::DevicePowerProfile::s20u(), rng);
    std::ofstream out(out_dir / "walking_campaign.csv");
    require(out.good(), "wild5g_study: cannot write walking_campaign.csv");
    traces::write_campaign_csv(out, samples);
    std::cout << "  wrote " << (out_dir / "walking_campaign.csv").string()
              << " (" << samples.size() << " samples)\n";
  }

  // --- Sec. 6: web measurements. ---
  {
    Rng rng(seed);
    const auto corpus = web::generate_corpus(400, rng);
    const auto measurements = web::measure_corpus(
        corpus, 4, power::DevicePowerProfile::s10(), rng);
    Table table("web");
    table.set_header({"domain", "objects", "page_mb", "dynamic_fraction",
                      "plt_4g_s", "plt_5g_s", "energy_4g_j", "energy_5g_j"});
    for (const auto& m : measurements) {
      table.add_row({m.site.domain, std::to_string(m.site.object_count),
                     Table::num(m.site.total_page_size_mb, 2),
                     Table::num(m.site.dynamic_object_fraction(), 3),
                     Table::num(m.plt_4g_s, 3), Table::num(m.plt_5g_s, 3),
                     Table::num(m.energy_4g_j, 3),
                     Table::num(m.energy_5g_j, 3)});
    }
    write_table(out_dir / "web_measurements.csv", table);
  }

  std::cout << "Done.\n";
  return 0;
}
