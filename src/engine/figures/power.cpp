// Sec. 4 power: RRC transition power (Table 2), throughput-power curves and
// energy efficiency (Figs. 11-14, 26-27, Table 8), the data-driven power
// models and software monitors (Figs. 15-16, Tables 3/9), and the
// power-model capacity ablation.
#include <algorithm>
#include <cmath>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/quantile_sketch.h"
#include "core/rng.h"
#include "core/stats.h"
#include "engine/figures/figure.h"
#include "power/campaign.h"
#include "power/fitting.h"
#include "power/monitor.h"
#include "power/power_model.h"
#include "power/waveform.h"
#include "radio/ue.h"
#include "rrc/state_machine.h"

namespace wild5g::engine::figures {

namespace {

using power::DevicePowerProfile;
using power::RailKey;
using radio::Direction;

/// Figs. 11, 12 and 26/27 run one direction per step.
constexpr Direction kDirections[] = {Direction::kDownlink, Direction::kUplink};

}  // namespace

// Table 2: power during RRC state transitions — tail power and 4G->5G
// switch power, measured from the synthesized Monsoon waveform using the
// paper's single-burst methodology. Each network's waveform reseeds from
// the seed: one step per network.
void table2_transition_power(FigureRun& run) {
  if (run.first()) {
    run.banner("Table 2", "Power during RRC state transitions");
    run.paper(
        "Tail power (mW): Verizon 4G 178, T-Mobile 4G 66, Verizon NSA"
        " low-band 249, Verizon NSA mmWave 1092, T-Mobile NSA low-band 260,"
        " T-Mobile SA low-band 593. 4G->5G switch: 799/1494/699/245 mW.");
  }
  Table& table = run.doc.open_table(
      "Measured from single-burst waveform (5 kHz)",
      {"network", "tail mW (paper)", "tail mW (measured)", "switch mW (paper)",
       "switch mW (measured)"});

  const auto& profile = rrc::table7_profiles()[run.step];
  const auto& config = profile.config;
  // UE idles 20 s (forced to RRC_IDLE), a server packet promotes it, a
  // short transfer runs, then the monitor captures the full tail.
  const std::vector<rrc::ActivityBurst> bursts = {
      {20000.0, 24000.0, 200.0, 8.0}};
  const double horizon =
      24000.0 + config.anchor_tail_ms.value_or(config.inactivity_timer_ms) +
      config.inactive_hold_ms.value_or(0.0) + 8000.0;
  power::WaveformSynthesizer synth(profile, DevicePowerProfile::s20u());
  Rng rng(run.seed);
  const auto trace =
      synth.synthesize(rrc::build_timeline(config, bursts, horizon), rng);

  const double tail_measured = trace.average_mw(
      24.2, 24.0 + config.inactivity_timer_ms / 1000.0 - 0.2);

  std::string switch_measured = "N/A";
  std::string switch_paper = "N/A";
  if (config.is_nsa_5g() || config.is_sa()) {
    const double promo_s = config.promotion_5g_ms.value_or(
                               config.promotion_4g_ms.value_or(300.0)) /
                           1000.0;
    switch_measured =
        Table::num(trace.average_mw(20.02, 20.0 + promo_s * 0.95), 0);
    switch_paper = Table::num(profile.power.switch_mw, 0);
  }
  table.add_row({config.name, Table::num(profile.power.tail_mw, 0),
                 Table::num(tail_measured, 0), switch_paper,
                 switch_measured});
  if (!run.last()) return;
  table.print(run.out);
  run.repro(
      "5G tails cost more than 4G (mmWave most of all), and the 4G->5G"
      " switch adds a further burst, matching the paper's conclusion that"
      " intermittent transfer patterns should avoid 5G.");
}

// Figure 11: throughput vs power for 4G, NSA low-band 5G, and NSA mmWave 5G
// (S20U, Verizon), downlink and uplink, including the crossover points.
void fig11_throughput_power(FigureRun& run) {
  if (run.first()) {
    run.banner("Fig. 11", "Throughput vs power for 4G and 5G (S20U)");
    run.paper(
        "Power rises linearly with throughput on every radio; mmWave's slope"
        " is far shallower, so it crosses below 4G at 187 Mbps (DL) / 40 Mbps"
        " (UL) and below low-band 5G at 189 / 123 Mbps.");
  }
  const auto device = DevicePowerProfile::s20u();
  const Direction direction = kDirections[run.step];
  const bool dl = direction == Direction::kDownlink;
  const double max_mbps = dl ? 2000.0 : 200.0;
  const double step_mbps = dl ? 200.0 : 20.0;

  const std::string dir_label = radio::to_string(direction);
  Table table("S20U " + dir_label + ": power (W) vs throughput (Mbps)");
  table.set_header({"Mbps", "mmWave 5G", "Low-Band 5G", "4G/LTE"});
  for (double t = 0.0; t <= max_mbps + 1e-9; t += step_mbps) {
    auto cell = [&](RailKey key, double cap) {
      if (t > cap) return std::string("-");
      return Table::num(device.rail(key, direction).power_mw(t) / 1000.0, 2);
    };
    table.add_row({Table::num(t, 0),
                   cell(RailKey::kNsaMmWave, dl ? 2200.0 : 230.0),
                   cell(RailKey::kNsaLowBand, dl ? 220.0 : 110.0),
                   cell(RailKey::k4g, dl ? 200.0 : 90.0)});
  }
  run.report(table);

  const auto mm = device.rail(RailKey::kNsaMmWave, direction);
  const auto lte = device.rail(RailKey::k4g, direction);
  const auto lb = device.rail(RailKey::kNsaLowBand, direction);
  run.repro(dir_label + " crossover mmWave x 4G = " +
            Table::num(*power::crossover_mbps(mm, lte), 1) +
            " Mbps, mmWave x low-band = " +
            Table::num(*power::crossover_mbps(mm, lb), 1) + " Mbps");
}

// Figure 12: throughput vs energy efficiency (energy per bit, log-log) for
// 4G and 5G on S20U, plus the headline low/high-throughput comparisons.
void fig12_energy_efficiency(FigureRun& run) {
  if (run.first()) {
    run.banner("Fig. 12", "Throughput vs energy efficiency (S20U)");
    run.paper(
        "log E is linear in log T with slope -> -1 at low throughput; over"
        " downlink (uplink) 5G is ~79% (74%) less energy-efficient than 4G at"
        " low throughput but up to 5x (2x) more efficient at high throughput."
        " Note: we report J/bit computed from radio power, so absolute values"
        " differ from the paper's axis; the shape and ratios are the result.");
  }
  const auto s20u = DevicePowerProfile::s20u();
  const Direction direction = kDirections[run.step];
  const bool dl = direction == Direction::kDownlink;
  Table table("S20U " + radio::to_string(direction) +
              ": energy per bit (uJ/bit) vs throughput");
  table.set_header({"Mbps", "mmWave 5G", "Low-Band 5G", "4G/LTE"});
  for (double t = 1.0; t <= (dl ? 2048.0 : 256.0); t *= 2.0) {
    auto cell = [&](RailKey key, double cap) {
      if (t > cap) return std::string("-");
      const double p = s20u.rail(key, direction).power_mw(t);
      return Table::num(power::efficiency_uj_per_bit(p, t), 4);
    };
    table.add_row({Table::num(t, 0),
                   cell(RailKey::kNsaMmWave, dl ? 2200.0 : 230.0),
                   cell(RailKey::kNsaLowBand, dl ? 220.0 : 110.0),
                   cell(RailKey::k4g, dl ? 200.0 : 90.0)});
  }
  run.report(table);

  // Headline ratios: at low throughput and at each link's high end.
  const double low_t = dl ? 8.0 : 4.0;
  const auto mm = s20u.rail(RailKey::kNsaMmWave, direction);
  const auto lte = s20u.rail(RailKey::k4g, direction);
  const double e_mm_low =
      power::efficiency_uj_per_bit(mm.power_mw(low_t), low_t);
  const double e_lte_low =
      power::efficiency_uj_per_bit(lte.power_mw(low_t), low_t);
  const double high_mm = dl ? 1500.0 : 200.0;
  const double high_lte = dl ? 150.0 : 40.0;
  const double e_mm_high =
      power::efficiency_uj_per_bit(mm.power_mw(high_mm), high_mm);
  const double e_lte_high =
      power::efficiency_uj_per_bit(lte.power_mw(high_lte), high_lte);
  run.repro(radio::to_string(direction) + ": at low rate 5G is " +
            Table::num(100.0 * (1.0 - e_lte_low / e_mm_low), 0) +
            "% less efficient than 4G; at each link's high end 5G is " +
            Table::num(e_lte_high / e_mm_high, 1) + "x more efficient");

  // Log-log slope at the low end.
  const double e1 = power::efficiency_uj_per_bit(mm.power_mw(1.0), 1.0);
  const double e4 = power::efficiency_uj_per_bit(mm.power_mw(4.0), 4.0);
  run.repro("  log-log slope at low rate = " +
            Table::num((std::log10(e4) - std::log10(e1)) / std::log10(4.0),
                       2) +
            " (theory: -> -1)");
}

// Figures 13 & 14: power-RSRP-throughput relationship from walking
// campaigns in two cities (Ann Arbor S10 mmWave-only, Minneapolis S20U
// mmWave + low-band), and energy efficiency per NR-SS-RSRP bin. Each city
// seeds its own walks (seed, seed + 1): one step per city.
void fig13_14_rsrp_power(FigureRun& run) {
  if (run.first()) {
    run.banner("Fig. 13 + Fig. 14",
               "Power-RSRP-throughput relationship (walking campaigns)");
    run.paper(
        "Higher throughput costs more power; weaker RSRP costs more energy"
        " per bit (Fig. 14's energy/bit falls as NR-SS-RSRP improves)."
        " Minneapolis shows two clusters: low-band (low power, low rate) vs"
        " mmWave (high power, high rate).");
  }
  const radio::NetworkConfig mmwave{radio::Carrier::kVerizon,
                                    radio::Band::kNrMmWave,
                                    radio::DeploymentMode::kNsa};
  const radio::NetworkConfig lowband{radio::Carrier::kVerizon,
                                     radio::Band::kNrLowBand,
                                     radio::DeploymentMode::kNsa};
  struct City {
    std::string name;
    std::vector<power::WalkingCampaignConfig> configs;
    DevicePowerProfile device;
  };
  const City city =
      run.first()
          ? City{"Ann Arbor, MI",
                 {{.network = mmwave, .ue = radio::galaxy_s10()}},
                 DevicePowerProfile::s10()}
          : City{"Minneapolis, MN",
                 {{.network = mmwave, .ue = radio::galaxy_s20u()},
                  {.network = lowband, .ue = radio::galaxy_s20u()}},
                 DevicePowerProfile::s20u()};
  const std::uint64_t seed = run.seed + run.step;

  std::vector<power::CampaignSample> all;
  for (std::size_t i = 0; i < city.configs.size(); ++i) {
    for (int trace = 0; trace < 10; ++trace) {  // 10 loops per setting
      Rng rng = Rng(seed).fork(i * 100 + static_cast<std::uint64_t>(trace));
      const auto samples =
          power::run_walking_campaign(city.configs[i], city.device, rng);
      all.insert(all.end(), samples.begin(), samples.end());
    }
  }

  // Fig. 13 view: joint distribution summary per RSRP band.
  Table fig13(city.name + " - power vs RSRP vs throughput (" +
              city.device.device_name() + ")");
  fig13.set_header({"RSRP bin (dBm)", "samples", "mean dl Mbps",
                    "mean power W", "p90 power W"});
  // Fig. 14 view: energy per bit by RSRP bin.
  Table fig14(city.name + " - energy efficiency vs NR-SS-RSRP");
  fig14.set_header({"RSRP bin (dBm)", "median uJ/bit"});

  for (double lo = -110.0; lo < -70.0; lo += 5.0) {
    // Tens of thousands of samples land in the busy bins; the accumulator
    // spills them into the quantile sketch instead of hoarding vectors.
    stats::SampleAccumulator powers;
    stats::SampleAccumulator tputs;
    stats::SampleAccumulator uj_per_bit;
    for (const auto& s : all) {
      if (s.rsrp_dbm < lo || s.rsrp_dbm >= lo + 5.0) continue;
      powers.add(s.power_mw / 1000.0);
      tputs.add(s.dl_mbps);
      if (s.dl_mbps > 0.5) {
        uj_per_bit.add(s.power_mw / (s.dl_mbps * 1000.0));
      }
    }
    if (powers.count() < 20) continue;
    // Appended piecewise: GCC 12's -Wrestrict misfires on
    // `"[" + std::string&&` at -O3, and CI builds with -Werror.
    std::string bin = "[";
    bin += Table::num(lo, 0);
    bin += ",";
    bin += Table::num(lo + 5.0, 0);
    bin += ")";
    fig13.add_row({bin, std::to_string(powers.count()),
                   Table::num(tputs.mean(), 0),
                   Table::num(powers.mean(), 2),
                   Table::num(powers.percentile(90.0), 2)});
    if (!uj_per_bit.empty()) {
      fig14.add_row({bin, Table::num(uj_per_bit.median(), 4)});
    }
  }
  run.report(fig13);
  run.report(fig14);
  if (!run.last()) return;
  run.repro(
      "energy/bit decreases monotonically with RSRP in both cities;"
      " Minneapolis mixes the low-band cluster into the low-RSRP bins.");
}

// Figures 15 & 16: power-model accuracy (MAPE) for TH+SS vs TH-only vs
// SS-only across the five device/carrier/network settings, and software-
// monitor calibration at 1 Hz and 10 Hz.
void fig15_16_power_models(FigureRun& run) {
  run.banner("Fig. 15 + Fig. 16",
             "Power-model MAPE by feature set; software calibration");
  run.paper(
      "TH+SS beats TH-only and (by a wide margin) SS-only on every"
      " configuration; SS-only is worst on mmWave where throughput spans"
      " 3 Gbps. Calibrated software monitoring approaches hardware accuracy,"
      " with 10 Hz beating 1 Hz.");

  struct Setting {
    std::string label;  // device/carrier/network, as in the figure
    radio::NetworkConfig network;
    radio::UeProfile ue;
    DevicePowerProfile device;
  };
  using radio::Band;
  using radio::Carrier;
  using radio::DeploymentMode;
  const std::vector<Setting> settings = {
      {"S10/VZ/NSA-HB", {Carrier::kVerizon, Band::kNrMmWave,
                         DeploymentMode::kNsa},
       radio::galaxy_s10(), DevicePowerProfile::s10()},
      {"S20/VZ/NSA-HB", {Carrier::kVerizon, Band::kNrMmWave,
                         DeploymentMode::kNsa},
       radio::galaxy_s20u(), DevicePowerProfile::s20u()},
      {"S20/VZ/NSA-LB", {Carrier::kVerizon, Band::kNrLowBand,
                         DeploymentMode::kNsa},
       radio::galaxy_s20u(), DevicePowerProfile::s20u()},
      {"S20/TM/NSA-LB", {Carrier::kTMobile, Band::kNrLowBand,
                         DeploymentMode::kNsa},
       radio::galaxy_s20u(), DevicePowerProfile::s20u()},
      {"S20/TM/SA-LB", {Carrier::kTMobile, Band::kNrLowBand,
                        DeploymentMode::kSa},
       radio::galaxy_s20u(), DevicePowerProfile::s20u()},
  };

  Table fig15("Fig. 15 (left): held-out MAPE (%) by feature set");
  fig15.set_header({"setting", "TH+SS", "TH", "SS"});
  // Each setting's campaign + train/evaluate split was already seeded by
  // its index (fork(i) / fork(1000 + i)), so the five settings fan out
  // without any draw-order change; rows land in setting order.
  const auto fig15_rows =
      parallel::parallel_map(settings.size(), [&](std::size_t i) {
        const auto& setting = settings[i];
        power::WalkingCampaignConfig campaign;
        campaign.network = setting.network;
        campaign.ue = setting.ue;
        Rng rng = Rng(run.seed).fork(i);
        const auto samples =
            power::run_walking_campaign(campaign, setting.device, rng);
        std::vector<std::string> row{setting.label};
        for (const auto features :
             {power::FeatureSet::kThroughputAndSignal,
              power::FeatureSet::kThroughputOnly,
              power::FeatureSet::kSignalOnly}) {
          power::PowerModelFit fit(features);
          Rng split = Rng(run.seed).fork(1000 + i);
          fit.fit(samples, split);
          row.push_back(Table::num(fit.test_mape_percent(), 2));
        }
        return row;
      });
  for (auto& row : fig15_rows) fig15.add_row(row);
  run.report(fig15);

  // Fig. 16: software-monitor calibration (S20U mmWave busy waveform).
  const auto profile = rrc::profile_by_name("Verizon NSA mmWave");
  std::vector<rrc::ActivityBurst> bursts;
  for (double t = 2000.0; t < 280000.0; t += 16000.0) {
    bursts.push_back({t, t + 6000.0, 300.0 + t / 2000.0, 10.0});
  }
  power::WaveformSynthesizer synth(profile, DevicePowerProfile::s20u(),
                                   1000.0);
  Rng wave_rng(run.seed + 7);
  const auto train_wave = synth.synthesize(
      rrc::build_timeline(profile.config, bursts, 300000.0), wave_rng);
  Rng wave_rng2(run.seed + 8);
  const auto test_wave = synth.synthesize(
      rrc::build_timeline(profile.config, bursts, 300000.0), wave_rng2);

  Table fig16("Fig. 16 (right): software calibration MAPE (%) vs TH+SS");
  fig16.set_header({"estimator", "MAPE %"});
  const auto hw_train = power::MonsoonMonitor::per_second_mw(train_wave);
  const auto hw_test = power::MonsoonMonitor::per_second_mw(test_wave);
  for (const double rate : {1.0, 10.0}) {
    power::SoftwareMonitor sw(power::default_software_monitor(rate));
    Rng r1(run.seed + 20 + static_cast<std::uint64_t>(rate));
    auto sw_train = sw.per_second_mw(train_wave, r1);
    sw_train.resize(hw_train.size());
    power::SoftwareCalibration calibration;
    calibration.fit(sw_train, hw_train);
    Rng r2(run.seed + 30 + static_cast<std::uint64_t>(rate));
    auto sw_test = sw.per_second_mw(test_wave, r2);
    sw_test.resize(hw_test.size());
    const double raw = stats::mape_percent(hw_test, sw_test);
    const double calibrated = stats::mape_percent(
        hw_test, calibration.calibrate_all(sw_test));
    fig16.add_row({"SW-" + Table::num(rate, 0) + "Hz raw",
                   Table::num(raw, 2)});
    fig16.add_row({"SW-" + Table::num(rate, 0) + "Hz calibrated",
                   Table::num(calibrated, 2)});
  }
  run.report(fig16);

  run.repro(
      "TH+SS < TH << SS on every setting, and calibrated 10 Hz software"
      " monitoring beats 1 Hz, matching Figs. 15-16.");
}

namespace {

/// Builds an activity-specific waveform on Verizon mmWave.
power::PowerTrace make_waveform(const std::string& activity,
                                std::uint64_t seed) {
  const auto profile = rrc::profile_by_name("Verizon NSA mmWave");
  std::vector<rrc::ActivityBurst> bursts;
  const double horizon = 120000.0;
  if (activity == "Random activities") {
    Rng rng(seed);
    double t = 1000.0;
    while (t < horizon - 6000.0) {
      const double len = rng.uniform(500.0, 4000.0);
      bursts.push_back({t, t + len, rng.uniform(5.0, 120.0), 2.0});
      t += len + rng.uniform(1000.0, 8000.0);
    }
  } else if (activity.rfind("UDP DL", 0) == 0) {
    const double mbps = std::stod(activity.substr(7));
    bursts.push_back({1000.0, horizon - 1000.0, mbps, mbps * 0.02});
  } else if (activity == "Video streaming") {
    for (double t = 1000.0; t < horizon - 8000.0; t += 12000.0) {
      bursts.push_back({t, t + 5000.0, 180.0, 4.0});
    }
  }
  // "Idle" activities: no bursts at all.
  power::WaveformSynthesizer synth(profile, DevicePowerProfile::s20u(),
                                   1000.0);
  Rng rng(seed + 1);
  return synth.synthesize(rrc::build_timeline(profile.config, bursts, horizon),
                          rng);
}

}  // namespace

// Tables 3 & 9: software power-monitor overhead and per-activity relative
// error (SW/HW ratio) at 1 Hz and 10 Hz sampling. Table 9's row i seeds
// from seed + 13 (i + 1): one step per row, Table 3 with the first.
void table3_9_sw_monitor(FigureRun& run) {
  static const char* const kActivities[] = {
      "Random activities", "Idle (screen on)", "Idle (screen off)",
      "UDP DL 50Mbps",     "UDP DL 400Mbps",   "UDP DL 800Mbps",
      "UDP DL 1200Mbps",   "Video streaming"};
  if (run.first()) {
    run.banner("Table 3 + Table 9", "Software power monitor benchmarking");
    run.paper(
        "Table 3: polling the battery API itself costs power (+654 mW @1 Hz,"
        " +1111 mW @10 Hz over idle). Table 9: the software monitor reads"
        " 81-92% of hardware truth at 1 Hz and 90-95% at 10 Hz.");

    Table table3("Table 3: monitoring overhead (device total, mW)");
    table3.set_header({"activity", "average power (mW)"});
    const double idle = 2014.3;  // paper's idle device power (screen on)
    table3.add_row({"Idle", Table::num(idle, 1)});
    table3.add_row(
        {"Monitor on (1Hz)",
         Table::num(idle + power::software_monitor_overhead_mw(1.0), 1)});
    table3.add_row(
        {"Monitor on (10Hz)",
         Table::num(idle + power::software_monitor_overhead_mw(10.0), 1)});
    run.report(table3);
  }

  Table& table9 = run.doc.open_table("Table 9: relative error = SW / HW",
                                     {"test case", "@ 1Hz", "@ 10Hz"});
  const std::string activity = kActivities[run.step];
  const std::uint64_t seed = run.seed + 13 * (run.step + 1);
  const auto waveform = make_waveform(activity, seed);
  const auto hw = power::MonsoonMonitor::per_second_mw(waveform);
  std::vector<std::string> row{activity};
  for (const double rate : {1.0, 10.0}) {
    power::SoftwareMonitor sw(power::default_software_monitor(rate));
    Rng rng(seed + static_cast<std::uint64_t>(rate));
    auto readings = sw.per_second_mw(waveform, rng);
    readings.resize(hw.size());
    row.push_back(
        Table::num(100.0 * stats::mean(readings) / stats::mean(hw), 1) + "%");
  }
  table9.add_row(std::move(row));
  if (!run.last()) return;
  table9.print(run.out);

  run.repro(
      "software always under-reads; the 10 Hz column is uniformly closer to"
      " 100%, and the polling overhead grows with rate (Table 3's tradeoff).");
}

// Table 8: slopes of the throughput-power curves, recovered by running the
// paper's controlled iPerf3-style rate sweep against the simulated device
// and fitting a line — compared to the paper's reported slopes.
void table8_slopes(FigureRun& run) {
  run.banner("Table 8", "Throughput-power slopes (mW per Mbps)");
  run.paper(
      "S10: 4G 13.38/57.99 (DL/UL), mmWave 2.06/5.27. S20U: 4G 14.55/80.21,"
      " low-band 13.52/29.15, mmWave 1.81/9.42. Uplink slopes are 2.2-5.9x"
      " the downlink slopes on every radio.");

  struct Row {
    std::string device;
    std::string network;
    const DevicePowerProfile profile;
    RailKey key;
    double paper_dl;
    double paper_ul;
    double max_dl;
    double max_ul;
  };
  const std::vector<Row> rows = {
      {"S10", "4G", DevicePowerProfile::s10(), RailKey::k4g, 13.38, 57.99,
       180.0, 60.0},
      {"S10", "5G (mmWave)", DevicePowerProfile::s10(), RailKey::kNsaMmWave,
       2.06, 5.27, 1800.0, 120.0},
      {"S20U", "4G", DevicePowerProfile::s20u(), RailKey::k4g, 14.55, 80.21,
       180.0, 70.0},
      {"S20U", "5G (low-band)", DevicePowerProfile::s20u(),
       RailKey::kNsaLowBand, 13.52, 29.15, 200.0, 100.0},
      {"S20U", "5G (mmWave)", DevicePowerProfile::s20u(),
       RailKey::kNsaMmWave, 1.81, 9.42, 2000.0, 220.0},
  };

  Table table("Fitted from a 12-point controlled rate sweep (3% meter noise)");
  table.set_header({"device", "network", "DL fit", "DL paper", "UL fit",
                    "UL paper", "UL/DL ratio"});

  Rng rng(run.seed);
  for (const auto& row : rows) {
    auto fit_slope = [&](Direction direction, double max_mbps) {
      std::vector<double> throughput;
      std::vector<double> powers;
      for (int i = 1; i <= 12; ++i) {
        const double t = max_mbps * i / 12.0;
        const double dl = direction == Direction::kDownlink ? t : 0.0;
        const double ul = direction == Direction::kUplink ? t : 0.0;
        const double p = row.profile.transfer_power_mw(
                             row.key, dl, ul,
                             row.profile.good_rsrp_dbm(row.key)) *
                         (1.0 + rng.normal(0.0, 0.03));
        throughput.push_back(t);
        powers.push_back(p);
      }
      return stats::linear_fit(throughput, powers).slope;
    };
    const double dl = fit_slope(Direction::kDownlink, row.max_dl);
    const double ul = fit_slope(Direction::kUplink, row.max_ul);
    table.add_row({row.device, row.network, Table::num(dl, 2),
                   Table::num(row.paper_dl, 2), Table::num(ul, 2),
                   Table::num(row.paper_ul, 2), Table::num(ul / dl, 1)});
  }
  run.report(table);
  run.repro(
      "fitted slopes recover the configured (paper) values within meter"
      " noise; every UL/DL ratio falls in the paper's 2.2-5.9x band.");
}

// Figures 26 & 27 (Appendix A.4): S10 throughput-power and
// throughput-energy-efficiency curves for 4G vs mmWave 5G (Ann Arbor),
// including the device-specific crossover points.
void fig26_27_s10_power(FigureRun& run) {
  if (run.first()) {
    run.banner("Fig. 26 + Fig. 27", "S10 power and efficiency (Ann Arbor)");
    run.paper(
        "On the S10 the mmWave/4G crossovers sit at 213 Mbps (DL) and 44 Mbps"
        " (UL) — close to, but distinct from, the S20U's 187/40 Mbps"
        " (different chipset lithography).");
  }
  const auto s10 = DevicePowerProfile::s10();
  const Direction direction = kDirections[run.step];
  const bool dl = direction == Direction::kDownlink;
  Table table("S10 " + radio::to_string(direction) +
              ": power (mW) and efficiency (uJ/bit)");
  table.set_header({"Mbps", "5G mW", "4G mW", "5G uJ/bit", "4G uJ/bit"});
  for (double t = dl ? 25.0 : 5.0; t <= (dl ? 1600.0 : 100.0); t *= 2.0) {
    const auto mm = s10.rail(RailKey::kNsaMmWave, direction);
    const auto lte = s10.rail(RailKey::k4g, direction);
    const bool lte_ok = t <= (dl ? 180.0 : 60.0);
    table.add_row(
        {Table::num(t, 0), Table::num(mm.power_mw(t), 0),
         lte_ok ? Table::num(lte.power_mw(t), 0) : "-",
         Table::num(power::efficiency_uj_per_bit(mm.power_mw(t), t), 4),
         lte_ok ? Table::num(power::efficiency_uj_per_bit(lte.power_mw(t), t),
                             4)
                : "-"});
  }
  run.report(table);

  const auto crossover =
      power::crossover_mbps(s10.rail(RailKey::kNsaMmWave, direction),
                            s10.rail(RailKey::k4g, direction));
  run.repro(radio::to_string(direction) + " 5G x 4G crossover = " +
            Table::num(*crossover, 1) + " Mbps (paper: " +
            (dl ? "213" : "44") + " Mbps)");
}

// Ablation: power-model learner capacity — decision-tree depth sweep and
// campaign-size sweep for the Sec. 4.5 TH+SS model. Quantifies why the
// paper's data-driven approach needs both its features and enough walking
// data.
void ablation_power_model(FigureRun& run) {
  run.banner("Ablation", "Power-model capacity and data requirements");

  power::WalkingCampaignConfig campaign;
  campaign.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                      radio::DeploymentMode::kNsa};
  campaign.ue = radio::galaxy_s20u();
  const auto device = DevicePowerProfile::s20u();
  Rng rng(run.seed);
  const auto full = power::run_walking_campaign(campaign, device, rng);

  // --- Tree depth sweep. --- Every train/evaluate split reseeds from the
  // seed, so the sweep points are independent tasks; rows are added in
  // sweep order after the barrier.
  {
    Table table("DTR max depth (TH+SS features, held-out MAPE)");
    table.set_header({"max depth", "MAPE %"});
    const std::vector<int> depths = {1, 2, 4, 8, 12, 16};
    const auto mapes =
        parallel::parallel_map(depths.size(), [&](std::size_t i) {
          ml::TreeConfig tree;
          tree.max_depth = depths[i];
          tree.min_samples_leaf = 4;
          tree.min_samples_split = 8;
          power::PowerModelFit fit(power::FeatureSet::kThroughputAndSignal,
                                   tree);
          Rng split(run.seed + 1);
          fit.fit(full, split);
          return fit.test_mape_percent();
        });
    for (std::size_t i = 0; i < depths.size(); ++i) {
      table.add_row({std::to_string(depths[i]), Table::num(mapes[i], 2)});
    }
    run.report(table);
  }

  // --- Campaign-size sweep. ---
  {
    Table table("Campaign length (walking minutes of training data)");
    table.set_header({"minutes", "samples", "MAPE %"});
    const std::vector<double> minutes_grid = {1.0, 3.0, 6.0, 12.0, 20.0};
    struct SweepPoint {
      std::size_t samples = 0;
      double mape = 0.0;
    };
    const auto points =
        parallel::parallel_map(minutes_grid.size(), [&](std::size_t i) {
          const auto count =
              static_cast<std::size_t>(minutes_grid[i] * 60.0 * 10.0);
          const std::span<const power::CampaignSample> subset(
              full.data(), std::min(count, full.size()));
          power::PowerModelFit fit(power::FeatureSet::kThroughputAndSignal);
          Rng split(run.seed + 2);
          fit.fit(subset, split);
          return SweepPoint{subset.size(), fit.test_mape_percent()};
        });
    for (std::size_t i = 0; i < minutes_grid.size(); ++i) {
      table.add_row({Table::num(minutes_grid[i], 0),
                     std::to_string(points[i].samples),
                     Table::num(points[i].mape, 2)});
    }
    run.report(table);
  }

  run.repro(
      "accuracy saturates around depth ~8 and a few minutes of walking"
      " data; depth-1 trees (a single split) cannot express the joint"
      " throughput+signal dependence, mirroring the Fig. 15 ablations.");
}

}  // namespace wild5g::engine::figures
