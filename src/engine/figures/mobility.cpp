// Sec. 3.3 mobility and Sec. 4.1 RRC: handoffs while driving (Fig. 9), the
// A3 parameter ablation, the drive's control-plane energy, and RRC-Probe's
// plateaus and inferred timers (Figs. 10/25, Table 7).
#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "core/quantile_sketch.h"
#include "core/rng.h"
#include "engine/figures/figure.h"
#include "mobility/drive.h"
#include "mobility/route.h"
#include "radio/handoff.h"
#include "rrc/probe.h"
#include "rrc/rrc_config.h"

namespace wild5g::engine::figures {

// Figure 9: handoff frequency while driving a 10 km route under five radio
// band-enable settings (T-Mobile).
void fig09_handoffs(FigureRun& run) {
  run.banner("Fig. 9", "[T-Mobile] handoffs while driving, five band settings");
  run.paper(
      "Paper counts: SA-only 13, NSA+LTE 110 (~90 vertical), LTE-only 30,"
      " SA+LTE 38, all bands 64. SA's big low-band cells and standalone"
      " control plane give it by far the fewest handoffs.");

  const std::vector<std::pair<mobility::BandSetting, int>> settings = {
      {mobility::BandSetting::kSaOnly, 13},
      {mobility::BandSetting::kNsaPlusLte, 110},
      {mobility::BandSetting::kLteOnly, 30},
      {mobility::BandSetting::kSaPlusLte, 38},
      {mobility::BandSetting::kAllBands, 64},
  };

  Table& table = run.doc.open_table(
      "Handoffs per 10 km / 600 s drive (mean of 4 drives: 2x per"
      " direction)",
      {"setting", "total", "horizontal", "vertical", "%time 4G", "%time NSA-5G",
       "%time SA-5G", "paper total"});

  // Drive campaign: every (band setting, drive) pair is an independent
  // seeded trial, so the whole grid fans out at once; per-setting means are
  // reduced in drive order afterwards.
  const int drives = 4;
  const auto drive_results = parallel::parallel_map(
      settings.size() * static_cast<std::size_t>(drives),
      [&](std::size_t task) {
        const auto& setting = settings[task / drives].first;
        const auto d = static_cast<std::uint64_t>(task % drives);
        Rng rng(run.seed + d);
        const auto route = mobility::driving_route(rng);
        return mobility::simulate_drive(setting, route, rng);
      });
  for (std::size_t s = 0; s < settings.size(); ++s) {
    const auto& [setting, paper_total] = settings[s];
    double total = 0.0;
    double horizontal = 0.0;
    double vertical = 0.0;
    double f_lte = 0.0;
    double f_nsa = 0.0;
    double f_sa = 0.0;
    for (int d = 0; d < drives; ++d) {
      const auto& result = drive_results[s * drives + d];
      total += result.total_handoffs();
      horizontal += result.horizontal_handoffs();
      vertical += result.vertical_handoffs();
      f_lte += result.time_fraction(mobility::ActiveRadio::kLte);
      f_nsa += result.time_fraction(mobility::ActiveRadio::kNsa5g);
      f_sa += result.time_fraction(mobility::ActiveRadio::kSa5g);
    }
    table.add_row({mobility::to_string(setting),
                   Table::num(total / drives, 1),
                   Table::num(horizontal / drives, 1),
                   Table::num(vertical / drives, 1),
                   Table::num(100.0 * f_lte / drives, 0),
                   Table::num(100.0 * f_nsa / drives, 0),
                   Table::num(100.0 * f_sa / drives, 0),
                   std::to_string(paper_total)});
  }
  table.print(run.out);

  // One representative timeline, as in the figure's horizontal bars.
  Rng rng(run.seed);
  const auto route = mobility::driving_route(rng);
  const auto result = mobility::simulate_drive(
      mobility::BandSetting::kNsaPlusLte, route, rng);
  run.doc.metric("representative_nsa_segments",
                 static_cast<double>(result.segments.size()));
  run.doc.metric("representative_nsa_handoffs",
                 static_cast<double>(result.total_handoffs()));
  run.out << "Representative NSA-5G + LTE timeline (first 12 segments):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(12, result.segments.size());
       ++i) {
    const auto& seg = result.segments[i];
    run.out << "  " << Table::num(seg.start_s, 1) << "s - "
            << Table::num(seg.end_s, 1) << "s  "
            << mobility::to_string(seg.radio) << "\n";
  }
}

// Figures 10 & 25: RRC-Probe RTT vs inter-packet idle time for all six
// network configurations, exposing the CONNECTED / (INACTIVE|anchor) / IDLE
// plateaus. Each configuration's probe reseeds from the seed: one step per
// configuration.
void fig10_25_rrc_probe(FigureRun& run) {
  if (run.first()) {
    run.banner("Fig. 10 + Fig. 25",
               "RRC-Probe: RTT vs idle gap for all six configurations");
    run.paper(
        "SA 5G shows a third plateau (RRC_INACTIVE) between ~10.4 s and"
        " ~15.4 s; NSA low-band shows a second (LTE anchor) tail; 4G and"
        " mmWave show a single CONNECTED->IDLE step.");
  }
  const auto& config = rrc::table7_profiles()[run.step].config;
  auto schedule = rrc::schedule_for(config);
  schedule.step_ms = 1000.0;  // coarse ladder for display
  schedule.repeats = 41;
  Rng rng(run.seed);
  const auto samples = rrc::run_probe(config, schedule, rng);

  std::map<double, stats::SampleAccumulator> by_gap;
  for (const auto& s : samples) by_gap[s.gap_ms].add(s.rtt_ms);

  Table table(config.name + " - RTT (ms) vs idle gap (s)");
  table.set_header({"gap s", "p10", "median", "p90", "true state"});
  for (const auto& [gap, rtts] : by_gap) {
    table.add_row({Table::num(gap / 1000.0, 0),
                   Table::num(rtts.percentile(10.0), 0),
                   Table::num(rtts.median(), 0),
                   Table::num(rtts.percentile(90.0), 0),
                   rrc::to_string(rrc::state_after_gap(config, gap))});
  }
  run.report(table);
  if (!run.last()) return;
  run.repro(
      "plateau structure per configuration matches the figure: three levels"
      " for SA and NSA low-band, two for mmWave and 4G.");
}

// Table 7: RRC parameters inferred with RRC-Probe for every network,
// compared against the configured (paper-reported) values. One step per
// network.
void table7_rrc_params(FigureRun& run) {
  if (run.first()) {
    run.banner("Table 7", "RRC parameters recovered by RRC-Probe");
    run.paper(
        "Inferred UE-inactivity timers ~10.2-10.5 s (4G T-Mobile: 5 s); NSA"
        " low-band carries a second (anchor) tail of 12.1 / 18.8 s; SA holds"
        " RRC_INACTIVE ~5 s; promotion delays 190-396 ms (4G) and"
        " 341-1907 ms (5G).");
  }
  Table& table = run.doc.open_table(
      "Inferred vs configured RRC timers (ms)",
      {"network", "tail cfg", "tail inferred", "mid-end cfg",
       "mid-end inferred", "longDRX cfg", "longDRX est", "idleDRX cfg",
       "idleDRX est", "promo cfg", "promo est"});

  const auto& config = rrc::table7_profiles()[run.step].config;
  Rng rng(run.seed);
  const auto samples = rrc::run_probe(config, rrc::schedule_for(config), rng);
  const auto inferred = rrc::infer_rrc_parameters(samples);

  std::optional<double> mid_cfg;
  if (config.anchor_tail_ms) {
    mid_cfg = *config.anchor_tail_ms;
  } else if (config.inactive_hold_ms) {
    mid_cfg = config.inactivity_timer_ms + *config.inactive_hold_ms;
  }
  const double promo_cfg =
      config.promotion_5g_ms.value_or(config.promotion_4g_ms.value_or(0.0));

  table.add_row({config.name, Table::num(config.inactivity_timer_ms, 0),
                 Table::num(inferred.tail_timer_ms, 0),
                 mid_cfg ? Table::num(*mid_cfg, 0) : "N/A",
                 inferred.mid_plateau_end_ms
                     ? Table::num(*inferred.mid_plateau_end_ms, 0)
                     : "-",
                 Table::num(config.long_drx_cycle_ms, 0),
                 Table::num(inferred.long_drx_estimate_ms, 0),
                 Table::num(config.idle_drx_cycle_ms, 0),
                 Table::num(inferred.idle_drx_estimate_ms, 0),
                 Table::num(promo_cfg, 0),
                 Table::num(inferred.promotion_estimate_ms, 0)});
  if (!run.last()) return;
  table.print(run.out);
  run.repro(
      "every timer recovered blind (no access to the generating config)"
      " within a few probe steps of its configured value.");
}

// Ablation: A3 handoff parameters. Sweeps hysteresis and time-to-trigger
// on the Sec. 3.3 drive and reports handoff + ping-pong counts, exposing
// the control-plane tradeoff behind Fig. 9's per-carrier differences.
void ablation_handoff(FigureRun& run) {
  run.banner("Ablation", "A3 handoff hysteresis / time-to-trigger sweep");
  run.paper(
      "Fig. 9's LTE layer shows ~30 handoffs incl. ping-pong at cell edges;"
      " carriers trade handoff lag (large hysteresis/TTT) against edge"
      " flapping (small). This sweep quantifies that frontier on the drive"
      " route.");

  Table table("10 km drive, LTE cells every 480 m (mean of 5 drives)");
  table.set_header({"hysteresis dB", "TTT ms", "handoffs", "ping-pongs"});

  // The sweep grid fans out one task per (hysteresis, TTT) operating point;
  // each task's 5 drives stay seeded per run exactly as before, so the
  // emitted rows are independent of thread count by construction.
  const std::vector<double> hysteresis_grid = {0.0, 1.0, 3.0, 6.0};
  const std::vector<double> ttt_grid = {0.0, 160.0, 320.0, 640.0};
  const int runs = 5;
  struct GridCell {
    double mean_handoffs = 0.0;
    double mean_pingpongs = 0.0;
  };
  const auto grid = parallel::parallel_map(
      hysteresis_grid.size() * ttt_grid.size(), [&](std::size_t task) {
        const double hysteresis = hysteresis_grid[task / ttt_grid.size()];
        const double ttt = ttt_grid[task % ttt_grid.size()];
        double handoffs = 0.0;
        double pingpongs = 0.0;
        for (int drive = 0; drive < runs; ++drive) {
          Rng rng(run.seed + static_cast<std::uint64_t>(drive));
          const auto route = mobility::driving_route(rng);
          std::vector<radio::CellSite> cells;
          for (int i = 0; i * 480.0 < route.length_m() + 480.0; ++i) {
            cells.push_back({i, i * 480.0, radio::Band::kLte});
          }
          radio::HandoffConfig config;
          config.hysteresis_db = hysteresis;
          config.time_to_trigger_ms = ttt;
          radio::A3HandoffEngine engine(cells, config, rng.fork(9));
          for (double t = 0.1; t <= route.duration_s(); t += 0.1) {
            engine.step(0.1, route.position_m(t));
          }
          handoffs += engine.handoff_count();
          pingpongs += engine.pingpong_count();
        }
        return GridCell{handoffs / runs, pingpongs / runs};
      });
  for (std::size_t task = 0; task < grid.size(); ++task) {
    table.add_row({Table::num(hysteresis_grid[task / ttt_grid.size()], 1),
                   Table::num(ttt_grid[task % ttt_grid.size()], 0),
                   Table::num(grid[task].mean_handoffs, 1),
                   Table::num(grid[task].mean_pingpongs, 1)});
  }
  run.report(table);

  run.repro(
      "small hysteresis + zero TTT floods the control plane with edge"
      " ping-pong; the (3 dB, 320 ms) operating point lands near Fig. 9's"
      " LTE count with ping-pong largely suppressed.");
}

// Extension: control-plane energy of the Fig. 9 drive.
//
// Sec. 3.3 notes the handoff counts "have implications not just on control
// plane signaling and scheduling overheads, but also over network
// performance", and Sec. 4.2 prices the 4G->5G switch (Table 2). This
// combines the two: the radio energy each band setting burns on vertical
// switches and promotion bursts alone during the 10 km drive. Each
// setting's drives reseed from the seed: one step per setting.
void extension_drive_energy(FigureRun& run) {
  static constexpr mobility::BandSetting kSettings[] = {
      mobility::BandSetting::kSaOnly, mobility::BandSetting::kNsaPlusLte,
      mobility::BandSetting::kLteOnly, mobility::BandSetting::kSaPlusLte,
      mobility::BandSetting::kAllBands};
  if (run.first()) {
    run.banner("Extension", "Control-plane energy of the Fig. 9 drive");
    run.paper(
        "Every vertical handoff in NSA pays the 4G->5G switch burst"
        " (Table 2: ~0.7 W for ~1.4 s on T-Mobile low-band). 110 handoffs"
        " per 10 km is not just signaling overhead — it is joules.");
  }

  // Switch cost per vertical handoff, from the RRC profiles.
  const auto& nsa = rrc::profile_by_name("T-Mobile NSA low-band");
  const auto& sa = rrc::profile_by_name("T-Mobile SA low-band");
  const double nsa_switch_j = nsa.power.switch_mw / 1000.0 *
                              (*nsa.config.promotion_5g_ms / 1000.0);
  const double sa_switch_j = sa.power.promotion_mw / 1000.0 *
                             (*sa.config.promotion_5g_ms / 1000.0);
  // Horizontal handoffs are cheap (intra-tech signaling burst ~ 0.3 s).
  const double horizontal_j = 0.35 * 0.3;

  Table& table = run.doc.open_table(
      "Per-drive switch energy (mean of 4 drives)",
      {"setting", "vertical", "horizontal", "switch energy J", "J per km"});
  const mobility::BandSetting setting = kSettings[run.step];
  double vertical = 0.0;
  double horizontal = 0.0;
  const int drives = 4;
  for (int d = 0; d < drives; ++d) {
    Rng rng(run.seed + static_cast<std::uint64_t>(d));
    const auto route = mobility::driving_route(rng);
    const auto result = mobility::simulate_drive(setting, route, rng);
    vertical += result.vertical_handoffs();
    horizontal += result.horizontal_handoffs();
  }
  vertical /= drives;
  horizontal /= drives;
  const bool is_sa = setting == mobility::BandSetting::kSaOnly ||
                     setting == mobility::BandSetting::kSaPlusLte;
  const double per_switch_j = is_sa ? sa_switch_j : nsa_switch_j;
  const double energy = vertical * per_switch_j + horizontal * horizontal_j;
  table.add_row({mobility::to_string(setting), Table::num(vertical, 1),
                 Table::num(horizontal, 1), Table::num(energy, 1),
                 Table::num(energy / 10.0, 2)});
  if (!run.last()) return;
  table.print(run.out);

  run.repro(
      "NSA's vertical-handoff storm costs an order of magnitude more switch"
      " energy per km than SA — quantifying why the paper recommends"
      " avoiding intermittent 4G/5G toggling.");
}

}  // namespace wild5g::engine::figures
