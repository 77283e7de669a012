// Figure 9: handoff frequency while driving a 10 km route under five radio
// band-enable settings (T-Mobile).
#include <iostream>

#include "bench_common.h"
#include "mobility/drive.h"
#include "mobility/route.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "fig09_handoffs");
  bench::banner("Fig. 9",
                "[T-Mobile] handoffs while driving, five band settings");
  bench::paper_note(
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

  Table& table = emitter.doc().open_table(
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
        Rng rng(bench::kBenchSeed + d);
        const auto route = mobility::driving_route(rng);
        return mobility::simulate_drive(setting, route, {}, rng);
      });
  for (std::size_t s = 0; s < settings.size(); ++s) {
    if (!emitter.keep_going()) return emitter.exit_code();
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
  table.print(std::cout);

  // One representative timeline, as in the figure's horizontal bars.
  Rng rng(bench::kBenchSeed);
  const auto route = mobility::driving_route(rng);
  const auto result = mobility::simulate_drive(
      mobility::BandSetting::kNsaPlusLte, route, {}, rng);
  emitter.metric("representative_nsa_segments",
                 static_cast<double>(result.segments.size()));
  emitter.metric("representative_nsa_handoffs",
                 static_cast<double>(result.total_handoffs()));
  std::cout << "Representative NSA-5G + LTE timeline (first 12 segments):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(12, result.segments.size());
       ++i) {
    const auto& seg = result.segments[i];
    std::cout << "  " << Table::num(seg.start_s, 1) << "s - "
              << Table::num(seg.end_s, 1) << "s  "
              << mobility::to_string(seg.radio) << "\n";
  }
  return emitter.exit_code();
}
