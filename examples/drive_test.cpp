// Drive test: reproduce a Sec. 3.3-style handoff survey interactively.
//
// Drives the 10 km route under each band configuration and prints the live
// handoff log plus per-configuration summaries, like watching 5G Tracker
// from the passenger seat.
//
//   ./build/examples/drive_test [seed]
#include <iomanip>
#include <iostream>

#include "core/integer.h"
#include "mobility/drive.h"
#include "mobility/route.h"

using namespace wild5g;

int main(int argc, char** argv) {
  std::uint64_t seed = 7;
  try {
    if (argc > 1) {
      seed = integer_from_text<std::uint64_t>(argv[1], "seed", 0, UINT64_MAX);
    }
  } catch (const Error& e) {
    std::cerr << "drive_test: " << e.what() << "\nusage: drive_test [seed]\n";
    return 2;
  }

  const std::vector<mobility::BandSetting> settings = {
      mobility::BandSetting::kSaOnly, mobility::BandSetting::kNsaPlusLte,
      mobility::BandSetting::kLteOnly, mobility::BandSetting::kSaPlusLte,
      mobility::BandSetting::kAllBands};

  for (const auto setting : settings) {
    Rng rng(seed);
    const auto route = mobility::driving_route(rng);
    const auto result = mobility::simulate_drive(setting, route, rng);

    std::cout << "=== " << mobility::to_string(setting) << " ===\n";
    std::cout << "  " << result.total_handoffs() << " handoffs ("
              << result.horizontal_handoffs() << " horizontal, "
              << result.vertical_handoffs() << " vertical)\n";
    std::cout << "  time on 4G "
              << 100.0 * result.time_fraction(mobility::ActiveRadio::kLte)
              << "%, NSA-5G "
              << 100.0 * result.time_fraction(mobility::ActiveRadio::kNsa5g)
              << "%, SA-5G "
              << 100.0 * result.time_fraction(mobility::ActiveRadio::kSa5g)
              << "%\n";

    // Live log of the first vertical handoffs.
    int shown = 0;
    for (const auto& handoff : result.handoffs) {
      if (!handoff.vertical) continue;
      if (++shown > 8) break;
      std::cout << "  t=" << std::setw(5) << std::fixed
                << std::setprecision(1) << handoff.t_s << "s  "
                << mobility::to_string(handoff.from) << " -> "
                << mobility::to_string(handoff.to) << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
