// wild5g/mobility: the Sec. 3.3 drive-test handoff experiment.
//
// Reproduces Fig. 9: a 10 km drive under five radio-band configurations
// (selected on the phone via Samsung's service menu in the paper), counting
// horizontal handoffs (tower changes) and vertical handoffs (radio
// technology changes). The key mechanisms modeled:
//  - n71 low-band towers have a large footprint -> few horizontal handoffs.
//  - LTE towers are denser and load-balance aggressively -> more handoffs
//    plus occasional ping-pong around cell edges.
//  - the NSA NR leg is an EN-DC secondary cell that is added/released
//    frequently along the route -> ~90 vertical handoffs in NSA mode.
//  - SA coverage is near-continuous -> very few handoffs overall.
#pragma once

#include <string>
#include <vector>

#include "core/rng.h"
#include "mobility/route.h"

namespace wild5g::mobility {

/// The five band-enable settings of Fig. 9.
enum class BandSetting {
  kSaOnly,      // (i)   SA-n71 band only
  kNsaPlusLte,  // (ii)  NSA-n71 and LTE bands
  kLteOnly,     // (iii) LTE bands only
  kSaPlusLte,   // (iv)  SA-n71 and LTE bands
  kAllBands,    // (v)   default setting
};

/// Radio the UE is actively using for data at an instant.
enum class ActiveRadio { kLte, kNsa5g, kSa5g };

[[nodiscard]] std::string to_string(BandSetting setting);
[[nodiscard]] std::string to_string(ActiveRadio radio);

/// One handoff occurrence.
struct HandoffEvent {
  double t_s = 0.0;
  ActiveRadio from = ActiveRadio::kLte;
  ActiveRadio to = ActiveRadio::kLte;
  bool vertical = false;  // radio-technology change vs tower change
};

/// One constant-radio segment of the Fig. 9 timeline bars.
struct RadioSegment {
  double start_s = 0.0;
  double end_s = 0.0;
  ActiveRadio radio = ActiveRadio::kLte;
};

struct DriveResult {
  BandSetting setting{};
  std::vector<RadioSegment> segments;
  std::vector<HandoffEvent> handoffs;

  [[nodiscard]] int total_handoffs() const {
    return static_cast<int>(handoffs.size());
  }
  [[nodiscard]] int vertical_handoffs() const;
  [[nodiscard]] int horizontal_handoffs() const;
  /// Fraction of drive time spent on each radio.
  [[nodiscard]] double time_fraction(ActiveRadio radio) const;
};

/// Simulates one drive of `route` under `setting`; deterministic in `rng`.
[[nodiscard]] DriveResult simulate_drive(BandSetting setting,
                                         const Route& route, Rng& rng);

}  // namespace wild5g::mobility
