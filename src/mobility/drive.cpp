#include "mobility/drive.h"

#include <algorithm>
#include <cmath>
#include <deque>

namespace wild5g::mobility {

std::string to_string(BandSetting setting) {
  switch (setting) {
    case BandSetting::kSaOnly: return "SA-5G only";
    case BandSetting::kNsaPlusLte: return "NSA-5G + LTE";
    case BandSetting::kLteOnly: return "LTE only";
    case BandSetting::kSaPlusLte: return "SA-5G + LTE";
    case BandSetting::kAllBands: return "All Bands";
  }
  return "?";
}

std::string to_string(ActiveRadio radio) {
  switch (radio) {
    case ActiveRadio::kLte: return "4G";
    case ActiveRadio::kNsa5g: return "NSA-5G";
    case ActiveRadio::kSa5g: return "SA-5G";
  }
  return "?";
}

int DriveResult::vertical_handoffs() const {
  return static_cast<int>(
      std::count_if(handoffs.begin(), handoffs.end(),
                    [](const HandoffEvent& h) { return h.vertical; }));
}

int DriveResult::horizontal_handoffs() const {
  return total_handoffs() - vertical_handoffs();
}

double DriveResult::time_fraction(ActiveRadio radio) const {
  if (segments.empty()) return 0.0;
  double on = 0.0;
  double total = 0.0;
  for (const auto& seg : segments) {
    total += seg.end_s - seg.start_s;
    if (seg.radio == radio) on += seg.end_s - seg.start_s;
  }
  return total > 0.0 ? on / total : 0.0;
}

namespace {

// Geometry of the drive environment.
constexpr double kStepS = 0.1;                   // simulation step
constexpr double kN71TowerSpacingM = 770.0;      // ~13 crossings over 10 km
constexpr double kLteTowerSpacingM = 480.0;      // ~21 crossings over 10 km
constexpr double kLtePingpongProbability = 0.18; // extra toggle at a cell edge
// EN-DC secondary-cell patchiness in NSA-only mode (downtown flapping).
constexpr double kNsaOnMeanM = 120.0;
constexpr double kNsaOffMeanM = 105.0;
// With all bands enabled the EN-DC anchor is steadier.
constexpr double kNsaAllOnMeanM = 280.0;
constexpr double kNsaAllOffMeanM = 200.0;
// SA coverage holes when LTE is also enabled (UE falls back).
constexpr double kSaOnMeanM = 800.0;
constexpr double kSaOffMeanM = 120.0;

/// Alternating on/off coverage patches along the route, in meters.
class CoverageMap {
 public:
  /// Builds patches with exponential on/off lengths; starts "on".
  CoverageMap(double route_length_m, double on_mean_m, double off_mean_m,
              Rng& rng) {
    double at = 0.0;
    bool on = true;
    boundaries_.push_back(0.0);
    while (at < route_length_m) {
      const double len =
          std::max(20.0, rng.exponential(on ? on_mean_m : off_mean_m));
      at += len;
      boundaries_.push_back(at);
      on = !on;
    }
  }

  /// Always-on coverage.
  CoverageMap() : boundaries_{0.0} {}

  [[nodiscard]] bool covered(double pos_m) const {
    // Segment index parity: even -> on.
    const auto it =
        std::upper_bound(boundaries_.begin(), boundaries_.end(), pos_m);
    const auto index = static_cast<std::size_t>(
        std::distance(boundaries_.begin(), it) - 1);
    return index % 2 == 0;
  }

 private:
  std::vector<double> boundaries_;
};

/// Evenly spaced towers (with positional jitter) along the route.
class TowerLine {
 public:
  TowerLine(double route_length_m, double spacing_m, Rng& rng) {
    double at = rng.uniform(0.0, spacing_m);
    while (at < route_length_m + spacing_m) {
      towers_.push_back(at + rng.normal(0.0, spacing_m * 0.08));
      at += spacing_m;
    }
    std::sort(towers_.begin(), towers_.end());
  }

  /// Index of the nearest tower.
  [[nodiscard]] int serving(double pos_m) const {
    const auto it =
        std::lower_bound(towers_.begin(), towers_.end(), pos_m);
    if (it == towers_.begin()) return 0;
    if (it == towers_.end()) return static_cast<int>(towers_.size()) - 1;
    const auto right = static_cast<int>(std::distance(towers_.begin(), it));
    const int left = right - 1;
    return (pos_m - towers_[static_cast<std::size_t>(left)] <=
            towers_[static_cast<std::size_t>(right)] - pos_m)
               ? left
               : right;
  }

 private:
  std::vector<double> towers_;
};

}  // namespace

DriveResult simulate_drive(BandSetting setting, const Route& route, Rng& rng) {
  const double length = route.length_m();

  TowerLine n71_towers(length, kN71TowerSpacingM, rng);
  TowerLine lte_towers(length, kLteTowerSpacingM, rng);

  // Coverage of the optional legs, per setting.
  CoverageMap nsa_leg;  // EN-DC secondary-cell availability
  CoverageMap sa_leg;   // SA service availability (holes only w/ LTE fallback)
  const bool has_nsa = setting == BandSetting::kNsaPlusLte ||
                       setting == BandSetting::kAllBands;
  const bool has_sa = setting == BandSetting::kSaOnly ||
                      setting == BandSetting::kSaPlusLte ||
                      setting == BandSetting::kAllBands;
  const bool has_lte = setting != BandSetting::kSaOnly;
  if (has_nsa) {
    const bool all = setting == BandSetting::kAllBands;
    nsa_leg = CoverageMap(length, all ? kNsaAllOnMeanM : kNsaOnMeanM,
                          all ? kNsaAllOffMeanM : kNsaOffMeanM, rng);
  }
  if (has_sa && setting != BandSetting::kSaOnly) {
    sa_leg = CoverageMap(length, kSaOnMeanM, kSaOffMeanM, rng);
  }
  // kSaOnly: low-band SA coverage is omnipresent (default CoverageMap = on).

  auto radio_at = [&](double pos) -> ActiveRadio {
    if (has_nsa && nsa_leg.covered(pos)) return ActiveRadio::kNsa5g;
    if (has_sa && sa_leg.covered(pos)) return ActiveRadio::kSa5g;
    if (has_lte) return ActiveRadio::kLte;
    return ActiveRadio::kSa5g;  // SA-only fallback (always covered)
  };
  auto tower_at = [&](ActiveRadio radio, double pos) {
    return radio == ActiveRadio::kLte ? lte_towers.serving(pos)
                                      : n71_towers.serving(pos);
  };

  DriveResult result;
  result.setting = setting;

  ActiveRadio radio = radio_at(0.0);
  int tower = tower_at(radio, 0.0);
  double segment_start = 0.0;

  // Pending ping-pong toggles: (fire time, tower index to force).
  std::deque<std::pair<double, int>> pingpong;

  const double end_s = route.duration_s();
  for (double t = kStepS; t <= end_s + 1e-9; t += kStepS) {
    const double pos = route.position_m(t);
    const ActiveRadio new_radio = radio_at(pos);

    if (new_radio != radio) {
      result.handoffs.push_back({t, radio, new_radio, /*vertical=*/true});
      result.segments.push_back({segment_start, t, radio});
      segment_start = t;
      radio = new_radio;
      tower = tower_at(radio, pos);
      pingpong.clear();
      continue;
    }

    // Scheduled ping-pong toggle fires as a horizontal handoff.
    if (!pingpong.empty() && t >= pingpong.front().first) {
      const int forced = pingpong.front().second;
      pingpong.pop_front();
      if (forced != tower) {
        result.handoffs.push_back({t, radio, radio, /*vertical=*/false});
        tower = forced;
      }
      continue;
    }

    const int new_tower = tower_at(radio, pos);
    if (new_tower != tower) {
      result.handoffs.push_back({t, radio, radio, /*vertical=*/false});
      const int old_tower = tower;
      tower = new_tower;
      // LTE edge ping-pong: briefly bounce back to the previous tower.
      if (radio == ActiveRadio::kLte &&
          rng.bernoulli(kLtePingpongProbability)) {
        pingpong.emplace_back(t + 1.5, old_tower);
        pingpong.emplace_back(t + 3.0, new_tower);
      }
    }
  }
  result.segments.push_back({segment_start, end_s, radio});
  return result;
}

}  // namespace wild5g::mobility
