// wild5g/power: data-driven power-model construction (Sec. 4.5).
//
// Fits decision-tree regression power models from walking-campaign data
// under three feature sets — throughput+signal (the paper's contribution),
// throughput-only (prior work [31]), signal-only (prior work [24, 42]) — and
// evaluates them by MAPE, reproducing Fig. 15. Fitted models also serve as
// the energy estimators used by the video (Sec. 5) and web (Sec. 6) studies.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "ml/decision_tree.h"
#include "power/campaign.h"

namespace wild5g::power {

/// Feature sets compared in Fig. 15.
enum class FeatureSet { kThroughputAndSignal, kThroughputOnly, kSignalOnly };

[[nodiscard]] std::string to_string(FeatureSet features);

/// A fitted network power model for one device/carrier/network setting.
class PowerModelFit {
 public:
  PowerModelFit(FeatureSet features, ml::TreeConfig tree_config = [] {
    ml::TreeConfig config;
    config.max_depth = 12;
    config.min_samples_leaf = 4;
    config.min_samples_split = 8;
    return config;
  }());

  /// Trains on a 70/30 split of the campaign and records the held-out MAPE.
  void fit(std::span<const CampaignSample> samples, Rng& rng);

  /// Predicted radio power at an operating point.
  [[nodiscard]] double predict_mw(double dl_mbps, double ul_mbps,
                                  double rsrp_dbm) const;

  /// Energy estimate for a usage timeline (used to score real applications,
  /// Sec. 4.5 "Validation on Real Applications").
  struct UsageSlot {
    double dl_mbps = 0.0;
    double ul_mbps = 0.0;
    double rsrp_dbm = -80.0;
    double duration_s = 1.0;
  };
  [[nodiscard]] double estimate_energy_j(
      std::span<const UsageSlot> usage) const;

  [[nodiscard]] double test_mape_percent() const { return test_mape_; }
  [[nodiscard]] FeatureSet features() const { return features_; }
  [[nodiscard]] bool is_fitted() const { return tree_.is_fitted(); }

 private:
  FeatureSet features_;
  ml::DecisionTreeRegressor tree_;
  double test_mape_ = 0.0;

  /// The feature set's values at an operating point, written to the front
  /// of `buffer`.
  [[nodiscard]] std::span<const double> feature_row(
      double dl_mbps, double ul_mbps, double rsrp_dbm,
      std::array<double, 3>& buffer) const;
  [[nodiscard]] std::vector<std::string> feature_names() const;
};

}  // namespace wild5g::power
