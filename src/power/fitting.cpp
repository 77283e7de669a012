#include "power/fitting.h"

#include "core/error.h"
#include "core/stats.h"

namespace wild5g::power {

std::string to_string(FeatureSet features) {
  switch (features) {
    case FeatureSet::kThroughputAndSignal: return "TH+SS";
    case FeatureSet::kThroughputOnly: return "TH";
    case FeatureSet::kSignalOnly: return "SS";
  }
  return "?";
}

PowerModelFit::PowerModelFit(FeatureSet features, ml::TreeConfig tree_config)
    : features_(features), tree_(tree_config) {}

std::vector<std::string> PowerModelFit::feature_names() const {
  switch (features_) {
    case FeatureSet::kThroughputAndSignal:
      return {"dl_mbps", "ul_mbps", "rsrp_dbm"};
    case FeatureSet::kThroughputOnly:
      return {"dl_mbps", "ul_mbps"};
    case FeatureSet::kSignalOnly:
      return {"rsrp_dbm"};
  }
  return {};
}

std::span<const double> PowerModelFit::feature_row(
    double dl_mbps, double ul_mbps, double rsrp_dbm,
    std::array<double, 3>& buffer) const {
  switch (features_) {
    case FeatureSet::kThroughputAndSignal:
      buffer = {dl_mbps, ul_mbps, rsrp_dbm};
      return {buffer.data(), 3};
    case FeatureSet::kThroughputOnly:
      buffer = {dl_mbps, ul_mbps, 0.0};
      return {buffer.data(), 2};
    case FeatureSet::kSignalOnly:
      buffer = {rsrp_dbm, 0.0, 0.0};
      return {buffer.data(), 1};
  }
  return {};
}

void PowerModelFit::fit(std::span<const CampaignSample> samples, Rng& rng) {
  // Share of the campaign the tree trains on; the rest scores it.
  constexpr double kTrainFraction = 0.7;
  require(samples.size() >= 50, "PowerModelFit::fit: campaign too small");
  ml::Dataset data;
  data.feature_names = feature_names();
  std::array<double, 3> buffer{};
  for (const auto& sample : samples) {
    const auto row =
        feature_row(sample.dl_mbps, sample.ul_mbps, sample.rsrp_dbm, buffer);
    data.values.insert(data.values.end(), row.begin(), row.end());
    data.targets.push_back(sample.power_mw);
  }
  // train_test_split validates the filled rows.
  const auto split = ml::train_test_split(data, kTrainFraction, rng);
  tree_.fit(split.train);
  const auto predicted = tree_.predict_all(split.test);
  test_mape_ = stats::mape_percent(split.test.targets, predicted);
}

double PowerModelFit::predict_mw(double dl_mbps, double ul_mbps,
                                 double rsrp_dbm) const {
  require(tree_.is_fitted(), "PowerModelFit: not fitted");
  std::array<double, 3> buffer{};
  return tree_.predict(feature_row(dl_mbps, ul_mbps, rsrp_dbm, buffer));
}

double PowerModelFit::estimate_energy_j(
    std::span<const UsageSlot> usage) const {
  double energy_j = 0.0;
  for (const auto& slot : usage) {
    require(slot.duration_s >= 0.0, "estimate_energy_j: negative duration");
    energy_j += predict_mw(slot.dl_mbps, slot.ul_mbps, slot.rsrp_dbm) / 1000.0 *
                slot.duration_s;
  }
  return energy_j;
}

}  // namespace wild5g::power
