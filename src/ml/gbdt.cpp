#include "ml/gbdt.h"

#include <numeric>

#include "core/error.h"

namespace wild5g::ml {

void GradientBoostedRegressor::fit(const Dataset& data) {
  data.validate();
  require(data.size() > 0, "GradientBoostedRegressor::fit: empty dataset");
  require(config_.tree_count > 0, "GradientBoostedRegressor: tree_count <= 0");

  stages_.clear();
  base_prediction_ =
      std::accumulate(data.targets.begin(), data.targets.end(), 0.0) /
      static_cast<double>(data.targets.size());

  std::vector<double> current(data.size(), base_prediction_);
  // Every stage fits the same rows with new targets, so one presort serves
  // them all.
  const Presort presort(data);
  Dataset residuals;
  residuals.feature_names = data.feature_names;
  residuals.values = data.values;
  residuals.targets.resize(data.size());

  for (int stage = 0; stage < config_.tree_count; ++stage) {
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      residuals.targets[i] = data.targets[i] - current[i];
      sum_sq += residuals.targets[i] * residuals.targets[i];
    }
    if (sum_sq < 1e-12) break;  // already fit exactly
    DecisionTreeRegressor tree(config_.tree);
    tree.fit(residuals, presort);
    for (std::size_t i = 0; i < data.size(); ++i) {
      current[i] += kGbdtLearningRate * tree.predict(data.row(i));
    }
    stages_.push_back(std::move(tree));
  }
  fitted_ = true;
}

double GradientBoostedRegressor::predict(
    std::span<const double> features) const {
  require(fitted_, "GradientBoostedRegressor: not fitted");
  double value = base_prediction_;
  for (const auto& tree : stages_) {
    value += kGbdtLearningRate * tree.predict(features);
  }
  return value;
}

std::vector<double> GradientBoostedRegressor::predict_all(
    const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.push_back(predict(data.row(i)));
  }
  return out;
}

}  // namespace wild5g::ml
