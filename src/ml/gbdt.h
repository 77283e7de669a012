// wild5g/ml: gradient-boosted regression trees.
//
// The paper's MPC_GDBT throughput predictor (Sec. 5.3, after Lumos5G) is a
// gradient-boosted decision tree; this is a least-squares boosting ensemble
// over the CART regressor.
#pragma once

#include <span>
#include <vector>

#include "ml/decision_tree.h"

namespace wild5g::ml {

/// Shrinkage each boosting stage is added with.
inline constexpr double kGbdtLearningRate = 0.1;

struct GbdtConfig {
  int tree_count = 100;
  TreeConfig tree;  // weak learners default to shallow trees
  GbdtConfig() { tree.max_depth = 3; tree.min_samples_leaf = 3; tree.min_samples_split = 6; }
};

/// Least-squares gradient boosting: F_0 = mean(y); each stage fits a shallow
/// CART to the residuals and adds it with shrinkage kGbdtLearningRate. The
/// features are presorted once per fit and every stage grows from that
/// presort.
class GradientBoostedRegressor {
 public:
  explicit GradientBoostedRegressor(GbdtConfig config = {})
      : config_(config) {}

  void fit(const Dataset& data);

  [[nodiscard]] double predict(std::span<const double> features) const;
  [[nodiscard]] double predict(std::initializer_list<double> features) const {
    return predict(std::span<const double>(features.begin(), features.size()));
  }
  [[nodiscard]] std::vector<double> predict_all(const Dataset& data) const;

  [[nodiscard]] bool is_fitted() const { return fitted_; }
  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }

 private:
  GbdtConfig config_;
  double base_prediction_ = 0.0;
  std::vector<DecisionTreeRegressor> stages_;
  bool fitted_ = false;
};

}  // namespace wild5g::ml
