// wild5g/ml: CART decision trees (regression + classification).
//
// These are the learners the paper leans on: Decision Tree Regression for the
// TH+SS power model (Sec. 4.5) and software-monitor calibration (Sec. 4.6),
// and a Gini-based classifier for the 4G/5G interface selector (Sec. 6.2).
//
// Growth is exact greedy over presorted features: every candidate threshold
// (the midpoint between consecutive distinct values, or the upper value when
// the two are adjacent doubles) of every feature is scanned at every node. Ties are broken deterministically. Among splits with
// equal impurity decrease, the lowest feature index wins, then the lowest
// threshold; so when two features order the rows identically (one a positive
// multiple of the other), every split names the lower-indexed one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"

namespace wild5g::ml {

/// Shared stopping-rule configuration for tree growth.
struct TreeConfig {
  int max_depth = 8;
  std::size_t min_samples_leaf = 5;
  std::size_t min_samples_split = 10;
};

/// A split must cut the node's impurity by at least this much.
inline constexpr double kMinImpurityDecrease = 1e-9;

/// One node of a learned tree. Internal nodes split on
/// `features[feature] < threshold` (true -> left); leaves carry `value`.
struct TreeNode {
  bool is_leaf = true;
  int feature = -1;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;          // leaf: mean target (regression) or class id
  std::size_t sample_count = 0;
};

/// CART regressor minimizing within-node variance (squared error).
class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {}) : config_(config) {}

  /// Learns the tree; `data` must be valid and non-empty.
  void fit(const Dataset& data);

  /// Predicts the target for one feature row.
  [[nodiscard]] double predict(std::span<const double> features) const;
  [[nodiscard]] double predict(std::initializer_list<double> features) const {
    return predict(std::span<const double>(features.begin(), features.size()));
  }

  /// Predicts for every row of `data`.
  [[nodiscard]] std::vector<double> predict_all(const Dataset& data) const;

  /// Total impurity decrease contributed by each feature, normalized to
  /// sum to 1 (the "importance" the paper inspects on its selector trees).
  [[nodiscard]] std::vector<double> feature_importances() const;

  [[nodiscard]] bool is_fitted() const { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// The learned nodes; node 0 is the root, children follow in preorder.
  [[nodiscard]] std::span<const TreeNode> nodes() const { return nodes_; }
  [[nodiscard]] int depth() const;

 private:
  TreeConfig config_;
  std::vector<TreeNode> nodes_;
  std::vector<double> importance_raw_;
  std::size_t feature_count_ = 0;

  friend class TreeGrower;
};

/// CART classifier minimizing Gini impurity. Labels are dense ints [0, k).
class DecisionTreeClassifier {
 public:
  explicit DecisionTreeClassifier(TreeConfig config = {}) : config_(config) {}

  /// Learns the tree; targets in `data` are interpreted as integer labels.
  void fit(const Dataset& data);

  /// Predicts the majority-class label for one feature row.
  [[nodiscard]] int predict(std::span<const double> features) const;
  [[nodiscard]] int predict(std::initializer_list<double> features) const {
    return predict(std::span<const double>(features.begin(), features.size()));
  }

  [[nodiscard]] std::vector<int> predict_all(const Dataset& data) const;

  /// Fraction of rows of `data` classified correctly.
  [[nodiscard]] double accuracy(const Dataset& data) const;

  /// Normalized Gini importance per feature.
  [[nodiscard]] std::vector<double> feature_importances() const;

  /// Human-readable rendering of the tree, using the dataset's feature
  /// names and the provided class names (for Fig. 22-style inspection).
  [[nodiscard]] std::string describe(
      std::span<const std::string> feature_names,
      std::span<const std::string> class_names) const;

  [[nodiscard]] bool is_fitted() const { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// The learned nodes; node 0 is the root, children follow in preorder.
  [[nodiscard]] std::span<const TreeNode> nodes() const { return nodes_; }

 private:
  TreeConfig config_;
  std::vector<TreeNode> nodes_;
  std::vector<double> importance_raw_;
  std::size_t feature_count_ = 0;
  int class_count_ = 0;

  friend class TreeGrower;
};

}  // namespace wild5g::ml
