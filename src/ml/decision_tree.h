// wild5g/ml: CART decision trees (regression + classification).
//
// These are the learners the paper leans on: Decision Tree Regression for the
// TH+SS power model (Sec. 4.5) and software-monitor calibration (Sec. 4.6),
// and a Gini-based classifier for the 4G/5G interface selector (Sec. 6.2).
//
// Growth is exact greedy over presorted features (`Presort`): every
// candidate threshold (the midpoint between consecutive distinct values, or
// the upper value when the two are adjacent doubles) of every feature is
// scanned at every node. Ties are broken deterministically. Among splits with
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

/// Every feature's rows sorted once by value, ties in ascending row index:
/// the orders tree growth starts from. They depend only on the feature
/// values, never on the targets, so fits over the same rows with different
/// targets (the stages of a boosted ensemble) can share one presort. Built by
/// a stable LSD radix sort on an order-preserving 64-bit key per value, so
/// each order equals a stable sort by `<`.
class Presort {
 public:
  /// Sorts every feature of `data`, which must be valid.
  explicit Presort(const Dataset& data);

  [[nodiscard]] std::size_t size() const { return rows_; }
  [[nodiscard]] std::size_t feature_count() const { return features_; }
  /// Feature `f`'s row indices in (value, row) order.
  [[nodiscard]] std::span<const std::uint32_t> order(std::size_t f) const {
    return {orders_.data() + f * rows_, rows_};
  }

 private:
  std::size_t rows_;
  std::size_t features_;
  std::vector<std::uint32_t> orders_;  // order f at [f * rows_, (f+1) * rows_)
};

/// CART regressor minimizing within-node variance (squared error).
class DecisionTreeRegressor {
 public:
  explicit DecisionTreeRegressor(TreeConfig config = {}) : config_(config) {}

  /// Learns the tree; `data` must be valid and non-empty.
  void fit(const Dataset& data);
  /// Learns the tree from a presort of `data`'s feature values (or of any
  /// dataset with the same feature values, whatever its targets).
  void fit(const Dataset& data, const Presort& presort);

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
};

}  // namespace wild5g::ml
