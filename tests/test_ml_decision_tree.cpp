// Tests for the CART regressor and classifier.
#include "ml/decision_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/stats.h"

using wild5g::Rng;
using wild5g::ml::Dataset;
using wild5g::ml::DecisionTreeClassifier;
using wild5g::ml::DecisionTreeRegressor;
using wild5g::ml::Presort;
using wild5g::ml::TreeConfig;
using wild5g::ml::TreeNode;

namespace {

TreeConfig loose_config() {
  TreeConfig config;
  config.max_depth = 10;
  config.min_samples_leaf = 1;
  config.min_samples_split = 2;
  return config;
}

}  // namespace

TEST(Regressor, FitsPiecewiseConstantExactly) {
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 40; ++i) {
    const double x = i;
    data.add({x}, x < 20.0 ? 5.0 : 11.0);
  }
  DecisionTreeRegressor tree(loose_config());
  tree.fit(data);
  EXPECT_DOUBLE_EQ(tree.predict({{3.0}}), 5.0);
  EXPECT_DOUBLE_EQ(tree.predict({{35.0}}), 11.0);
  EXPECT_LE(tree.depth(), 2);
}

TEST(Regressor, PredictBeforeFitThrows) {
  DecisionTreeRegressor tree;
  EXPECT_THROW((void)tree.predict({{1.0}}), wild5g::Error);
}

TEST(Regressor, ApproximatesSmoothFunction) {
  Rng rng(3);
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    data.add({x}, std::sin(x));
  }
  DecisionTreeRegressor tree(loose_config());
  tree.fit(data);
  double max_err = 0.0;
  for (double x = 0.2; x < 10.0; x += 0.13) {
    max_err = std::max(max_err, std::abs(tree.predict({{x}}) - std::sin(x)));
  }
  EXPECT_LT(max_err, 0.25);
}

TEST(Regressor, IgnoresUselessFeature) {
  Rng rng(4);
  Dataset data;
  data.feature_names = {"useful", "noise"};
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    data.add({x, rng.uniform(0.0, 1.0)}, x > 0.5 ? 1.0 : 0.0);
  }
  DecisionTreeRegressor tree(loose_config());
  tree.fit(data);
  const auto importances = tree.feature_importances();
  ASSERT_EQ(importances.size(), 2u);
  EXPECT_GT(importances[0], 0.9);
  EXPECT_NEAR(importances[0] + importances[1], 1.0, 1e-9);
}

TEST(Regressor, RespectsMaxDepth) {
  Rng rng(5);
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    data.add({x}, x * x);
  }
  TreeConfig config = loose_config();
  config.max_depth = 3;
  DecisionTreeRegressor tree(config);
  tree.fit(data);
  EXPECT_LE(tree.depth(), 3);
}

TEST(Regressor, ConstantTargetSingleLeaf) {
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 30; ++i) data.add({static_cast<double>(i)}, 7.0);
  DecisionTreeRegressor tree(loose_config());
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({{999.0}}), 7.0);
}

// Property: deeper trees never fit the training set worse.
class DepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(DepthSweep, TrainErrorNonIncreasingInDepth) {
  Rng rng(6);
  Dataset data;
  data.feature_names = {"x", "y"};
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    const double y = rng.uniform(0.0, 1.0);
    data.add({x, y}, std::sin(6.0 * x) + y * y + 3.0);
  }
  auto train_mape = [&](int depth) {
    TreeConfig config = loose_config();
    config.max_depth = depth;
    DecisionTreeRegressor tree(config);
    tree.fit(data);
    return wild5g::stats::mape_percent(data.targets, tree.predict_all(data));
  };
  const int depth = GetParam();
  EXPECT_LE(train_mape(depth + 1), train_mape(depth) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep, ::testing::Values(1, 2, 3, 4, 6));

TEST(Classifier, SeparatesTwoClusters) {
  Rng rng(7);
  Dataset data;
  data.feature_names = {"x", "y"};
  for (int i = 0; i < 300; ++i) {
    const bool cls = rng.bernoulli(0.5);
    data.add({rng.normal(cls ? 3.0 : -3.0, 0.5), rng.normal(0.0, 1.0)},
             cls ? 1.0 : 0.0);
  }
  DecisionTreeClassifier tree(loose_config());
  tree.fit(data);
  EXPECT_EQ(tree.predict({{3.0, 0.0}}), 1);
  EXPECT_EQ(tree.predict({{-3.0, 0.0}}), 0);
  EXPECT_GT(tree.accuracy(data), 0.99);
}

TEST(Classifier, MulticlassWorks) {
  Rng rng(8);
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(0.0, 3.0);
    data.add({x}, std::floor(x));
  }
  DecisionTreeClassifier tree(loose_config());
  tree.fit(data);
  EXPECT_EQ(tree.predict({{0.5}}), 0);
  EXPECT_EQ(tree.predict({{1.5}}), 1);
  EXPECT_EQ(tree.predict({{2.5}}), 2);
}

TEST(Classifier, RejectsNegativeLabels) {
  Dataset data;
  data.feature_names = {"x"};
  data.add({0.0}, -1.0);
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.fit(data), wild5g::Error);
}

TEST(Classifier, RejectsFractionalLabels) {
  Dataset data;
  data.feature_names = {"x"};
  data.add({0.0}, 0.5);
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.fit(data), wild5g::Error);
}

TEST(Classifier, DescribeMentionsFeaturesAndClasses) {
  Rng rng(9);
  Dataset data;
  data.feature_names = {"page_size"};
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    data.add({x}, x > 5.0 ? 1.0 : 0.0);
  }
  DecisionTreeClassifier tree(loose_config());
  tree.fit(data);
  const std::vector<std::string> features{"page_size"};
  const std::vector<std::string> classes{"Use 4G", "Use 5G"};
  const auto text = tree.describe(features, classes);
  EXPECT_NE(text.find("page_size"), std::string::npos);
  EXPECT_NE(text.find("Use 4G"), std::string::npos);
  EXPECT_NE(text.find("Use 5G"), std::string::npos);
}

TEST(Classifier, GiniImportanceSumsToOne) {
  Rng rng(10);
  Dataset data;
  data.feature_names = {"a", "b", "c"};
  for (int i = 0; i < 300; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    data.add({a, b, rng.uniform(0.0, 1.0)},
             (a > 0.5 || b > 0.8) ? 1.0 : 0.0);
  }
  DecisionTreeClassifier tree(loose_config());
  tree.fit(data);
  const auto importances = tree.feature_importances();
  double total = 0.0;
  for (double v : importances) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(importances[0], importances[2]);
}

// The midpoint of two adjacent doubles can round down to the lower one; the
// split must still separate them rather than send every row right.
TEST(Regressor, SeparatesAdjacentDoubles) {
  const double lo = 1.0;
  const double hi = std::nextafter(lo, 2.0);
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 10; ++i) {
    data.add({lo}, 3.0);
    data.add({hi}, 5.0);
  }
  DecisionTreeRegressor tree(loose_config());
  tree.fit(data);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_DOUBLE_EQ(tree.predict({{lo}}), 3.0);
  EXPECT_DOUBLE_EQ(tree.predict({{hi}}), 5.0);
  EXPECT_DOUBLE_EQ(tree.predict({{0.0}}), 3.0);
  // Midpoints of values near the largest double do not overflow to inf.
  const double big = std::numeric_limits<double>::max();
  Dataset wide;
  wide.feature_names = {"x"};
  for (int i = 0; i < 10; ++i) {
    wide.add({big / 2.0}, 3.0);
    wide.add({big}, 5.0);
  }
  tree.fit(wide);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_DOUBLE_EQ(tree.predict({{big / 2.0}}), 3.0);
  EXPECT_DOUBLE_EQ(tree.predict({{big}}), 5.0);
}

TEST(Regressor, FitRejectsNonFiniteValues) {
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 20; ++i) data.add({static_cast<double>(i)}, 1.0 * i);
  data.values[7] = std::numeric_limits<double>::quiet_NaN();
  DecisionTreeRegressor tree(loose_config());
  EXPECT_THROW(tree.fit(data), wild5g::Error);
  DecisionTreeClassifier classifier(loose_config());
  data.values[7] = 7.0;
  data.targets[3] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(classifier.fit(data), wild5g::Error);
}

// --- exactness oracle --------------------------------------------------------

namespace {

// Reference CART grower: copies and re-sorts every feature at every node,
// ordering rows by value with the row index breaking ties, and sums node
// statistics in ascending row order. The library's presorted grower must build
// the identical tree, node for node and bit for bit.
struct ReferenceTree {
  std::vector<TreeNode> nodes;
  std::vector<double> importance;  // raw impurity decrease per feature
};

class ReferenceGrower {
 public:
  ReferenceGrower(const Dataset& data, const TreeConfig& config, bool gini)
      : data_(data), config_(config), gini_(gini) {
    for (double t : data.targets) {
      classes_ = std::max(classes_, 1 + static_cast<int>(t));
    }
    tree_.importance.assign(data.feature_count(), 0.0);
  }

  ReferenceTree grow() {
    std::vector<std::size_t> all(data_.size());
    std::iota(all.begin(), all.end(), 0);
    grow_node(all, 0);
    return std::move(tree_);
  }

 private:
  using Rows = std::vector<std::size_t>;

  // Impurity of rows[from, to), summed in list order: squared-error sum for
  // regression, n * Gini for classification.
  double impurity(const Rows& rows, std::size_t from, std::size_t to) const {
    const auto n = static_cast<double>(to - from);
    if (gini_) {
      std::vector<double> counts(static_cast<std::size_t>(classes_), 0.0);
      for (auto k = from; k < to; ++k) {
        counts[static_cast<std::size_t>(data_.targets[rows[k]])]++;
      }
      double p2 = 0.0;
      for (double c : counts) p2 += (c / n) * (c / n);
      return n * (1.0 - p2);
    }
    double sum = 0.0, sq = 0.0;
    for (auto k = from; k < to; ++k) {
      sum += data_.targets[rows[k]];
      sq += data_.targets[rows[k]] * data_.targets[rows[k]];
    }
    return sq - sum * sum / n;
  }

  // The right side of a regression split, derived from the node totals and
  // the left side's sums as a running scan derives it.
  double right_impurity(const Rows& sorted, std::size_t nl) const {
    if (gini_) return impurity(sorted, nl, sorted.size());
    double total = 0.0, total_sq = 0.0, left = 0.0, left_sq = 0.0;
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      const double y = data_.targets[sorted[k]];
      total += y;
      total_sq += y * y;
      if (k < nl) {
        left += y;
        left_sq += y * y;
      }
    }
    const double right = total - left;
    return (total_sq - left_sq) -
           right * right / static_cast<double>(sorted.size() - nl);
  }

  double leaf_value(const Rows& idx) const {
    if (!gini_) {
      double sum = 0.0;
      for (auto i : idx) sum += data_.targets[i];
      return sum / static_cast<double>(idx.size());
    }
    std::vector<std::size_t> counts(static_cast<std::size_t>(classes_), 0);
    for (auto i : idx) counts[static_cast<std::size_t>(data_.targets[i])]++;
    return static_cast<double>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
  }

  std::int32_t grow_node(const Rows& idx, int depth) {
    const auto id = static_cast<std::int32_t>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    tree_.nodes.back().sample_count = idx.size();
    const double parent = impurity(idx, 0, idx.size());
    double best = 0.0, threshold = 0.0;
    int feature = -1;
    const bool can_split = depth < config_.max_depth &&
                           idx.size() >= config_.min_samples_split &&
                           parent > 0.0;
    for (std::size_t f = 0; can_split && f < data_.feature_count(); ++f) {
      auto sorted = idx;
      std::sort(sorted.begin(), sorted.end(), [&](auto a, auto b) {
        const double va = data_.row(a)[f], vb = data_.row(b)[f];
        return va < vb || (va == vb && a < b);
      });
      const auto n = sorted.size();
      for (std::size_t nl = 1; nl < n; ++nl) {
        const double v = data_.row(sorted[nl - 1])[f];
        const double next = data_.row(sorted[nl])[f];
        if (v == next || nl < config_.min_samples_leaf ||
            n - nl < config_.min_samples_leaf) {
          continue;
        }
        const double decrease = parent - impurity(sorted, 0, nl) -
                                right_impurity(sorted, nl);
        if (decrease > best) {
          best = decrease;
          feature = static_cast<int>(f);
          const double mid = 0.5 * v + 0.5 * next;
          threshold = v < mid ? mid : next;
        }
      }
    }
    if (feature < 0 || best < wild5g::ml::kMinImpurityDecrease) {
      tree_.nodes[static_cast<std::size_t>(id)].value = leaf_value(idx);
      return id;
    }
    tree_.importance[static_cast<std::size_t>(feature)] += best;
    Rows left, right;
    for (auto i : idx) {
      const double v = data_.row(i)[static_cast<std::size_t>(feature)];
      (v < threshold ? left : right).push_back(i);
    }
    const auto l = grow_node(left, depth + 1);
    const auto r = grow_node(right, depth + 1);
    tree_.nodes[static_cast<std::size_t>(id)] =
        TreeNode{false, feature, threshold, l, r, 0.0, idx.size()};
    return id;
  }

  const Dataset& data_;
  const TreeConfig& config_;
  bool gini_;
  int classes_ = 0;
  ReferenceTree tree_;
};

std::vector<double> normalized(std::vector<double> raw) {
  const double total = std::accumulate(raw.begin(), raw.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : raw) v /= total;
  }
  return raw;
}

enum class Targets { kContinuous, kTied, kLabels };

// Features: a coarse grid with many duplicated values, an exact positive
// multiple of it, a constant, and a continuous one. Continuous targets make
// every sum depend on its order, so a grower summing in another order shows
// up in the importances; tied targets are multiples of 0.25; labels are
// integers in [0, 3) for the classifier.
Dataset oracle_dataset(std::uint64_t seed, int rows, Targets targets) {
  Rng rng(seed);
  Dataset data;
  data.feature_names = {"grid", "grid_x0.02", "constant", "continuous"};
  for (int i = 0; i < rows; ++i) {
    const double grid = std::floor(rng.uniform(0.0, 12.0)) * 0.5;
    const double x = rng.uniform(-3.0, 3.0);
    const double y = std::sin(grid) + 0.3 * x + rng.normal(0.0, 0.2);
    double target = y;
    if (targets == Targets::kTied) target = std::round(y * 4.0) / 4.0;
    if (targets == Targets::kLabels) {
      target = std::floor(std::clamp((y + 2.0) / 4.0, 0.0, 0.999) * 3.0);
    }
    data.add({grid, 0.02 * grid, 7.0, x}, target);
  }
  return data;
}

void expect_same_tree(std::span<const TreeNode> got, const ReferenceTree& want,
                      const std::vector<double>& importances,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.nodes.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TreeNode& a = got[i];
    const TreeNode& b = want.nodes[i];
    ASSERT_EQ(a.is_leaf, b.is_leaf) << label << " node " << i;
    EXPECT_EQ(a.feature, b.feature) << label << " node " << i;
    EXPECT_EQ(a.threshold, b.threshold) << label << " node " << i;
    EXPECT_EQ(a.left, b.left) << label << " node " << i;
    EXPECT_EQ(a.right, b.right) << label << " node " << i;
    EXPECT_EQ(a.sample_count, b.sample_count) << label << " node " << i;
    EXPECT_EQ(a.value, b.value) << label << " node " << i;
  }
  EXPECT_EQ(importances, normalized(want.importance)) << label;
}

}  // namespace

// The presorted grower evaluates exactly the candidate splits of a per-node
// sort, in the same order and with the same sums, for every stopping rule.
TEST(TreeOracle, PresortedGrowthMatchesPerNodeSort) {
  const Dataset continuous = oracle_dataset(11, 240, Targets::kContinuous);
  const Dataset tied = oracle_dataset(12, 240, Targets::kTied);
  const Dataset labels = oracle_dataset(13, 240, Targets::kLabels);
  std::size_t internal_nodes = 0;
  for (int depth = 1; depth <= 12; ++depth) {
    for (std::size_t leaf = 1; leaf <= 8; ++leaf) {
      TreeConfig config;
      config.max_depth = depth;
      config.min_samples_leaf = leaf;
      config.min_samples_split = 2;
      const auto label = "depth " + std::to_string(depth) + " leaf " +
                         std::to_string(leaf);

      for (const Dataset* data : {&continuous, &tied}) {
        DecisionTreeRegressor regressor(config);
        regressor.fit(*data);
        expect_same_tree(regressor.nodes(),
                         ReferenceGrower(*data, config, false).grow(),
                         regressor.feature_importances(),
                         "regressor " + label);
        for (const auto& node : regressor.nodes()) {
          internal_nodes += node.is_leaf ? 0 : 1;
        }
      }

      DecisionTreeClassifier classifier(config);
      classifier.fit(labels);
      expect_same_tree(classifier.nodes(),
                       ReferenceGrower(labels, config, true).grow(),
                       classifier.feature_importances(), "classifier " + label);
    }
  }
  // The sweep reaches deep, bushy trees, not only stumps.
  EXPECT_GT(internal_nodes, 2000u);
}

// Tie rule: equal impurity decreases go to the lowest feature index. Feature
// 1 is exactly 0.02 x feature 0, so both order the rows identically and every
// split on one separates the rows exactly as the same split on the other.
TEST(TreeOracle, CollinearFeaturesSplitOnTheLowerIndex) {
  Rng rng(13);
  Dataset data;
  data.feature_names = {"dl_mbps", "ul_mbps", "rsrp_dbm"};
  for (int i = 0; i < 400; ++i) {
    const double dl = rng.uniform(0.0, 1500.0);
    const double rsrp = rng.uniform(-110.0, -70.0);
    data.add({dl, 0.02 * dl, rsrp},
             2000.0 + 1.5 * dl + 10.0 * (rsrp + 90.0) + rng.normal(0.0, 40.0));
  }
  DecisionTreeRegressor regressor(loose_config());
  regressor.fit(data);
  Dataset labels = data;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels.targets[i] = labels.row(i)[0] > 700.0 ? 1.0 : 0.0;
  }
  DecisionTreeClassifier classifier(loose_config());
  classifier.fit(labels);
  for (const auto nodes : {regressor.nodes(), classifier.nodes()}) {
    std::size_t on_dl = 0;
    for (const auto& node : nodes) {
      if (node.is_leaf) continue;
      EXPECT_NE(node.feature, 1);
      on_dl += node.feature == 0 ? 1 : 0;
    }
    EXPECT_GT(on_dl, 0u);
  }
}

// --- presort -----------------------------------------------------------------

// The radix presort orders every feature as a stable sort by `<` does: by
// value, equal values in ascending row order. The two zeros compare equal, so
// -0.0 and +0.0 rows interleave by row index; subnormals, negatives and
// values near the ends of the double range must all land in `<` order.
TEST(Presort, RadixOrderMatchesStableSortByValue) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> specials = {
      0.0,   -0.0,  1e300, -1e300, Limits::max(), Limits::lowest(),
      Limits::denorm_min(), -Limits::denorm_min(), 3.0 * Limits::denorm_min(),
      Limits::min(), -Limits::min(), 1.0, -1.0};
  Rng rng(21);
  const auto special = [&] {
    return specials[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(specials.size()) - 1))];
  };
  Dataset data;
  data.feature_names = {"ties", "specials", "mixed", "continuous", "constant"};
  for (int i = 0; i < 3000; ++i) {
    // Five distinct values, zero signed either way.
    const double ties = (rng.bernoulli(0.5) ? 1.0 : -1.0) *
                        std::floor(rng.uniform(-2.0, 3.0));
    const double mixed = rng.bernoulli(0.5)
                             ? special()
                             : rng.normal(0.0, 1.0) * Limits::denorm_min() *
                                   1e6;
    data.add({ties, special(), mixed, rng.normal(0.0, 1e3), 2.5}, 0.0);
  }
  const Presort presort(data);
  ASSERT_EQ(presort.size(), data.size());
  ASSERT_EQ(presort.feature_count(), data.feature_count());
  std::size_t negative_zeros = 0;
  for (std::size_t f = 0; f < data.feature_count(); ++f) {
    std::vector<std::uint32_t> want(data.size());
    std::iota(want.begin(), want.end(), 0u);
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return data.row(a)[f] < data.row(b)[f];
                     });
    const auto got = presort.order(f);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "feature " << data.feature_names[f];
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double v = data.row(i)[f];
      if (v == 0.0 && std::signbit(v)) ++negative_zeros;
    }
  }
  // The data really mixes both zeros.
  EXPECT_GT(negative_zeros, 100u);
}

TEST(Presort, FitWithSharedPresortMatchesPlainFit) {
  const Dataset data = oracle_dataset(14, 300, Targets::kContinuous);
  const Presort presort(data);
  TreeConfig config;
  config.max_depth = 6;
  config.min_samples_leaf = 2;
  config.min_samples_split = 4;
  DecisionTreeRegressor plain(config);
  plain.fit(data);
  DecisionTreeRegressor shared(config);
  shared.fit(data, presort);
  ASSERT_EQ(shared.node_count(), plain.node_count());
  for (std::size_t i = 0; i < plain.node_count(); ++i) {
    EXPECT_EQ(shared.nodes()[i].feature, plain.nodes()[i].feature);
    EXPECT_EQ(shared.nodes()[i].threshold, plain.nodes()[i].threshold);
    EXPECT_EQ(shared.nodes()[i].value, plain.nodes()[i].value);
  }
  Dataset fewer = data;
  fewer.values.resize(fewer.values.size() - fewer.feature_count());
  fewer.targets.pop_back();
  EXPECT_THROW(shared.fit(fewer, presort), wild5g::Error);
}
