// Tests for gradient-boosted regression trees.
#include "ml/gbdt.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "core/rng.h"
#include "core/stats.h"

using wild5g::Rng;
using wild5g::ml::Dataset;
using wild5g::ml::DecisionTreeRegressor;
using wild5g::ml::GbdtConfig;
using wild5g::ml::GradientBoostedRegressor;
using wild5g::ml::kGbdtLearningRate;

namespace {

Dataset smooth_data(int n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    data.add({x}, 3.0 * std::sin(x) + 0.5 * x);
  }
  return data;
}

}  // namespace

TEST(Gbdt, PredictBeforeFitThrows) {
  GradientBoostedRegressor model;
  EXPECT_THROW((void)model.predict({1.0}), wild5g::Error);
}

TEST(Gbdt, FitsConstantInOneStage) {
  Dataset data;
  data.feature_names = {"x"};
  for (int i = 0; i < 50; ++i) data.add({static_cast<double>(i)}, 4.0);
  GradientBoostedRegressor model;
  model.fit(data);
  EXPECT_NEAR(model.predict({25.0}), 4.0, 1e-9);
  // Residuals vanish immediately, so boosting stops early.
  EXPECT_LE(model.stage_count(), 1u);
}

TEST(Gbdt, BeatsShallowSingleTree) {
  const auto train = smooth_data(800, 1);
  const auto test = smooth_data(200, 2);

  wild5g::ml::TreeConfig shallow;
  shallow.max_depth = 3;
  shallow.min_samples_leaf = 3;
  shallow.min_samples_split = 6;
  DecisionTreeRegressor single(shallow);
  single.fit(train);

  GbdtConfig config;
  config.tree_count = 150;
  GradientBoostedRegressor boosted(config);
  boosted.fit(train);

  const double mae_single =
      wild5g::stats::mae(test.targets, single.predict_all(test));
  const double mae_boosted =
      wild5g::stats::mae(test.targets, boosted.predict_all(test));
  EXPECT_LT(mae_boosted, mae_single * 0.7);
}

TEST(Gbdt, MoreStagesReduceTrainError) {
  const auto train = smooth_data(500, 3);
  auto mae_with = [&](int stages) {
    GbdtConfig config;
    config.tree_count = stages;
    GradientBoostedRegressor model(config);
    model.fit(train);
    return wild5g::stats::mae(train.targets, model.predict_all(train));
  };
  EXPECT_LT(mae_with(100), mae_with(10));
  EXPECT_LT(mae_with(10), mae_with(1));
}

TEST(Gbdt, HandlesMultipleFeatures) {
  Rng rng(4);
  Dataset data;
  data.feature_names = {"a", "b"};
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    data.add({a, b}, 2.0 * a - 3.0 * b + 1.0);
  }
  GradientBoostedRegressor model;
  model.fit(data);
  EXPECT_NEAR(model.predict({0.8, 0.2}), 2.0 * 0.8 - 3.0 * 0.2 + 1.0, 0.25);
}

TEST(Gbdt, RejectsBadConfig) {
  GbdtConfig config;
  config.tree_count = 0;
  GradientBoostedRegressor model(config);
  Dataset data;
  data.feature_names = {"x"};
  data.add({1.0}, 1.0);
  EXPECT_THROW(model.fit(data), wild5g::Error);
}

// Every stage grows from the one presort the ensemble builds per fit. The
// ensemble must equal one built by hand from fresh DecisionTreeRegressor fits,
// each presorting the stage's residuals itself: the same stages and bit-equal
// predictions.
TEST(Gbdt, SharedPresortMatchesFreshFitsPerStage) {
  Rng rng(5);
  Dataset data;
  data.feature_names = {"grid", "x", "y"};
  for (int i = 0; i < 700; ++i) {
    const double grid = std::floor(rng.uniform(0.0, 8.0)) * 0.5;
    const double x = rng.uniform(-2.0, 2.0);
    const double y = rng.normal(0.0, 1.0);
    data.add({grid, x, y}, std::sin(grid) + x * y + rng.normal(0.0, 0.1));
  }
  GbdtConfig config;
  config.tree_count = 40;
  GradientBoostedRegressor model(config);
  model.fit(data);

  double base = 0.0;
  for (const double t : data.targets) base += t;
  base /= static_cast<double>(data.size());
  std::vector<double> current(data.size(), base);
  std::vector<DecisionTreeRegressor> stages;
  Dataset residuals = data;
  for (int stage = 0; stage < config.tree_count; ++stage) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      residuals.targets[i] = data.targets[i] - current[i];
    }
    DecisionTreeRegressor tree(config.tree);
    tree.fit(residuals);
    for (std::size_t i = 0; i < data.size(); ++i) {
      current[i] += kGbdtLearningRate * tree.predict(data.row(i));
    }
    stages.push_back(std::move(tree));
  }
  ASSERT_EQ(model.stage_count(), stages.size());

  const auto by_hand = [&](std::span<const double> row) {
    double value = base;
    for (const auto& tree : stages) {
      value += kGbdtLearningRate * tree.predict(row);
    }
    return value;
  };
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(model.predict(data.row(i)), by_hand(data.row(i))) << "row " << i;
  }
  Rng probe_rng(7);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> row = {probe_rng.uniform(-1.0, 5.0),
                                     probe_rng.uniform(-3.0, 3.0),
                                     probe_rng.normal(0.0, 2.0)};
    ASSERT_EQ(model.predict(row), by_hand(row)) << "probe " << i;
  }
}
