#include "ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.h"

namespace wild5g::ml {

namespace {

bool all_finite(std::span<const double> xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [](double x) { return std::isfinite(x); });
}

}  // namespace

void Dataset::add(std::span<const double> features, double target) {
  require(features.size() == feature_names.size(),
          "Dataset::add: feature arity mismatch");
  require(all_finite(features), "Dataset::add: non-finite feature value");
  require(std::isfinite(target), "Dataset::add: non-finite target");
  values.insert(values.end(), features.begin(), features.end());
  targets.push_back(target);
}

void Dataset::validate() const {
  require(values.size() == targets.size() * feature_count(),
          "Dataset: values/targets size mismatch");
  require(all_finite(values), "Dataset: non-finite feature value");
  require(all_finite(targets), "Dataset: non-finite target");
}

TrainTestSplit train_test_split(const Dataset& data, double train_fraction,
                                Rng& rng) {
  require(train_fraction > 0.0 && train_fraction < 1.0,
          "train_test_split: fraction out of (0,1)");
  data.validate();
  const auto train_count = static_cast<std::size_t>(
      train_fraction * static_cast<double>(data.size()));
  require(train_count > 0 && train_count < data.size(),
          "train_test_split: train or test side would be empty");
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(std::span<std::size_t>(order));

  TrainTestSplit split;
  split.train.feature_names = data.feature_names;
  split.test.feature_names = data.feature_names;
  const auto f = data.feature_count();
  split.train.values.reserve(train_count * f);
  split.train.targets.reserve(train_count);
  split.test.values.reserve((data.size() - train_count) * f);
  split.test.targets.reserve(data.size() - train_count);
  for (std::size_t i = 0; i < order.size(); ++i) {
    auto& dest = (i < train_count) ? split.train : split.test;
    const auto row = data.row(order[i]);
    dest.values.insert(dest.values.end(), row.begin(), row.end());
    dest.targets.push_back(data.targets[order[i]]);
  }
  return split;
}

}  // namespace wild5g::ml
