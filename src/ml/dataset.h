// wild5g/ml: tabular dataset container shared by the tree learners.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"

namespace wild5g::ml {

/// A dense feature matrix with one target per row. Feature names are kept so
/// learned trees can be rendered readably (Fig. 22 of the paper). Every
/// feature value and target is finite: NaN has no place in the trees' `<`
/// split test.
struct Dataset {
  std::vector<std::string> feature_names;
  // Row-major feature values: row i is values[i*F, (i+1)*F), where
  // F = feature_count().
  std::vector<double> values;
  std::vector<double> targets;  // regression target or class label

  [[nodiscard]] std::size_t size() const { return targets.size(); }
  [[nodiscard]] std::size_t feature_count() const {
    return feature_names.size();
  }

  /// The feature values of row `i`.
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {values.data() + i * feature_count(), feature_count()};
  }

  /// Appends one observation; `features` must match feature_count() and,
  /// like `target`, be finite.
  void add(std::span<const double> features, double target);
  void add(std::initializer_list<double> features, double target) {
    add(std::span<const double>(features.begin(), features.size()), target);
  }

  /// Validates shape and finiteness; throws wild5g::Error on violation.
  void validate() const;
};

/// Result of a random split.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

/// Randomly partitions `data` into train/test with `train_fraction` of rows
/// (rounded down) in train (the paper uses 7:3). Deterministic in `rng`.
/// Throws wild5g::Error if either side would be empty.
[[nodiscard]] TrainTestSplit train_test_split(const Dataset& data,
                                              double train_fraction, Rng& rng);

}  // namespace wild5g::ml
