// Tests for the ML dataset container and train/test splitting.
#include "ml/dataset.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/error.h"

using wild5g::Rng;
using wild5g::ml::Dataset;
using wild5g::ml::train_test_split;

namespace {
Dataset small_dataset(int rows) {
  Dataset data;
  data.feature_names = {"x", "y"};
  for (int i = 0; i < rows; ++i) {
    data.add({static_cast<double>(i), static_cast<double>(i * 2)},
             static_cast<double>(i));
  }
  return data;
}
}  // namespace

TEST(Dataset, AddValidatesArity) {
  Dataset data;
  data.feature_names = {"x", "y"};
  EXPECT_THROW(data.add({1.0}, 0.0), wild5g::Error);
  data.add({1.0, 2.0}, 3.0);
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.feature_count(), 2u);
}

TEST(Dataset, ValidateCatchesCorruption) {
  Dataset data = small_dataset(3);
  data.targets.pop_back();
  EXPECT_THROW(data.validate(), wild5g::Error);
}

TEST(Dataset, RowsAreContiguousAndInOrder) {
  const Dataset data = small_dataset(4);
  ASSERT_EQ(data.values.size(), 8u);
  EXPECT_DOUBLE_EQ(data.row(2)[0], 2.0);
  EXPECT_DOUBLE_EQ(data.row(2)[1], 4.0);
  EXPECT_EQ(data.row(3).size(), 2u);
}

TEST(Dataset, AddRejectsNonFiniteValues) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Dataset data;
  data.feature_names = {"x", "y"};
  EXPECT_THROW(data.add({kNan, 1.0}, 0.0), wild5g::Error);
  EXPECT_THROW(data.add({1.0, kInf}, 0.0), wild5g::Error);
  EXPECT_THROW(data.add({-kInf, 1.0}, 0.0), wild5g::Error);
  EXPECT_THROW(data.add({1.0, 2.0}, kNan), wild5g::Error);
  EXPECT_THROW(data.add({1.0, 2.0}, kInf), wild5g::Error);
  EXPECT_THROW(data.add({1.0, 2.0}, -kInf), wild5g::Error);
  // A rejected row leaves the dataset untouched.
  EXPECT_EQ(data.size(), 0u);
  EXPECT_TRUE(data.values.empty());
}

TEST(Dataset, ValidateRejectsNonFiniteValues) {
  Dataset data = small_dataset(3);
  data.values[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(data.validate(), wild5g::Error);
  data = small_dataset(3);
  data.targets[1] = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(data.validate(), wild5g::Error);
}

TEST(Split, ProportionsRespected) {
  Rng rng(1);
  const auto split = train_test_split(small_dataset(100), 0.7, rng);
  EXPECT_EQ(split.train.size(), 70u);
  EXPECT_EQ(split.test.size(), 30u);
  EXPECT_EQ(split.train.feature_names, split.test.feature_names);
}

TEST(Split, DisjointAndComplete) {
  Rng rng(2);
  const auto data = small_dataset(50);
  const auto split = train_test_split(data, 0.6, rng);
  // Together they contain every original target exactly once.
  std::vector<double> all = split.train.targets;
  all.insert(all.end(), split.test.targets.begin(), split.test.targets.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_DOUBLE_EQ(all[i], static_cast<double>(i));
  }
}

TEST(Split, DeterministicInSeed) {
  const auto data = small_dataset(40);
  Rng rng_a(7);
  Rng rng_b(7);
  const auto a = train_test_split(data, 0.5, rng_a);
  const auto b = train_test_split(data, 0.5, rng_b);
  EXPECT_EQ(a.train.targets, b.train.targets);
}

TEST(Split, RejectsDegenerateFractions) {
  Rng rng(3);
  const auto data = small_dataset(10);
  EXPECT_THROW((void)train_test_split(data, 0.0, rng), wild5g::Error);
  EXPECT_THROW((void)train_test_split(data, 1.0, rng), wild5g::Error);
}

TEST(Split, RejectsAnEmptySide) {
  Rng rng(4);
  // 3 rows at 0.2 would leave the train side empty.
  EXPECT_THROW((void)train_test_split(small_dataset(3), 0.2, rng),
               wild5g::Error);
  EXPECT_THROW((void)train_test_split(small_dataset(1), 0.5, rng),
               wild5g::Error);
  const auto split = train_test_split(small_dataset(3), 0.5, rng);
  EXPECT_EQ(split.train.size(), 1u);
  EXPECT_EQ(split.test.size(), 2u);
}
