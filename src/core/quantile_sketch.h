// wild5g/core: deterministic streaming quantile sketch and the
// SampleAccumulator facade that routes campaign percentiles through it.
//
// The paper's headline artifacts are percentile tables over large sample
// populations; storing every sample makes memory the scaling wall for
// metro-scale campaigns (ROADMAP items 1-2). QuantileSketch replaces
// store-all-samples with logarithmic value buckets (the DDSketch scheme):
// each sample lands in the bucket whose geometric span covers it, so a
// quantile query returns a value within a declared *relative accuracy* of
// the true order statistic at that rank, using O(1) memory in the sample
// count.
//
// Determinism contract (DESIGN.md section 10): the sketch state is a pure
// function of the sample *multiset* — bucket assignment involves no
// randomness, no compaction heuristics, and no order dependence — so
// merge(shard_0 .. shard_k) is byte-identical to the single-stream sketch
// of the concatenation, for any sharding. That is what lets parallel_map
// campaigns sketch per-shard and merge in index order without perturbing
// the byte-identical-at-any-thread-count contract.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/json.h"
#include "core/stats.h"

namespace wild5g::stats {

class QuantileSketch {
 public:
  /// Declared accuracy: quantile(p) is within this relative error of the
  /// order statistic at rank floor(p/100 * (n-1)), for magnitudes inside
  /// [kMinMagnitude, kMaxMagnitude]. The committed goldens were computed
  /// at 1%, and every golden document compares at the same tolerance
  /// (rel 1e-6, abs 1e-9), so a different accuracy is a golden change.
  static constexpr double kDefaultRelativeAccuracy = 0.01;
  /// Magnitudes below this collapse into the smallest bucket and values of
  /// exactly zero are counted separately; magnitudes above kMaxMagnitude
  /// clamp into the largest bucket (min()/max() stay exact either way).
  static constexpr double kMinMagnitude = 1e-9;
  static constexpr double kMaxMagnitude = 1e12;

  explicit QuantileSketch(
      double relative_accuracy = kDefaultRelativeAccuracy);

  /// Streams one sample. NaN is rejected here, at accumulation time, so a
  /// poisoned campaign fails at its source instead of at golden-emit time.
  void add(double x);

  /// Folds another sketch of the same relative accuracy into this one.
  /// Bucket counts add exactly, so merge order can never change a query.
  /// Merging a sketch with itself is rejected (wild5g::Error).
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// Exact extremes of everything streamed (not bucket representatives).
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double relative_accuracy() const { return alpha_; }

  /// Percentile-convention quantile, p in [0, 100]: the estimate for the
  /// order statistic at rank floor(p/100 * (n-1)), clamped into
  /// [min(), max()]. Requires a non-empty sketch, mirroring
  /// stats::percentile's precondition.
  [[nodiscard]] double quantile(double p) const;

  /// Heap + object bytes held; O(bucket range), never O(sample count).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Lossless JSON round-trip of the full sketch state, for the campaign
  /// engine's checkpoint/resume. Doubles render via the shortest
  /// round-tripping form, so from_json(to_json(s)) answers every query
  /// byte-identically to `s`. Bucket counts are serialized as JSON numbers,
  /// exact below 2^53 — far beyond any campaign's sample population.
  [[nodiscard]] json::Value to_json() const;
  /// Inverse of to_json(); throws wild5g::Error on malformed or
  /// inconsistent state (e.g. counts that do not sum to the total).
  [[nodiscard]] static QuantileSketch from_json(const json::Value& value);

 private:
  /// Contiguous bucket counters over a lazily-grown index window.
  struct DenseStore {
    std::vector<std::uint64_t> counts;
    int base = 0;  // bucket index of counts[0]
    std::uint64_t total = 0;

    void bump(int index);
    void merge(const DenseStore& other);
    [[nodiscard]] std::size_t memory_bytes() const {
      return counts.capacity() * sizeof(std::uint64_t);
    }
  };

  [[nodiscard]] int bucket_index(double magnitude) const;
  [[nodiscard]] double bucket_value(int index) const;

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  DenseStore positive_;
  DenseStore negative_;  // indexed by |x|'s bucket
};

/// Facade the campaign harnesses and bench tables accumulate through: exact
/// percentiles (bit-for-bit identical to stats::percentile over the same
/// multiset) while the population is small, spilling into a QuantileSketch
/// once it crosses `exact_limit`. The mode switch depends only on the total
/// count, so whether samples arrive in one stream or via merge() of
/// parallel shards, the same population yields the same answers.
class SampleAccumulator {
 public:
  /// Every committed bench table today stays below this, so routing the
  /// benches through the facade changed no golden byte.
  static constexpr std::size_t kDefaultExactLimit = 8192;

  explicit SampleAccumulator(
      std::size_t exact_limit = kDefaultExactLimit,
      double relative_accuracy = QuantileSketch::kDefaultRelativeAccuracy);

  /// Streams one sample; NaN is rejected at accumulation time.
  void add(double x);
  void add(std::span<const double> xs);

  /// Folds `other` (same exact_limit and accuracy) into this accumulator.
  /// Empty merges non-empty (and vice versa) preserving exact min/max/
  /// count; merging an accumulator with itself is rejected (wild5g::Error).
  void merge(const SampleAccumulator& other);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] bool empty() const { return count() == 0; }
  /// True while percentiles are still computed over the stored sample.
  [[nodiscard]] bool exact() const { return !sketch_.has_value(); }

  /// Percentile over everything streamed; requires a non-empty
  /// accumulator, mirroring stats::percentile/stats::mean preconditions.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double p95() const { return percentile(95.0); }

  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Bytes held; bounded by exact_limit + the sketch's bucket range.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Lossless JSON round-trip of the accumulator (mode, stored samples or
  /// sketch state, running sum), for the campaign engine's
  /// checkpoint/resume. The exact-mode sample order is preserved so a
  /// resumed accumulator spills into its sketch at the same point, with the
  /// same stream order, as the uninterrupted run.
  [[nodiscard]] json::Value to_json() const;
  /// Inverse of to_json(); throws wild5g::Error on malformed state.
  [[nodiscard]] static SampleAccumulator from_json(const json::Value& value);

 private:
  void spill_to_sketch();

  std::size_t exact_limit_;
  double relative_accuracy_;
  std::vector<double> exact_;
  std::optional<QuantileSketch> sketch_;
  double sum_ = 0.0;
};

}  // namespace wild5g::stats
