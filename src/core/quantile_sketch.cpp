#include "core/quantile_sketch.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/integer.h"

namespace wild5g::stats {

// ---------------------------------------------------------------------------
// QuantileSketch

QuantileSketch::QuantileSketch(double relative_accuracy)
    : alpha_(relative_accuracy),
      gamma_((1.0 + relative_accuracy) / (1.0 - relative_accuracy)),
      inv_log_gamma_(1.0 / std::log(gamma_)) {
  require(relative_accuracy > 0.0 && relative_accuracy < 1.0,
          "QuantileSketch: relative accuracy must be in (0, 1)");
}

void QuantileSketch::DenseStore::bump(int index) {
  if (counts.empty()) {
    base = index;
    counts.push_back(0);
  } else if (index < base) {
    counts.insert(counts.begin(), static_cast<std::size_t>(base - index), 0);
    base = index;
  } else if (index >= base + static_cast<int>(counts.size())) {
    counts.resize(static_cast<std::size_t>(index - base) + 1, 0);
  }
  ++counts[static_cast<std::size_t>(index - base)];
  ++total;
}

void QuantileSketch::DenseStore::merge(const DenseStore& other) {
  if (other.counts.empty()) return;
  if (counts.empty()) {
    *this = other;
    return;
  }
  const int lo = std::min(base, other.base);
  const int hi = std::max(base + static_cast<int>(counts.size()),
                          other.base + static_cast<int>(other.counts.size()));
  std::vector<std::uint64_t> merged(static_cast<std::size_t>(hi - lo), 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    merged[static_cast<std::size_t>(base - lo) + i] += counts[i];
  }
  for (std::size_t i = 0; i < other.counts.size(); ++i) {
    merged[static_cast<std::size_t>(other.base - lo) + i] += other.counts[i];
  }
  counts = std::move(merged);
  base = lo;
  total += other.total;
}

int QuantileSketch::bucket_index(double magnitude) const {
  const double clamped =
      std::min(std::max(magnitude, kMinMagnitude), kMaxMagnitude);
  return static_cast<int>(std::ceil(std::log(clamped) * inv_log_gamma_));
}

double QuantileSketch::bucket_value(int index) const {
  // Bucket i covers (gamma^(i-1), gamma^i]; the geometric midpoint is
  // within alpha of every value in the bucket.
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void QuantileSketch::add(double x) {
  WILD5G_REQUIRE(!std::isnan(x), "QuantileSketch::add: NaN sample");
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  if (x > 0.0) {
    positive_.bump(bucket_index(x));
  } else if (x < 0.0) {
    negative_.bump(bucket_index(-x));
  } else {
    ++zero_count_;
  }
}

void QuantileSketch::merge(const QuantileSketch& other) {
  // Folding a sketch into itself is always a bug in the caller (a shard
  // loop that picked up its own accumulator); reject it rather than
  // silently double-counting the population.
  require(this != &other, "QuantileSketch::merge: cannot merge with self");
  // wild5g-lint: allow(float-equality) configs are copied verbatim, never
  // recomputed, so exact equality is the correct compatibility check.
  require(alpha_ == other.alpha_,
          "QuantileSketch::merge: relative accuracies differ");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  positive_.merge(other.positive_);
  negative_.merge(other.negative_);
}

double QuantileSketch::min() const {
  require(count_ > 0, "QuantileSketch::min: empty sketch");
  return min_;
}

double QuantileSketch::max() const {
  require(count_ > 0, "QuantileSketch::max: empty sketch");
  return max_;
}

double QuantileSketch::quantile(double p) const {
  require(count_ > 0, "QuantileSketch::quantile: empty sketch");
  require(p >= 0.0 && p <= 100.0, "QuantileSketch::quantile: p out of [0,100]");
  // Target the order statistic at floor(rank), matching the lower anchor of
  // stats::percentile's interpolation.
  const double rank = (p / 100.0) * static_cast<double>(count_ - 1);
  const auto k = static_cast<std::uint64_t>(rank);
  if (k == 0) return min_;
  if (k >= count_ - 1) return max_;

  std::uint64_t seen = 0;
  double estimate = max_;
  // Ascending value order: most-negative first (largest |x| bucket), then
  // zeros, then positives.
  bool found = false;
  if (negative_.total > 0) {
    for (int i = negative_.base + static_cast<int>(negative_.counts.size()) - 1;
         i >= negative_.base; --i) {
      seen += negative_.counts[static_cast<std::size_t>(i - negative_.base)];
      if (seen > k) {
        estimate = -bucket_value(i);
        found = true;
        break;
      }
    }
  }
  if (!found && zero_count_ > 0) {
    seen += zero_count_;
    if (seen > k) {
      estimate = 0.0;
      found = true;
    }
  }
  if (!found) {
    for (int i = positive_.base;
         i < positive_.base + static_cast<int>(positive_.counts.size()); ++i) {
      seen += positive_.counts[static_cast<std::size_t>(i - positive_.base)];
      if (seen > k) {
        estimate = bucket_value(i);
        break;
      }
    }
  }
  // The exact extremes are known; never report outside them.
  return std::min(std::max(estimate, min_), max_);
}

std::size_t QuantileSketch::memory_bytes() const {
  return sizeof(*this) + positive_.memory_bytes() + negative_.memory_bytes();
}

namespace {

// Checkpoint field helpers: every lookup failure names the missing key so a
// truncated or hand-edited snapshot fails with an actionable message.
const json::Value& checkpoint_field(const json::Value& object,
                                    const char* key) {
  const json::Value* field = object.find(key);
  require(field != nullptr,
          std::string("sketch state: missing field '") + key + "'");
  return *field;
}

double checkpoint_number(const json::Value& object, const char* key) {
  const json::Value& field = checkpoint_field(object, key);
  require(field.is_number(),
          std::string("sketch state: field '") + key + "' is not a number");
  return field.as_number();
}

std::uint64_t checkpoint_count(const json::Value& object, const char* key) {
  return integer_from_json<std::uint64_t>(
      checkpoint_field(object, key),
      std::string("sketch state: field '") + key + "'", 0,
      kJsonIntegerMax - 1);
}

json::Value store_to_json(const std::vector<std::uint64_t>& counts,
                          int base) {
  json::Value out = json::Value::object();
  out.set("base", base);
  json::Value array = json::Value::array();
  for (const std::uint64_t c : counts) {
    array.push_back(static_cast<double>(c));
  }
  out.set("counts", std::move(array));
  return out;
}

}  // namespace

json::Value QuantileSketch::to_json() const {
  json::Value out = json::Value::object();
  out.set("alpha", alpha_);
  out.set("count", static_cast<double>(count_));
  out.set("zero_count", static_cast<double>(zero_count_));
  if (count_ > 0) {
    out.set("min", min_);
    out.set("max", max_);
  }
  out.set("positive", store_to_json(positive_.counts, positive_.base));
  out.set("negative", store_to_json(negative_.counts, negative_.base));
  return out;
}

QuantileSketch QuantileSketch::from_json(const json::Value& value) {
  require(value.is_object(), "sketch state: not an object");
  QuantileSketch sketch(checkpoint_number(value, "alpha"));
  sketch.count_ = checkpoint_count(value, "count");
  sketch.zero_count_ = checkpoint_count(value, "zero_count");
  if (sketch.count_ > 0) {
    sketch.min_ = checkpoint_number(value, "min");
    sketch.max_ = checkpoint_number(value, "max");
    require(sketch.min_ <= sketch.max_, "sketch state: min > max");
  }
  const auto load_store = [&](const char* key, DenseStore& store) {
    const json::Value& node = checkpoint_field(value, key);
    require(node.is_object(),
            std::string("sketch state: field '") + key + "' is not an object");
    store.base = integer_from_json(checkpoint_field(node, "base"),
                                   std::string("sketch state: '") + key +
                                       "' base",
                                   -999'999'999, 999'999'999);
    const json::Value& counts = checkpoint_field(node, "counts");
    require(counts.is_array(),
            std::string("sketch state: '") + key + "' counts is not an array");
    store.total = 0;
    const std::string count_field = std::string("sketch state: '") + key +
                                    "' count";
    for (const json::Value& element : counts.as_array()) {
      const auto c = integer_from_json<std::uint64_t>(element, count_field, 0,
                                                      kJsonIntegerMax - 1);
      store.counts.push_back(c);
      store.total += c;
    }
    // bump() never leaves the window empty once anything landed; reject a
    // store whose edges are zero so round-tripped state stays canonical.
    require(store.counts.empty() ||
                (store.counts.front() > 0 && store.counts.back() > 0),
            std::string("sketch state: '") + key +
                "' counts window has zero-valued edges");
  };
  load_store("positive", sketch.positive_);
  load_store("negative", sketch.negative_);
  require(sketch.count_ == sketch.zero_count_ + sketch.positive_.total +
                               sketch.negative_.total,
          "sketch state: counts do not sum to total");
  return sketch;
}

// ---------------------------------------------------------------------------
// SampleAccumulator

SampleAccumulator::SampleAccumulator(std::size_t exact_limit,
                                     double relative_accuracy)
    : exact_limit_(exact_limit), relative_accuracy_(relative_accuracy) {
  require(relative_accuracy > 0.0 && relative_accuracy < 1.0,
          "SampleAccumulator: relative accuracy must be in (0, 1)");
}

void SampleAccumulator::spill_to_sketch() {
  QuantileSketch sketch(relative_accuracy_);
  for (double x : exact_) sketch.add(x);
  sketch_ = std::move(sketch);
  exact_.clear();
  exact_.shrink_to_fit();
}

void SampleAccumulator::add(double x) {
  WILD5G_REQUIRE(!std::isnan(x), "SampleAccumulator::add: NaN sample");
  sum_ += x;
  if (sketch_.has_value()) {
    sketch_->add(x);
    return;
  }
  exact_.push_back(x);
  if (exact_.size() > exact_limit_) spill_to_sketch();
}

void SampleAccumulator::add(std::span<const double> xs) {
  for (double x : xs) add(x);
}

void SampleAccumulator::merge(const SampleAccumulator& other) {
  // Self-merge in exact mode would insert exact_ into itself — undefined
  // behavior the moment the vector reallocates mid-insert — and in sketch
  // mode it would silently double every bucket. Both are caller bugs.
  require(this != &other, "SampleAccumulator::merge: cannot merge with self");
  require(exact_limit_ == other.exact_limit_,
          "SampleAccumulator::merge: exact limits differ");
  // wild5g-lint: allow(float-equality) configs are copied verbatim, never
  // recomputed, so exact equality is the correct compatibility check.
  require(relative_accuracy_ == other.relative_accuracy_,
          "SampleAccumulator::merge: relative accuracies differ");
  sum_ += other.sum_;
  if (!sketch_.has_value() && !other.sketch_.has_value() &&
      exact_.size() + other.exact_.size() <= exact_limit_) {
    exact_.insert(exact_.end(), other.exact_.begin(), other.exact_.end());
    return;
  }
  if (!sketch_.has_value()) spill_to_sketch();
  if (other.sketch_.has_value()) {
    sketch_->merge(*other.sketch_);
  } else {
    for (double x : other.exact_) sketch_->add(x);
  }
}

std::uint64_t SampleAccumulator::count() const {
  return sketch_.has_value() ? sketch_->count() : exact_.size();
}

double SampleAccumulator::percentile(double p) const {
  if (sketch_.has_value()) return sketch_->quantile(p);
  return stats::percentile(exact_, p);
}

double SampleAccumulator::mean() const {
  require(count() > 0, "SampleAccumulator::mean: empty sample");
  return sum_ / static_cast<double>(count());
}

double SampleAccumulator::min() const {
  if (sketch_.has_value()) return sketch_->min();
  require(!exact_.empty(), "SampleAccumulator::min: empty sample");
  return *std::min_element(exact_.begin(), exact_.end());
}

double SampleAccumulator::max() const {
  if (sketch_.has_value()) return sketch_->max();
  require(!exact_.empty(), "SampleAccumulator::max: empty sample");
  return *std::max_element(exact_.begin(), exact_.end());
}

std::size_t SampleAccumulator::memory_bytes() const {
  return sizeof(*this) + exact_.capacity() * sizeof(double) +
         (sketch_.has_value() ? sketch_->memory_bytes() : 0);
}

json::Value SampleAccumulator::to_json() const {
  json::Value out = json::Value::object();
  out.set("exact_limit", static_cast<double>(exact_limit_));
  out.set("alpha", relative_accuracy_);
  out.set("sum", sum_);
  if (sketch_.has_value()) {
    out.set("sketch", sketch_->to_json());
  } else {
    json::Value samples = json::Value::array();
    for (const double x : exact_) samples.push_back(x);
    out.set("exact", std::move(samples));
  }
  return out;
}

SampleAccumulator SampleAccumulator::from_json(const json::Value& value) {
  require(value.is_object(), "accumulator state: not an object");
  const auto limit = integer_from_json<std::size_t>(
      checkpoint_field(value, "exact_limit"), "accumulator state: exact_limit",
      0, kJsonIntegerMax - 1);
  SampleAccumulator acc(limit, checkpoint_number(value, "alpha"));
  acc.sum_ = checkpoint_number(value, "sum");
  const json::Value* sketch = value.find("sketch");
  const json::Value* exact = value.find("exact");
  require((sketch != nullptr) != (exact != nullptr),
          "accumulator state: expected exactly one of 'sketch'/'exact'");
  if (sketch != nullptr) {
    acc.sketch_ = QuantileSketch::from_json(*sketch);
    // wild5g-lint: allow(float-equality) configs are copied verbatim, never
    // recomputed, so exact equality is the correct compatibility check.
    require(acc.sketch_->relative_accuracy() == acc.relative_accuracy_,
            "accumulator state: sketch accuracy differs from accumulator");
    require(acc.sketch_->count() > acc.exact_limit_,
            "accumulator state: sketch mode below the exact limit");
  } else {
    require(exact->is_array(), "accumulator state: 'exact' is not an array");
    require(exact->size() <= acc.exact_limit_,
            "accumulator state: exact samples exceed the limit");
    for (const json::Value& element : exact->as_array()) {
      require(element.is_number(),
              "accumulator state: exact sample is not a number");
      acc.exact_.push_back(element.as_number());
    }
  }
  return acc;
}

}  // namespace wild5g::stats
