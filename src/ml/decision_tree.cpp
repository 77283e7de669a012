#include "ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/error.h"

namespace wild5g::ml {

namespace {

/// Mutable state while growing one tree. Handles both criteria:
/// squared error (regression) and Gini (classification).
enum class Criterion { kSquaredError, kGini };

struct SplitChoice {
  bool found = false;
  int feature = -1;
  double threshold = 0.0;
  double impurity_decrease = 0.0;
};

/// One row's place in an order: its value of the order's feature and its
/// target ride along with the row index, so scans read memory in sequence.
struct Entry {
  double value;
  double target;
  std::size_t row;
};

/// The threshold between consecutive distinct values `lo` < `hi`: their
/// midpoint, computed without overflow, or `hi` when `lo` and `hi` are
/// adjacent doubles and the midpoint rounds down to `lo`, which would send
/// every row right and leave the left child empty.
double split_threshold(double lo, double hi) {
  const double mid = 0.5 * lo + 0.5 * hi;
  return lo < mid ? mid : hi;
}

/// Moves the entries of `range` whose row goes left to its front, keeping the
/// relative order on both sides.
void stable_partition_by_row(std::span<Entry> range,
                             const std::vector<char>& goes_left,
                             std::vector<Entry>& scratch) {
  auto out = range.begin();
  std::size_t right = 0;
  for (const Entry& e : range) {
    if (goes_left[e.row] != 0) {
      *out++ = e;
    } else {
      scratch[right++] = e;
    }
  }
  std::copy_n(scratch.begin(), right, out);
}

/// Maps a finite double to an unsigned key whose order is the double's `<`
/// order: flip every bit of a negative, only the sign bit of a positive.
/// Adding 0.0 first turns -0.0 into +0.0, so the two zeros, which compare
/// equal, share a key and keep their rows' relative order.
std::uint64_t order_key(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Presorted exact-greedy growth (the XGBoost "exact" method): each feature's
/// rows start in their presorted order, by value with the row index breaking
/// ties, and a node owns the same [begin, end) range in every order.
/// Splitting a node stable-partitions each range into left then right, so
/// every child range stays sorted and the scan sees exactly what a per-node
/// sort would.
class Grower {
 public:
  Grower(const Dataset& data, const TreeConfig& config, Criterion criterion,
         int class_count)
      : data_(data),
        config_(config),
        criterion_(criterion),
        class_count_(class_count),
        rows_(data.size()),
        orders_((data.feature_count() + 1) * data.size()),
        goes_left_(data.size(), 0),
        scratch_(data.size()),
        importance_(data.feature_count(), 0.0) {}

  std::vector<TreeNode> grow(const Presort& presort) {
    const auto features = data_.feature_count();
    for (std::size_t f = 0; f < features; ++f) {
      const auto order = order_span(f, 0, rows_);
      const auto sorted = presort.order(f);
      for (std::size_t i = 0; i < rows_; ++i) {
        const std::size_t row = sorted[i];
        order[i] = {data_.values[row * features + f], data_.targets[row], row};
      }
    }
    // Order `features` is the rows in ascending index: node impurity and
    // leaf values sum in that order.
    const auto by_index = order_span(features, 0, rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
      by_index[i] = {0.0, data_.targets[i], i};
    }
    grow_node(0, rows_, 0);
    return std::move(nodes_);
  }

  std::vector<double> take_importance() { return std::move(importance_); }

 private:
  std::span<Entry> order_span(std::size_t order, std::size_t begin,
                              std::size_t end) {
    return {orders_.data() + order * rows_ + begin, end - begin};
  }
  std::span<const Entry> order_span(std::size_t order, std::size_t begin,
                                    std::size_t end) const {
    return {orders_.data() + order * rows_ + begin, end - begin};
  }
  // The node's rows in ascending row index.
  std::span<const Entry> by_row(std::size_t begin, std::size_t end) const {
    return order_span(data_.feature_count(), begin, end);
  }

  // Impurity of a node given its member rows: sum of squared deviations for
  // regression, n * Gini for classification (both "weighted" impurities so
  // decreases are additive).
  double node_impurity(std::span<const Entry> rows) const {
    if (criterion_ == Criterion::kSquaredError) {
      double sum = 0.0;
      double sq = 0.0;
      for (const Entry& e : rows) {
        sum += e.target;
        sq += e.target * e.target;
      }
      const auto n = static_cast<double>(rows.size());
      return sq - sum * sum / n;
    }
    std::vector<double> counts(static_cast<std::size_t>(class_count_), 0.0);
    for (const Entry& e : rows) counts[static_cast<std::size_t>(e.target)]++;
    const auto n = static_cast<double>(rows.size());
    double sum_p2 = 0.0;
    for (double c : counts) sum_p2 += (c / n) * (c / n);
    return n * (1.0 - sum_p2);
  }

  double leaf_value(std::span<const Entry> rows) const {
    if (criterion_ == Criterion::kSquaredError) {
      double sum = 0.0;
      for (const Entry& e : rows) sum += e.target;
      return sum / static_cast<double>(rows.size());
    }
    std::vector<std::size_t> counts(static_cast<std::size_t>(class_count_), 0);
    for (const Entry& e : rows) counts[static_cast<std::size_t>(e.target)]++;
    const auto best =
        std::max_element(counts.begin(), counts.end()) - counts.begin();
    return static_cast<double>(best);
  }

  SplitChoice best_split(std::size_t begin, std::size_t end,
                         double parent_impurity) const {
    SplitChoice best;
    for (std::size_t f = 0; f < data_.feature_count(); ++f) {
      scan_feature(order_span(f, begin, end), static_cast<int>(f),
                   parent_impurity, best);
    }
    return best;
  }

  // Scans all split positions of one feature's sorted range with running
  // sufficient statistics; updates `best` in place.
  void scan_feature(std::span<const Entry> sorted, int feature,
                    double parent_impurity, SplitChoice& best) const {
    const auto n = sorted.size();
    if (criterion_ == Criterion::kSquaredError) {
      double total_sum = 0.0;
      double total_sq = 0.0;
      for (const Entry& e : sorted) {
        total_sum += e.target;
        total_sq += e.target * e.target;
      }
      double left_sum = 0.0;
      double left_sq = 0.0;
      for (std::size_t k = 0; k + 1 < n; ++k) {
        const double y = sorted[k].target;
        left_sum += y;
        left_sq += y * y;
        const double v_here = sorted[k].value;
        const double v_next = sorted[k + 1].value;
        if (v_here == v_next) continue;
        const auto nl = static_cast<double>(k + 1);
        const auto nr = static_cast<double>(n - k - 1);
        if (nl < static_cast<double>(config_.min_samples_leaf) ||
            nr < static_cast<double>(config_.min_samples_leaf)) {
          continue;
        }
        const double imp_l = left_sq - left_sum * left_sum / nl;
        const double right_sum = total_sum - left_sum;
        const double imp_r =
            (total_sq - left_sq) - right_sum * right_sum / nr;
        consider(parent_impurity - imp_l - imp_r, feature,
                 split_threshold(v_here, v_next), best);
      }
      return;
    }
    // Gini criterion.
    std::vector<double> total(static_cast<std::size_t>(class_count_), 0.0);
    for (const Entry& e : sorted) total[static_cast<std::size_t>(e.target)]++;
    std::vector<double> left(static_cast<std::size_t>(class_count_), 0.0);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      left[static_cast<std::size_t>(sorted[k].target)]++;
      const double v_here = sorted[k].value;
      const double v_next = sorted[k + 1].value;
      if (v_here == v_next) continue;
      const auto nl = static_cast<double>(k + 1);
      const auto nr = static_cast<double>(n - k - 1);
      if (nl < static_cast<double>(config_.min_samples_leaf) ||
          nr < static_cast<double>(config_.min_samples_leaf)) {
        continue;
      }
      double sum_l2 = 0.0;
      double sum_r2 = 0.0;
      for (std::size_t c = 0; c < left.size(); ++c) {
        sum_l2 += (left[c] / nl) * (left[c] / nl);
        const double rc = total[c] - left[c];
        sum_r2 += (rc / nr) * (rc / nr);
      }
      const double imp_l = nl * (1.0 - sum_l2);
      const double imp_r = nr * (1.0 - sum_r2);
      consider(parent_impurity - imp_l - imp_r, feature,
               split_threshold(v_here, v_next), best);
    }
  }

  // Strictly greater wins, and features and thresholds are scanned in
  // ascending order: this is the tie rule documented in decision_tree.h.
  static void consider(double decrease, int feature, double threshold,
                       SplitChoice& best) {
    if (decrease > best.impurity_decrease ||
        (!best.found && decrease > 0.0)) {
      best.found = true;
      best.feature = feature;
      best.threshold = threshold;
      best.impurity_decrease = decrease;
    }
  }

  // Routes the node's rows by `split` and partitions every order's range
  // into left then right. Returns the end of the left range.
  std::size_t partition(std::size_t begin, std::size_t end,
                        const SplitChoice& split) {
    std::size_t left_count = 0;
    for (const Entry& e :
         order_span(static_cast<std::size_t>(split.feature), begin, end)) {
      const bool left = e.value < split.threshold;
      goes_left_[e.row] = left ? 1 : 0;
      left_count += left ? 1 : 0;
    }
    for (std::size_t f = 0; f <= data_.feature_count(); ++f) {
      stable_partition_by_row(order_span(f, begin, end), goes_left_, scratch_);
    }
    return begin + left_count;
  }

  std::int32_t grow_node(std::size_t begin, std::size_t end, int depth) {
    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<std::size_t>(node_id)].sample_count = end - begin;

    const double impurity = node_impurity(by_row(begin, end));
    const bool can_split = depth < config_.max_depth &&
                           end - begin >= config_.min_samples_split &&
                           impurity > 0.0;
    SplitChoice split;
    if (can_split) split = best_split(begin, end, impurity);
    if (!split.found ||
        split.impurity_decrease < kMinImpurityDecrease) {
      nodes_[static_cast<std::size_t>(node_id)].is_leaf = true;
      nodes_[static_cast<std::size_t>(node_id)].value =
          leaf_value(by_row(begin, end));
      return node_id;
    }

    importance_[static_cast<std::size_t>(split.feature)] +=
        split.impurity_decrease;
    const auto mid = partition(begin, end, split);
    // Children are grown after the parent so the parent's fields must be set
    // via index (the vector may reallocate during recursion).
    const auto left_id = grow_node(begin, mid, depth + 1);
    const auto right_id = grow_node(mid, end, depth + 1);
    auto& node = nodes_[static_cast<std::size_t>(node_id)];
    node.is_leaf = false;
    node.feature = split.feature;
    node.threshold = split.threshold;
    node.left = left_id;
    node.right = right_id;
    return node_id;
  }

  const Dataset& data_;
  const TreeConfig& config_;
  Criterion criterion_;
  int class_count_;
  std::size_t rows_;
  // Order f < feature_count() is feature f's rows sorted by (value, row);
  // order feature_count() is the rows in ascending index. Each holds rows_
  // entries.
  std::vector<Entry> orders_;
  std::vector<char> goes_left_;
  std::vector<Entry> scratch_;
  std::vector<TreeNode> nodes_;
  std::vector<double> importance_;
};

double tree_predict(const std::vector<TreeNode>& nodes,
                    std::span<const double> features) {
  require(!nodes.empty(), "decision tree: not fitted");
  std::size_t at = 0;
  while (!nodes[at].is_leaf) {
    const auto& node = nodes[at];
    require(static_cast<std::size_t>(node.feature) < features.size(),
            "decision tree: feature arity mismatch");
    at = static_cast<std::size_t>(
        features[static_cast<std::size_t>(node.feature)] < node.threshold
            ? node.left
            : node.right);
  }
  return nodes[at].value;
}

std::vector<double> normalized(std::vector<double> raw) {
  const double total = std::accumulate(raw.begin(), raw.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : raw) v /= total;
  }
  return raw;
}

int tree_depth_from(const std::vector<TreeNode>& nodes, std::size_t at) {
  if (nodes[at].is_leaf) return 0;
  return 1 + std::max(
                 tree_depth_from(nodes, static_cast<std::size_t>(nodes[at].left)),
                 tree_depth_from(nodes,
                                 static_cast<std::size_t>(nodes[at].right)));
}

}  // namespace

Presort::Presort(const Dataset& data)
    : rows_(data.size()),
      features_(data.feature_count()),
      orders_(data.size() * data.feature_count()) {
  data.validate();
  require(rows_ <= std::numeric_limits<std::uint32_t>::max(),
          "Presort: too many rows");
  // LSD radix sort of row indices, one byte of the key per pass from the
  // lowest: each pass is a stable counting sort, so rows with equal keys end
  // in ascending row order. The passes ping-pong between the order itself
  // and one scratch array, reading keys by row.
  constexpr std::size_t kDigits = 8;
  constexpr std::size_t kBuckets = 256;
  std::vector<std::uint64_t> keys(rows_);
  std::vector<std::uint32_t> scratch(rows_);
  for (std::size_t f = 0; f < features_ && rows_ > 0; ++f) {
    const std::span<std::uint32_t> order(orders_.data() + f * rows_, rows_);
    std::array<std::array<std::uint32_t, kBuckets>, kDigits> counts{};
    for (std::size_t i = 0; i < rows_; ++i) {
      keys[i] = order_key(data.values[i * features_ + f]);
      order[i] = static_cast<std::uint32_t>(i);
      for (std::size_t d = 0; d < kDigits; ++d) {
        ++counts[d][(keys[i] >> (8 * d)) & 0xFF];
      }
    }
    std::span<std::uint32_t> from = order;
    std::span<std::uint32_t> to = scratch;
    for (std::size_t d = 0; d < kDigits; ++d) {
      const auto digit = [&keys, d](std::uint32_t row) {
        return (keys[row] >> (8 * d)) & 0xFF;
      };
      auto& count = counts[d];
      // A byte every key shares would leave the order as it is.
      if (count[digit(from[0])] == rows_) continue;
      std::uint32_t offset = 0;
      for (auto& c : count) offset += std::exchange(c, offset);
      for (const std::uint32_t row : from) to[count[digit(row)]++] = row;
      std::swap(from, to);
    }
    if (from.data() != order.data()) {
      std::copy(from.begin(), from.end(), order.begin());
    }
  }
}

void DecisionTreeRegressor::fit(const Dataset& data) {
  fit(data, Presort(data));
}

void DecisionTreeRegressor::fit(const Dataset& data, const Presort& presort) {
  data.validate();
  require(data.size() > 0, "DecisionTreeRegressor::fit: empty dataset");
  require(presort.size() == data.size() &&
              presort.feature_count() == data.feature_count(),
          "DecisionTreeRegressor::fit: presort shape mismatch");
  feature_count_ = data.feature_count();
  Grower grower(data, config_, Criterion::kSquaredError, 0);
  nodes_ = grower.grow(presort);
  importance_raw_ = grower.take_importance();
}

double DecisionTreeRegressor::predict(std::span<const double> features) const {
  return tree_predict(nodes_, features);
}

std::vector<double> DecisionTreeRegressor::predict_all(
    const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.push_back(predict(data.row(i)));
  }
  return out;
}

std::vector<double> DecisionTreeRegressor::feature_importances() const {
  require(is_fitted(), "DecisionTreeRegressor: not fitted");
  return normalized(importance_raw_);
}

int DecisionTreeRegressor::depth() const {
  require(is_fitted(), "DecisionTreeRegressor: not fitted");
  return tree_depth_from(nodes_, 0);
}

void DecisionTreeClassifier::fit(const Dataset& data) {
  data.validate();
  require(data.size() > 0, "DecisionTreeClassifier::fit: empty dataset");
  feature_count_ = data.feature_count();
  int max_label = 0;
  for (double t : data.targets) {
    require(t >= 0.0 && t == std::floor(t),
            "DecisionTreeClassifier::fit: labels must be non-negative ints");
    max_label = std::max(max_label, static_cast<int>(t));
  }
  class_count_ = max_label + 1;
  Grower grower(data, config_, Criterion::kGini, class_count_);
  nodes_ = grower.grow(Presort(data));
  importance_raw_ = grower.take_importance();
}

int DecisionTreeClassifier::predict(std::span<const double> features) const {
  return static_cast<int>(tree_predict(nodes_, features));
}

std::vector<int> DecisionTreeClassifier::predict_all(
    const Dataset& data) const {
  std::vector<int> out;
  out.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.push_back(predict(data.row(i)));
  }
  return out;
}

double DecisionTreeClassifier::accuracy(const Dataset& data) const {
  require(data.size() > 0, "DecisionTreeClassifier::accuracy: empty set");
  std::size_t hits = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predict(data.row(i)) == static_cast<int>(data.targets[i])) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

std::vector<double> DecisionTreeClassifier::feature_importances() const {
  require(is_fitted(), "DecisionTreeClassifier: not fitted");
  return normalized(importance_raw_);
}

std::string DecisionTreeClassifier::describe(
    std::span<const std::string> feature_names,
    std::span<const std::string> class_names) const {
  require(is_fitted(), "DecisionTreeClassifier: not fitted");
  std::ostringstream os;
  // Iterative preorder render with explicit depth bookkeeping.
  struct Frame {
    std::size_t node;
    int depth;
    std::string prefix;
  };
  std::vector<Frame> stack{{0, 0, ""}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const auto& node = nodes_[frame.node];
    os << std::string(static_cast<std::size_t>(frame.depth) * 2, ' ')
       << frame.prefix;
    if (node.is_leaf) {
      const auto cls = static_cast<std::size_t>(node.value);
      os << "-> " << (cls < class_names.size() ? class_names[cls] : "?")
         << "  [n=" << node.sample_count << "]\n";
    } else {
      const auto f = static_cast<std::size_t>(node.feature);
      os << "if " << (f < feature_names.size() ? feature_names[f] : "x")
         << " < " << node.threshold << "  [n=" << node.sample_count << "]\n";
      stack.push_back({static_cast<std::size_t>(node.right), frame.depth + 1,
                       "else: "});
      stack.push_back({static_cast<std::size_t>(node.left), frame.depth + 1,
                       "then: "});
    }
  }
  return os.str();
}

}  // namespace wild5g::ml
