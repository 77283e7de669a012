#include "abr/predictor.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/stats.h"

namespace wild5g::abr {

double recent_harmonic_mean(std::span<const double> past, int window,
                            double fallback_mbps) {
  if (past.empty()) return fallback_mbps;
  const auto count =
      std::min<std::size_t>(past.size(), static_cast<std::size_t>(window));
  double inv_sum = 0.0;
  for (std::size_t i = past.size() - count; i < past.size(); ++i) {
    inv_sum += 1.0 / std::max(0.01, past[i]);
  }
  return static_cast<double>(count) / inv_sum;
}

double HarmonicMeanPredictor::predict_mbps(const AbrContext& context) {
  // Before any history exists, assume the lowest track is sustainable.
  const double fallback = context.video->track_mbps.front();
  return recent_harmonic_mean(context.past_chunk_mbps, kPredictorWindow,
                              fallback);
}

double OraclePredictor::predict_mbps(const AbrContext& context) {
  require(context.source != nullptr, "OraclePredictor: context has no source");
  constexpr double kStep = 0.25;
  const double end_s = context.now_s + context.video->chunk_s;
  double sum = 0.0;
  int samples = 0;
  for (double t = context.now_s; t < end_s; t += kStep) {
    sum += context.source->mbps_at(t);
    ++samples;
  }
  return std::max(0.05, sum / std::max(1, samples));
}

GbdtPredictor::GbdtPredictor(double horizon_s) : horizon_s_(horizon_s) {
  require(horizon_s_ > 0.0, "GbdtPredictor: invalid config");
  ml::GbdtConfig config;
  config.tree_count = 120;
  config.tree.max_depth = 4;
  model_ = ml::GradientBoostedRegressor(config);
}

std::vector<double> GbdtPredictor::features_from(
    std::span<const double> past) const {
  std::vector<double> features(
      static_cast<std::size_t>(kPredictorWindow), 0.0);
  // Right-align history; pad the far past with the oldest known value.
  // Log space, matching training.
  const double pad = past.empty() ? 0.05 : past.front();
  for (int i = 0; i < kPredictorWindow; ++i) {
    const int source_index =
        static_cast<int>(past.size()) - kPredictorWindow + i;
    const double raw =
        source_index >= 0 ? past[static_cast<std::size_t>(source_index)]
                          : pad;
    features[static_cast<std::size_t>(i)] = std::log2(std::max(0.05, raw));
  }
  return features;
}

void GbdtPredictor::train(const std::vector<traces::Trace>& traces,
                          Rng& rng) {
  require(!traces.empty(), "GbdtPredictor::train: no traces");
  ml::Dataset data;
  constexpr auto kWindow = static_cast<std::size_t>(kPredictorWindow);
  data.feature_names.resize(kWindow);
  for (std::size_t i = 0; i < kWindow; ++i) {
    data.feature_names[i] = "tput_t-" + std::to_string(kWindow - i);
  }
  // Aggregate each trace into chunk-length means first so training samples
  // live on the same scale as the per-chunk throughputs the predictor sees
  // at decision time.
  const auto horizon = static_cast<std::size_t>(
      std::max(1.0, std::round(horizon_s_)));
  for (const auto& trace : traces) {
    std::vector<double> agg;
    for (std::size_t at = 0; at + horizon <= trace.mbps.size();
         at += horizon) {
      double sum = 0.0;
      for (std::size_t j = 0; j < horizon; ++j) sum += trace.mbps[at + j];
      agg.push_back(sum / static_cast<double>(horizon));
    }
    if (agg.size() < kWindow + 1) continue;
    for (std::size_t at = kWindow; at < agg.size();
         at += 1 + static_cast<std::size_t>(rng.uniform_int(0, 1))) {
      // Train in log space: squared error on raw Mbps would be dominated by
      // the multi-Gbps region, leaving the low-rate region — where rate
      // adaptation lives or dies — essentially unfit.
      std::vector<double> features;
      features.reserve(kWindow);
      for (std::size_t j = at - kWindow; j < at; ++j) {
        features.push_back(std::log2(std::max(0.05, agg[j])));
      }
      data.add(std::move(features), std::log2(std::max(0.05, agg[at])));
    }
  }
  require(data.size() >= 100, "GbdtPredictor::train: too few windows");
  model_.fit(data);
}

double GbdtPredictor::predict_mbps(const AbrContext& context) {
  require(model_.is_fitted(), "GbdtPredictor: not trained");
  if (context.past_chunk_mbps.empty()) {
    // No history: a new session, so its smoothing starts afresh.
    has_smoothed_ = false;
    smoothed_log2_ = 0.0;
    return context.video->track_mbps.front();
  }
  const auto features = features_from(context.past_chunk_mbps);
  const double raw_log2 = model_.predict(features);
  // EMA smoothing in log space: tree ensembles are piecewise-constant, and
  // un-smoothed step changes between adjacent leaves would churn the MPC's
  // track choice (paying the smoothness penalty for no QoE gain). Downward
  // moves pass through unsmoothed so collapses are never under-reacted to.
  if (!has_smoothed_ || raw_log2 < smoothed_log2_) {
    smoothed_log2_ = raw_log2;
    has_smoothed_ = true;
  } else {
    smoothed_log2_ = 0.5 * smoothed_log2_ + 0.5 * raw_log2;
  }
  return std::max(0.05, std::exp2(smoothed_log2_));
}

}  // namespace wild5g::abr
