// wild5g/abr: throughput predictors for MPC-style ABR (Sec. 5.3, Fig. 18a).
//
// Three predictors are compared in the paper: the harmonic mean of recent
// chunks (fastMPC's default), a gradient-boosted-tree predictor after
// Lumos5G (MPC_GDBT), and the ground-truth future throughput (truthMPC,
// the oracle upper bound).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "abr/session.h"
#include "core/rng.h"
#include "ml/gbdt.h"

namespace wild5g::abr {

class ThroughputPredictor {
 public:
  virtual ~ThroughputPredictor() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Never called by the session engine: a predictor reads the session's
  /// source from `AbrContext::source` and starts a session at the decision
  /// with no history. Kept as a no-op for decorators that still forward it.
  virtual void on_session_start(const BandwidthSource& /*source*/) {}
  /// Predicted average throughput (Mbps) over the next chunk download.
  [[nodiscard]] virtual double predict_mbps(const AbrContext& context) = 0;
};

/// Chunk throughputs the causal predictors look back over.
inline constexpr int kPredictorWindow = 5;

/// Harmonic mean of the last kPredictorWindow chunk throughputs.
class HarmonicMeanPredictor final : public ThroughputPredictor {
 public:
  [[nodiscard]] std::string name() const override { return "harmonic-mean"; }
  [[nodiscard]] double predict_mbps(const AbrContext& context) override;
};

/// Oracle: true mean bandwidth of `context.source` over the next chunk
/// length (`context.video->chunk_s`).
class OraclePredictor final : public ThroughputPredictor {
 public:
  [[nodiscard]] std::string name() const override { return "ground-truth"; }
  [[nodiscard]] double predict_mbps(const AbrContext& context) override;
};

/// Gradient-boosted-tree predictor trained on throughput traces: features
/// are the last kPredictorWindow `horizon_s`-second means, the target is the
/// mean bandwidth over the following `horizon_s` seconds. Its smoothing
/// restarts at a decision with no history, the first of every session.
class GbdtPredictor final : public ThroughputPredictor {
 public:
  explicit GbdtPredictor(double horizon_s = 4.0);

  /// Trains on sliding windows drawn from `traces`.
  void train(const std::vector<traces::Trace>& traces, Rng& rng);

  [[nodiscard]] std::string name() const override { return "gbdt"; }
  [[nodiscard]] double predict_mbps(const AbrContext& context) override;
  [[nodiscard]] bool is_trained() const { return model_.is_fitted(); }

 private:
  double horizon_s_;
  ml::GradientBoostedRegressor model_;
  double smoothed_log2_ = 0.0;  // EMA over predictions (anti-jitter)
  bool has_smoothed_ = false;

  [[nodiscard]] std::vector<double> features_from(
      std::span<const double> past) const;
};

/// Shared helper: last-`window` harmonic mean with sane fallbacks when the
/// history is short.
[[nodiscard]] double recent_harmonic_mean(std::span<const double> past,
                                          int window, double fallback_mbps);

}  // namespace wild5g::abr
