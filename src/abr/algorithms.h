// wild5g/abr: the seven ABR algorithms evaluated in Sec. 5.2.
//
//   Buffer-based:      BBA [32], BOLA [56]
//   Throughput-based:  RB (simple rate-based), FESTIVE [33]
//   Control-theoretic: fastMPC, robustMPC [62]
//   Learning-based:    PensieveLike (see pensieve_like.h)
#pragma once

#include <deque>
#include <span>
#include <string>

#include "abr/predictor.h"
#include "abr/session.h"

namespace wild5g::abr {

/// Simple rate-based: highest track whose bitrate fits the recent harmonic
/// mean throughput. No safety margin — the aggressive baseline.
class RateBasedAbr final : public AbrAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "RB"; }
  [[nodiscard]] int choose_track(const AbrContext& context) override;
};

/// Buffer-Based Adaptation (BBA-0): bitrate is a linear function of buffer
/// occupancy between a reservoir and a cushion.
class BbaAbr final : public AbrAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "BBA"; }
  [[nodiscard]] int choose_track(const AbrContext& context) override;
};

/// BOLA (basic): Lyapunov utility maximization over buffer level.
class BolaAbr final : public AbrAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "BOLA"; }
  [[nodiscard]] int choose_track(const AbrContext& context) override;
};

/// FESTIVE: conservative harmonic-mean estimate with gradual (one-level)
/// switching and a stability brake.
class FestiveAbr final : public AbrAlgorithm {
 public:
  [[nodiscard]] std::string name() const override { return "FESTIVE"; }
  [[nodiscard]] int choose_track(const AbrContext& context) override;
  void reset() override { recent_switches_.clear(); }

 private:
  std::deque<bool> recent_switches_;
};

/// MPC family: maximizes the linear QoE over a receding horizon using a
/// plug-in throughput predictor. kFast trusts the prediction; kRobust
/// discounts it by the recent maximum prediction error (robustMPC).
class ModelPredictiveAbr final : public AbrAlgorithm,
                                 public SourceAwareAlgorithm {
 public:
  enum class Variant { kFast, kRobust };

  ModelPredictiveAbr(Variant variant, ThroughputPredictor& predictor,
                     int horizon = 5);

  /// Horizon (in chunks) that keeps the paper's ~20 s lookahead across
  /// chunk lengths (5 chunks at 4 s; more chunks for shorter chunks).
  [[nodiscard]] static int horizon_for_chunk_length(double chunk_s);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int choose_track(const AbrContext& context) override;
  void on_session_start(const BandwidthSource& source) override {
    predictor_->on_session_start(source);
  }
  void reset() override;

 private:
  Variant variant_;
  ThroughputPredictor* predictor_;
  int horizon_;
  std::deque<double> relative_errors_;
  double last_prediction_mbps_ = -1.0;

  /// Best plan QoE over plans starting at first_track, or `floor` when no
  /// plan beats it; `reach` is the running maximum of the ladder's bitrates.
  [[nodiscard]] double plan_qoe(const AbrContext& context, int first_track,
                                double predicted_mbps,
                                std::span<const double> reach,
                                double floor) const;
};

}  // namespace wild5g::abr
