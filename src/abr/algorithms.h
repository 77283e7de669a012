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
#include <vector>

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
class ModelPredictiveAbr final : public AbrAlgorithm {
 public:
  enum class Variant { kFast, kRobust };

  ModelPredictiveAbr(Variant variant, ThroughputPredictor& predictor,
                     int horizon = 5);

  /// Horizon (in chunks) for a ~20 s lookahead, clamped to 5..12 chunks:
  /// 5 chunks (20 s) at 4 s, 10 (20 s) at 2 s, but 12 (12 s) at 1 s chunks.
  [[nodiscard]] static int horizon_for_chunk_length(double chunk_s);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int choose_track(const AbrContext& context) override;
  void reset() override;

 private:
  Variant variant_;
  ThroughputPredictor* predictor_;
  int horizon_;
  std::deque<double> relative_errors_;
  double last_prediction_mbps_ = -1.0;

  /// What plan_qoe reads at every node; fixed for one decision.
  struct Plan {
    std::span<const double> ladder;  // the video's track_mbps
    std::span<const double> reach;   // running maximum of `ladder`
    double min_mbps;                 // lowest bitrate on `ladder`
    double chunk_s;
    double max_buffer_s;
    double buffer_s;
    double rebuffer_penalty;         // the video's top_mbps()
    double predicted_mbps;
    double chunk_per_mbps;           // chunk_s / predicted_mbps
    double mbps_per_chunk;           // predicted_mbps / chunk_s
    int last_track;
    int steps;
  };
  /// One search node: the chunk at `depth` fetched at `next_track`.
  struct Frame {
    int depth;
    double buffer;
    double prev_bitrate;
    double qoe;
    int next_track;
  };

  // Per-decision scratch, kept so that the search allocates nothing.
  std::vector<double> reach_;
  std::vector<Frame> stack_;

  /// Best plan QoE over plans starting at first_track, or `floor` when no
  /// plan beats it.
  [[nodiscard]] double plan_qoe(const Plan& plan, int first_track,
                                double floor);
};

}  // namespace wild5g::abr
