// wild5g/abr: a learning-based ABR standing in for Pensieve [38].
//
// Substitution note (see DESIGN.md): the original Pensieve is an A3C neural
// policy trained on (mostly 4G-scale) throughput traces. We reproduce the
// property the paper actually measures — a learned policy whose training
// distribution lacks 5G dynamics misjudges mmWave swings and stalls badly —
// by distilling the ground-truth-MPC oracle into a decision-tree policy over
// normalized state features, trained on 4G-character traces. On 4G it is
// near-oracle (as Pensieve was); on mmWave 5G its out-of-distribution
// aggressiveness produces the paper's stall blow-up.
#pragma once

#include <string>
#include <vector>

#include "abr/session.h"
#include "ml/decision_tree.h"

namespace wild5g::abr {

class PensieveLikeAbr final : public AbrAlgorithm {
 public:
  PensieveLikeAbr();

  /// Distills the oracle policy on `training_traces` (run with the ladder
  /// normalized to the training population, as Pensieve's reward was).
  void train(const VideoProfile& video,
             const std::vector<traces::Trace>& training_traces,
             const SessionOptions& options);

  [[nodiscard]] std::string name() const override { return "Pensieve"; }
  [[nodiscard]] int choose_track(const AbrContext& context) override;
  [[nodiscard]] bool is_trained() const { return policy_.is_fitted(); }

 private:
  ml::DecisionTreeClassifier policy_;

  /// Scale-free state features so the policy transfers across ladders
  /// (throughputs normalized by the ladder's top bitrate).
  [[nodiscard]] static std::vector<double> features(
      const AbrContext& context);
};

}  // namespace wild5g::abr
