#include "abr/pensieve_like.h"

#include <algorithm>

#include "abr/algorithms.h"
#include "core/error.h"

namespace wild5g::abr {

namespace {

/// Wraps an algorithm and logs (features, action) pairs for distillation.
class RecordingAlgorithm final : public AbrAlgorithm {
 public:
  RecordingAlgorithm(ModelPredictiveAbr& oracle, ml::Dataset& sink,
                     std::vector<double> (*featurize)(const AbrContext&))
      : oracle_(&oracle), sink_(&sink), featurize_(featurize) {}

  [[nodiscard]] std::string name() const override { return "recorder"; }
  [[nodiscard]] int choose_track(const AbrContext& context) override {
    const int action = oracle_->choose_track(context);
    sink_->add(featurize_(context), static_cast<double>(action));
    return action;
  }
  void reset() override { oracle_->reset(); }

 private:
  ModelPredictiveAbr* oracle_;
  ml::Dataset* sink_;
  std::vector<double> (*featurize_)(const AbrContext&);
};

}  // namespace

PensieveLikeAbr::PensieveLikeAbr()
    : policy_([] {
        ml::TreeConfig config;
        config.max_depth = 10;
        config.min_samples_leaf = 4;
        config.min_samples_split = 8;
        return ml::DecisionTreeClassifier(config);
      }()) {}

std::vector<double> PensieveLikeAbr::features(const AbrContext& context) {
  const double top = context.video->top_mbps();
  const double last_tput =
      context.past_chunk_mbps.empty() ? 0.0
                                      : context.past_chunk_mbps.back() / top;
  const double hm5 =
      recent_harmonic_mean(context.past_chunk_mbps, 5,
                           context.video->track_mbps.front()) /
      top;
  const double buffer_norm = context.buffer_s / context.max_buffer_s;
  const double last_track_norm =
      context.last_track < 0
          ? 0.0
          : static_cast<double>(context.last_track) /
                static_cast<double>(context.video->track_count() - 1);
  const double remaining =
      static_cast<double>(context.chunk_count - context.next_chunk) /
      static_cast<double>(context.chunk_count);
  return {last_tput, hm5, buffer_norm, last_track_norm, remaining};
}

void PensieveLikeAbr::train(const VideoProfile& video,
                            const std::vector<traces::Trace>& training_traces,
                            const SessionOptions& options) {
  require(!training_traces.empty(), "PensieveLikeAbr::train: no traces");
  ml::Dataset data;
  data.feature_names = {"last_tput", "hm5_tput", "buffer", "last_track",
                        "remaining"};

  OraclePredictor oracle_predictor;
  ModelPredictiveAbr oracle(ModelPredictiveAbr::Variant::kFast,
                            oracle_predictor);
  RecordingAlgorithm recorder(oracle, data, &PensieveLikeAbr::features);
  (void)evaluate_on_traces(video, training_traces, recorder, options);

  require(data.size() >= 200, "PensieveLikeAbr::train: too few decisions");
  policy_.fit(data);
}

int PensieveLikeAbr::choose_track(const AbrContext& context) {
  require(policy_.is_fitted(), "PensieveLikeAbr: not trained");
  const auto f = features(context);
  return std::clamp(policy_.predict(f), 0, context.video->track_count() - 1);
}

}  // namespace wild5g::abr
