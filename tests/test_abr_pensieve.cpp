// Tests for the distilled learning-based ABR (the Pensieve stand-in).
#include "abr/pensieve_like.h"

#include <gtest/gtest.h>

#include "abr/algorithms.h"
#include "abr/video.h"
#include "core/error.h"

namespace wa = wild5g::abr;
namespace wt = wild5g::traces;
using wild5g::Rng;

namespace {

struct Fixture {
  std::vector<wt::Trace> traces_4g;
  std::vector<wt::Trace> traces_5g;
  wa::SessionOptions options;

  Fixture() {
    Rng rng(1);
    auto c4 = wt::lumos5g_lte_config();
    c4.count = 40;
    traces_4g = wt::generate_traces(c4, rng);
    Rng rng2(2);
    auto c5 = wt::lumos5g_mmwave_config();
    c5.count = 30;
    traces_5g = wt::generate_traces(c5, rng2);
    options.chunk_count = 40;
  }
};

}  // namespace

TEST(Pensieve, UntrainedThrows) {
  wa::PensieveLikeAbr pensieve;
  wa::AbrContext context;
  const auto video = wa::video_ladder_4g();
  context.video = &video;
  EXPECT_THROW((void)pensieve.choose_track(context), wild5g::Error);
}

TEST(Pensieve, TrainsOnFourGTraces) {
  Fixture f;
  wa::PensieveLikeAbr pensieve;
  pensieve.train(wa::video_ladder_4g(), f.traces_4g, f.options);
  EXPECT_TRUE(pensieve.is_trained());
}

TEST(Pensieve, StrongOnItsTrainingDistribution) {
  // The paper: Pensieve outperforms on 4G (its training regime).
  Fixture f;
  wa::PensieveLikeAbr pensieve;
  pensieve.train(wa::video_ladder_4g(), f.traces_4g, f.options);

  const auto video = wa::video_ladder_4g();
  const auto qoe_pensieve =
      wa::evaluate_on_traces(video, f.traces_4g, pensieve, f.options);
  wa::RateBasedAbr rb;
  const auto qoe_rb = wa::evaluate_on_traces(video, f.traces_4g, rb,
                                             f.options);
  EXPECT_GT(qoe_pensieve.mean_normalized_qoe, qoe_rb.mean_normalized_qoe);
  EXPECT_GT(qoe_pensieve.mean_normalized_bitrate, 0.6);
}

TEST(Pensieve, StallsBlowUpOutOfDistributionOn5g) {
  // The paper's headline (Fig. 17): trained without 5G dynamics, the learned
  // policy incurs far more stall time on mmWave than robustMPC.
  Fixture f;
  wa::PensieveLikeAbr pensieve;
  pensieve.train(wa::video_ladder_4g(), f.traces_4g, f.options);

  const auto video = wa::video_ladder_5g();
  const auto qoe_pensieve =
      wa::evaluate_on_traces(video, f.traces_5g, pensieve, f.options);

  wa::HarmonicMeanPredictor predictor;
  wa::ModelPredictiveAbr robust(wa::ModelPredictiveAbr::Variant::kRobust,
                                predictor);
  const auto qoe_robust =
      wa::evaluate_on_traces(video, f.traces_5g, robust, f.options);

  EXPECT_GT(qoe_pensieve.mean_stall_percent,
            1.5 * qoe_robust.mean_stall_percent);
}

TEST(Pensieve, ValidTracksOnArbitraryStates) {
  Fixture f;
  wa::PensieveLikeAbr pensieve;
  pensieve.train(wa::video_ladder_4g(), f.traces_4g, f.options);

  const auto video = wa::video_ladder_5g();
  Rng fuzz(7);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> history;
    for (int j = 0; j < 5; ++j) history.push_back(fuzz.uniform(0.1, 900.0));
    wa::AbrContext context;
    context.video = &video;
    context.next_chunk = 10;
    context.chunk_count = 40;
    context.buffer_s = fuzz.uniform(0.0, 30.0);
    context.max_buffer_s = 30.0;
    context.last_track = static_cast<int>(fuzz.uniform_int(0, 5));
    context.past_chunk_mbps = history;
    const int track = pensieve.choose_track(context);
    EXPECT_GE(track, 0);
    EXPECT_LT(track, 6);
  }
}
