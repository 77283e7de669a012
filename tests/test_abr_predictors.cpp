// Tests for the throughput predictors (Sec. 5.3 / Fig. 18a machinery).
#include "abr/predictor.h"

#include <gtest/gtest.h>

#include "abr/video.h"
#include "core/error.h"
#include "core/stats.h"

namespace wa = wild5g::abr;
namespace wt = wild5g::traces;
using wild5g::Rng;

namespace {

wa::AbrContext make_context(const wa::VideoProfile& video,
                            std::span<const double> past, double now_s) {
  wa::AbrContext context;
  context.video = &video;
  context.past_chunk_mbps = past;
  context.now_s = now_s;
  context.chunk_count = 60;
  return context;
}

}  // namespace

TEST(HarmonicMean, MatchesStatsHelper) {
  const auto video = wa::video_ladder_5g();
  const std::vector<double> past{100.0, 50.0, 200.0, 80.0, 120.0};
  const auto context = make_context(video, past, 0.0);
  wa::HarmonicMeanPredictor p;
  EXPECT_NEAR(p.predict_mbps(context),
              wild5g::stats::harmonic_mean(past), 1e-9);
}

TEST(HarmonicMean, UsesOnlyWindow) {
  const auto video = wa::video_ladder_5g();
  const std::vector<double> past{1.0,   1.0,   1.0,   100.0,
                                 100.0, 100.0, 100.0, 100.0};
  ASSERT_EQ(wa::kPredictorWindow, 5);
  wa::HarmonicMeanPredictor p;
  const auto context = make_context(video, past, 0.0);
  EXPECT_NEAR(p.predict_mbps(context), 100.0, 1e-9);
}

TEST(HarmonicMean, FallbackBeforeHistory) {
  const auto video = wa::video_ladder_5g();
  wa::HarmonicMeanPredictor p;
  const auto context = make_context(video, {}, 0.0);
  EXPECT_DOUBLE_EQ(p.predict_mbps(context), video.track_mbps.front());
}

TEST(Oracle, ExactOnConstantTrace) {
  const auto video = wa::video_ladder_5g();
  wt::Trace trace;
  trace.mbps.assign(100, 77.0);
  wa::TraceSource source(trace);
  wa::OraclePredictor oracle;
  auto context = make_context(video, {}, 10.0);
  context.source = &source;
  EXPECT_NEAR(oracle.predict_mbps(context), 77.0, 1e-9);
}

TEST(Oracle, SeesTheFutureStep) {
  const auto video = wa::video_ladder_5g();
  wt::Trace trace;
  trace.mbps.assign(10, 100.0);
  trace.mbps.resize(100, 10.0);  // collapse at t=10
  wa::TraceSource source(trace);
  wa::OraclePredictor oracle;
  // A causal predictor at t=9.5 would say ~100; the oracle sees the cliff.
  auto context = make_context(video, {}, 9.5);
  context.source = &source;
  EXPECT_LT(oracle.predict_mbps(context), 30.0);
}

TEST(Oracle, LooksOneChunkAhead) {
  wt::Trace trace;
  trace.mbps.assign(10, 100.0);
  trace.mbps.resize(100, 10.0);  // collapse at t=10
  wa::TraceSource source(trace);
  wa::OraclePredictor oracle;
  // At 1 s chunks the oracle averages [9.5, 10.5): two samples at 100 Mbps
  // and two at 10; at 4 s chunks, [9.5, 13.5): two at 100 and fourteen
  // at 10.
  const auto short_chunks = wa::video_ladder_5g(1.0);
  auto context = make_context(short_chunks, {}, 9.5);
  context.source = &source;
  EXPECT_DOUBLE_EQ(oracle.predict_mbps(context), 55.0);
  const auto long_chunks = wa::video_ladder_5g(4.0);
  context.video = &long_chunks;
  EXPECT_DOUBLE_EQ(oracle.predict_mbps(context), 340.0 / 16.0);
}

TEST(Oracle, RequiresSource) {
  const auto video = wa::video_ladder_5g();
  wa::OraclePredictor oracle;
  const auto context = make_context(video, {}, 0.0);
  EXPECT_THROW((void)oracle.predict_mbps(context), wild5g::Error);
}

TEST(Gbdt, TrainsAndPredictsReasonably) {
  Rng rng(1);
  auto config = wt::lumos5g_mmwave_config();
  config.count = 40;
  const auto traces = wt::generate_traces(config, rng);
  wa::GbdtPredictor gbdt;
  Rng train_rng(2);
  gbdt.train(traces, train_rng);
  ASSERT_TRUE(gbdt.is_trained());

  const auto video = wa::video_ladder_5g();
  const std::vector<double> steady{150.0, 150.0, 150.0, 150.0, 150.0};
  const auto context = make_context(video, steady, 0.0);
  const double predicted = gbdt.predict_mbps(context);
  EXPECT_GT(predicted, 40.0);
  EXPECT_LT(predicted, 600.0);
}

TEST(Gbdt, BeatsHarmonicMeanOnGeneratedTraces) {
  // The Fig. 18a premise: a trained predictor out-forecasts the harmonic
  // mean on mmWave dynamics. Evaluate one-step-ahead MAE over held-out
  // traces.
  Rng rng(3);
  auto config = wt::lumos5g_mmwave_config();
  config.count = 60;
  const auto training = wt::generate_traces(config, rng);
  Rng rng2(97);
  config.count = 15;
  const auto held_out = wt::generate_traces(config, rng2);

  wa::GbdtPredictor gbdt(4.0);
  Rng train_rng(4);
  gbdt.train(training, train_rng);

  const auto video = wa::video_ladder_5g();
  wa::HarmonicMeanPredictor hm;

  // Score with the asymmetric loss that matters for rate adaptation:
  // overpredicting throughput triggers stalls (weight 3), underpredicting
  // merely loses some bitrate (weight 1).
  auto loss = [](double predicted, double future) {
    return 3.0 * std::max(0.0, predicted - future) +
           std::max(0.0, future - predicted);
  };
  double err_gbdt = 0.0;
  double err_hm = 0.0;
  int count = 0;
  for (const auto& trace : held_out) {
    // A decision with no history starts a session and resets smoothing.
    (void)gbdt.predict_mbps(make_context(video, {}, 0.0));
    for (std::size_t t = 5; t + 4 < trace.mbps.size(); t += 3) {
      const std::span<const double> past(trace.mbps.data() + t - 5, 5);
      const auto context =
          make_context(video, past, static_cast<double>(t));
      double future = 0.0;
      for (std::size_t j = 0; j < 4; ++j) future += trace.mbps[t + j];
      future /= 4.0;
      err_gbdt += loss(gbdt.predict_mbps(context), future);
      err_hm += loss(hm.predict_mbps(context), future);
      ++count;
    }
  }
  ASSERT_GT(count, 100);
  EXPECT_LT(err_gbdt, err_hm);
}

TEST(Gbdt, UntrainedThrows) {
  const auto video = wa::video_ladder_5g();
  wa::GbdtPredictor gbdt;
  const std::vector<double> past{1.0};
  const auto context = make_context(video, past, 0.0);
  EXPECT_THROW((void)gbdt.predict_mbps(context), wild5g::Error);
}

TEST(RecentHarmonicMean, PadsAndFallsBack) {
  EXPECT_DOUBLE_EQ(wa::recent_harmonic_mean({}, 5, 42.0), 42.0);
  const std::vector<double> one{10.0};
  EXPECT_DOUBLE_EQ(wa::recent_harmonic_mean(one, 5, 42.0), 10.0);
}
