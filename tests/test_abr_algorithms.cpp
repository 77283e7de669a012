// Tests for the seven ABR algorithms' decision logic.
#include "abr/algorithms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "abr/predictor.h"
#include "abr/video.h"
#include "core/error.h"
#include "core/rng.h"

namespace wa = wild5g::abr;

namespace {

struct ContextBuilder {
  wa::VideoProfile video = wa::video_ladder_5g();
  std::vector<double> past;
  wa::AbrContext context;

  wa::AbrContext& build(double buffer_s, int last_track,
                        std::vector<double> history) {
    past = std::move(history);
    context = {};
    context.video = &video;
    context.next_chunk = static_cast<int>(past.size());
    context.chunk_count = 60;
    context.buffer_s = buffer_s;
    context.max_buffer_s = 30.0;
    context.last_track = last_track;
    context.past_chunk_mbps = past;
    return context;
  }
};

}  // namespace

TEST(RateBased, PicksHighestSustainableTrack) {
  ContextBuilder cb;
  wa::RateBasedAbr rb;
  // Throughput ~ 120 Mbps: highest track <= 120 is 106.7 (index 4).
  EXPECT_EQ(rb.choose_track(cb.build(10.0, 3, {120.0, 120.0, 120.0})), 4);
  // Plenty of bandwidth: top track.
  EXPECT_EQ(rb.choose_track(cb.build(10.0, 3, {500.0, 500.0, 500.0})), 5);
  // Starved: lowest track.
  EXPECT_EQ(rb.choose_track(cb.build(10.0, 3, {5.0, 5.0, 5.0})), 0);
}

TEST(RateBased, NoHistoryIsConservative) {
  ContextBuilder cb;
  wa::RateBasedAbr rb;
  EXPECT_EQ(rb.choose_track(cb.build(0.0, -1, {})), 0);
}

TEST(Bba, MonotoneInBuffer) {
  ContextBuilder cb;
  wa::BbaAbr bba;
  int prev = -1;
  for (double buffer = 0.0; buffer <= 30.0; buffer += 1.0) {
    const int track = bba.choose_track(cb.build(buffer, 2, {100.0}));
    EXPECT_GE(track, prev);
    prev = track;
  }
  EXPECT_EQ(bba.choose_track(cb.build(1.0, 2, {100.0})), 0);
  EXPECT_EQ(bba.choose_track(cb.build(29.0, 2, {100.0})), 5);
}

TEST(Bola, LowBufferLowTrackHighBufferHighTrack) {
  ContextBuilder cb;
  wa::BolaAbr bola;
  EXPECT_EQ(bola.choose_track(cb.build(1.0, 2, {100.0})), 0);
  EXPECT_EQ(bola.choose_track(cb.build(29.0, 2, {100.0})), 5);
  // Monotone non-decreasing in buffer.
  int prev = -1;
  for (double buffer = 0.0; buffer <= 30.0; buffer += 0.5) {
    const int track = bola.choose_track(cb.build(buffer, 2, {100.0}));
    EXPECT_GE(track, prev);
    prev = track;
  }
}

TEST(Festive, MovesAtMostOneLevelPerChunk) {
  ContextBuilder cb;
  wa::FestiveAbr festive;
  festive.reset();
  // Huge estimated bandwidth but last track 1: may only step to 2.
  EXPECT_EQ(festive.choose_track(cb.build(20.0, 1, {900.0, 900.0, 900.0})),
            2);
  // Collapse: may only step down one level from 4.
  festive.reset();
  EXPECT_EQ(festive.choose_track(cb.build(20.0, 4, {1.0, 1.0, 1.0})), 3);
}

TEST(Festive, StabilityBrakeHolds) {
  ContextBuilder cb;
  wa::FestiveAbr festive;
  festive.reset();
  // Force alternating estimates to trigger switches, then verify the brake.
  int switches = 0;
  int last = 2;
  for (int i = 0; i < 12; ++i) {
    const double est = (i % 2 == 0) ? 900.0 : 30.0;
    const int track =
        festive.choose_track(cb.build(20.0, last, {est, est, est}));
    if (track != last) ++switches;
    last = track;
  }
  EXPECT_LE(switches, 7);  // brake engaged at least sometimes
}

TEST(Mpc, TopTrackWhenPredictionHuge) {
  ContextBuilder cb;
  wa::HarmonicMeanPredictor predictor;
  wa::ModelPredictiveAbr mpc(wa::ModelPredictiveAbr::Variant::kFast,
                             predictor);
  mpc.reset();
  EXPECT_EQ(mpc.choose_track(
                cb.build(20.0, 5, {2000.0, 2000.0, 2000.0, 2000.0, 2000.0})),
            5);
}

TEST(Mpc, LowTrackWhenStarvedAndBufferEmpty) {
  ContextBuilder cb;
  wa::HarmonicMeanPredictor predictor;
  wa::ModelPredictiveAbr mpc(wa::ModelPredictiveAbr::Variant::kFast,
                             predictor);
  mpc.reset();
  EXPECT_EQ(mpc.choose_track(cb.build(0.5, 0, {8.0, 8.0, 8.0})), 0);
}

TEST(Mpc, RobustMoreConservativeAfterPredictionError) {
  ContextBuilder cb;
  wa::HarmonicMeanPredictor p1;
  wa::HarmonicMeanPredictor p2;
  wa::ModelPredictiveAbr fast(wa::ModelPredictiveAbr::Variant::kFast, p1);
  wa::ModelPredictiveAbr robust(wa::ModelPredictiveAbr::Variant::kRobust, p2);
  fast.reset();
  robust.reset();

  // First decision identical (no error history yet). Feed a wildly wrong
  // history: previous prediction 240 (hm of history), actual turned out 40.
  (void)fast.choose_track(cb.build(10.0, 3, {240.0, 240.0, 240.0}));
  (void)robust.choose_track(cb.build(10.0, 3, {240.0, 240.0, 240.0}));
  const auto& ctx_fast =
      cb.build(6.0, 3, {240.0, 240.0, 240.0, 40.0});
  const int fast_track = fast.choose_track(ctx_fast);
  const auto& ctx_robust =
      cb.build(6.0, 3, {240.0, 240.0, 240.0, 40.0});
  const int robust_track = robust.choose_track(ctx_robust);
  EXPECT_LE(robust_track, fast_track);
}

TEST(Mpc, HorizonValidation) {
  wa::HarmonicMeanPredictor predictor;
  EXPECT_THROW(wa::ModelPredictiveAbr(
                   wa::ModelPredictiveAbr::Variant::kFast, predictor, 0),
               wild5g::Error);
  EXPECT_THROW(wa::ModelPredictiveAbr(
                   wa::ModelPredictiveAbr::Variant::kFast, predictor, 99),
               wild5g::Error);
}

TEST(Mpc, NamesDistinguishVariants) {
  wa::HarmonicMeanPredictor predictor;
  wa::ModelPredictiveAbr fast(wa::ModelPredictiveAbr::Variant::kFast,
                              predictor);
  wa::ModelPredictiveAbr robust(wa::ModelPredictiveAbr::Variant::kRobust,
                                predictor);
  EXPECT_EQ(fast.name(), "fastMPC");
  EXPECT_EQ(robust.name(), "robustMPC");
}

namespace {

/// Predictor that returns whatever the test last set, so the oracle below
/// can recompute fastMPC's prediction exactly.
class FixedPredictor final : public wa::ThroughputPredictor {
 public:
  double mbps = 1.0;
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] double predict_mbps(const wa::AbrContext&) override {
    return mbps;
  }
};

/// The MPC planner without any bound: every one-level-move plan of `steps`
/// chunks starting at first_track, scored exactly as the planner scores it.
double exhaustive_plan_qoe(const wa::AbrContext& context, int horizon,
                           int first_track, double predicted_mbps) {
  const auto& video = *context.video;
  const double rebuffer_penalty = video.top_mbps();
  const int steps =
      std::min(horizon, context.chunk_count - context.next_chunk);
  double best = -std::numeric_limits<double>::infinity();
  struct Frame {
    int depth;
    double buffer;
    double prev_bitrate;
    double qoe;
    int next_track;
  };
  std::vector<Frame> stack;
  const double last_bitrate = context.last_track >= 0
                                  ? video.bitrate(context.last_track)
                                  : video.bitrate(first_track);
  stack.push_back({0, context.buffer_s, last_bitrate, 0.0, first_track});
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const double bitrate = video.bitrate(frame.next_track);
    const double download_s = bitrate * video.chunk_s / predicted_mbps;
    const double stall = std::max(0.0, download_s - frame.buffer);
    double buffer = std::max(0.0, frame.buffer - download_s) + video.chunk_s;
    buffer = std::min(buffer, context.max_buffer_s);
    const double qoe = frame.qoe + bitrate - rebuffer_penalty * stall -
                       std::abs(bitrate - frame.prev_bitrate);
    if (frame.depth + 1 >= steps) {
      best = std::max(best, qoe);
      continue;
    }
    const int lo = std::max(0, frame.next_track - 1);
    const int hi = std::min(video.track_count() - 1, frame.next_track + 1);
    for (int track = lo; track <= hi; ++track) {
      stack.push_back({frame.depth + 1, buffer, bitrate, qoe, track});
    }
  }
  return best;
}

/// fastMPC's decision by exhaustive enumeration: the first track whose best
/// plan strictly beats every earlier track's.
int exhaustive_choice(const wa::AbrContext& context, int horizon,
                      double predicted_mbps) {
  int best_track = 0;
  double best_qoe = -std::numeric_limits<double>::infinity();
  for (int track = 0; track < context.video->track_count(); ++track) {
    const double qoe =
        exhaustive_plan_qoe(context, horizon, track, predicted_mbps);
    if (qoe > best_qoe) {
      best_qoe = qoe;
      best_track = track;
    }
  }
  return best_track;
}

/// robustMPC after one missed prediction, checked against the oracle: the
/// first decision has no realized throughput to score, so it predicts
/// `first_mbps` undiscounted; the second sees `actual_mbps` and divides the
/// predictor's current value by one plus the capped relative miss, as
/// choose_track does.
void expect_robust_matches_oracle(const wa::AbrContext& context, int horizon,
                                  FixedPredictor& predictor,
                                  double first_mbps, double actual_mbps) {
  wa::ModelPredictiveAbr robust(wa::ModelPredictiveAbr::Variant::kRobust,
                                predictor, horizon);
  const double second_mbps = predictor.mbps;
  wa::AbrContext first = context;
  first.past_chunk_mbps = {};
  predictor.mbps = first_mbps;
  ASSERT_EQ(robust.choose_track(first),
            exhaustive_choice(first, horizon, std::max(0.05, first_mbps)));

  predictor.mbps = second_mbps;
  const std::vector<double> past{actual_mbps};
  wa::AbrContext second = context;
  second.past_chunk_mbps = past;
  const double miss =
      std::min(std::abs(std::max(0.05, first_mbps) - actual_mbps) /
                   std::max(0.01, actual_mbps),
               0.7);
  const double discounted = std::max(0.05, second_mbps) / (1.0 + miss);
  ASSERT_EQ(robust.choose_track(second),
            exhaustive_choice(second, horizon, discounted))
      << "robustMPC: first " << first_mbps << ", actual " << actual_mbps
      << ", then " << second_mbps << " Mbps";
}

}  // namespace

TEST(Mpc, BoundedSearchMatchesExhaustiveEnumeration) {
  // A hand-built ladder that is not ascending: its top_mbps() (the stall
  // penalty) is not its highest bitrate, and climbing a level can lower the
  // bitrate.
  wa::VideoProfile zigzag;
  zigzag.chunk_s = 2.0;
  zigzag.track_mbps = {3.0, 12.0, 7.5, 40.0, 25.0, 90.0, 60.0};
  const std::vector<wa::VideoProfile> ladders{
      wa::video_ladder_5g(4.0), wa::video_ladder_5g(1.0),
      wa::video_ladder_4g(2.0), wa::video_ladder_4g(1.0), zigzag};

  FixedPredictor predictor;
  wild5g::Rng rng(20210823);
  wild5g::Rng miss_rng(20210824);
  // fastMPC against the oracle, then robustMPC after one missed prediction.
  // The miss draws come from their own stream, so the contexts below stay
  // the ones earlier versions of this test checked.
  const auto check = [&](const wa::AbrContext& context, int horizon,
                         const std::string& label) {
    wa::ModelPredictiveAbr mpc(wa::ModelPredictiveAbr::Variant::kFast,
                               predictor, horizon);
    ASSERT_EQ(mpc.choose_track(context),
              exhaustive_choice(context, horizon,
                                std::max(0.05, predictor.mbps)))
        << label << ": horizon " << horizon << ", remaining "
        << context.chunk_count - context.next_chunk << ", buffer "
        << context.buffer_s << "/" << context.max_buffer_s << ", last track "
        << context.last_track << ", predicted " << predictor.mbps
        << " Mbps, chunk " << context.video->chunk_s << " s";
    SCOPED_TRACE(label);
    expect_robust_matches_oracle(context, horizon, predictor,
                                 predictor.mbps * miss_rng.uniform(0.4, 2.5),
                                 predictor.mbps);
  };
  // Horizons 1..9 cycle through most contexts; a few run at 10..12, where
  // the exhaustive oracle costs up to ~1M leaves per decision.
  const std::vector<int> long_horizons{10, 10, 10, 11, 11, 11, 12, 12, 12};
  const int contexts = 2000 + static_cast<int>(long_horizons.size());
  for (int i = 0; i < contexts; ++i) {
    const int horizon =
        i < 2000 ? 1 + i % 9
                 : long_horizons[static_cast<std::size_t>(i - 2000)];
    const auto& video = ladders[static_cast<std::size_t>(i % 5)];
    const int tracks = video.track_count();

    wa::AbrContext context;
    context.video = &video;
    context.chunk_count = 60;
    // One context in four ends the session inside the horizon.
    const int remaining =
        i % 4 == 0 ? static_cast<int>(rng.uniform_int(1, horizon)) : horizon;
    context.next_chunk = context.chunk_count - remaining;
    context.max_buffer_s = rng.uniform(4.0, 60.0);
    // The horizon, ladder, remaining, buffer and last-track cases cycle with
    // coprime moduli (9, 5, 4, 11, 7), and the prediction case advances once
    // per horizon cycle, so every pairing of cases occurs.
    switch (i % 11) {
      case 0: context.buffer_s = 0.0; break;
      case 1: context.buffer_s = context.max_buffer_s; break;
      default: context.buffer_s = rng.uniform(0.0, context.max_buffer_s);
    }
    context.last_track =
        i % 7 == 0 ? -1 : static_cast<int>(rng.uniform_int(0, tracks - 1));

    // Predicted throughput: log-uniform over 0.05..2000 Mbps, or exactly a
    // ladder bitrate, or halfway between two adjacent ones.
    const int track = static_cast<int>(rng.uniform_int(0, tracks - 2));
    switch (i / 9 % 3) {
      case 0:
        predictor.mbps =
            std::exp(rng.uniform(std::log(0.05), std::log(2000.0)));
        break;
      case 1: predictor.mbps = video.bitrate(track); break;
      default:
        predictor.mbps =
            0.5 * (video.bitrate(track) + video.bitrate(track + 1));
    }

    check(context, horizon, "context " + std::to_string(i));
  }

  // Stall regime: every prediction is at most the lowest bitrate, so no
  // chunk downloads faster than it plays, no plan gains buffer, and the
  // stall bound, not the climb bound, does the pruning.
  // Horizons 8..12 on both ladders and the zigzag one; one context in three
  // starts with an empty buffer and one in four caps the buffer below one
  // chunk.
  const std::vector<wa::VideoProfile> stall_ladders{
      wa::video_ladder_5g(1.0), wa::video_ladder_4g(2.0), zigzag};
  for (int i = 0; i < 90; ++i) {
    const int horizon = 8 + i % 5;
    const auto& video = stall_ladders[static_cast<std::size_t>(i % 3)];
    const double lowest_mbps =
        *std::min_element(video.track_mbps.begin(), video.track_mbps.end());
    wa::AbrContext context;
    context.video = &video;
    context.chunk_count = 60;
    context.next_chunk = context.chunk_count - horizon;
    context.max_buffer_s = i % 4 == 0
                               ? rng.uniform(0.1, 1.0) * video.chunk_s
                               : rng.uniform(4.0, 60.0);
    context.buffer_s =
        i / 5 % 3 == 0 ? 0.0 : rng.uniform(0.0, context.max_buffer_s);
    context.last_track = static_cast<int>(
        rng.uniform_int(-1, video.track_count() - 1));
    // Log-uniform over 0.05 Mbps..the lowest bitrate, or either end.
    switch (i % 7) {
      case 0: predictor.mbps = 0.05; break;
      case 1: predictor.mbps = lowest_mbps; break;
      default:
        predictor.mbps =
            std::exp(rng.uniform(std::log(0.05), std::log(lowest_mbps)));
    }
    check(context, horizon, "stall context " + std::to_string(i));
  }

  // Stalls that cost less than the bitrate they buy: with sub-second chunks
  // a prediction above penalty * chunk_s (the penalty being top_mbps()) still
  // stalls the higher tracks, and the stall bound peaks at the largest
  // bitrate sum rather than at the largest sum that does not stall.
  wa::VideoProfile short_zigzag = zigzag;
  short_zigzag.chunk_s = 0.5;
  const std::vector<wa::VideoProfile> short_ladders{wa::video_ladder_5g(0.25),
                                                    short_zigzag};
  for (int i = 0; i < 60; ++i) {
    const int horizon = 1 + i % 12;
    const auto& video = short_ladders[static_cast<std::size_t>(i % 2)];
    const double highest_mbps =
        *std::max_element(video.track_mbps.begin(), video.track_mbps.end());
    wa::AbrContext context;
    context.video = &video;
    context.chunk_count = 60;
    context.next_chunk = context.chunk_count - horizon;
    context.max_buffer_s = rng.uniform(1.0, 30.0);
    context.buffer_s = rng.uniform(0.0, context.max_buffer_s);
    context.last_track = static_cast<int>(
        rng.uniform_int(-1, video.track_count() - 1));
    predictor.mbps =
        std::exp(rng.uniform(std::log(video.top_mbps() * video.chunk_s),
                             std::log(highest_mbps)));
    check(context, horizon, "short-chunk context " + std::to_string(i));
  }
}

TEST(AllAlgorithms, AlwaysReturnValidTracks) {
  ContextBuilder cb;
  wa::HarmonicMeanPredictor predictor;
  wa::RateBasedAbr rb;
  wa::BbaAbr bba;
  wa::BolaAbr bola;
  wa::FestiveAbr festive;
  wa::ModelPredictiveAbr fast(wa::ModelPredictiveAbr::Variant::kFast,
                              predictor);
  std::vector<wa::AbrAlgorithm*> algorithms{&rb, &bba, &bola, &festive,
                                            &fast};
  wild5g::Rng rng(1);
  for (auto* algorithm : algorithms) {
    algorithm->reset();
    for (int i = 0; i < 50; ++i) {
      const double buffer = rng.uniform(0.0, 30.0);
      const int last = static_cast<int>(rng.uniform_int(0, 5));
      std::vector<double> history;
      for (int j = 0; j < 5; ++j) history.push_back(rng.uniform(0.1, 2000.0));
      const int track =
          algorithm->choose_track(cb.build(buffer, last, history));
      EXPECT_GE(track, 0) << algorithm->name();
      EXPECT_LT(track, 6) << algorithm->name();
    }
  }
}
