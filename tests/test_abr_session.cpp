// Tests for the DASH streaming engine and the video ladders.
#include "abr/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "abr/algorithms.h"
#include "abr/pensieve_like.h"
#include "abr/predictor.h"
#include "abr/video.h"
#include "core/error.h"

namespace wa = wild5g::abr;
namespace wt = wild5g::traces;

namespace {

/// Fixed-track "algorithm" for engine tests.
class FixedTrack final : public wa::AbrAlgorithm {
 public:
  explicit FixedTrack(int track) : track_(track) {}
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] int choose_track(const wa::AbrContext&) override {
    return track_;
  }

 private:
  int track_;
};

wt::Trace constant_trace(double mbps, int seconds) {
  wt::Trace trace;
  trace.id = "const";
  trace.mbps.assign(static_cast<std::size_t>(seconds), mbps);
  return trace;
}

}  // namespace

TEST(Ladder, PaperLadders) {
  const auto v5 = wa::video_ladder_5g();
  ASSERT_EQ(v5.track_count(), 6);
  EXPECT_DOUBLE_EQ(v5.top_mbps(), 160.0);
  // Adjacent tracks differ by ~1.5x.
  for (int i = 1; i < v5.track_count(); ++i) {
    EXPECT_NEAR(v5.bitrate(i) / v5.bitrate(i - 1), 1.5, 1e-9);
  }
  const auto v4 = wa::video_ladder_4g();
  EXPECT_DOUBLE_EQ(v4.top_mbps(), 20.0);
  EXPECT_NEAR(v4.track_mbps.front(), 20.0 / std::pow(1.5, 5), 1e-9);
}

TEST(Ladder, BitrateRangeChecked) {
  const auto v = wa::video_ladder_5g();
  EXPECT_THROW((void)v.bitrate(-1), wild5g::Error);
  EXPECT_THROW((void)v.bitrate(6), wild5g::Error);
}

TEST(Session, NoStallsWithAmpleBandwidth) {
  const auto video = wa::video_ladder_5g();
  const auto trace = constant_trace(1000.0, 400);
  wa::TraceSource source(trace);
  FixedTrack top(5);
  wa::SessionOptions options;
  options.chunk_count = 30;
  const auto result = wa::stream(video, source, top, options);
  EXPECT_DOUBLE_EQ(result.total_stall_s, 0.0);
  EXPECT_DOUBLE_EQ(result.stall_percent(), 0.0);
  EXPECT_DOUBLE_EQ(result.avg_bitrate_mbps, 160.0);
  EXPECT_DOUBLE_EQ(result.normalized_bitrate(video), 1.0);
  EXPECT_EQ(result.chunks.size(), 30u);
}

TEST(Session, StallsWhenBandwidthBelowBitrate) {
  const auto video = wa::video_ladder_5g();
  // 80 Mbps link, top track 160 Mbps: every chunk takes 2x its duration.
  const auto trace = constant_trace(80.0, 2000);
  wa::TraceSource source(trace);
  FixedTrack top(5);
  wa::SessionOptions options;
  options.chunk_count = 20;
  const auto result = wa::stream(video, source, top, options);
  EXPECT_GT(result.total_stall_s, 50.0);
  EXPECT_GT(result.stall_percent(), 30.0);
}

TEST(Session, StartupDelayNotCountedAsStall) {
  const auto video = wa::video_ladder_5g();
  const auto trace = constant_trace(160.0, 1000);
  wa::TraceSource source(trace);
  FixedTrack top(5);
  wa::SessionOptions options;
  options.chunk_count = 10;
  const auto result = wa::stream(video, source, top, options);
  // Startup buffers 8 s (two 4 s chunks) at link rate = bitrate.
  EXPECT_NEAR(result.startup_delay_s, 8.0, 0.1);
  EXPECT_DOUBLE_EQ(result.total_stall_s, 0.0);
}

TEST(Session, BufferNeverExceedsCap) {
  const auto video = wa::video_ladder_5g();
  const auto trace = constant_trace(5000.0, 1000);
  wa::TraceSource source(trace);
  FixedTrack lowest(0);
  wa::SessionOptions options;
  options.chunk_count = 40;
  options.max_buffer_s = 30.0;
  const auto result = wa::stream(video, source, lowest, options);
  for (const auto& chunk : result.chunks) {
    EXPECT_LE(chunk.buffer_after_s, options.max_buffer_s + 1e-9);
  }
}

TEST(Session, PerSecondConsumptionIntegratesToTotalBits) {
  const auto video = wa::video_ladder_5g();
  const auto trace = constant_trace(200.0, 1000);
  wa::TraceSource source(trace);
  FixedTrack mid(3);
  wa::SessionOptions options;
  options.chunk_count = 25;
  const auto result = wa::stream(video, source, mid, options);
  double recorded = 0.0;
  for (double mbits : result.per_second_dl_mbps) recorded += mbits;
  const double expected =
      25.0 * video.bitrate(3) * video.chunk_s;  // megabits downloaded
  EXPECT_NEAR(recorded, expected, 1e-6);
}

TEST(Session, QoeRewardsBitratePenalizesStallAndSwitches) {
  const auto video = wa::video_ladder_5g();
  const auto trace = constant_trace(1000.0, 1000);
  wa::TraceSource source(trace);
  wa::SessionOptions options;
  options.chunk_count = 10;

  FixedTrack top(5);
  const auto steady = wa::stream(video, source, top, options);

  // An oscillating policy must score lower through the smoothness term.
  class Oscillate final : public wa::AbrAlgorithm {
   public:
    [[nodiscard]] std::string name() const override { return "osc"; }
    [[nodiscard]] int choose_track(const wa::AbrContext& context) override {
      return context.next_chunk % 2 == 0 ? 5 : 0;
    }
  } oscillate;
  const auto wobbly = wa::stream(video, source, oscillate, options);
  EXPECT_GT(steady.qoe, wobbly.qoe);
}

TEST(Session, SurvivesZeroBandwidthTail) {
  // Trace that collapses to zero: the engine's floor keeps progress.
  wt::Trace trace;
  trace.mbps.assign(10, 100.0);
  trace.mbps.resize(60, 0.0);
  wa::TraceSource source(trace);
  const auto video = wa::video_ladder_4g();
  FixedTrack lowest(0);
  wa::SessionOptions options;
  options.chunk_count = 8;
  const auto result = wa::stream(video, source, lowest, options);
  EXPECT_EQ(result.chunks.size(), 8u);  // terminates
}

TEST(Session, InvalidOptionsRejected) {
  const auto video = wa::video_ladder_5g();
  const auto trace = constant_trace(100.0, 10);
  wa::TraceSource source(trace);
  FixedTrack top(5);
  wa::SessionOptions options;
  options.chunk_count = 0;
  EXPECT_THROW((void)wa::stream(video, source, top, options), wild5g::Error);
}

TEST(Session, ChoiceClampedToLadder) {
  const auto video = wa::video_ladder_5g();
  const auto trace = constant_trace(1000.0, 200);
  wa::TraceSource source(trace);
  FixedTrack wild(99);
  wa::SessionOptions options;
  options.chunk_count = 5;
  const auto result = wa::stream(video, source, wild, options);
  for (const auto& chunk : result.chunks) {
    EXPECT_EQ(chunk.track, 5);
  }
}

TEST(Session, AbandonmentAbortsCrawlingChunk) {
  // Bandwidth collapses right after the first chunks: with abandonment on,
  // the engine aborts the high-track attempt and refetches lower.
  wt::Trace trace;
  trace.mbps.assign(5, 500.0);
  trace.mbps.resize(300, 2.0);  // collapse at t=5
  wa::TraceSource source(trace);
  const auto video = wa::video_ladder_5g();
  FixedTrack top(5);
  wa::SessionOptions options;
  options.chunk_count = 8;
  options.allow_abandonment = true;
  const auto result = wa::stream(video, source, top, options);
  int abandoned = 0;
  for (const auto& chunk : result.chunks) {
    abandoned += chunk.abandoned_attempts;
  }
  EXPECT_GT(abandoned, 0);
}

TEST(Session, AbandonmentOffNeverAborts) {
  wt::Trace trace;
  trace.mbps.assign(20, 500.0);
  trace.mbps.resize(300, 2.0);
  wa::TraceSource source(trace);
  const auto video = wa::video_ladder_5g();
  FixedTrack mid(2);
  wa::SessionOptions options;
  options.chunk_count = 6;
  options.allow_abandonment = false;
  const auto result = wa::stream(video, source, mid, options);
  for (const auto& chunk : result.chunks) {
    EXPECT_EQ(chunk.abandoned_attempts, 0);
  }
}

TEST(Session, ResumeThresholdConsolidatesStalls) {
  // After a rebuffer the player waits for its 4 s resume threshold before
  // playing: at 1 s chunks stalls consolidate into runs instead of dribbling
  // one per chunk.
  wt::Trace trace;
  trace.mbps.assign(400, 18.0);  // just below the lowest track (21.1)
  wa::TraceSource source(trace);
  const auto video = wa::video_ladder_5g(1.0);
  FixedTrack lowest(0);
  wa::SessionOptions options;
  options.chunk_count = 120;
  const auto result = wa::stream(video, source, lowest, options);
  // Count distinct stall events (transitions from no-stall to stall).
  int events = 0;
  bool in_stall = false;
  for (const auto& chunk : result.chunks) {
    const bool stalled = chunk.stall_s > 0.0;
    if (stalled && !in_stall) ++events;
    in_stall = stalled;
  }
  EXPECT_GT(result.total_stall_s, 0.0);
  EXPECT_LT(events, 8);  // consolidated, not 1 event per chunk
}

TEST(Session, StartupTargetRespectsShortVideos) {
  // The 8 s startup target is longer than a one-chunk 4 s video: playback
  // starts once the whole video is queued instead of waiting forever.
  const auto video = wa::video_ladder_4g();
  const auto trace = constant_trace(100.0, 300);
  wa::TraceSource source(trace);
  FixedTrack lowest(0);
  wa::SessionOptions options;
  options.chunk_count = 1;
  const auto result = wa::stream(video, source, lowest, options);
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_DOUBLE_EQ(result.startup_delay_s, result.chunks[0].download_s);
  EXPECT_DOUBLE_EQ(result.total_stall_s, 0.0);
}

// The session protocol: a decision sees the session's source in its context,
// and a session starts at the decision with no history, so a session's
// result depends only on its own trace.
namespace {

void expect_same_session(const wa::SessionResult& a,
                         const wa::SessionResult& b) {
  ASSERT_EQ(a.chunks.size(), b.chunks.size());
  for (std::size_t i = 0; i < a.chunks.size(); ++i) {
    EXPECT_EQ(a.chunks[i].track, b.chunks[i].track) << "chunk " << i;
  }
  EXPECT_EQ(a.startup_delay_s, b.startup_delay_s);
  EXPECT_EQ(a.total_stall_s, b.total_stall_s);
  EXPECT_EQ(a.avg_bitrate_mbps, b.avg_bitrate_mbps);
  EXPECT_EQ(a.qoe, b.qoe);
}

void expect_same_aggregate(const wa::AggregateQoe& a,
                           const wa::AggregateQoe& b) {
  EXPECT_EQ(a.mean_normalized_bitrate, b.mean_normalized_bitrate);
  EXPECT_EQ(a.mean_stall_percent, b.mean_stall_percent);
  EXPECT_EQ(a.mean_normalized_qoe, b.mean_normalized_qoe);
  EXPECT_EQ(a.mean_stall_s, b.mean_stall_s);
}

std::vector<wt::Trace> mmwave_traces(int count, std::uint64_t seed) {
  wild5g::Rng rng(seed);
  auto config = wt::lumos5g_mmwave_config();
  config.count = count;
  config.duration_s = 200.0;
  return wt::generate_traces(config, rng);
}

const wa::GbdtPredictor& trained_gbdt() {
  static const wa::GbdtPredictor gbdt = [] {
    wa::GbdtPredictor predictor;
    wild5g::Rng rng(11);
    predictor.train(mmwave_traces(30, 12), rng);
    return predictor;
  }();
  return gbdt;
}

const wa::PensieveLikeAbr& trained_pensieve() {
  static const wa::PensieveLikeAbr pensieve = [] {
    wild5g::Rng rng(13);
    auto config = wt::lumos5g_lte_config();
    config.count = 20;
    wa::SessionOptions options;
    options.chunk_count = 30;
    wa::PensieveLikeAbr policy;
    policy.train(wa::video_ladder_4g(), wt::generate_traces(config, rng),
                 options);
    return policy;
  }();
  return pensieve;
}

/// One algorithm under test together with the predictor it owns.
struct Arm {
  wa::HarmonicMeanPredictor harmonic;
  wa::GbdtPredictor gbdt = trained_gbdt();
  wa::OraclePredictor oracle;
  wa::PensieveLikeAbr pensieve = trained_pensieve();
  wa::FestiveAbr festive;
  std::unique_ptr<wa::AbrAlgorithm> mpc;

  wa::AbrAlgorithm& algorithm(const std::string& name) {
    using Variant = wa::ModelPredictiveAbr::Variant;
    if (name == "FESTIVE") return festive;
    if (name == "Pensieve") return pensieve;
    wa::ThroughputPredictor* predictor = &harmonic;
    if (name == "fastMPC+gbdt") predictor = &gbdt;
    if (name == "fastMPC+oracle") predictor = &oracle;
    mpc = std::make_unique<wa::ModelPredictiveAbr>(
        name == "robustMPC" ? Variant::kRobust : Variant::kFast, *predictor);
    return *mpc;
  }
};

}  // namespace

TEST(SessionProtocol, StreamRunsTheOracleLikeEvaluateOnTraces) {
  const auto traces = mmwave_traces(1, 21);
  const auto video = wa::video_ladder_5g();
  wa::SessionOptions options;
  options.chunk_count = 30;
  wa::OraclePredictor oracle;
  wa::ModelPredictiveAbr truth(wa::ModelPredictiveAbr::Variant::kFast,
                               oracle);
  const wa::TraceSource source(traces[0]);
  const auto session = wa::stream(video, source, truth, options);
  const auto aggregate =
      wa::evaluate_on_traces(video, traces, truth, options);
  wa::AggregateQoe direct;
  direct.mean_normalized_bitrate = session.normalized_bitrate(video);
  direct.mean_stall_percent = session.stall_percent();
  direct.mean_normalized_qoe = session.normalized_qoe(video, options);
  direct.mean_stall_s = session.total_stall_s;
  expect_same_aggregate(direct, aggregate);
}

TEST(SessionProtocol, EvaluatedSessionsAreIndependent) {
  const auto traces = mmwave_traces(2, 22);
  const auto video = wa::video_ladder_5g();
  wa::SessionOptions options;
  options.chunk_count = 30;
  for (const std::string name :
       {"fastMPC", "fastMPC+gbdt", "fastMPC+oracle", "robustMPC", "FESTIVE",
        "Pensieve"}) {
    SCOPED_TRACE(name);
    Arm pair_arm;
    const auto both = wa::evaluate_on_traces(
        video, traces, pair_arm.algorithm(name), options);
    Arm arm_a;
    const auto a = wa::evaluate_on_traces(video, {traces[0]},
                                          arm_a.algorithm(name), options);
    Arm arm_b;
    const auto b = wa::evaluate_on_traces(video, {traces[1]},
                                          arm_b.algorithm(name), options);
    wa::AggregateQoe mean;
    mean.mean_normalized_bitrate =
        (a.mean_normalized_bitrate + b.mean_normalized_bitrate) / 2.0;
    mean.mean_stall_percent =
        (a.mean_stall_percent + b.mean_stall_percent) / 2.0;
    mean.mean_normalized_qoe =
        (a.mean_normalized_qoe + b.mean_normalized_qoe) / 2.0;
    mean.mean_stall_s = (a.mean_stall_s + b.mean_stall_s) / 2.0;
    expect_same_aggregate(both, mean);
  }
}

TEST(SessionProtocol, GbdtSmoothingDoesNotCarryIntoTheNextStream) {
  // The first session ends starved, so its smoothing sits far below what
  // the second session's fast link predicts.
  const auto video = wa::video_ladder_5g();
  wa::SessionOptions options;
  options.chunk_count = 20;
  const auto slow = constant_trace(3.0, 400);
  const auto fast = constant_trace(400.0, 400);
  const wa::TraceSource slow_source(slow);
  const wa::TraceSource fast_source(fast);

  wa::GbdtPredictor reused = trained_gbdt();
  wa::ModelPredictiveAbr mpc(wa::ModelPredictiveAbr::Variant::kFast, reused);
  (void)wa::stream(video, slow_source, mpc, options);
  const auto second = wa::stream(video, fast_source, mpc, options);

  wa::GbdtPredictor fresh_predictor = trained_gbdt();
  wa::ModelPredictiveAbr fresh(wa::ModelPredictiveAbr::Variant::kFast,
                               fresh_predictor);
  expect_same_session(second, wa::stream(video, fast_source, fresh, options));
}
