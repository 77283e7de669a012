#include "abr/algorithms.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/error.h"

namespace wild5g::abr {

namespace {

constexpr int kRateBasedWindow = 3;
constexpr double kBbaReservoirS = 5.0;
constexpr double kBbaCushionFraction = 0.9;
constexpr double kBolaGp = 5.0;
constexpr int kFestiveWindow = 20;
constexpr double kFestiveSafety = 0.85;
/// Relative margin on the MPC planner's stall bound (see plan_qoe).
constexpr double kStallCapSlack = 1e-9;

/// Highest track with bitrate <= budget; 0 when none fit.
int highest_track_within(const VideoProfile& video, double budget_mbps) {
  int track = 0;
  for (int i = 0; i < video.track_count(); ++i) {
    if (video.bitrate(i) <= budget_mbps) track = i;
  }
  return track;
}

}  // namespace

int RateBasedAbr::choose_track(const AbrContext& context) {
  const double estimate = recent_harmonic_mean(
      context.past_chunk_mbps, kRateBasedWindow,
      context.video->track_mbps.front());
  return highest_track_within(*context.video, estimate);
}

int BbaAbr::choose_track(const AbrContext& context) {
  const auto& video = *context.video;
  const double cushion_top = context.max_buffer_s * kBbaCushionFraction;
  if (context.buffer_s <= kBbaReservoirS) return 0;
  if (context.buffer_s >= cushion_top) return video.track_count() - 1;
  const double fraction = (context.buffer_s - kBbaReservoirS) /
                          (cushion_top - kBbaReservoirS);
  return static_cast<int>(fraction *
                          static_cast<double>(video.track_count() - 1));
}

int BolaAbr::choose_track(const AbrContext& context) {
  const auto& video = *context.video;
  const double r_min = video.track_mbps.front();
  const double u_top = std::log(video.top_mbps() / r_min);
  const double q_max = context.max_buffer_s / video.chunk_s;
  const double v = (q_max - 1.0) / (u_top + kBolaGp);
  const double q = context.buffer_s / video.chunk_s;

  int best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (int k = 0; k < video.track_count(); ++k) {
    const double u = std::log(video.bitrate(k) / r_min);
    const double score = (v * (u + kBolaGp) - q) / video.bitrate(k);
    if (score > best_score) {
      best_score = score;
      best = k;
    }
  }
  return best;
}

int FestiveAbr::choose_track(const AbrContext& context) {
  const auto& video = *context.video;
  const double estimate = recent_harmonic_mean(
      context.past_chunk_mbps, kFestiveWindow, video.track_mbps.front());
  const int reference = highest_track_within(video, kFestiveSafety * estimate);
  const int last = context.last_track < 0 ? 0 : context.last_track;

  // Gradual switching: at most one level per chunk.
  int candidate = std::clamp(reference, last - 1, last + 1);

  // Stability brake: if we switched a lot recently, hold.
  const int recent_switch_count = static_cast<int>(
      std::count(recent_switches_.begin(), recent_switches_.end(), true));
  if (recent_switch_count >= 3 && candidate != last) candidate = last;

  recent_switches_.push_back(candidate != last);
  if (recent_switches_.size() > 10) recent_switches_.pop_front();
  return candidate;
}

ModelPredictiveAbr::ModelPredictiveAbr(Variant variant,
                                       ThroughputPredictor& predictor,
                                       int horizon)
    : variant_(variant), predictor_(&predictor), horizon_(horizon) {
  require(horizon_ >= 1 && horizon_ <= 12,
          "ModelPredictiveAbr: horizon out of range");
}

int ModelPredictiveAbr::horizon_for_chunk_length(double chunk_s) {
  require(chunk_s > 0.0, "horizon_for_chunk_length: bad chunk length");
  return std::clamp(static_cast<int>(std::round(20.0 / chunk_s)), 5, 12);
}

std::string ModelPredictiveAbr::name() const {
  return variant_ == Variant::kFast ? "fastMPC" : "robustMPC";
}

void ModelPredictiveAbr::reset() {
  relative_errors_.clear();
  last_prediction_mbps_ = -1.0;
}

double ModelPredictiveAbr::plan_qoe(const Plan& plan, int first_track,
                                    double floor) {
  const auto& ladder = plan.ladder;
  const int top = static_cast<int>(ladder.size()) - 1;
  const double penalty = plan.rebuffer_penalty;
  // Stalling for a larger bitrate sum costs more than it earns.
  const bool stall_outweighs_bitrate = penalty * plan.chunk_per_mbps > 1.0;

  // Depth-first branch-and-bound over track sequences with the first fixed.
  double best = floor;
  const double last_bitrate =
      ladder[static_cast<std::size_t>(
          plan.last_track >= 0 ? plan.last_track : first_track)];
  stack_.clear();
  stack_.push_back({0, plan.buffer_s, last_bitrate, 0.0, first_track});

  while (!stack_.empty()) {
    const Frame frame = stack_.back();
    stack_.pop_back();

    const double bitrate = ladder[static_cast<std::size_t>(frame.next_track)];
    const double download_s = bitrate * plan.chunk_s / plan.predicted_mbps;
    const double stall = std::max(0.0, download_s - frame.buffer);
    double buffer = std::max(0.0, frame.buffer - download_s) + plan.chunk_s;
    buffer = std::min(buffer, plan.max_buffer_s);
    const double qoe = frame.qoe + bitrate - penalty * stall -
                       std::abs(bitrate - frame.prev_bitrate);

    if (frame.depth + 1 >= plan.steps) {
      best = std::max(best, qoe);
      continue;
    }
    // Bound: k steps below this node a plan is at most at track+k, so its
    // bitrate is at most reach[track+k], and the stall and switch terms it
    // subtracts are never negative. Adding the reach terms in the order the
    // QoE accumulates makes the bound exact in floating point too:
    // round-to-nearest + and - are monotone, so no leaf below can exceed
    // it. Pruning on <= drops only plans that at best tie `best`, and
    // choose_track keeps the first track that strictly beats the floor.
    const int left = plan.steps - frame.depth - 1;
    double bound = qoe;
    double climb = 0.0;  // the largest bitrate sum of the `left` chunks
    for (int k = 1; k <= left; ++k) {
      const double most = plan.reach[static_cast<std::size_t>(
          std::min(top, frame.next_track + k))];
      bound += most;
      climb += most;
    }
    if (bound <= best) continue;
    // Stall bound: the `left` chunks below fetch a bitrate sum s in
    // [left * min_mbps, climb]. Each download adds at most one chunk to a
    // buffer that never drops below 0, so together they stall at least
    // s * chunk_s / predicted - credit seconds, credit being this node's
    // buffer plus `left` chunks. So they add at most
    // f(s) = s - penalty * max(0, s * chunk_s / predicted - credit), which
    // climbs with slope 1 until s = credit * predicted / chunk_s and then
    // with slope 1 - penalty * chunk_s / predicted; cap is its maximum.
    const double credit = buffer + left * plan.chunk_s;
    const double forced_stall = climb * plan.chunk_per_mbps - credit;
    if (forced_stall > 0.0) {
      double cap = climb - penalty * forced_stall;
      if (stall_outweighs_bitrate) {
        const double lowest = left * plan.min_mbps;
        const double unstalled = credit * plan.mbps_per_chunk;
        cap = unstalled >= lowest
                  ? unstalled
                  : lowest - penalty * (lowest * plan.chunk_per_mbps - credit);
      }
      // Unlike the bound above, this one rounds differently from the leaf
      // sums it bounds. Both take at most about a hundred rounded steps on
      // values no larger than `scale` (terms a leaf subtracts beyond the cap
      // lower it by more than they can add in rounding), so each is within
      // about 1e-14 * scale of its real value, and the slack covers that
      // 10^5 times over. DESIGN.md section 10 has the argument in full.
      const double scale =
          std::abs(qoe) + climb +
          penalty * (climb * plan.chunk_per_mbps + credit);
      if (qoe + cap + kStallCapSlack * scale <= best) continue;
    }
    // Plan model: the first chunk takes any track, and each later chunk
    // moves at most one level from the chunk before it. The search covers
    // every such plan; the bounds above only skip ones that cannot win.
    const int lo = std::max(0, frame.next_track - 1);
    const int hi = std::min(top, frame.next_track + 1);
    for (int track = lo; track <= hi; ++track) {
      stack_.push_back({frame.depth + 1, buffer, bitrate, qoe, track});
    }
  }
  return best;
}

int ModelPredictiveAbr::choose_track(const AbrContext& context) {
  // Update the prediction-error history with the realized throughput.
  if (last_prediction_mbps_ > 0.0 && !context.past_chunk_mbps.empty()) {
    const double actual = context.past_chunk_mbps.back();
    const double err =
        std::abs(last_prediction_mbps_ - actual) / std::max(0.01, actual);
    // Cap at 70%: one outage prediction miss should divide the estimate by
    // at most 1.7, not zero it for the next five chunks.
    relative_errors_.push_back(std::min(err, 0.7));
    if (relative_errors_.size() > 5) relative_errors_.pop_front();
  }

  double predicted = std::max(0.05, predictor_->predict_mbps(context));
  last_prediction_mbps_ = predicted;
  if (variant_ == Variant::kRobust && !relative_errors_.empty()) {
    const double max_err =
        *std::max_element(relative_errors_.begin(), relative_errors_.end());
    predicted /= 1.0 + max_err;
  }

  // reach[t]: the highest bitrate among tracks 0..t, the most a plan that
  // can climb no higher than t earns in one step.
  const auto& video = *context.video;
  const std::span<const double> ladder(video.track_mbps);
  require(!ladder.empty(), "ModelPredictiveAbr: empty ladder");
  reach_.resize(ladder.size());
  double highest = -std::numeric_limits<double>::infinity();
  for (std::size_t track = 0; track < ladder.size(); ++track) {
    highest = std::max(highest, ladder[track]);
    reach_[track] = highest;
  }
  require(context.last_track < static_cast<int>(ladder.size()),
          "ModelPredictiveAbr: last track out of range");

  const Plan plan{
      .ladder = ladder,
      .reach = reach_,
      .min_mbps = *std::min_element(ladder.begin(), ladder.end()),
      .chunk_s = video.chunk_s,
      .max_buffer_s = context.max_buffer_s,
      .buffer_s = context.buffer_s,
      .rebuffer_penalty = ladder.back(),
      .predicted_mbps = predicted,
      .chunk_per_mbps = video.chunk_s / predicted,
      .mbps_per_chunk = predicted / video.chunk_s,
      .last_track = context.last_track,
      .steps = std::min(horizon_, context.chunk_count - context.next_chunk),
  };
  int best_track = 0;
  double best_qoe = -std::numeric_limits<double>::infinity();
  for (int track = 0; track < video.track_count(); ++track) {
    const double qoe = plan_qoe(plan, track, best_qoe);
    if (qoe > best_qoe) {
      best_qoe = qoe;
      best_track = track;
    }
  }
  return best_track;
}

}  // namespace wild5g::abr
