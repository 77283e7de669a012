// abr_trace_eval: abr::evaluate_on_traces over a subset of the Lumos5G
// mmWave traces for the cells of Fig. 17/18b. The MPC cells at 1 s chunks
// (horizon 12) do nearly all the work; the shallow cells run the same
// session engine with a cheap planner, so a planner change that slows short
// horizons still shows.
//
// The fan-out is one task per (cell, trace), heaviest cells first, rather
// than one task per cell as in Fig. 17: with one task per cell the two
// horizon-12 cells ran alone on two of four threads for most of a round,
// and on a VM that shares its host the speed of two lone threads depends on
// where the host places them (rounds differed up to 1.8x between runs).
// Keeping every thread busy makes runs repeat. Nested parallel regions run
// inline, so a parallel evaluate_on_traces would not have shown here
// either.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "abr/algorithms.h"
#include "abr/predictor.h"
#include "abr/session.h"
#include "abr/video.h"
#include "core/rng.h"
#include "traces/traces.h"
#include "workloads.h"

namespace wild5g::perf {
namespace {

/// Traces each cell streams over, and the video length: a round stays near
/// a second on a 4-core machine and has 60 sessions, enough for a tail
/// percentile that falls among the horizon-12 sessions.
constexpr std::size_t kTraces = 6;
constexpr std::size_t kTinyTraces = 1;
constexpr double kVideoS = 40.0;
constexpr double kTinyVideoS = 12.0;

double micros_since(Clock::time_point start) {
  return 1e6 * seconds_between(start, Clock::now());
}

/// Forwards every call to the wrapped algorithm, timing choose_track.
///
/// The decorator is not a SourceAwareAlgorithm, so evaluate_on_traces never
/// hands the wrapped algorithm its bandwidth source. That is why
/// source-aware configurations (MPC over the ground-truth predictor) stay
/// out of the roster: wrapped, the oracle would predict blind and the
/// decorator would not be transparent. For the harmonic-mean MPC the
/// skipped call is a no-op. Pensieve stays out because its policy must be
/// trained first, a seeded distillation run that would dominate set-up and
/// is not the planner path this workload measures.
class TimedAbr final : public abr::AbrAlgorithm {
 public:
  explicit TimedAbr(abr::AbrAlgorithm& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] int choose_track(const abr::AbrContext& context) override {
    const auto start = Clock::now();
    const int track = inner_.choose_track(context);
    decide_us.push_back(micros_since(start));
    return track;
  }
  void reset() override { inner_.reset(); }

  std::vector<double> decide_us;

 private:
  abr::AbrAlgorithm& inner_;
};

/// Forwards to the wrapped predictor, timing predict_mbps.
class TimedPredictor final : public abr::ThroughputPredictor {
 public:
  explicit TimedPredictor(abr::ThroughputPredictor& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void on_session_start(const abr::BandwidthSource& source) override {
    inner_.on_session_start(source);
  }
  [[nodiscard]] double predict_mbps(const abr::AbrContext& context) override {
    const auto start = Clock::now();
    const double mbps = inner_.predict_mbps(context);
    predict_us.push_back(micros_since(start));
    return mbps;
  }

  std::vector<double> predict_us;

 private:
  abr::ThroughputPredictor& inner_;
};

enum class Policy { kFastMpc, kRobustMpc, kBba, kBola, kRateBased, kFestive };

struct Cell {
  Policy policy;
  double chunk_s;
};

/// fastMPC and robustMPC at 1, 2 and 4 s chunks (horizons 12, 10, 5), and
/// the buffer- and rate-based algorithms at 4 s; costliest first, so the
/// pool, which hands out tasks in index order, ends a round balanced.
const std::vector<Cell>& cells() {
  static const std::vector<Cell> kCells = {
      {Policy::kFastMpc, 1.0},   {Policy::kRobustMpc, 1.0},
      {Policy::kFastMpc, 2.0},   {Policy::kRobustMpc, 2.0},
      {Policy::kFastMpc, 4.0},   {Policy::kRobustMpc, 4.0},
      {Policy::kBba, 4.0},       {Policy::kBola, 4.0},
      {Policy::kRateBased, 4.0}, {Policy::kFestive, 4.0},
  };
  return kCells;
}

bool is_mpc(const Cell& cell) {
  return cell.policy == Policy::kFastMpc || cell.policy == Policy::kRobustMpc;
}

int horizon(const Cell& cell) {
  return abr::ModelPredictiveAbr::horizon_for_chunk_length(cell.chunk_s);
}

std::unique_ptr<abr::AbrAlgorithm> make_policy(
    const Cell& cell, abr::ThroughputPredictor& predictor) {
  using Variant = abr::ModelPredictiveAbr::Variant;
  switch (cell.policy) {
    case Policy::kFastMpc:
      return std::make_unique<abr::ModelPredictiveAbr>(Variant::kFast,
                                                       predictor,
                                                       horizon(cell));
    case Policy::kRobustMpc:
      return std::make_unique<abr::ModelPredictiveAbr>(Variant::kRobust,
                                                       predictor,
                                                       horizon(cell));
    case Policy::kBba:
      return std::make_unique<abr::BbaAbr>();
    case Policy::kBola:
      return std::make_unique<abr::BolaAbr>();
    case Policy::kRateBased:
      return std::make_unique<abr::RateBasedAbr>();
    case Policy::kFestive:
      return std::make_unique<abr::FestiveAbr>();
  }
  return nullptr;
}

struct CellRun {
  abr::AggregateQoe qoe;
  std::vector<double> decide_us;
  std::vector<double> predict_us;
  double evaluate_s = 0.0;
};

struct AbrInputs {
  /// One single-trace set per trace: the unit a task evaluates.
  std::vector<std::vector<traces::Trace>> trace_sets;
  double video_s = kVideoS;
};

abr::SessionOptions session_options(const Cell& cell, double video_s) {
  abr::SessionOptions options;
  options.chunk_count = static_cast<int>(video_s / cell.chunk_s);
  return options;
}

/// Streams one cell over `traces`; `traced` runs it through the timing
/// decorators, otherwise the bare algorithm runs.
CellRun run_cell(const Cell& cell, const std::vector<traces::Trace>& traces,
                 double video_s, bool traced) {
  abr::HarmonicMeanPredictor harmonic;
  TimedPredictor timed_predictor(harmonic);
  abr::ThroughputPredictor& predictor =
      traced ? static_cast<abr::ThroughputPredictor&>(timed_predictor)
             : harmonic;
  const auto policy = make_policy(cell, predictor);
  TimedAbr timed(*policy);
  abr::AbrAlgorithm& algorithm =
      traced ? static_cast<abr::AbrAlgorithm&>(timed) : *policy;

  CellRun run;
  const auto start = Clock::now();
  run.qoe = abr::evaluate_on_traces(abr::video_ladder_5g(cell.chunk_s),
                                    traces, algorithm,
                                    session_options(cell, video_s));
  run.evaluate_s = seconds_between(start, Clock::now());
  run.decide_us = std::move(timed.decide_us);
  run.predict_us = std::move(timed_predictor.predict_us);
  return run;
}

bool in_range(const abr::AggregateQoe& qoe) {
  return qoe.mean_normalized_bitrate > 0.0 &&
         qoe.mean_normalized_bitrate <= 1.0 &&
         qoe.mean_stall_percent >= 0.0 && qoe.mean_stall_percent <= 100.0 &&
         std::isfinite(qoe.mean_normalized_qoe) && qoe.mean_stall_s >= 0.0 &&
         std::isfinite(qoe.mean_stall_s);
}

AbrInputs make_inputs(const RunConfig& config, double* generate_s) {
  const auto start = Clock::now();
  Rng rng(config.seed);
  auto population =
      traces::generate_traces(traces::lumos5g_mmwave_config(), rng);
  if (generate_s != nullptr) *generate_s = seconds_between(start, Clock::now());
  AbrInputs inputs;
  const std::size_t count = config.tiny ? kTinyTraces : kTraces;
  for (std::size_t i = 0; i < count; ++i) {
    inputs.trace_sets.push_back({population[i]});
  }
  inputs.video_s = config.tiny ? kTinyVideoS : kVideoS;
  return inputs;
}

class AbrWorkload final : public Workload {
 public:
  explicit AbrWorkload(const RunConfig& config) : config_(config) {}

  void setup() override {
    double generate_s = 0.0;
    inputs_ = make_inputs(config_, &generate_s);
    generate_s_.push_back(generate_s);
  }

  [[nodiscard]] Round round(bool traced) override {
    const auto& roster = cells();
    const std::size_t per_cell = inputs_.trace_sets.size();
    auto runs = meter_.map(roster.size() * per_cell, [&](std::size_t i) {
      return run_cell(roster[i / per_cell], inputs_.trace_sets[i % per_cell],
                      inputs_.video_s, traced);
    });
    if (config_.corrupt && rounds_ == 0) {
      runs[0].qoe.mean_normalized_bitrate = 1.5;
    }
    ++rounds_;

    Round round;
    Digest digest;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const CellRun& run = runs[i];
      ++round.attempted;
      if (!in_range(run.qoe)) ++round.failed;
      digest.add(run.qoe.mean_normalized_bitrate);
      digest.add(run.qoe.mean_stall_percent);
      digest.add(run.qoe.mean_normalized_qoe);
      digest.add(run.qoe.mean_stall_s);
      round.work += 1.0;
      round.op_ms.push_back(1e3 * run.evaluate_s);
      if (!traced) continue;
      double decide_s = 0.0;
      for (const double us : run.decide_us) decide_s += us * 1e-6;
      stream_self_s_ += run.evaluate_s - decide_s;
      decisions_ += static_cast<double>(run.decide_us.size());
      const Cell& cell = roster[i / per_cell];
      if (is_mpc(cell)) {
        auto& bucket = decide_us_by_horizon_[horizon(cell)];
        bucket.insert(bucket.end(), run.decide_us.begin(),
                      run.decide_us.end());
        predict_us_.insert(predict_us_.end(), run.predict_us.begin(),
                           run.predict_us.end());
      }
    }
    if (traced) ++traced_rounds_;
    round.digest = digest.value();
    return round;
  }

  void finish(bool traced, PassResult& pass) override {
    if (!traced || traced_rounds_ == 0) return;
    const double rounds = traced_rounds_;
    const auto& decide_us = decide_us_by_horizon_;
    put(pass.layers, "abr.mpc_h12.decide_us_p50", median(decide_us[12]), "us");
    put(pass.layers, "abr.mpc_h12.decide_us_tail", tail(decide_us[12]).value,
        "us");
    put(pass.layers, "abr.mpc_h10.decide_us_p50", median(decide_us[10]), "us");
    put(pass.layers, "abr.mpc_h5.decide_us_p50", median(decide_us[5]), "us");
    put(pass.layers, "abr.decisions", decisions_ / rounds, "count");
    put(pass.layers, "abr.predict_us_p50", median(predict_us_), "us");
    put(pass.layers, "abr.stream_self_s", stream_self_s_ / rounds, "s");
    put(pass.layers, "traces.generate_s", median(generate_s_), "s");
    put(pass.layers, "core.parallel.idle_share", meter_.idle_share(),
        "ratio");
  }

 private:
  RunConfig config_;
  AbrInputs inputs_;
  std::vector<double> generate_s_;
  ParallelMeter meter_;
  int rounds_ = 0;
  int traced_rounds_ = 0;
  std::vector<double> decide_us_by_horizon_[13];
  std::vector<double> predict_us_;
  double decisions_ = 0.0;
  double stream_self_s_ = 0.0;
};

bool same_bytes(const abr::AggregateQoe& a, const abr::AggregateQoe& b) {
  const double lhs[] = {a.mean_normalized_bitrate, a.mean_stall_percent,
                        a.mean_normalized_qoe, a.mean_stall_s};
  const double rhs[] = {b.mean_normalized_bitrate, b.mean_stall_percent,
                        b.mean_normalized_qoe, b.mean_stall_s};
  return std::memcmp(lhs, rhs, sizeof lhs) == 0;
}

}  // namespace

std::unique_ptr<Workload> make_abr_workload(const RunConfig& config) {
  return std::make_unique<AbrWorkload>(config);
}

bool abr_decorators_are_transparent(const RunConfig& config,
                                    std::ostream& log) {
  const AbrInputs inputs = make_inputs(config, nullptr);
  std::vector<traces::Trace> all;
  for (const auto& set : inputs.trace_sets) all.push_back(set.front());
  bool all_same = true;
  for (const Cell& cell : cells()) {
    const bool same =
        same_bytes(run_cell(cell, all, inputs.video_s, false).qoe,
                   run_cell(cell, all, inputs.video_s, true).qoe);
    all_same = all_same && same;
    abr::HarmonicMeanPredictor unused;
    log << "transparency " << make_policy(cell, unused)->name() << " at "
        << cell.chunk_s << " s chunks: " << (same ? "identical" : "DIFFERENT")
        << "\n";
  }
  return all_same;
}

}  // namespace wild5g::perf
