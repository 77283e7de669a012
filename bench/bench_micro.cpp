// Microbenchmarks (google-benchmark) for the library's hot primitives:
// CART training/prediction, CUBIC stepping, waveform synthesis, channel
// evolution, and the streaming engine.
#include <benchmark/benchmark.h>

#include "abr/algorithms.h"
#include "bench_common.h"
#include "abr/video.h"
#include "core/quantile_sketch.h"
#include "core/rng.h"
#include "core/stats.h"
#include "ml/decision_tree.h"
#include "power/waveform.h"
#include "radio/channel.h"
#include "rrc/state_machine.h"
#include "traces/traces.h"
#include "transport/tcp.h"

using namespace wild5g;

namespace {

ml::Dataset make_dataset(int rows) {
  Rng rng(1);
  ml::Dataset data;
  data.feature_names = {"a", "b", "c"};
  for (int i = 0; i < rows; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    data.add({a, b, rng.uniform(0.0, 1.0)}, std::sin(5.0 * a) + b);
  }
  return data;
}

void BM_DecisionTreeFit(benchmark::State& state) {
  const auto data = make_dataset(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ml::DecisionTreeRegressor tree;
    tree.fit(data);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(1000)->Arg(5000);

void BM_DecisionTreePredict(benchmark::State& state) {
  const auto data = make_dataset(5000);
  ml::DecisionTreeRegressor tree;
  tree.fit(data);
  Rng rng(2);
  const std::vector<double> row{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                                rng.uniform(0.0, 1.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(row));
  }
}
BENCHMARK(BM_DecisionTreePredict);

void BM_CubicFlows(benchmark::State& state) {
  transport::PathConfig path;
  path.rtt_ms = 40.0;
  path.capacity_mbps = 2000.0;
  path.loss_event_rate_per_s = 0.1;
  for (auto _ : state) {
    Rng rng(3);
    benchmark::DoNotOptimize(
        transport::simulate_tcp(static_cast<int>(state.range(0)), path,
                                transport::tuned_tcp_options(), 15.0, rng)
            .aggregate_goodput_mbps);
  }
}
BENCHMARK(BM_CubicFlows)->Arg(1)->Arg(20);

void BM_WaveformSynthesis(benchmark::State& state) {
  const auto profile = rrc::profile_by_name("Verizon NSA mmWave");
  const std::vector<rrc::ActivityBurst> bursts = {{1000.0, 5000.0, 400.0,
                                                   10.0}};
  const auto timeline =
      rrc::build_timeline(profile.config, bursts, 30000.0);
  power::WaveformSynthesizer synth(profile, power::DevicePowerProfile::s20u(),
                                   static_cast<double>(state.range(0)));
  for (auto _ : state) {
    Rng rng(4);
    benchmark::DoNotOptimize(synth.synthesize(timeline, rng).energy_j());
  }
}
BENCHMARK(BM_WaveformSynthesis)->Arg(1000)->Arg(5000);

// The pre-sketch percentile pattern: hoard every sample in a vector and
// sort-on-query. Kept as the baseline the sketch kernel is measured
// against; campaign code itself now goes through SampleAccumulator.
void BM_PercentileStoreAll(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    std::vector<double> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(rng.lognormal(3.0, 1.0));
    }
    // wild5g-lint: allow(bench-sample-hoard) this kernel *is* the store-all
    benchmark::DoNotOptimize(stats::percentile(samples, 90.0));
    // wild5g-lint: allow(bench-sample-hoard) baseline the sketch is measured
    benchmark::DoNotOptimize(stats::percentile(samples, 99.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PercentileStoreAll)->Arg(100000)->Arg(1000000);

// Same population through the streaming sketch: O(sketch) memory and no
// sort at query time.
void BM_PercentileSketch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    stats::QuantileSketch sketch;
    for (std::size_t i = 0; i < n; ++i) {
      sketch.add(rng.lognormal(3.0, 1.0));
    }
    benchmark::DoNotOptimize(sketch.quantile(90.0));
    benchmark::DoNotOptimize(sketch.quantile(99.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PercentileSketch)->Arg(100000)->Arg(1000000);

void BM_ChannelProcess(benchmark::State& state) {
  radio::ChannelProcess process(
      radio::default_channel_process(radio::Band::kNrMmWave), Rng(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(process.step(0.1).rsrp_dbm);
  }
}
BENCHMARK(BM_ChannelProcess);

/// fastMPC at horizon state.range(0) on the 5G ladder cut into `chunk_s`
/// chunks, 40 s into a 240 s video with 12 s of a 30 s buffer after a
/// track-3 chunk, predicting from `history`.
void run_mpc_decisions(benchmark::State& state,
                       const std::vector<double>& history,
                       double chunk_s = 4.0) {
  const auto video = abr::video_ladder_5g(chunk_s);
  abr::HarmonicMeanPredictor predictor;
  abr::ModelPredictiveAbr mpc(abr::ModelPredictiveAbr::Variant::kFast,
                              predictor, static_cast<int>(state.range(0)));
  abr::AbrContext context;
  context.video = &video;
  context.next_chunk = static_cast<int>(40.0 / chunk_s);
  context.chunk_count = static_cast<int>(240.0 / chunk_s);
  context.buffer_s = 12.0;
  context.max_buffer_s = 30.0;
  context.last_track = 3;
  context.past_chunk_mbps = history;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mpc.choose_track(context));
  }
}

const std::vector<double> kSteadyHistory = {150.0, 90.0, 200.0, 120.0, 160.0};
const std::vector<double> kOutageHistory = {150.0, 120.0, 40.0, 9.0, 5.0};

/// Steady mmWave: the prediction (~134 Mbps) is near the top track.
void BM_MpcDecision(benchmark::State& state) {
  run_mpc_decisions(state, kSteadyHistory);
}
// Both horizons plan on the 4 s ladder. Horizon 5 is what the planner uses
// at 4 s chunks; horizon 12 there looks 48 s ahead, longer than any figure
// plans, and stays for comparison with earlier baselines. BM_MpcDecision1s
// times horizon 12 on the ladder it is used with.
BENCHMARK(BM_MpcDecision)->Arg(5)->Arg(12);

/// A mmWave outage: the prediction (~14 Mbps) is below the lowest track, so
/// every plan drains the buffer, long plans stall, and the planner's stall
/// bound does the pruning.
void BM_MpcOutageDecision(benchmark::State& state) {
  run_mpc_decisions(state, kOutageHistory);
}
BENCHMARK(BM_MpcOutageDecision)->Arg(5)->Arg(12);

/// Fig. 18b's 1 s arm: horizon 12 (12 s of lookahead) on the 1 s ladder, in
/// steady mmWave (outage 0) and in an outage (outage 1).
void BM_MpcDecision1s(benchmark::State& state) {
  run_mpc_decisions(state, state.range(1) != 0 ? kOutageHistory
                                               : kSteadyHistory,
                    1.0);
}
BENCHMARK(BM_MpcDecision1s)
    ->ArgNames({"h", "outage"})
    ->Args({12, 0})
    ->Args({12, 1});

void BM_StreamingSession(benchmark::State& state) {
  Rng rng(6);
  auto config = traces::lumos5g_mmwave_config();
  config.count = 1;
  const auto traces = traces::generate_traces(config, rng);
  const auto video = abr::video_ladder_5g();
  abr::SessionOptions options;
  options.chunk_count = 60;
  for (auto _ : state) {
    abr::TraceSource source(traces[0]);
    abr::BbaAbr bba;
    benchmark::DoNotOptimize(
        abr::stream(video, source, bba, options).total_stall_s);
  }
}
BENCHMARK(BM_StreamingSession);

}  // namespace

int main(int argc, char** argv) {
  // Wall-times are machine-dependent, so the golden document pins only the
  // registered benchmark inventory: dropping a family in a refactor is a
  // regression the gate catches, while timing noise is not.
  bench::MetricsEmitter emitter(argc, argv, "micro");
  Table inventory("Registered microbenchmark families");
  inventory.set_header({"family", "variants"});
  inventory.add_row({"BM_DecisionTreeFit", "2"});
  inventory.add_row({"BM_DecisionTreePredict", "1"});
  inventory.add_row({"BM_CubicFlows", "2"});
  inventory.add_row({"BM_WaveformSynthesis", "2"});
  inventory.add_row({"BM_PercentileStoreAll", "2"});
  inventory.add_row({"BM_PercentileSketch", "2"});
  inventory.add_row({"BM_ChannelProcess", "1"});
  inventory.add_row({"BM_MpcDecision", "2"});
  inventory.add_row({"BM_MpcOutageDecision", "2"});
  inventory.add_row({"BM_MpcDecision1s", "2"});
  inventory.add_row({"BM_StreamingSession", "1"});
  emitter.record(inventory);
  if (emitter.json_requested()) {
    return emitter.exit_code();  // golden run: inventory only
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return emitter.exit_code();
}
