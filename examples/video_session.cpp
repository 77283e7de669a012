// Video session: stream a 4K video over one generated mmWave trace with
// robustMPC, then again with the 5G-aware interface selector, and compare
// the per-chunk decisions, stalls, and radio energy.
//
//   ./build/examples/video_session [trace-index]
#include <iomanip>
#include <iostream>

#include "abr/interface_selection.h"
#include "abr/video.h"
#include "core/integer.h"
#include "traces/traces.h"

using namespace wild5g;

int main(int argc, char** argv) {
  Rng rng(20210823);
  auto c5 = traces::lumos5g_mmwave_config();
  const auto traces_5g = traces::generate_traces(c5, rng);
  Rng rng2(20210824);
  auto c4 = traces::lumos5g_lte_config();
  const auto traces_4g = traces::generate_traces(c4, rng2);

  std::size_t trace_index = 0;
  try {
    if (argc > 1) {
      trace_index = integer_from_text<std::size_t>(argv[1], "trace-index", 0,
                                                   traces_5g.size() - 1);
    }
  } catch (const Error& e) {
    std::cerr << "video_session: " << e.what()
              << "\nusage: video_session [trace-index]\n";
    return 2;
  }
  const auto& t5 = traces_5g.at(trace_index);
  const auto& t4 = traces_4g.at(trace_index % traces_4g.size());

  std::cout << "Trace " << t5.id << ": median "
            << t5.median() << " Mbps, mean " << t5.mean() << " Mbps\n\n";

  const auto video = abr::video_ladder_5g();
  abr::SessionOptions options;
  options.chunk_count = 60;

  // robustMPC, pinned to 5G.
  abr::HarmonicMeanPredictor predictor;
  abr::ModelPredictiveAbr robust(abr::ModelPredictiveAbr::Variant::kRobust,
                                 predictor);
  abr::TraceSource source(t5);
  const auto session = abr::stream(video, source, robust, options);

  std::cout << "robustMPC on 5G only:\n"
            << "  avg bitrate " << session.avg_bitrate_mbps << " Mbps ("
            << 100.0 * session.normalized_bitrate(video) << "% of top), stall "
            << session.total_stall_s << " s ("
            << session.stall_percent() << "%)\n";
  std::cout << "  per-chunk tracks: ";
  for (const auto& chunk : session.chunks) std::cout << chunk.track;
  std::cout << "\n\n";

  // The 5G-aware selector (Sec. 5.4).
  options.allow_abandonment = true;
  abr::InterfaceSelectionConfig selection;
  const auto device = power::DevicePowerProfile::s20u();
  const auto only = abr::stream_5g_only(video, t5, options, device);
  const auto aware =
      abr::stream_5g_aware(video, t5, t4, options, selection, device);

  std::cout << "5G-only fastMPC:  stall " << std::setprecision(3)
            << only.session.total_stall_s << " s, energy " << only.energy_j
            << " J\n";
  std::cout << "5G-aware fastMPC: stall " << aware.session.total_stall_s
            << " s, energy " << aware.energy_j << " J, "
            << aware.switch_count << " interface switches\n";
  std::cout << "  interface per 30 s: ";
  for (std::size_t s = 0; s < aware.per_second_interface.size(); s += 30) {
    std::cout << (aware.per_second_interface[s] == abr::Interface::k5g
                      ? "[5G]"
                      : "[4G]");
  }
  std::cout << "\n";
  return 0;
}
