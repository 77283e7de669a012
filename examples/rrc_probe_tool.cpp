// RRC probe tool: run RRC-Probe against any of the six networks' closed-form
// state machine and print the inferred state machine.
//
//   ./build/examples/rrc_probe_tool ["network name"]
//   e.g. ./build/examples/rrc_probe_tool "T-Mobile SA low-band"
#include <iostream>
#include <string>

#include "rrc/probe.h"

using namespace wild5g;

int main(int argc, char** argv) {
  std::string name = "Verizon NSA mmWave";
  for (int i = 1; i < argc; ++i) name = argv[i];

  const rrc::RrcProfile* profile = nullptr;
  try {
    profile = &rrc::profile_by_name(name);
  } catch (const Error&) {
    std::cerr << "unknown network '" << name << "'. Options:\n";
    for (const auto& p : rrc::table7_profiles()) {
      std::cerr << "  \"" << p.config.name << "\"\n";
    }
    return 2;
  }

  const auto& config = profile->config;
  const auto schedule = rrc::schedule_for(config);
  std::cout << "Probing " << config.name << " (closed-form model): gaps "
            << schedule.min_gap_ms / 1000.0 << ".."
            << schedule.max_gap_ms / 1000.0 << " s, "
            << schedule.repeats << " repeats per gap\n";

  Rng rng(1234);
  const auto samples = rrc::run_probe(config, schedule, rng);
  const auto inferred = rrc::infer_rrc_parameters(samples);

  std::cout << "\nInferred state machine (" << samples.size()
            << " probe packets):\n";
  std::cout << "  UE-inactivity (tail) timer : " << inferred.tail_timer_ms
            << " ms   (configured " << config.inactivity_timer_ms << ")\n";
  if (inferred.mid_plateau_end_ms) {
    const char* label = config.is_sa() ? "RRC_INACTIVE ends"
                                       : "LTE anchor tail ends";
    std::cout << "  " << label << "       : " << *inferred.mid_plateau_end_ms
              << " ms\n";
  }
  std::cout << "  Long-DRX cycle estimate    : "
            << inferred.long_drx_estimate_ms << " ms   (configured "
            << config.long_drx_cycle_ms << ")\n";
  std::cout << "  Idle-DRX cycle estimate    : "
            << inferred.idle_drx_estimate_ms << " ms   (configured "
            << config.idle_drx_cycle_ms << ")\n";
  std::cout << "  Promotion delay estimate   : "
            << inferred.promotion_estimate_ms << " ms\n";
  std::cout << "  RTT levels (connected/mid/idle): "
            << inferred.connected_level_rtt_ms << " / "
            << (inferred.mid_level_rtt_ms
                    ? std::to_string(*inferred.mid_level_rtt_ms)
                    : std::string("-"))
            << " / " << inferred.idle_level_rtt_ms << " ms\n";
  return 0;
}
