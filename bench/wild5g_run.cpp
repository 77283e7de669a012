// wild5g_run: runs one registered engine campaign — any of the paper's
// figures and tables (src/engine/figures/), the metro extensions, or
// drive_soak — under batch supervision, printing its report to stdout.
//
//   wild5g_run <campaign> [--json <path>] [--threads N] [--faults <plan>]
//              [--deadline-ms N] [--<param> N]...
//
// <campaign> is a registry name, which is also the "bench" id of the
// document it writes: `wild5g_run fig24_server_survey --json out.json`
// regenerates bench/golden/bench_fig24_server_survey.json. Each
// `--<param> N` is handed to the campaign's factory (the metro extensions
// take `--cells` and `--ues`, drive_soak its own four, every other figure
// none), and a param the factory does not take is a usage error (exit 2).
// Exit codes: 0 completed or deadline, 1 document write failure, 2 usage
// error, 128+signo when SIGINT/SIGTERM stopped the run (bench_common.h).
#include <iostream>

#include "bench_common.h"
#include "engine/campaign.h"

int main(int argc, char** argv) {
  using namespace wild5g;
  engine::register_builtin_campaigns();
  if (argc < 2 || argv[1][0] == '-') {
    std::cerr << "usage: wild5g_run <campaign> [--json <path>] [--threads N]"
                 " [--faults <plan>] [--deadline-ms N] [--<param> N]...\n"
                 "campaigns:";
    for (const auto& name : engine::campaign_names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 2;
  }
  // From here on the campaign id stands where a program name would.
  int run_argc = argc - 1;
  char** run_argv = argv + 1;
  bench::MetricsEmitter emitter(run_argc, run_argv, run_argv[0]);
  const auto campaign = emitter.make_campaign(run_argc, run_argv);
  return emitter.run_campaign(*campaign);
}
