// wild5g-bench workloads. Each one loads different layers of the stack;
// README.md says why each was chosen and which end-to-end metric each
// layer metric should move.
#pragma once

#include <memory>
#include <ostream>

#include "harness.h"

namespace wild5g::perf {

/// abr::evaluate_on_traces, one task per (algorithm, chunk length) cell.
[[nodiscard]] std::unique_ptr<Workload> make_abr_workload(
    const RunConfig& config);

/// net::SpeedtestHarness::peak_of over the Minnesota and carrier pools.
[[nodiscard]] std::unique_ptr<Workload> make_speedtest_workload(
    const RunConfig& config);

/// Walking campaign, controlled sweep, power-model fits, waveform and
/// monitors for each Fig. 15 setting.
[[nodiscard]] std::unique_ptr<Workload> make_power_workload(
    const RunConfig& config);

/// A closed loop of drive_soak jobs through the wild5g_serve subprocess.
[[nodiscard]] std::unique_ptr<Workload> make_serve_workload(
    const RunConfig& config);

/// Checks that ABR aggregates computed through the timing decorators are
/// byte-identical to those computed without them. Logs each cell.
[[nodiscard]] bool abr_decorators_are_transparent(const RunConfig& config,
                                                  std::ostream& log);

}  // namespace wild5g::perf
