// wild5g/transport: fluid-model BBR congestion control.
//
// Sec. 3.2 closes with "these observations highlight the inefficacies that
// exist in current TCP and congestion control mechanisms over mmWave 5G".
// CUBIC's loss-driven window collapses are exactly that inefficacy; BBR
// paces at the measured bottleneck bandwidth and ignores random loss, so a
// single BBR connection holds near-capacity even on long, lossy paths. The
// ablation bench contrasts the two on the Fig. 8 campaign.
#pragma once

#include "core/rng.h"
#include "transport/tcp.h"

namespace wild5g::transport {

struct BbrOptions {
  /// Receive/send window budget still applies (flow control).
  double wmem_bytes = 32.0e6;
};

/// Simulates `connection_count` BBR flows over `path` for `duration_s`.
/// Loss events do not reduce the rate (BBR is model-based); only the
/// bandwidth filter and the pacing cycle shape throughput.
[[nodiscard]] FlowResult simulate_bbr(int connection_count,
                                      const PathConfig& path,
                                      const BbrOptions& options,
                                      double duration_s, Rng& rng);

}  // namespace wild5g::transport
