// wild5g/transport: fluid-model TCP CUBIC and UDP over a shared bottleneck.
//
// Reproduces the transport phenomena of Sec. 3.2 / Fig. 8 mechanistically:
//  - a single connection is window-limited to wmem/RTT when the kernel's
//    tcp_wmem is below the path's bandwidth-delay product ("1-TCP default"
//    capping near 500 Mbps);
//  - raising wmem ("1-TCP tuned") recovers 2-3x but stays loss/CUBIC-limited,
//    and the shortfall vs UDP grows with RTT (hence with UE-server distance);
//  - many parallel connections (Speedtest opens 15-25) fill mmWave capacity
//    regardless of distance;
//  - UDP tracks the link capacity minus protocol overhead.
#pragma once

#include <vector>

#include "core/rng.h"

namespace wild5g::transport {

/// End-to-end path characteristics.
struct PathConfig {
  double rtt_ms = 30.0;
  double capacity_mbps = 2000.0;    // bottleneck (radio) capacity
  /// Ambient loss events per second per connection (middlebox resets,
  /// cross-traffic bursts); grows mildly with path length.
  double loss_event_rate_per_s = 0.05;
  /// Random per-packet drop probability. This is the dominant limiter for
  /// high-BDP flows: CUBIC's equilibrium window shrinks with RTT at a fixed
  /// packet-loss rate, producing the Fig. 3/8 distance decay even at loss
  /// rates well under the paper's observed 1%.
  double loss_per_packet = 5e-7;
};

/// Maximum segment size of every CUBIC and BBR flow, in bytes.
inline constexpr double kMssBytes = 1448.0;

/// Kernel/socket configuration of the sending side.
struct TcpOptions {
  double wmem_bytes = 1.4e6;   // effective default Linux send-buffer budget
};

/// A tuned sender (tcp_wmem raised well past the BDP, Sec. 3.2).
[[nodiscard]] TcpOptions tuned_tcp_options();

/// Result of a transfer simulation.
struct FlowResult {
  double aggregate_goodput_mbps = 0.0;
  std::vector<double> per_connection_mbps;
  int loss_events = 0;
};

/// Simulates `connection_count` concurrent CUBIC connections over `path`
/// for `duration_s`, reporting steady-state goodput (initial 20% of the run
/// is treated as warmup and excluded). Deterministic in `rng`.
[[nodiscard]] FlowResult simulate_tcp(int connection_count,
                                      const PathConfig& path,
                                      const TcpOptions& options,
                                      double duration_s, Rng& rng);

/// UDP throughput: capacity minus protocol overhead (no congestion control).
[[nodiscard]] double udp_throughput_mbps(const PathConfig& path);

}  // namespace wild5g::transport
