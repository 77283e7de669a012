// wild5g/net: the Speedtest-style measurement harness of Sec. 3.
//
// Models Ookla's server ecosystem (carrier-hosted servers in major metros,
// plus in-state third-party servers with NIC/port capacity caps) and runs
// single/multi-connection throughput + latency tests over the simulated
// radio + transport stack. Campaigns report 95th-percentile results across
// repeats, exactly as the paper does ("we report the 95th percentile
// performance results of all Speedtest sessions for a setting").
#pragma once

#include <string>
#include <vector>

#include "core/rng.h"
#include "faults/injector.h"
#include "geo/geo.h"
#include "radio/channel.h"
#include "radio/types.h"
#include "radio/ue.h"
#include "transport/tcp.h"

namespace wild5g::net {

/// RTT of a small probe to a server `distance_km` away on `config`'s radio:
/// radio access latency + inflated great-circle propagation (fiber routes
/// are ~3.4x longer than geodesics in the Fig. 1/2 data).
[[nodiscard]] double path_rtt_ms(const radio::NetworkConfig& config,
                                 double distance_km);

/// Internet-side loss-event rate grows with path length (more ASes, more
/// shared queues) — the mechanism behind single-connection decay in Fig. 3.
[[nodiscard]] double loss_event_rate_per_s(double rtt_ms);

/// Per-packet drop probability also grows with path length: short metro
/// paths are nearly loss-free while transcontinental routes cross many
/// shared queues. Still well under the paper's observed <1% loss.
[[nodiscard]] double loss_per_packet(double rtt_ms);

/// One server in the test pool.
struct SpeedtestServer {
  std::string name;
  geo::GeoPoint location;
  bool carrier_hosted = false;
  /// NIC/switch-port or configuration cap; 0 = uncapped (Fig. 24).
  double port_cap_mbps = 0.0;
  /// Extra one-way routing penalty for third-party hosting.
  double hosting_penalty_ms = 0.0;
};

/// Carrier-hosted servers (one per major metro; Verizon hosts 48,
/// T-Mobile 47 in the paper — we host one per catalog metro).
[[nodiscard]] std::vector<SpeedtestServer> carrier_server_pool();

/// The 37 Minnesota servers of Fig. 24, with their observed capacity caps.
[[nodiscard]] std::vector<SpeedtestServer> minnesota_server_pool();

enum class ConnectionMode { kSingle, kMultiple };

struct SpeedtestResult {
  double downlink_mbps = 0.0;
  double uplink_mbps = 0.0;
  double rtt_ms = 0.0;
  /// Connection attempts that failed (server unreachable) before this
  /// result was obtained; aggregated by peak_of across trials.
  int errors = 0;
  /// True when no data could be collected at all (every connection attempt
  /// exhausted its retry budget, or every trial of a campaign failed).
  /// Metrics fields are zero in that case — partial results, not a throw.
  bool failed = false;
};

struct SpeedtestConfig {
  radio::NetworkConfig network;
  radio::UeProfile ue;
  geo::GeoPoint ue_location;
  /// Stationary outdoor LoS RSRP distribution for the session.
  double session_rsrp_mean_dbm = -76.0;
  /// Length of each direction's transfer; a fixed constant, kept a static
  /// member so that `config.test_duration_s` reads it.
  static constexpr double test_duration_s = 15.0;

  /// Optional fault injector (not owned; null = no faults, and the harness
  /// then executes the exact pre-fault code path and draw sequence).
  const faults::Injector* faults = nullptr;
};

/// Graceful degradation, only exercised when faults are active: a
/// server_unreachable window triggers up to kMaxRetries reconnects with
/// deterministic exponential backoff (1 s * 2^attempt — no rng involved, so
/// retries never perturb the draw stream).
inline constexpr int kMaxRetries = 3;

/// Runs speedtest sessions against servers.
class SpeedtestHarness {
 public:
  explicit SpeedtestHarness(SpeedtestConfig config);

  /// One full test (latency probe + downlink + uplink phases) starting at
  /// `start_s` on the fault timeline (fault windows are evaluated against
  /// [start_s, start_s + duration)). With no injector configured, start_s
  /// is irrelevant and ignored.
  [[nodiscard]] SpeedtestResult run_at(const SpeedtestServer& server,
                                       ConnectionMode mode, Rng& rng,
                                       double start_s) const;

  /// Repeats the test and reports the per-metric 95th percentile (latency
  /// uses the 5th percentile: "peak performance" means lowest RTT). Trial i
  /// starts at i * 20 s on the fault timeline. Failed trials are excluded
  /// from the percentiles; their connection errors are summed into
  /// `errors`, and `failed` is set only when every trial failed.
  [[nodiscard]] SpeedtestResult peak_of(const SpeedtestServer& server,
                                        ConnectionMode mode, int repeats,
                                        Rng& rng) const;

  [[nodiscard]] const SpeedtestConfig& config() const { return config_; }

 private:
  SpeedtestConfig config_;
};

}  // namespace wild5g::net
