// speedtest_survey: net::SpeedtestHarness::peak_of (10 repeats, multi- and
// single-connection) over the 37-server Minnesota pool and the carrier
// pool, one task per server. Fluid-CUBIC stepping in transport::simulate_tcp
// does most of the work, and every trial forks a fresh Rng to draw only a
// few words from it, so fork cost shows here and not in serve_drive_soak.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "geo/geo.h"
#include "net/speedtest.h"
#include "radio/channel.h"
#include "radio/ue.h"
#include "transport/tcp.h"
#include "workloads.h"

namespace wild5g::perf {
namespace {

constexpr int kRepeats = 10;
constexpr std::size_t kTinyServers = 3;
constexpr net::ConnectionMode kModes[] = {net::ConnectionMode::kMultiple,
                                          net::ConnectionMode::kSingle};

struct ServerRun {
  net::SpeedtestResult results[2];
  double ms[2] = {0.0, 0.0};
  double total_ms = 0.0;
};

bool in_range(const net::SpeedtestResult& result) {
  return !result.failed && result.downlink_mbps > 0.0 &&
         std::isfinite(result.downlink_mbps) && result.uplink_mbps > 0.0 &&
         std::isfinite(result.uplink_mbps) && result.rtt_ms > 0.0 &&
         std::isfinite(result.rtt_ms);
}

class SpeedtestWorkload final : public Workload {
 public:
  explicit SpeedtestWorkload(const RunConfig& config) : config_(config) {}

  void setup() override {
    net::SpeedtestConfig speedtest;
    speedtest.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                         radio::DeploymentMode::kNsa};
    speedtest.ue = radio::galaxy_s20u();
    speedtest.ue_location = geo::minneapolis().point;
    harness_ = std::make_unique<net::SpeedtestHarness>(speedtest);
    servers_ = net::minnesota_server_pool();
    const auto carrier = net::carrier_server_pool();
    servers_.insert(servers_.end(), carrier.begin(), carrier.end());
    if (config_.tiny) servers_.resize(kTinyServers);
    // One substream per server, forked up front as fig24 does.
    Rng root(config_.seed);
    const Rng base = root.split();
    server_rngs_.clear();
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      server_rngs_.push_back(base.fork(i));
    }
  }

  [[nodiscard]] Round round(bool traced) override {
    auto runs = meter_.map(servers_.size(), [&](std::size_t i) {
      ServerRun run;
      Rng rng = server_rngs_[i];
      const auto task_start = Clock::now();
      for (int m = 0; m < 2; ++m) {
        const auto start = Clock::now();
        run.results[m] = harness_->peak_of(servers_[i], kModes[m], kRepeats,
                                           rng);
        run.ms[m] = 1e3 * seconds_between(start, Clock::now());
      }
      run.total_ms = 1e3 * seconds_between(task_start, Clock::now());
      return run;
    });
    if (config_.corrupt && rounds_ == 0) runs[0].results[0].failed = true;
    ++rounds_;

    Round round;
    Digest digest;
    for (const ServerRun& run : runs) {
      for (int m = 0; m < 2; ++m) {
        const auto& result = run.results[m];
        ++round.attempted;
        if (!in_range(result)) ++round.failed;
        digest.add(result.downlink_mbps);
        digest.add(result.uplink_mbps);
        digest.add(result.rtt_ms);
        digest.add(static_cast<double>(result.errors));
        round.work += kRepeats;
        if (traced) peak_of_ms_.push_back(run.ms[m]);
      }
      round.op_ms.push_back(run.total_ms);
    }
    round.digest = digest.value();
    return round;
  }

  void finish(bool traced, PassResult& pass) override {
    if (!traced) return;
    put(pass.layers, "net.peak_of_ms_p50", median(peak_of_ms_), "ms");
    put(pass.layers, "net.peak_of_ms_tail", tail(peak_of_ms_).value, "ms");
    put(pass.layers, "transport.simulate_tcp_ms_p50", simulate_tcp_ms_p50(),
        "ms");
    put(pass.layers, "core.parallel.idle_share", meter_.idle_share(),
        "ratio");
  }

 private:
  /// Times transport::simulate_tcp directly on each server's downlink path,
  /// rebuilt from the public path model the harness uses (mean session
  /// signal, mid-range connection count). Runs after the timed rounds so it
  /// does not count as tracing overhead.
  [[nodiscard]] double simulate_tcp_ms_p50() const {
    const auto& config = harness_->config();
    std::vector<double> ms;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const auto& server = servers_[i];
      transport::PathConfig path;
      path.rtt_ms = net::path_rtt_ms(config.network,
                                     geo::haversine_km(config.ue_location,
                                                       server.location)) +
                    server.hosting_penalty_ms;
      path.capacity_mbps = radio::link_capacity_mbps(
          config.network, config.ue, radio::Direction::kDownlink,
          config.session_rsrp_mean_dbm);
      if (server.port_cap_mbps > 0.0) {
        path.capacity_mbps = std::min(path.capacity_mbps, server.port_cap_mbps);
      }
      path.loss_event_rate_per_s = net::loss_event_rate_per_s(path.rtt_ms);
      path.loss_per_packet = net::loss_per_packet(path.rtt_ms);
      for (const int connections : {20, 1}) {
        Rng rng = server_rngs_[i];
        const auto start = Clock::now();
        static_cast<void>(transport::simulate_tcp(
            connections, path, transport::tuned_tcp_options(),
            config.test_duration_s, rng));
        ms.push_back(1e3 * seconds_between(start, Clock::now()));
      }
    }
    return median(ms);
  }

  RunConfig config_;
  std::unique_ptr<net::SpeedtestHarness> harness_;
  std::vector<net::SpeedtestServer> servers_;
  std::vector<Rng> server_rngs_;
  ParallelMeter meter_;
  int rounds_ = 0;
  std::vector<double> peak_of_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_speedtest_workload(const RunConfig& config) {
  return std::make_unique<SpeedtestWorkload>(config);
}

}  // namespace wild5g::perf
