#include "transport/tcp.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace wild5g::transport {

namespace {

constexpr double kCubicC = 0.4;    // packets / s^3 (RFC 8312)
constexpr double kCubicBeta = 0.7; // multiplicative decrease
constexpr double kTcpEfficiency = 0.97;  // header/ack overhead
constexpr double kUdpEfficiency = 0.985;
constexpr double kInitialCwndPkts = 10.0;

struct ConnState {
  double cwnd_pkts = 10.0;
  double wmax_pkts = 0.0;
  double epoch_start_s = 0.0;
  double epoch_k_s = 0.0;  // time to plateau: K = cbrt((Wmax - W0)/C)
  bool slow_start = true;
  double ssthresh_pkts = 1e18;  // slow-start exit point
  double achieved_mbps = 0.0;
  // Loss hazard accumulator: integrates the instantaneous loss intensity
  // and fires when it crosses a jittered unit threshold. Quasi-periodic
  // losses keep each run near CUBIC's equilibrium instead of leaving short
  // tests at the mercy of Poisson luck.
  double loss_hazard = 0.0;
  double loss_threshold = 1.0;
};

}  // namespace

TcpOptions tuned_tcp_options() {
  TcpOptions options;
  options.wmem_bytes = 32.0e6;  // comfortably above any path BDP here
  return options;
}

FlowResult simulate_tcp(int connection_count, const PathConfig& path,
                        const TcpOptions& options, double duration_s,
                        Rng& rng) {
  require(connection_count > 0, "simulate_tcp: need >= 1 connection");
  require(path.rtt_ms > 0.0 && path.capacity_mbps > 0.0,
          "simulate_tcp: invalid path");
  require(duration_s > 1.0, "simulate_tcp: duration too short");

  const double rtt_s = path.rtt_ms / 1000.0;
  const double wmem_pkts = options.wmem_bytes / kMssBytes;
  const double pkt_mbits = kMssBytes * 8.0 / 1e6;
  // Window cap: send buffer, and sanity ceiling of 2x BDP + queue.
  const double bdp_pkts = path.capacity_mbps * rtt_s / pkt_mbits;
  const double cwnd_cap = std::min(wmem_pkts, 2.0 * bdp_pkts + 100.0);

  std::vector<ConnState> conns(static_cast<std::size_t>(connection_count));
  for (auto& c : conns) {
    c.cwnd_pkts = kInitialCwndPkts;
    c.loss_threshold = rng.uniform(0.7, 1.3);
  }

  const double dt = std::clamp(rtt_s / 2.0, 0.002, 0.02);
  const double warmup_s = duration_s * 0.2;
  double measured_mbit = 0.0;
  double measured_time = 0.0;
  int loss_events = 0;
  std::vector<double> per_conn_mbit(conns.size(), 0.0);
  std::vector<double> offered(conns.size());

  for (double now = 0.0; now < duration_s; now += dt) {
    // Offered rates from the current windows.
    double offered_total = 0.0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      offered[i] =
          std::min(conns[i].cwnd_pkts, cwnd_cap) * pkt_mbits / rtt_s;
      offered_total += offered[i];
    }
    const double scale =
        offered_total > path.capacity_mbps
            ? path.capacity_mbps / offered_total
            : 1.0;
    const double overload =
        std::max(0.0, offered_total / path.capacity_mbps - 1.0);

    for (std::size_t i = 0; i < conns.size(); ++i) {
      auto& c = conns[i];
      c.achieved_mbps = offered[i] * scale * kTcpEfficiency;
      if (now >= warmup_s) {
        measured_mbit += c.achieved_mbps * dt;
        per_conn_mbit[i] += c.achieved_mbps * dt;
      }

      // Loss: ambient events + per-packet drops feed the hazard; bottleneck
      // overflow adds an immediate random component.
      const double pkts_sent = c.achieved_mbps * dt / pkt_mbits;
      c.loss_hazard += path.loss_event_rate_per_s * dt +
                       path.loss_per_packet * pkts_sent;
      const double p_congestion = std::min(1.0, 3.0 * overload * dt);
      bool lost = rng.bernoulli(p_congestion);
      if (c.loss_hazard >= c.loss_threshold) {
        lost = true;
        c.loss_hazard = 0.0;
        c.loss_threshold = rng.uniform(0.7, 1.3);
      }
      if (lost) {
        ++loss_events;
        c.wmax_pkts = c.cwnd_pkts;
        // Most events are a single congestion notification (CUBIC beta);
        // a minority are burst losses / retransmission timeouts. An RTO
        // collapses the window and restarts slow start toward half the old
        // flight, after which CUBIC crawls back toward Wmax — on long-RTT
        // paths that crawl dominates, which is what pulls single
        // connections far below capacity (Fig. 3 / Fig. 8).
        if (rng.bernoulli(0.15)) {
          c.ssthresh_pkts = std::max(10.0, 0.5 * c.cwnd_pkts);
          c.cwnd_pkts = kInitialCwndPkts;
          c.slow_start = true;
        } else {
          c.cwnd_pkts = std::max(2.0, c.cwnd_pkts * kCubicBeta);
          c.slow_start = false;
        }
        c.epoch_start_s = now;
        c.epoch_k_s = std::cbrt(
            std::max(0.0, c.wmax_pkts - c.cwnd_pkts) / kCubicC);
        continue;
      }

      if (c.slow_start) {
        // Exponential growth: one doubling per RTT, until ssthresh.
        c.cwnd_pkts = std::min(cwnd_cap, c.cwnd_pkts * (1.0 + dt / rtt_s));
        if (c.cwnd_pkts >= c.ssthresh_pkts) {
          c.slow_start = false;
          c.epoch_start_s = now + dt;
          c.epoch_k_s = std::cbrt(
              std::max(0.0, c.wmax_pkts - c.cwnd_pkts) / kCubicC);
        }
      } else {
        // CUBIC window evolution in real time since the last loss.
        const double t = now + dt - c.epoch_start_s;
        const double k = c.epoch_k_s;
        const double target =
            kCubicC * (t - k) * (t - k) * (t - k) + c.wmax_pkts;
        c.cwnd_pkts = std::clamp(target, 2.0, cwnd_cap);
      }
    }
    if (now >= warmup_s) measured_time += dt;
  }

  FlowResult result;
  result.loss_events = loss_events;
  require(measured_time > 0.0, "simulate_tcp: no steady-state window");
  result.aggregate_goodput_mbps = measured_mbit / measured_time;
  result.per_connection_mbps.reserve(conns.size());
  for (double mbit : per_conn_mbit) {
    result.per_connection_mbps.push_back(mbit / measured_time);
  }
  return result;
}

double udp_throughput_mbps(const PathConfig& path) {
  require(path.capacity_mbps > 0.0, "udp_throughput_mbps: invalid path");
  return path.capacity_mbps * kUdpEfficiency;
}

}  // namespace wild5g::transport
