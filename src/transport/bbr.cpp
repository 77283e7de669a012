#include "transport/bbr.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "core/error.h"

namespace wild5g::transport {

namespace {

constexpr double kBbrEfficiency = 0.97;  // header/ack overhead
constexpr double kStartupGain = 2.885;  // BBR STARTUP pacing gain
constexpr double kProbeGain = 1.25;     // PROBE_BW up-cycle gain
constexpr double kDrainGain = 0.75;     // PROBE_BW drain phase
constexpr double kBwWindowS = 10.0;     // max-filter window for bw samples

/// PROBE_BW pacing-gain cycle (RFC-draft BBR v1): one probe, one drain,
/// six cruise phases, each lasting ~1 RTT.
constexpr double kCruiseGain = 1.0;

struct BbrState {
  enum class Phase { kStartup, kDrain, kProbeBw };
  Phase phase = Phase::kStartup;
  double delivered_rate_mbps = 1.0;  // latest bandwidth sample
  std::deque<std::pair<double, double>> bw_samples;  // (time, mbps)
  double btl_bw_mbps = 1.0;          // max-filter output
  double full_bw_mbps = 0.0;         // STARTUP plateau detection
  int full_bw_rounds = 0;
  int cycle_index = 0;
  double cycle_started_s = 0.0;
  double achieved_mbps = 0.0;
};

}  // namespace

FlowResult simulate_bbr(int connection_count, const PathConfig& path,
                        const BbrOptions& options, double duration_s,
                        Rng& rng) {
  require(connection_count > 0, "simulate_bbr: need >= 1 connection");
  require(path.rtt_ms > 0.0 && path.capacity_mbps > 0.0,
          "simulate_bbr: invalid path");
  require(duration_s > 1.0, "simulate_bbr: duration too short");

  const double rtt_s = path.rtt_ms / 1000.0;
  const double window_cap_mbps =
      options.wmem_bytes * 8.0 / 1e6 / rtt_s;  // flow-control ceiling
  const double dt = std::clamp(rtt_s / 2.0, 0.002, 0.02);
  const double warmup_s = duration_s * 0.2;

  std::vector<BbrState> conns(static_cast<std::size_t>(connection_count));
  double measured_mbit = 0.0;
  double measured_time = 0.0;
  int loss_events = 0;
  std::vector<double> per_conn_mbit(conns.size(), 0.0);

  for (double now = 0.0; now < duration_s; now += dt) {
    // Offered (pacing) rates.
    double offered_total = 0.0;
    std::vector<double> offered(conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      auto& c = conns[i];
      double gain = kCruiseGain;
      switch (c.phase) {
        case BbrState::Phase::kStartup: gain = kStartupGain; break;
        case BbrState::Phase::kDrain: gain = kDrainGain; break;
        case BbrState::Phase::kProbeBw: {
          // 8-phase cycle: probe, drain, cruise x6.
          const auto phase_len_s = rtt_s;
          if (now - c.cycle_started_s >= phase_len_s) {
            c.cycle_index = (c.cycle_index + 1) % 8;
            c.cycle_started_s = now;
          }
          gain = c.cycle_index == 0 ? kProbeGain
                 : c.cycle_index == 1 ? kDrainGain
                                      : kCruiseGain;
          break;
        }
      }
      offered[i] = std::min(window_cap_mbps, c.btl_bw_mbps * gain);
      offered_total += offered[i];
    }
    const double scale = offered_total > path.capacity_mbps
                             ? path.capacity_mbps / offered_total
                             : 1.0;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      auto& c = conns[i];
      c.achieved_mbps = offered[i] * scale * kBbrEfficiency;
      if (now >= warmup_s) {
        measured_mbit += c.achieved_mbps * dt;
        per_conn_mbit[i] += c.achieved_mbps * dt;
      }

      // Bandwidth sample = delivery rate (what actually got through).
      c.delivered_rate_mbps = c.achieved_mbps / kBbrEfficiency;
      c.bw_samples.emplace_back(now, c.delivered_rate_mbps);
      while (!c.bw_samples.empty() &&
             now - c.bw_samples.front().first > kBwWindowS) {
        c.bw_samples.pop_front();
      }
      double max_bw = 1.0;
      for (const auto& [t, bw] : c.bw_samples) max_bw = std::max(max_bw, bw);
      c.btl_bw_mbps = max_bw;

      // Loss is observed but (unlike CUBIC) does not change the rate model.
      const double pkts = c.achieved_mbps * dt / (kMssBytes * 8e-6);
      if (rng.bernoulli(std::min(1.0, path.loss_event_rate_per_s * dt +
                                          path.loss_per_packet * pkts))) {
        ++loss_events;
      }

      // STARTUP exits when bandwidth stops growing for 3 rounds.
      if (c.phase == BbrState::Phase::kStartup) {
        if (c.btl_bw_mbps < 1.25 * c.full_bw_mbps) {
          if (++c.full_bw_rounds >= static_cast<int>(3.0 * rtt_s / dt)) {
            c.phase = BbrState::Phase::kDrain;
            c.cycle_started_s = now;
          }
        } else {
          c.full_bw_mbps = c.btl_bw_mbps;
          c.full_bw_rounds = 0;
        }
      } else if (c.phase == BbrState::Phase::kDrain &&
                 now - c.cycle_started_s >= rtt_s) {
        c.phase = BbrState::Phase::kProbeBw;
        c.cycle_started_s = now;
        c.cycle_index = static_cast<int>(rng.uniform_int(2, 7));
      }
    }
    if (now >= warmup_s) measured_time += dt;
  }

  FlowResult result;
  result.loss_events = loss_events;
  require(measured_time > 0.0, "simulate_bbr: no steady-state window");
  result.aggregate_goodput_mbps = measured_mbit / measured_time;
  result.per_connection_mbps.reserve(conns.size());
  for (double mbit : per_conn_mbit) {
    result.per_connection_mbps.push_back(mbit / measured_time);
  }
  return result;
}

}  // namespace wild5g::transport
