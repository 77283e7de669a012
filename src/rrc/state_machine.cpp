#include "rrc/state_machine.h"

#include <algorithm>
#include <limits>

#include "core/error.h"

namespace wild5g::rrc {

RrcState state_after_gap(const RrcConfig& config, double gap_ms) {
  require(gap_ms >= 0.0, "state_after_gap: negative gap");
  // Strict comparisons: a timer expiring at exactly T has transitioned the
  // UE at T.
  if (gap_ms < config.inactivity_timer_ms) return RrcState::kConnected;
  if (config.anchor_tail_ms && gap_ms < *config.anchor_tail_ms) {
    return RrcState::kConnectedAnchor;
  }
  if (config.inactive_hold_ms &&
      gap_ms < config.inactivity_timer_ms + *config.inactive_hold_ms) {
    return RrcState::kInactive;
  }
  return RrcState::kIdle;
}

namespace {

/// Promotion delay applicable when a packet finds the UE in RRC_IDLE.
double promotion_delay_ms(const RrcConfig& config) {
  if (radio::is_nr(config.network.band) && config.promotion_5g_ms) {
    return *config.promotion_5g_ms;
  }
  // DSS low-band or plain 4G: service resumes over the LTE leg first.
  if (config.promotion_4g_ms) return *config.promotion_4g_ms;
  return 0.0;
}

}  // namespace

double probe_rtt_ms(const RrcConfig& config, double gap_ms, Rng& rng) {
  const RrcState state = state_after_gap(config, gap_ms);
  // Measurement noise on the wire component of the RTT.
  const double jitter = std::max(0.0, rng.normal(0.0, 3.0));
  switch (state) {
    case RrcState::kConnected: {
      // Within the continuous-reception window the radio is listening;
      // afterwards the packet waits for the next Long-DRX on-duration.
      const double drx_wait = gap_ms <= config.short_drx_boundary_ms
                                  ? 0.0
                                  : rng.uniform(0.0, config.long_drx_cycle_ms);
      return config.base_rtt_ms + drx_wait + jitter;
    }
    case RrcState::kConnectedAnchor: {
      const double drx_wait = rng.uniform(0.0, config.long_drx_cycle_ms);
      return config.anchor_rtt_ms + drx_wait + jitter;
    }
    case RrcState::kInactive: {
      // Lightweight resume: no core signaling, short paging cycle.
      const double paging_wait =
          rng.uniform(0.0, std::min(config.idle_drx_cycle_ms, 320.0));
      return config.base_rtt_ms + config.inactive_resume_ms + paging_wait +
             jitter;
    }
    case RrcState::kIdle: {
      const double paging_wait = rng.uniform(0.0, config.idle_drx_cycle_ms);
      return config.base_rtt_ms + promotion_delay_ms(config) + paging_wait +
             jitter;
    }
  }
  return config.base_rtt_ms + jitter;
}

std::vector<StateSegment> build_timeline(const RrcConfig& config,
                                         std::span<const ActivityBurst> bursts,
                                         double horizon_ms) {
  require(horizon_ms > 0.0, "build_timeline: horizon must be positive");
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    require(bursts[i].start_ms < bursts[i].end_ms,
            "build_timeline: empty burst");
    require(bursts[i].end_ms <= horizon_ms,
            "build_timeline: burst beyond horizon");
    if (i > 0) {
      require(bursts[i - 1].end_ms <= bursts[i].start_ms,
              "build_timeline: bursts must be sorted and disjoint");
    }
  }

  std::vector<StateSegment> timeline;
  auto emit = [&](double start, double end, RrcState state, bool transferring,
                  bool promoting, double dl, double ul) {
    if (end - start <= 0.0) return;
    timeline.push_back({start, end, state, transferring, promoting, dl, ul});
  };

  // Emits the post-activity decay chain starting at `from` until `until`.
  auto emit_tail_chain = [&](double from, double until) {
    double at = from;
    const double tail_end =
        std::min(until, from + config.inactivity_timer_ms);
    emit(at, tail_end, RrcState::kConnected, false, false, 0.0, 0.0);
    at = tail_end;
    if (at >= until) return;
    if (config.anchor_tail_ms) {
      const double anchor_end = std::min(until, from + *config.anchor_tail_ms);
      emit(at, anchor_end, RrcState::kConnectedAnchor, false, false, 0.0, 0.0);
      at = anchor_end;
      if (at >= until) return;
    } else if (config.inactive_hold_ms) {
      const double inactive_end =
          std::min(until, tail_end + *config.inactive_hold_ms);
      emit(at, inactive_end, RrcState::kInactive, false, false, 0.0, 0.0);
      at = inactive_end;
      if (at >= until) return;
    }
    emit(at, until, RrcState::kIdle, false, false, 0.0, 0.0);
  };

  double last_activity_end = -1.0;  // -1: no activity yet (start in IDLE)
  for (const auto& burst : bursts) {
    // Fill the gap before this burst.
    if (last_activity_end < 0.0) {
      emit(0.0, burst.start_ms, RrcState::kIdle, false, false, 0.0, 0.0);
    } else {
      emit_tail_chain(last_activity_end, burst.start_ms);
    }

    // Promotion cost depends on the state the burst finds the UE in.
    const double gap = last_activity_end < 0.0
                           ? std::numeric_limits<double>::infinity()
                           : burst.start_ms - last_activity_end;
    const RrcState found = last_activity_end < 0.0
                               ? RrcState::kIdle
                               : state_after_gap(config, gap);
    double promo = 0.0;
    if (found == RrcState::kIdle) {
      promo = promotion_delay_ms(config);
    } else if (found == RrcState::kInactive) {
      promo = config.inactive_resume_ms;
    } else if (found == RrcState::kConnectedAnchor &&
               radio::is_nr(config.network.band)) {
      // NR leg must be re-added to the anchor (secondary-cell addition).
      promo = config.promotion_5g_ms.value_or(0.0) * 0.25;
    }
    promo = std::min(promo, burst.end_ms - burst.start_ms);
    emit(burst.start_ms, burst.start_ms + promo, RrcState::kConnected, false,
         true, 0.0, 0.0);
    emit(burst.start_ms + promo, burst.end_ms, RrcState::kConnected, true,
         false, burst.dl_mbps, burst.ul_mbps);
    last_activity_end = burst.end_ms;
  }

  // Decay after the final burst.
  if (last_activity_end < 0.0) {
    emit(0.0, horizon_ms, RrcState::kIdle, false, false, 0.0, 0.0);
  } else {
    emit_tail_chain(last_activity_end, horizon_ms);
  }
  return timeline;
}

}  // namespace wild5g::rrc
