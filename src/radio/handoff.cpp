#include "radio/handoff.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace wild5g::radio {

A3HandoffEngine::A3HandoffEngine(std::vector<CellSite> cells,
                                 HandoffConfig config, Rng rng,
                                 int initial_serving)
    : cells_(std::move(cells)), config_(config), rng_(rng) {
  require(!cells_.empty(), "A3HandoffEngine: no cells");
  require(config_.hysteresis_db >= 0.0 && config_.time_to_trigger_ms >= 0.0,
          "A3HandoffEngine: invalid config");
  require(initial_serving >= 0 &&
              static_cast<std::size_t>(initial_serving) < cells_.size(),
          "A3HandoffEngine: initial_serving out of range");
  serving_ = initial_serving;
  shadowing_db_.assign(cells_.size(), 0.0);
  for (auto& s : shadowing_db_) {
    s = rng_.normal(0.0, config_.shadowing_sigma_db);
  }
}

double A3HandoffEngine::cell_rsrp_dbm(std::size_t index,
                                      double ue_position_m) const {
  const auto& cell = cells_[index];
  const double distance = std::abs(ue_position_m - cell.position_m);
  return rsrp_dbm(cell.band, std::max(5.0, distance),
                  -shadowing_db_[index]);
}

void A3HandoffEngine::evolve_shadowing(double dt_s) {
  const double decay = std::exp(-dt_s / config_.shadowing_tau_s);
  const double noise = config_.shadowing_sigma_db *
                       std::sqrt(std::max(0.0, 1.0 - decay * decay));
  for (auto& s : shadowing_db_) {
    s = s * decay + rng_.normal(0.0, noise);
  }
}

A3HandoffEngine::StepResult A3HandoffEngine::step(double dt_s,
                                                  double ue_position_m) {
  require(dt_s > 0.0, "A3HandoffEngine::step: dt must be positive");
  now_s_ += dt_s;
  evolve_shadowing(dt_s);

  const auto serving_index = static_cast<std::size_t>(serving_);
  const double serving_rsrp = cell_rsrp_dbm(serving_index, ue_position_m);

  // Strongest neighbor; strict comparison in index order, so exact ties
  // resolve to the lowest index deterministically.
  int best = -1;
  double best_rsrp = -1e18;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (i == serving_index) continue;
    const double rsrp = cell_rsrp_dbm(i, ue_position_m);
    if (rsrp > best_rsrp) {
      best_rsrp = rsrp;
      best = static_cast<int>(i);
    }
  }

  StepResult result;
  result.serving_rsrp_dbm = serving_rsrp;

  // A3 entering condition, strict: neighbor > serving + hysteresis. A
  // neighbor exactly hysteresis_db stronger does not start the timer.
  if (best >= 0 && best_rsrp > serving_rsrp + config_.hysteresis_db) {
    if (candidate_ != best) {
      // Timer (re)starts on the step that first observes this candidate;
      // dwell accumulates per step so the exactly-at-TTT boundary is hit
      // exactly instead of drowning in now-vs-then cancellation error.
      candidate_ = best;
      candidate_held_ms_ = 0.0;
    } else {
      candidate_held_ms_ += dt_s * 1000.0;
    }
    if (candidate_held_ms_ >= config_.time_to_trigger_ms) {
      events_.push_back({now_s_, serving_, best});
      serving_ = best;
      candidate_ = -1;
      candidate_held_ms_ = 0.0;
      ++handoff_count_;
      result.handed_off = true;
    }
  } else {
    candidate_ = -1;  // leaving condition: report stops
    candidate_held_ms_ = 0.0;
  }
  result.serving_cell = serving_;
  return result;
}

int A3HandoffEngine::pingpong_count() const {
  constexpr double kPingpongWindowS = 5.0;
  int count = 0;
  for (std::size_t i = 1; i < events_.size(); ++i) {
    if (events_[i].to == events_[i - 1].from &&
        events_[i].t_s - events_[i - 1].t_s <= kPingpongWindowS) {
      ++count;
    }
  }
  return count;
}

}  // namespace wild5g::radio
