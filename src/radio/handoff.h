// wild5g/radio: measurement-based (A3-event) handoff engine.
//
// The drive simulation in mobility/ uses calibrated geometric handoff
// statistics; this engine implements the underlying 3GPP mechanism — a
// neighbor must be `hysteresis_db` stronger than the serving cell for a
// continuous `time_to_trigger_ms` before the UE hands over. It exposes the
// knobs carriers tune (and the ping-pong pathology the paper's LTE layers
// exhibit), which the ablation bench sweeps and the metro multi-UE
// campaigns drive at scale (thousands of co-moving UEs hit the boundary
// conditions below constantly, so their semantics are pinned exactly).
//
// Boundary semantics (regression-tested in tests/test_radio_handoff.cpp):
//  - Entering condition is STRICT: neighbor > serving + hysteresis_db.
//    A neighbor exactly `hysteresis_db` stronger does NOT start the timer
//    (3GPP TS 38.331 A3 uses a strict inequality; ties therefore never
//    flap, which is what keeps exactly-tied cells handoff-free at
//    hysteresis 0).
//  - Time-to-trigger is INCLUSIVE and measured as dwell time accumulated
//    step by step (sum of dt, not a difference of absolute clocks — the
//    subtraction form loses the boundary case to floating-point
//    cancellation once now >> dt): the handoff fires on the first step
//    where the condition has held for >= time_to_trigger_ms, counting from
//    the step that first observed it. time_to_trigger_ms == 0 fires on the
//    observing step itself.
//  - The strongest neighbor is chosen with a strict comparison in index
//    order, so exactly-tied candidate neighbors resolve to the lowest cell
//    index deterministically.
//  - A single-cell deployment never hands off (there is no neighbor).
#pragma once

#include <vector>

#include "core/rng.h"
#include "radio/channel.h"
#include "radio/types.h"

namespace wild5g::radio {

struct HandoffConfig {
  double hysteresis_db = 3.0;       // A3 offset
  double time_to_trigger_ms = 320.0;
  double shadowing_sigma_db = 4.0;  // per-cell shadowing
  double shadowing_tau_s = 5.0;
};

/// One cell site on a 1-D route.
struct CellSite {
  int id = 0;
  double position_m = 0.0;
  Band band = Band::kLte;
};

/// One completed handoff, in campaign time.
struct HandoffEvent {
  double t_s = 0.0;
  int from = 0;
  int to = 0;
};

/// Evaluates A3 events for a UE moving along a 1-D route among `cells`.
class A3HandoffEngine {
 public:
  /// `cells` must be non-empty; all cells share `band` characteristics.
  /// `initial_serving` is the index the UE starts camped on (multi-UE
  /// campaigns attach each UE to its nearest cell instead of index 0).
  A3HandoffEngine(std::vector<CellSite> cells, HandoffConfig config,
                  Rng rng, int initial_serving = 0);

  struct StepResult {
    int serving_cell = 0;
    double serving_rsrp_dbm = 0.0;
    bool handed_off = false;
  };

  /// Advances by dt_s with the UE at `ue_position_m`.
  StepResult step(double dt_s, double ue_position_m);

  [[nodiscard]] int handoff_count() const { return handoff_count_; }
  /// Handoffs that returned to the previous cell within 5 s.
  [[nodiscard]] int pingpong_count() const;
  [[nodiscard]] int serving_cell() const { return serving_; }
  /// Every completed handoff in order.
  [[nodiscard]] const std::vector<HandoffEvent>& events() const {
    return events_;
  }

 private:
  std::vector<CellSite> cells_;
  HandoffConfig config_;
  Rng rng_;
  std::vector<double> shadowing_db_;  // per-cell OU state
  double now_s_ = 0.0;
  int serving_ = 0;
  int candidate_ = -1;
  double candidate_held_ms_ = 0.0;  // dwell time of the current candidate
  int handoff_count_ = 0;
  std::vector<HandoffEvent> events_;

  [[nodiscard]] double cell_rsrp_dbm(std::size_t index,
                                     double ue_position_m) const;
  void evolve_shadowing(double dt_s);
};

}  // namespace wild5g::radio
