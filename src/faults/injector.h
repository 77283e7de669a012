// wild5g/faults: deterministic evaluation of a FaultPlan.
//
// The Injector is a *pure query surface* over a validated plan: every
// answer is a function of (plan, campaign seed, query arguments) and of
// nothing else — no mutable state, no shared Rng stream. That is what lets
// harnesses consult it from inside parallel_map tasks without perturbing
// the repo's byte-identical-at-any-thread-count contract: a harness that
// receives a null injector executes exactly the pre-fault code path (and
// exactly the pre-fault Rng draw sequence), so default goldens are
// untouched; a harness that receives a plan perturbs reproducibly.
//
// Stochastic decisions (object-fetch failures, trace-record corruption)
// draw from throwaway Rng substreams forked per decision index off the
// injector's root seed, mirroring the parallel campaign discipline of
// DESIGN.md section 8 item 6: pure function of (seed, index), never of
// call order or thread schedule.
#pragma once

#include <cstdint>
#include <functional>

#include "core/rng.h"
#include "faults/fault_plan.h"
#include "sim/simulator.h"

namespace wild5g::faults {

class Injector {
 public:
  /// `campaign_seed` is the campaign request's seed; the plan's seed_salt
  /// is mixed in so the same seed can drive differently-salted plans.
  Injector(FaultPlan plan, std::uint64_t campaign_seed);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // --- radio -------------------------------------------------------------
  /// Extra path attenuation (dB) from mmWave blockage bursts at time t.
  [[nodiscard]] double rsrp_penalty_db_at(double t_s) const;
  /// True while the NR carrier is down and the UE is camped on LTE.
  [[nodiscard]] bool nr_fallback_at(double t_s) const;
  /// True inside a dead zone (no service on any radio).
  [[nodiscard]] bool radio_outage_at(double t_s) const;
  /// Fraction of [a_s, b_s) spent inside radio_outage windows.
  [[nodiscard]] double outage_fraction(double a_s, double b_s) const;

  // --- transport ---------------------------------------------------------
  /// Extra loss events/s from any loss burst covering t.
  [[nodiscard]] double extra_loss_events_per_s_at(double t_s) const;
  /// Extra RTT (ms) from any latency spike covering t.
  [[nodiscard]] double extra_rtt_ms_at(double t_s) const;

  // --- net ---------------------------------------------------------------
  /// True while the server refuses connections (harnesses retry with
  /// bounded deterministic backoff, then report a partial result).
  [[nodiscard]] bool server_unreachable_at(double t_s) const;
  /// Fraction of [a_s, b_s) lost to server stalls (window overlap weighted
  /// by each stall's magnitude).
  [[nodiscard]] double server_stall_fraction(double a_s, double b_s) const;

  // --- abr / generic bandwidth shaping ------------------------------------
  /// Multiplier in [0, 1] applied to available bandwidth at t. Folds in
  /// chunk stalls (1 - magnitude), NR->LTE fallback (residual magnitude)
  /// and radio outages (0). Trace-driven consumers (abr::Session) apply it
  /// sample by sample, converting stalls into rebuffer time.
  [[nodiscard]] double bandwidth_scale_at(double t_s) const;

  // --- web ----------------------------------------------------------------
  /// Whether the fetch of object `object_index` starting at `t_s` fails.
  /// Deterministic in (root seed, salt, object_index); `salt` keys the
  /// decision family (e.g. the site index), so one plan fails different
  /// object subsets on different pages.
  [[nodiscard]] bool object_fetch_fails(std::uint64_t salt,
                                        std::uint64_t object_index,
                                        double t_s) const;

  // --- traces --------------------------------------------------------------
  /// Whether serialized record `index` is corrupted (trace_corrupt windows
  /// live in record-index space: record i sits at t = i).
  [[nodiscard]] bool corrupt_record(std::uint64_t index) const;

  // --- sim-driven consumers ------------------------------------------------
  /// Schedules `on_edge(window, is_start)` on `sim` at every window
  /// boundary (milliseconds = seconds * 1000, matching Simulator's clock),
  /// for components that react to fault edges instead of polling. Windows
  /// whose start lies before sim.now_ms() are skipped entirely; a window
  /// already in progress cannot deliver a coherent start edge.
  void arm(sim::Simulator& sim,
           std::function<void(const FaultWindow&, bool)> on_edge) const;

 private:
  /// Pure (seed, salt, index) -> bernoulli(p) decision.
  [[nodiscard]] bool decision(std::uint64_t salt, std::uint64_t index,
                              double probability) const;

  FaultPlan plan_;
  Rng root_;
};

}  // namespace wild5g::faults
