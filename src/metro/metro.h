// wild5g/metro: sharded multi-UE campaign driver over shared cells.
//
// The paper measures a handful of UEs one at a time; the metro extensions
// ask what a co-moving population does to each user's airtime share. This
// module couples the repo's radio primitives into a contention campaign: a
// corridor of cells, each with a radio::CellScheduler splitting its airtime
// among the UEs camped on it, and a population of UEs driven through
// radio::A3HandoffEngine (so a loaded cell's UEs move — and hand off —
// together). Per-UE metrics aggregate through stats::SampleAccumulator.
//
// Determinism (DESIGN.md section 11): a UE's throughput depends on how many
// *other* UEs share its cell at each step, so run_campaign works in two
// phases over fixed 512-UE shards:
//
//   Phase 1 (parallel): each UE is simulated once from base.fork(ue_index)
//     — trajectory, A3 handoffs, activity draws. A shard records every step
//     of its UEs (serving cell, serving RSRP, active flag) and returns
//     integer occupancy matrices (attached / active counts per cell per
//     step) plus handoff tallies; integer addition is exact, so the serial
//     index-ordered merge is schedule-independent.
//   Totals (serial): attach/detach operations, peak per-cell activity and
//     mean cell utilization are read straight off the merged matrices,
//     summed steps-outer, cells-inner so the double sum has one order.
//   Phase 2 (parallel): each shard prices its recorded steps against the
//     *global* active-count matrix; the samples land in per-shard
//     SampleAccumulators merged in index order.
//
// Every number is a pure function of (config, seed), verified by
// tests/test_metro.cpp at 1 vs 8 threads. Memory is O(UEs x steps): the
// timeline takes 12 B per UE-step (1.7 MB for the figures' 12 x 100 UEs x
// 120 steps), and each shard's occupancy counts take 8 B per cell-step.
//
// Faults: the campaign models the *radio* fault kinds — mmwave_blockage
// (RSRP penalty), nr_to_lte_outage (LTE fallback), radio_outage (zero
// throughput). Plans containing any other kind are rejected up front
// (unsupported_fault_kinds); the bench binaries turn that into exit 2.
#pragma once

#include <vector>

#include "core/quantile_sketch.h"
#include "core/rng.h"
#include "faults/injector.h"
#include "radio/cell.h"
#include "radio/handoff.h"
#include "radio/types.h"
#include "radio/ue.h"

namespace wild5g::metro {

struct MetroConfig {
  /// Corridor geometry: `cells` sites in a line, 800 m apart, each serving
  /// Verizon NSA mid band (NSA LTE during an nr_to_lte_outage window) to
  /// Pixel 5 downlink UEs stepped every 0.5 s.
  int cells = 12;
  int ues_per_cell = 100;

  /// A3 parameters of every UE's handoff engine.
  radio::HandoffConfig handoff;

  double duration_s = 60.0;

  /// Airtime fraction pre-consumed in every cell by traffic the campaign
  /// does not model per-UE (the load-sweep dial); [0, 1).
  double background_load = 0.0;
  /// Probability a UE is actively transferring in a given step; [0, 1].
  double activity = 1.0;
  /// Common speed of the co-moving population (m/s); the storm figure runs
  /// this at vehicular speed so whole cells hand off together.
  double ue_speed_mps = 1.4;
  /// Per-step demand for the QoE view: a step is fully satisfied when the
  /// UE's share meets this rate, and the shortfall accrues as rebuffering.
  double demand_mbps = 25.0;

  /// Optional fault surface (pure queries; null = pristine campaign and the
  /// exact pre-fault draw sequence). Radio kinds only — see
  /// unsupported_fault_kinds().
  const faults::Injector* faults = nullptr;
};

struct MetroResult {
  int ues = 0;
  int cells = 0;
  int steps = 0;

  long long handoffs = 0;
  long long pingpongs = 0;
  /// Most handoffs completed in any single step across the population —
  /// the handoff-storm intensity of the co-moving figure.
  int peak_step_handoffs = 0;
  /// Most simultaneously active UEs observed on one cell in one step.
  int peak_cell_active = 0;
  /// Attach + detach operations the occupancy matrix implies: the sum over
  /// cells and steps of |attached[c][s] - attached[c][s-1]|, starting empty.
  long long attach_ops = 0;
  /// Mean of CellScheduler::utilization over every (cell, step).
  double mean_utilization = 0.0;

  /// One sample per UE that was ever active: its mean goodput over its
  /// active steps.
  stats::SampleAccumulator per_ue_mean_mbps;
  /// One sample per ever-active UE: 1 - mean(min(1, goodput/demand)),
  /// the fraction of demanded playback time spent stalled.
  stats::SampleAccumulator per_ue_rebuffer_fraction;
  /// One sample per (UE, active step): instantaneous goodput.
  stats::SampleAccumulator step_throughput_mbps;
};

/// Refuses a corridor whose UE count, cells x ues_per_cell, exceeds
/// INT_MAX; throws wild5g::Error. run_campaign checks it, and the engine
/// checks it where a request's params are resolved.
void require_population(int cells, int ues_per_cell);

/// Fault kinds present in `plan` that the metro campaign does not model
/// (anything beyond mmwave_blockage / nr_to_lte_outage / radio_outage),
/// deduplicated in first-appearance order. Empty means the plan is usable.
[[nodiscard]] std::vector<faults::FaultKind> unsupported_fault_kinds(
    const faults::FaultPlan& plan);

/// Runs the campaign. Byte-identical for a given (config, rng seed) at any
/// thread count; throws wild5g::Error on invalid config or a fault plan
/// with unsupported kinds.
[[nodiscard]] MetroResult run_campaign(const MetroConfig& config, Rng rng);

}  // namespace wild5g::metro
