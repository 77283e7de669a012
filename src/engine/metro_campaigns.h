// wild5g/engine: the built-in stepped campaigns.
//
// metro_load and metro_qoe are the existing metro bench campaigns sliced
// into engine steps — one grid point per step — producing byte-identical
// documents to the pre-engine monolithic mains (the committed goldens gate
// that). Each step appends its row to a table the MetricsDocument owns, so
// the two have no cross-step state and override neither checkpoint hook.
// drive_soak is the long-running service workload: a sequence of metro
// intervals threaded through one sequential Rng (split() per interval) with
// rollup SampleAccumulators that spill into sketch mode. Its checkpoint
// holds exactly that cross-step state — the Rng, the two accumulators and
// the counters — and its rows, like every campaign's, live in the document.
#pragma once

#include <memory>

#include "engine/campaign.h"

namespace wild5g::engine {

/// Per-user throughput under shared-cell contention: a background-load
/// sweep (5 steps) then a sharers-per-cell sweep (4 steps).
/// Params: "cells" (default 12), "ues" (default 100).
[[nodiscard]] std::unique_ptr<Campaign> make_metro_load_campaign(
    const CampaignRequest& request);

/// Busy-hour QoE and handoff storms for a co-moving population: one step
/// per activity grid point (4 steps).
/// Params: "cells" (default 12), "ues" (default 100).
[[nodiscard]] std::unique_ptr<Campaign> make_metro_qoe_campaign(
    const CampaignRequest& request);

/// Long-haul supervised workload: "intervals" (default 12) metro intervals
/// of "interval_s" (default 30) seconds each, over a corridor of "cells"
/// (default 4) x "ues" (default 25). The fault plan lives on the *global*
/// campaign timeline and is sliced per interval; per-UE and per-step
/// samples roll up across intervals through SampleAccumulators.
[[nodiscard]] std::unique_ptr<Campaign> make_drive_soak_campaign(
    const CampaignRequest& request);

}  // namespace wild5g::engine
