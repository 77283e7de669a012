// wild5g/engine: drive_soak, the one built-in campaign written by hand.
//
// Every figure, table and extension — the metro extensions included — is a
// FigureRun body (engine/figures/figure.h), because its rows live in the
// MetricsDocument and nothing else crosses a step. drive_soak is the
// long-running service workload, and it alone has cross-step state: a
// sequence of metro intervals threaded through one sequential Rng (split()
// per interval), with rollup SampleAccumulators that spill into sketch
// mode. Its checkpoint holds exactly that state — the Rng, the two
// accumulators and the counters — and its rows, like every campaign's, live
// in the document.
#pragma once

#include <memory>
#include <string>

#include "engine/campaign.h"
#include "faults/fault_plan.h"

namespace wild5g::engine {

/// Long-haul supervised workload: "intervals" (default 12) metro intervals
/// of "interval_s" (default 30) seconds each, over a corridor of "cells"
/// (default 4) x "ues" (default 25). The fault plan lives on the *global*
/// campaign timeline and is sliced per interval; per-UE and per-step
/// samples roll up across intervals through SampleAccumulators.
[[nodiscard]] std::unique_ptr<Campaign> make_drive_soak_campaign(
    const CampaignRequest& request);

/// Rejects a plan with kinds the metro substrate does not model, so it
/// fails a service submit (and `wild5g_run` with a usage error) instead of
/// wedging a campaign. drive_soak and the metro extensions run this check.
void require_radio_plan(const faults::FaultPlan& plan,
                        const std::string& campaign);

}  // namespace wild5g::engine
