// wild5g/engine: the stepped execution loop with supervision yield points.
//
// run_steps drives a Campaign from start_step to completion, pausing at a
// *yield point* before every step to consult the supervising layer. The
// runner itself is clock-free — deadlines, signals, and watchdogs live
// outside src/engine and reach in through the injected predicates — so the
// loop's behavior is a pure function of (campaign, control), and a run
// bounded by deadline_steps is exactly reproducible: the same request stops
// after the same step with the same partial document, at any thread count.
#pragma once

#include <cstddef>
#include <functional>

#include "core/json.h"
#include "engine/campaign.h"

namespace wild5g::engine {

/// How a supervised run ended. Every campaign ends in exactly one of these
/// — the service's uptime invariant (DESIGN.md section 12).
enum class RunStatus {
  /// All steps executed.
  kCompleted,
  /// The deadline (deterministic step cap or injected wall-clock predicate)
  /// expired; the document holds the steps that finished in time.
  kDeadline,
  /// The process is being torn down (SIGINT/SIGTERM); partial document.
  kInterrupted,
  /// Cancelled by request or by the watchdog; partial document.
  kCancelled,
};

/// Wire/status-line name: "completed", "deadline_partial", "interrupted",
/// "cancelled".
[[nodiscard]] const char* to_string(RunStatus status);

/// Supervision hooks consulted at every yield point. All members are
/// optional; a default RunControl runs the campaign to completion.
struct RunControl {
  /// Step to start from: 0 for a fresh run, a checkpoint's next step for a
  /// resume.
  std::size_t start_step = 0;

  /// Deterministic deadline: steps with index >= deadline_steps are not
  /// executed (0 = unlimited). This is how tests pin "the deadline hit
  /// after exactly N steps" without racing a clock.
  std::size_t deadline_steps = 0;

  /// Checked at each yield point, in this order (first hit wins):
  /// interrupted -> kInterrupted, cancelled -> kCancelled, over_deadline /
  /// deadline_steps -> kDeadline. Null predicates never fire.
  std::function<bool()> interrupted;
  std::function<bool()> cancelled;
  std::function<bool()> over_deadline;

  /// Called after each executed step with the step's frame payload (the
  /// service streams it; batch runs ignore it).
  std::function<void(std::size_t step, const json::Value& frame)> on_frame;
  /// Called after each executed step with the index of the *next* step —
  /// the heartbeat / checkpoint hook. A checkpoint written here with
  /// next_step resumes byte-identically.
  std::function<void(std::size_t next_step)> on_yield;
};

struct RunOutcome {
  RunStatus status = RunStatus::kCompleted;
  /// Steps executed by this call (not counting steps before start_step).
  std::size_t steps_executed = 0;
  /// Index of the first step that did NOT run (== total_steps() when
  /// completed); the resume point a checkpoint should record.
  std::size_t next_step = 0;
};

/// Runs `campaign` from control.start_step under the given supervision.
/// Throws whatever the campaign throws (a throwing step is a bug, not an
/// outcome — the supervising layer decides how to surface it).
[[nodiscard]] RunOutcome run_steps(Campaign& campaign, CampaignContext& ctx,
                                   const RunControl& control);

}  // namespace wild5g::engine
