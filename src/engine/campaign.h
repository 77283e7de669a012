// wild5g/engine: the stepped-campaign abstraction behind every long-running
// measurement.
//
// ROADMAP item 5 asks for a service mode: campaigns that run for hours under
// supervision — deadlines, checkpoints, cancellation — instead of one
// monolithic main(). The enabling refactor is to slice a campaign into an
// ordered sequence of *steps* with explicit yield points between them:
//
//   - each step is a pure function of (request, step index, campaign state
//     entering the step), so the engine can pause after any step;
//   - between steps the supervising layer (bench_common.h, wild5g_serve)
//     may stream a frame, write a checkpoint, or stop the run;
//   - tables and metrics go straight into the MetricsDocument, which
//     checkpoints itself; a campaign's checkpoint_state() serializes only
//     its cross-step state (an Rng stream, accumulators), so restore_state()
//     + "run the remaining steps" is byte-identical to never having stopped.
//
// Everything in src/engine is deterministic compute: no clocks, no signals,
// no filesystem (tools/wild5g_lint rule engine-blocking-call enforces that;
// snapshot.cpp is the one sanctioned writer). Wall-clock supervision lives
// outside and reaches in through runner.h's injected predicates.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"
#include "engine/metrics.h"
#include "faults/fault_plan.h"

namespace wild5g::engine {

/// The default campaign seed; equals bench::kBenchSeed (SIGCOMM'21 opening
/// day) so engine-backed bench runs reproduce the committed goldens.
inline constexpr std::uint64_t kDefaultSeed = 20210823;

/// Everything needed to (re)construct a campaign deterministically. The
/// request is what a snapshot embeds, what the service protocol submits,
/// and what the bench shells assemble from argv.
struct CampaignRequest {
  /// Registry name ("metro_load", "metro_qoe", "drive_soak", ...).
  std::string campaign;
  std::uint64_t seed = kDefaultSeed;
  /// Campaign-specific parameters as a JSON object (may be null for "all
  /// defaults"). Factories must reject unknown keys — a typoed parameter
  /// silently falling back to a default would mislabel the measurement.
  json::Value params;
  /// Optional fault plan, embedded by value so a snapshot is
  /// self-contained (resume must not depend on the original plan file
  /// still existing).
  std::optional<faults::FaultPlan> fault_plan;
};

/// Where a campaign's output goes. `doc` owns the run's tables and metrics;
/// `console` (null in service mode) receives the human-readable tables the
/// batch benches have always printed.
struct CampaignContext {
  MetricsDocument& doc;
  std::ostream* console = nullptr;

  /// Prints a finished table when a console is attached.
  void print(const Table& table) const;
};

/// A campaign sliced into total_steps() sequential steps. Implementations
/// must keep execute_step() a deterministic function of (construction request,
/// index, state) — the checkpoint/resume byte-identity tests enforce it at
/// thread counts 1 and 8.
class Campaign {
 public:
  virtual ~Campaign() = default;

  /// Fixed for the lifetime of the campaign (known before the first step).
  [[nodiscard]] virtual std::size_t total_steps() const = 0;

  /// Executes step `index` (indices arrive strictly in order, starting
  /// from 0 or from a restored checkpoint's next step), appending its rows
  /// and metrics to `ctx.doc`. Returns this step's frame payload — a small
  /// JSON object the service streams to the client as progress.
  [[nodiscard]] virtual json::Value execute_step(std::size_t index,
                                         CampaignContext& ctx) = 0;

  /// The campaign's cross-step state after the steps executed so far:
  /// what restore_state() needs, beyond the document, to continue
  /// byte-identically. Override only for real cross-step state; the
  /// default null means "none" (the steps only append to the document).
  [[nodiscard]] virtual json::Value checkpoint_state() const;
  /// Inverse of checkpoint_state(); throws wild5g::Error on malformed
  /// state. Called at most once, before any execute_step() call. The
  /// default accepts only null.
  virtual void restore_state(const json::Value& state);
};

/// Builds a campaign (throws wild5g::Error on bad params / fault plan).
using CampaignFactory =
    std::unique_ptr<Campaign> (*)(const CampaignRequest& request);

// --- registry --------------------------------------------------------------

/// Registers a campaign under `name`; re-registering an existing name
/// replaces the factory (test binaries override builtins). Thread-safe.
void register_campaign(const std::string& name, CampaignFactory factory);

/// Instantiates `request.campaign` from the registry; throws wild5g::Error
/// (listing the registered names) when the name is unknown.
[[nodiscard]] std::unique_ptr<Campaign> make_campaign(
    const CampaignRequest& request);

/// Registered names in registration order (for the service hello frame).
[[nodiscard]] std::vector<std::string> campaign_names();

/// Registers the built-in campaigns (metro_load, metro_qoe, drive_soak).
/// Idempotent; every entry point that touches the registry calls it first.
void register_builtin_campaigns();

// --- request (de)serialization ---------------------------------------------

/// Request document shape (also the snapshot's "request" section):
///   { "campaign": "metro_load", "seed": "20210823",
///     "params": {...}, "fault_plan": {...} }
/// The seed is a decimal *string* so full 64-bit seeds survive the JSON
/// number path (doubles lose integers above 2^53).
[[nodiscard]] json::Value request_to_json(const CampaignRequest& request);
[[nodiscard]] CampaignRequest request_from_json(const json::Value& doc);

// --- param helpers for factories -------------------------------------------

/// Reads `params[key]` as a strictly positive integer, defaulting when the
/// key is absent; throws wild5g::Error on non-integer / non-positive
/// values. `params` may be null (all defaults).
[[nodiscard]] int param_positive_int(const json::Value& params,
                                     const std::string& key,
                                     int default_value);

/// Throws unless every key of `params` appears in `known` — a typoed
/// parameter must fail the submit, not silently run the default campaign.
void reject_unknown_params(const json::Value& params,
                           std::initializer_list<std::string_view> known);

}  // namespace wild5g::engine
