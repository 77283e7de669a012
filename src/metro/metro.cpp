#include "metro/metro.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "core/error.h"
#include "core/parallel.h"

namespace wild5g::metro {

namespace {

/// Fixed shard width: the unit of parallelism is a block of UE indices, so
/// the shard decomposition — and therefore every merge order — is a pure
/// function of the UE count, never of the thread count.
constexpr int kUesPerShard = 512;

constexpr double kCellSpacingM = 800.0;
constexpr double kStepS = 0.5;
/// Service every cell offers, and the service UEs fall back to while an
/// nr_to_lte_outage fault window is open.
constexpr radio::NetworkConfig kNetwork{radio::Carrier::kVerizon,
                                        radio::Band::kNrMidBand,
                                        radio::DeploymentMode::kNsa};
constexpr radio::NetworkConfig kLteFallback{radio::Carrier::kVerizon,
                                            radio::Band::kLte,
                                            radio::DeploymentMode::kNsa};
constexpr radio::Direction kDirection = radio::Direction::kDownlink;

bool kind_supported(faults::FaultKind kind) {
  return kind == faults::FaultKind::kMmwaveBlockage ||
         kind == faults::FaultKind::kNrToLteOutage ||
         kind == faults::FaultKind::kRadioOutage;
}

struct StepView {
  int step = 0;
  double t_s = 0.0;
  int serving = 0;
  double serving_rsrp_dbm = 0.0;
  bool active = false;
  bool handed_off = false;
};

struct UeTotals {
  int handoffs = 0;
  int pingpongs = 0;
};

/// Replays UE `ue_index` from scratch: trajectory, A3 handoffs, activity.
/// Every draw comes from base.fork(ue_index) substreams, so phase 1 and
/// phase 2 observe byte-identical timelines by construction.
template <typename Visitor>
UeTotals simulate_ue(const MetroConfig& config,
                     const std::vector<radio::CellSite>& sites,
                     const Rng& base, int ue_index, int steps,
                     Visitor&& visit) {
  const Rng ue_rng = base.fork(static_cast<std::uint64_t>(ue_index));
  Rng placement_rng = ue_rng.fork(0);
  const int home = ue_index % config.cells;
  double position =
      sites[static_cast<std::size_t>(home)].position_m +
      placement_rng.uniform(-0.45 * kCellSpacingM, 0.45 * kCellSpacingM);
  radio::A3HandoffEngine engine(sites, config.handoff, ue_rng.fork(1), home);
  Rng activity_rng = ue_rng.fork(2);
  for (int s = 0; s < steps; ++s) {
    position += config.ue_speed_mps * kStepS;
    const auto step = engine.step(kStepS, position);
    // One activity draw per step unconditionally, so the stream position
    // never depends on the outcome.
    const bool active = activity_rng.bernoulli(config.activity);
    visit(StepView{
        .step = s,
        .t_s = static_cast<double>(s + 1) * kStepS,
        .serving = step.serving_cell,
        .serving_rsrp_dbm = step.serving_rsrp_dbm,
        .active = active,
        .handed_off = step.handed_off,
    });
  }
  return UeTotals{engine.handoff_count(), engine.pingpong_count()};
}

/// Integer occupancy view one shard contributes; element-wise addition is
/// exact, so merging shards in index order is schedule-independent.
struct ShardCounts {
  std::vector<std::int32_t> attached;       // [cell * steps + step]
  std::vector<std::int32_t> active;         // [cell * steps + step]
  std::vector<std::int32_t> step_handoffs;  // [step]
  long long handoffs = 0;
  long long pingpongs = 0;
};

/// Sample accumulators one shard contributes in phase 2; merged in shard
/// index order, which the sketch contract makes equivalent to one stream.
struct ShardMetrics {
  stats::SampleAccumulator per_ue_mean;
  stats::SampleAccumulator per_ue_rebuffer;
  stats::SampleAccumulator step_tput;
};

void validate(const MetroConfig& config) {
  require(config.cells >= 1, "metro: cells must be >= 1");
  require(config.ues_per_cell >= 1, "metro: ues_per_cell must be >= 1");
  require(config.duration_s >= kStepS,
          "metro: duration_s must cover at least one step");
  require(config.background_load >= 0.0 && config.background_load < 1.0,
          "metro: background_load out of [0, 1)");
  require(config.activity >= 0.0 && config.activity <= 1.0,
          "metro: activity out of [0, 1]");
  require(config.ue_speed_mps >= 0.0, "metro: ue_speed_mps must be >= 0");
  require(config.demand_mbps > 0.0, "metro: demand_mbps must be > 0");
  if (config.faults != nullptr) {
    const auto bad = unsupported_fault_kinds(config.faults->plan());
    require(bad.empty(),
            std::string("metro: fault plan contains kinds the campaign does "
                        "not model (first: ") +
                (bad.empty() ? "" : faults::to_string(bad.front())) +
                "); supported kinds are mmwave_blockage, nr_to_lte_outage, "
                "radio_outage");
  }
}

}  // namespace

std::vector<faults::FaultKind> unsupported_fault_kinds(
    const faults::FaultPlan& plan) {
  std::vector<faults::FaultKind> out;
  for (const auto& window : plan.windows) {
    if (kind_supported(window.kind)) continue;
    if (std::find(out.begin(), out.end(), window.kind) == out.end()) {
      out.push_back(window.kind);
    }
  }
  return out;
}

MetroResult run_campaign(const MetroConfig& config, Rng rng) {
  validate(config);

  const int steps = static_cast<int>(config.duration_s / kStepS);
  const int total_ues = config.cells * config.ues_per_cell;
  const std::size_t matrix_size =
      static_cast<std::size_t>(config.cells) * static_cast<std::size_t>(steps);

  std::vector<radio::CellSite> sites;
  sites.reserve(static_cast<std::size_t>(config.cells));
  for (int c = 0; c < config.cells; ++c) {
    sites.push_back({.id = c,
                     .position_m = static_cast<double>(c) * kCellSpacingM,
                     .band = kNetwork.band});
  }

  const Rng base = rng.split();
  const int shard_count = (total_ues + kUesPerShard - 1) / kUesPerShard;

  // --- Phase 1: occupancy. Each shard sees only its own UEs. -------------
  auto shard_counts = parallel::parallel_map(
      static_cast<std::size_t>(shard_count), [&](std::size_t shard) {
        ShardCounts counts;
        counts.attached.assign(matrix_size, 0);
        counts.active.assign(matrix_size, 0);
        counts.step_handoffs.assign(static_cast<std::size_t>(steps), 0);
        const int begin = static_cast<int>(shard) * kUesPerShard;
        const int end = std::min(total_ues, begin + kUesPerShard);
        for (int i = begin; i < end; ++i) {
          const UeTotals totals = simulate_ue(
              config, sites, base, i, steps, [&](const StepView& v) {
                const std::size_t cell_step =
                    static_cast<std::size_t>(v.serving) *
                        static_cast<std::size_t>(steps) +
                    static_cast<std::size_t>(v.step);
                ++counts.attached[cell_step];
                if (v.active) ++counts.active[cell_step];
                if (v.handed_off) {
                  ++counts.step_handoffs[static_cast<std::size_t>(v.step)];
                }
              });
          counts.handoffs += totals.handoffs;
          counts.pingpongs += totals.pingpongs;
        }
        return counts;
      });

  MetroResult result;
  result.ues = total_ues;
  result.cells = config.cells;
  result.steps = steps;

  std::vector<std::int32_t> attached(matrix_size, 0);
  std::vector<std::int32_t> active(matrix_size, 0);
  std::vector<std::int32_t> step_handoffs(static_cast<std::size_t>(steps), 0);
  for (const auto& counts : shard_counts) {  // index order: exact merge
    for (std::size_t k = 0; k < matrix_size; ++k) {
      attached[k] += counts.attached[k];
      active[k] += counts.active[k];
    }
    for (std::size_t s = 0; s < step_handoffs.size(); ++s) {
      step_handoffs[s] += counts.step_handoffs[s];
    }
    result.handoffs += counts.handoffs;
    result.pingpongs += counts.pingpongs;
  }
  shard_counts.clear();
  for (const std::int32_t n : step_handoffs) {
    result.peak_step_handoffs = std::max(result.peak_step_handoffs, n);
  }

  // --- Occupancy totals, read off the merged matrices. --------------------
  const radio::CellScheduler scheduler({
      .background_load = config.background_load,
  });
  double utilization_sum = 0.0;  // steps outer, cells inner: a fixed order
  for (int s = 0; s < steps; ++s) {
    for (int c = 0; c < config.cells; ++c) {
      const std::size_t cell_step =
          static_cast<std::size_t>(c) * static_cast<std::size_t>(steps) +
          static_cast<std::size_t>(s);
      const std::int32_t before = s > 0 ? attached[cell_step - 1] : 0;
      result.attach_ops += std::abs(attached[cell_step] - before);
      result.peak_cell_active =
          std::max(result.peak_cell_active, active[cell_step]);
      utilization_sum += scheduler.utilization(active[cell_step]);
    }
  }
  result.mean_utilization =
      utilization_sum / static_cast<double>(matrix_size);

  // --- Phase 2: price each UE's share against the global occupancy. ------
  const radio::UeProfile ue = radio::pixel5();
  auto shard_metrics = parallel::parallel_map(
      static_cast<std::size_t>(shard_count), [&](std::size_t shard) {
        ShardMetrics metrics;
        const int begin = static_cast<int>(shard) * kUesPerShard;
        const int end = std::min(total_ues, begin + kUesPerShard);
        for (int i = begin; i < end; ++i) {
          double goodput_sum = 0.0;
          double satisfied_sum = 0.0;
          int active_steps = 0;
          simulate_ue(config, sites, base, i, steps, [&](const StepView& v) {
            if (!v.active) return;
            const std::size_t cell_step =
                static_cast<std::size_t>(v.serving) *
                    static_cast<std::size_t>(steps) +
                static_cast<std::size_t>(v.step);
            // This UE is active, so the global count includes it: >= 1.
            const int sharers = active[cell_step];
            double goodput = 0.0;
            if (config.faults == nullptr ||
                !config.faults->radio_outage_at(v.t_s)) {
              const double rsrp =
                  v.serving_rsrp_dbm -
                  (config.faults == nullptr
                       ? 0.0
                       : config.faults->rsrp_penalty_db_at(v.t_s));
              const bool fallback =
                  config.faults != nullptr &&
                  config.faults->nr_fallback_at(v.t_s);
              goodput = scheduler.ue_throughput_mbps(
                  fallback ? kLteFallback : kNetwork, ue, kDirection, rsrp,
                  sharers);
            }
            goodput_sum += goodput;
            satisfied_sum += std::min(1.0, goodput / config.demand_mbps);
            ++active_steps;
            metrics.step_tput.add(goodput);
          });
          if (active_steps > 0) {
            const double n = static_cast<double>(active_steps);
            metrics.per_ue_mean.add(goodput_sum / n);
            metrics.per_ue_rebuffer.add(1.0 - satisfied_sum / n);
          }
        }
        return metrics;
      });

  for (const auto& metrics : shard_metrics) {  // index order: sketch merge
    result.per_ue_mean_mbps.merge(metrics.per_ue_mean);
    result.per_ue_rebuffer_fraction.merge(metrics.per_ue_rebuffer);
    result.step_throughput_mbps.merge(metrics.step_tput);
  }
  return result;
}

}  // namespace wild5g::metro
