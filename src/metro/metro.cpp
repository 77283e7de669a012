#include "metro/metro.h"

#include <algorithm>
#include <climits>
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

/// Everything one shard of phase 1 records. The timeline is what phase 2
/// prices, 12 B per UE-step. The integer occupancy counts add exactly, so
/// merging shards in index order is schedule-independent.
struct Shard {
  // Timeline entries are [(ue - the shard's first ue) * steps + step].
  std::vector<double> rsrp_dbm;             // serving RSRP
  std::vector<std::int32_t> active_cell;    // serving cell; -1 when idle
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
  require_population(config.cells, config.ues_per_cell);
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

void require_population(int cells, int ues_per_cell) {
  const long long ues = static_cast<long long>(cells) * ues_per_cell;
  require(ues <= INT_MAX, "metro: cells x ues_per_cell = " +
                              std::to_string(ues) +
                              " UEs, more than INT_MAX");
}

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
  const auto steps_z = static_cast<std::size_t>(steps);
  const std::size_t matrix_size =
      static_cast<std::size_t>(config.cells) * steps_z;

  std::vector<radio::CellSite> sites;
  sites.reserve(static_cast<std::size_t>(config.cells));
  for (int c = 0; c < config.cells; ++c) {
    sites.push_back({.id = c,
                     .position_m = static_cast<double>(c) * kCellSpacingM,
                     .band = kNetwork.band});
  }

  const Rng base = rng.split();
  const int shard_count = (total_ues + kUesPerShard - 1) / kUesPerShard;

  // --- Phase 1: each UE's trajectory, A3 handoffs and activity, simulated
  // once from base.fork(ue). Each shard sees only its own UEs. -------------
  auto shards = parallel::parallel_map(
      static_cast<std::size_t>(shard_count), [&](std::size_t index) {
        Shard shard;
        shard.attached.assign(matrix_size, 0);
        shard.active.assign(matrix_size, 0);
        shard.step_handoffs.assign(steps_z, 0);
        const int begin = static_cast<int>(index) * kUesPerShard;
        const int end = std::min(total_ues, begin + kUesPerShard);
        const std::size_t entries =
            static_cast<std::size_t>(end - begin) * steps_z;
        shard.rsrp_dbm.reserve(entries);
        shard.active_cell.reserve(entries);
        for (int i = begin; i < end; ++i) {
          const Rng ue_rng = base.fork(static_cast<std::uint64_t>(i));
          Rng placement_rng = ue_rng.fork(0);
          const int home = i % config.cells;
          double position = sites[static_cast<std::size_t>(home)].position_m +
                            placement_rng.uniform(-0.45 * kCellSpacingM,
                                                  0.45 * kCellSpacingM);
          radio::A3HandoffEngine engine(sites, config.handoff, ue_rng.fork(1),
                                        home);
          Rng activity_rng = ue_rng.fork(2);
          for (std::size_t s = 0; s < steps_z; ++s) {
            position += config.ue_speed_mps * kStepS;
            const auto step = engine.step(kStepS, position);
            // One activity draw per step unconditionally, so the stream
            // position never depends on the outcome.
            const bool active = activity_rng.bernoulli(config.activity);
            shard.rsrp_dbm.push_back(step.serving_rsrp_dbm);
            shard.active_cell.push_back(active ? step.serving_cell : -1);
            const std::size_t cell_step =
                static_cast<std::size_t>(step.serving_cell) * steps_z + s;
            ++shard.attached[cell_step];
            if (active) ++shard.active[cell_step];
            if (step.handed_off) ++shard.step_handoffs[s];
          }
          shard.handoffs += engine.handoff_count();
          shard.pingpongs += engine.pingpong_count();
        }
        return shard;
      });

  MetroResult result;
  result.ues = total_ues;
  result.cells = config.cells;
  result.steps = steps;

  std::vector<std::int32_t> attached(matrix_size, 0);
  std::vector<std::int32_t> active(matrix_size, 0);
  std::vector<std::int32_t> step_handoffs(steps_z, 0);
  for (const auto& shard : shards) {  // index order: exact merge
    for (std::size_t k = 0; k < matrix_size; ++k) {
      attached[k] += shard.attached[k];
      active[k] += shard.active[k];
    }
    for (std::size_t s = 0; s < steps_z; ++s) {
      step_handoffs[s] += shard.step_handoffs[s];
    }
    result.handoffs += shard.handoffs;
    result.pingpongs += shard.pingpongs;
  }
  for (const std::int32_t n : step_handoffs) {
    result.peak_step_handoffs = std::max(result.peak_step_handoffs, n);
  }

  // --- Occupancy totals, read off the merged matrices. --------------------
  const radio::CellScheduler scheduler({
      .background_load = config.background_load,
  });
  double utilization_sum = 0.0;  // steps outer, cells inner: a fixed order
  for (std::size_t s = 0; s < steps_z; ++s) {
    for (std::size_t c = 0; c < static_cast<std::size_t>(config.cells); ++c) {
      const std::size_t cell_step = c * steps_z + s;
      const std::int32_t before = s > 0 ? attached[cell_step - 1] : 0;
      result.attach_ops += std::abs(attached[cell_step] - before);
      result.peak_cell_active =
          std::max(result.peak_cell_active, active[cell_step]);
      utilization_sum += scheduler.utilization(active[cell_step]);
    }
  }
  result.mean_utilization =
      utilization_sum / static_cast<double>(matrix_size);

  // --- Phase 2: price each recorded step against the global occupancy. ---
  const radio::UeProfile ue = radio::pixel5();
  auto shard_metrics = parallel::parallel_map(
      static_cast<std::size_t>(shard_count), [&](std::size_t index) {
        const Shard& shard = shards[index];
        ShardMetrics metrics;
        for (std::size_t first = 0; first < shard.rsrp_dbm.size();
             first += steps_z) {
          double goodput_sum = 0.0;
          double satisfied_sum = 0.0;
          int active_steps = 0;
          for (std::size_t s = 0; s < steps_z; ++s) {
            const std::int32_t cell = shard.active_cell[first + s];
            if (cell < 0) continue;
            // This UE is active, so the global count includes it: >= 1.
            const int sharers =
                active[static_cast<std::size_t>(cell) * steps_z + s];
            const double t_s = static_cast<double>(s + 1) * kStepS;
            double goodput = 0.0;
            if (config.faults == nullptr ||
                !config.faults->radio_outage_at(t_s)) {
              const double rsrp =
                  shard.rsrp_dbm[first + s] -
                  (config.faults == nullptr
                       ? 0.0
                       : config.faults->rsrp_penalty_db_at(t_s));
              const bool fallback = config.faults != nullptr &&
                                    config.faults->nr_fallback_at(t_s);
              goodput = scheduler.ue_throughput_mbps(
                  fallback ? kLteFallback : kNetwork, ue, kDirection, rsrp,
                  sharers);
            }
            goodput_sum += goodput;
            satisfied_sum += std::min(1.0, goodput / config.demand_mbps);
            ++active_steps;
            metrics.step_tput.add(goodput);
          }
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
