#include "engine/metro_campaigns.h"

#include <algorithm>
#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/integer.h"
#include "core/rng.h"
#include "core/table.h"
#include "faults/injector.h"
#include "metro/metro.h"

namespace wild5g::engine {

void require_radio_plan(const faults::FaultPlan& plan,
                        const std::string& campaign) {
  const auto bad = metro::unsupported_fault_kinds(plan);
  require(bad.empty(),
          campaign + ": fault plan contains '" +
              faults::to_string(bad.empty() ? faults::FaultKind::kRadioOutage
                                            : bad.front()) +
              "' windows, which the metro campaign does not model (radio "
              "kinds only: mmwave_blockage, nr_to_lte_outage, radio_outage)");
}

namespace {

const json::Value& state_field(const json::Value& state, const char* key) {
  const json::Value* value = state.find(key);
  require(value != nullptr,
          std::string("drive_soak: state missing '") + key + "'");
  return *value;
}

std::int64_t state_count(const json::Value& state, const char* key,
                         std::int64_t hi = kJsonIntegerMax) {
  return integer_from_json<std::int64_t>(
      state_field(state, key), std::string("drive_soak: state '") + key + "'",
      0, hi);
}

class DriveSoakCampaign final : public Campaign {
 public:
  explicit DriveSoakCampaign(const CampaignRequest& request)
      : seed_(request.seed),
        intervals_(param_positive_int(request.params, "intervals", 12)),
        interval_s_(param_positive_int(request.params, "interval_s", 30)),
        cells_(param_positive_int(request.params, "cells", 4)),
        ues_per_cell_(param_positive_int(request.params, "ues", 25)),
        rng_(request.seed) {
    reject_unknown_params(request.params,
                          {"intervals", "interval_s", "cells", "ues"});
    metro::require_population(cells_, ues_per_cell_);
    if (request.fault_plan.has_value()) {
      require_radio_plan(*request.fault_plan, "drive_soak");
      plan_ = *request.fault_plan;
    }
  }

  [[nodiscard]] std::size_t total_steps() const override {
    return static_cast<std::size_t>(intervals_);
  }

  [[nodiscard]] json::Value execute_step(std::size_t index,
                                 CampaignContext& ctx) override {
    // One interval = one metro campaign over [index * interval_s,
    // (index+1) * interval_s) of the global timeline. The substream comes
    // from split() — sequentially dependent on every prior interval — so a
    // resumed run genuinely needs the checkpointed engine state.
    Rng interval_rng = rng_.split();
    metro::MetroConfig config;
    config.cells = cells_;
    config.ues_per_cell = ues_per_cell_;
    config.duration_s = static_cast<double>(interval_s_);
    config.background_load = 0.2;
    std::unique_ptr<faults::Injector> injector;
    if (plan_.has_value()) {
      const faults::FaultPlan sliced = slice_plan(index);
      if (!sliced.empty()) {
        injector = std::make_unique<faults::Injector>(sliced, seed_);
        config.faults = injector.get();
      }
    }
    const auto result = metro::run_campaign(config, std::move(interval_rng));
    throughput_.merge(result.step_throughput_mbps);
    ue_mean_.merge(result.per_ue_mean_mbps);
    handoffs_ += result.handoffs;
    pingpongs_ += result.pingpongs;
    peak_storm_ = std::max(peak_storm_, result.peak_step_handoffs);
    Table& table = ctx.doc.open_table(
        std::to_string(intervals_) + " intervals x " +
            std::to_string(interval_s_) + " s, " + std::to_string(cells_) +
            " cells x " + std::to_string(ues_per_cell_) +
            " UEs/cell: long-haul drive soak",
        {"interval", "mean/UE Mbps", "p50 Mbps", "handoffs", "peak storm"});
    table.add_row({Table::num(static_cast<double>(index), 0),
                    Table::num(result.per_ue_mean_mbps.mean(), 3),
                    Table::num(result.per_ue_mean_mbps.median(), 3),
                    Table::num(static_cast<double>(result.handoffs), 0),
                    Table::num(static_cast<double>(result.peak_step_handoffs),
                               0)});
    if (index + 1 == total_steps()) {
      ctx.print(table);
      ctx.doc.metric("rollup_mean_ue_mbps", ue_mean_.mean());
      ctx.doc.metric("rollup_p50_step_mbps", throughput_.median());
      ctx.doc.metric("rollup_p5_step_mbps", throughput_.percentile(5.0));
      ctx.doc.metric("rollup_samples",
                     static_cast<double>(throughput_.count()));
      ctx.doc.metric("total_handoffs", static_cast<double>(handoffs_));
      ctx.doc.metric("total_pingpongs", static_cast<double>(pingpongs_));
      ctx.doc.metric("peak_storm", static_cast<double>(peak_storm_));
    }
    json::Value frame = json::Value::object();
    frame.set("interval", static_cast<double>(index));
    frame.set("mean_ue_mbps", result.per_ue_mean_mbps.mean());
    frame.set("handoffs", static_cast<double>(result.handoffs));
    frame.set("rollup_count", static_cast<double>(throughput_.count()));
    return frame;
  }

  [[nodiscard]] json::Value checkpoint_state() const override {
    json::Value state = json::Value::object();
    state.set("rng", rng_.serialize_state());
    state.set("throughput", throughput_.to_json());
    state.set("ue_mean", ue_mean_.to_json());
    state.set("handoffs", static_cast<double>(handoffs_));
    state.set("pingpongs", static_cast<double>(pingpongs_));
    state.set("peak_storm", peak_storm_);
    return state;
  }

  void restore_state(const json::Value& state) override {
    require(state.is_object(), "drive_soak: state is not an object");
    rng_ = Rng::deserialize_state(state_field(state, "rng").as_string());
    throughput_ =
        stats::SampleAccumulator::from_json(state_field(state, "throughput"));
    ue_mean_ =
        stats::SampleAccumulator::from_json(state_field(state, "ue_mean"));
    handoffs_ = state_count(state, "handoffs");
    pingpongs_ = state_count(state, "pingpongs");
    peak_storm_ = static_cast<int>(state_count(state, "peak_storm", INT_MAX));
  }

 private:
  /// Projects the global-timeline plan onto interval `index`: shift every
  /// window into interval-local time, clip to [0, interval_s), drop what
  /// does not overlap. Shifting all windows by the same offset and clipping
  /// preserves the per-kind non-overlap invariant, so the sliced plan
  /// always validates.
  [[nodiscard]] faults::FaultPlan slice_plan(std::size_t index) const {
    const double offset =
        static_cast<double>(index) * static_cast<double>(interval_s_);
    const double span = static_cast<double>(interval_s_);
    faults::FaultPlan sliced;
    sliced.name = plan_->name;
    sliced.seed_salt = plan_->seed_salt;
    for (const auto& window : plan_->windows) {
      const double local_start = std::max(window.start_s - offset, 0.0);
      const double local_end = std::min(window.end_s() - offset, span);
      if (local_end <= local_start) continue;
      faults::FaultWindow clipped = window;
      clipped.start_s = local_start;
      clipped.duration_s = local_end - local_start;
      sliced.windows.push_back(clipped);
    }
    return sliced;
  }

  std::uint64_t seed_;
  int intervals_;
  int interval_s_;
  int cells_;
  int ues_per_cell_;
  std::optional<faults::FaultPlan> plan_;
  Rng rng_;
  stats::SampleAccumulator throughput_;
  stats::SampleAccumulator ue_mean_;
  long long handoffs_ = 0;
  long long pingpongs_ = 0;
  int peak_storm_ = 0;
};

}  // namespace

std::unique_ptr<Campaign> make_drive_soak_campaign(
    const CampaignRequest& request) {
  return std::make_unique<DriveSoakCampaign>(request);
}

}  // namespace wild5g::engine
