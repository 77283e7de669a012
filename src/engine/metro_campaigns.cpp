#include "engine/metro_campaigns.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/table.h"
#include "faults/injector.h"
#include "metro/metro.h"

namespace wild5g::engine {

namespace {

/// Rejects plans with kinds the metro substrate does not model, so a bad
/// plan fails a service submit (and exits a bench shell with a usage error)
/// instead of wedging a campaign.
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

const json::Value& state_field(const json::Value& state, const char* key) {
  const json::Value* value = state.find(key);
  require(value != nullptr,
          std::string("drive_soak: state missing '") + key + "'");
  return *value;
}

std::uint64_t state_count(const json::Value& state, const char* key) {
  const json::Value& value = state_field(state, key);
  require(value.is_number() && value.as_number() >= 0.0 &&
              value.as_number() == std::floor(value.as_number()),
          std::string("drive_soak: state field '") + key +
              "' is not a non-negative integer");
  return static_cast<std::uint64_t>(value.as_number());
}

// --- metro_load -------------------------------------------------------------

class MetroLoadCampaign final : public Campaign {
 public:
  explicit MetroLoadCampaign(const CampaignRequest& request)
      : seed_(request.seed),
        cells_(param_positive_int(request.params, "cells", 12)),
        ues_per_cell_(param_positive_int(request.params, "ues", 100)) {
    reject_unknown_params(request.params, {"cells", "ues"});
    if (request.fault_plan.has_value()) {
      require_radio_plan(*request.fault_plan, "metro_load");
      injector_ = std::make_unique<faults::Injector>(*request.fault_plan,
                                                     request.seed);
    }
  }

  [[nodiscard]] std::size_t total_steps() const override {
    return kLoadGrid.size() + kSharerGrid.size();
  }

  [[nodiscard]] json::Value execute_step(std::size_t index,
                                 CampaignContext& ctx) override {
    json::Value frame = json::Value::object();
    if (index < kLoadGrid.size()) {
      const double load = kLoadGrid[index];
      metro::MetroConfig config = base_config();
      config.background_load = load;
      const auto result = metro::run_campaign(config, Rng(seed_));
      Table& table = ctx.doc.open_table(
          load_title(), {"bg load", "mean/UE Mbps", "p50 Mbps", "p95 Mbps",
                         "mean util", "handoffs"});
      table.add_row(
          {Table::num(load, 1), Table::num(result.per_ue_mean_mbps.mean(), 3),
           Table::num(result.per_ue_mean_mbps.median(), 3),
           Table::num(result.per_ue_mean_mbps.p95(), 3),
           Table::num(result.mean_utilization, 3),
           Table::num(static_cast<double>(result.handoffs), 0)});
      if (index == 0) {  // the unloaded anchor point
        ctx.doc.metric("unloaded_mean_ue_mbps",
                       result.per_ue_mean_mbps.mean());
        ctx.doc.metric("peak_cell_active",
                       static_cast<double>(result.peak_cell_active));
        ctx.doc.metric("attach_ops", static_cast<double>(result.attach_ops));
      }
      if (index + 1 == kLoadGrid.size()) ctx.print(table);
      frame.set("grid", "background_load");
      frame.set("bg_load", load);
      frame.set("mean_ue_mbps", result.per_ue_mean_mbps.mean());
      frame.set("handoffs", static_cast<double>(result.handoffs));
    } else {
      const int sharers = kSharerGrid[index - kLoadGrid.size()];
      metro::MetroConfig config = base_config();
      config.ues_per_cell = sharers;
      config.background_load = 0.0;
      const auto result = metro::run_campaign(config, Rng(seed_));
      Table& table = ctx.doc.open_table(
          "Same corridor, background load 0: per-user throughput vs sharers",
          {"UEs/cell", "mean/UE Mbps", "p50 Mbps", "p95 Mbps",
           "step p5 Mbps"});
      table.add_row(
          {Table::num(static_cast<double>(sharers), 0),
           Table::num(result.per_ue_mean_mbps.mean(), 3),
           Table::num(result.per_ue_mean_mbps.median(), 3),
           Table::num(result.per_ue_mean_mbps.p95(), 3),
           Table::num(result.step_throughput_mbps.percentile(5.0), 3)});
      if (index + 1 == total_steps()) ctx.print(table);
      frame.set("grid", "sharers");
      frame.set("ues_per_cell", sharers);
      frame.set("mean_ue_mbps", result.per_ue_mean_mbps.mean());
    }
    return frame;
  }

 private:
  static constexpr std::array<double, 5> kLoadGrid = {0.0, 0.2, 0.4, 0.6,
                                                      0.8};
  static constexpr std::array<int, 4> kSharerGrid = {1, 10, 50, 100};

  [[nodiscard]] std::string load_title() const {
    return std::to_string(cells_) + " cells x " +
           std::to_string(ues_per_cell_) +
           " UEs/cell, 60 s walk, mid-band NSA: background load sweep";
  }

  [[nodiscard]] metro::MetroConfig base_config() const {
    metro::MetroConfig config;
    config.cells = cells_;
    config.ues_per_cell = ues_per_cell_;
    config.faults = injector_.get();
    return config;
  }

  std::uint64_t seed_;
  int cells_;
  int ues_per_cell_;
  std::unique_ptr<faults::Injector> injector_;
};

// --- metro_qoe --------------------------------------------------------------

class MetroQoeCampaign final : public Campaign {
 public:
  explicit MetroQoeCampaign(const CampaignRequest& request)
      : seed_(request.seed),
        cells_(param_positive_int(request.params, "cells", 12)),
        ues_per_cell_(param_positive_int(request.params, "ues", 100)) {
    reject_unknown_params(request.params, {"cells", "ues"});
    if (request.fault_plan.has_value()) {
      require_radio_plan(*request.fault_plan, "metro_qoe");
      injector_ = std::make_unique<faults::Injector>(*request.fault_plan,
                                                     request.seed);
    }
  }

  [[nodiscard]] std::size_t total_steps() const override {
    return kActivityGrid.size();
  }

  [[nodiscard]] json::Value execute_step(std::size_t index,
                                 CampaignContext& ctx) override {
    const double activity = kActivityGrid[index];
    metro::MetroConfig config = base_config();
    config.activity = activity;
    const auto result = metro::run_campaign(config, Rng(seed_));
    Table& table = ctx.doc.open_table(
        title(), {"activity", "mean/UE Mbps", "rebuffer mean", "rebuffer p95",
                  "handoffs", "ping-pongs", "peak storm"});
    table.add_row(
        {Table::num(activity, 2), Table::num(result.per_ue_mean_mbps.mean(), 3),
         Table::num(result.per_ue_rebuffer_fraction.mean(), 4),
         Table::num(result.per_ue_rebuffer_fraction.p95(), 4),
         Table::num(static_cast<double>(result.handoffs), 0),
         Table::num(static_cast<double>(result.pingpongs), 0),
         Table::num(static_cast<double>(result.peak_step_handoffs), 0)});
    if (index + 1 == kActivityGrid.size()) {  // the busy-hour anchor point
      ctx.doc.metric("busy_hour_rebuffer_mean",
                     result.per_ue_rebuffer_fraction.mean());
      ctx.doc.metric("busy_hour_peak_storm",
                     static_cast<double>(result.peak_step_handoffs));
      ctx.doc.metric("busy_hour_pingpongs",
                     static_cast<double>(result.pingpongs));
      ctx.print(table);
    }
    json::Value frame = json::Value::object();
    frame.set("activity", activity);
    frame.set("rebuffer_mean", result.per_ue_rebuffer_fraction.mean());
    frame.set("peak_storm", static_cast<double>(result.peak_step_handoffs));
    return frame;
  }

 private:
  static constexpr std::array<double, 4> kActivityGrid = {0.25, 0.5, 0.75,
                                                          1.0};

  [[nodiscard]] std::string title() const {
    return std::to_string(cells_) + " cells x " +
           std::to_string(ues_per_cell_) +
           " UEs/cell at 14 m/s, 25 Mbps demand: busy-hour activity sweep";
  }

  [[nodiscard]] metro::MetroConfig base_config() const {
    metro::MetroConfig config;
    config.cells = cells_;
    config.ues_per_cell = ues_per_cell_;
    config.ue_speed_mps = 14.0;  // vehicular corridor
    config.background_load = 0.2;
    config.demand_mbps = 25.0;  // the paper's 4K operating point
    config.handoff.time_to_trigger_ms = 160.0;  // vehicular-speed A3 tuning
    config.faults = injector_.get();
    return config;
  }

  std::uint64_t seed_;
  int cells_;
  int ues_per_cell_;
  std::unique_ptr<faults::Injector> injector_;
};

// --- drive_soak -------------------------------------------------------------

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
    handoffs_ = static_cast<long long>(state_count(state, "handoffs"));
    pingpongs_ = static_cast<long long>(state_count(state, "pingpongs"));
    peak_storm_ = static_cast<int>(state_count(state, "peak_storm"));
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

std::unique_ptr<Campaign> make_metro_load_campaign(
    const CampaignRequest& request) {
  return std::make_unique<MetroLoadCampaign>(request);
}

std::unique_ptr<Campaign> make_metro_qoe_campaign(
    const CampaignRequest& request) {
  return std::make_unique<MetroQoeCampaign>(request);
}

std::unique_ptr<Campaign> make_drive_soak_campaign(
    const CampaignRequest& request) {
  return std::make_unique<DriveSoakCampaign>(request);
}

}  // namespace wild5g::engine
