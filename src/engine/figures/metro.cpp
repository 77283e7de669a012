// Metro-scale extensions: shared-cell contention on a corridor of "cells"
// cells x "ues" UEs per cell. Sec. 3 measures 1-2 UEs on unloaded cells;
// these ask what load and a co-moving busy-hour population do to each user.
// Every grid point is one step that reruns the metro campaign from the
// request's seed, so no step depends on another.
#include <iterator>
#include <ostream>
#include <string>

#include "core/rng.h"
#include "engine/figures/figure.h"
#include "metro/metro.h"

namespace wild5g::engine::figures {

namespace {

/// The request's corridor, with the request's radio faults.
metro::MetroConfig corridor(const FigureRun& run) {
  metro::MetroConfig config;
  config.cells = run.param("cells");
  config.ues_per_cell = run.param("ues");
  config.faults = run.faults;
  return config;
}

}  // namespace

// Per-user throughput under shared-cell contention: a background-load
// sweep (5 steps), then a sharers-per-cell sweep (4 steps).
void extension_metro_load(FigureRun& run) {
  static constexpr double kLoadGrid[] = {0.0, 0.2, 0.4, 0.6, 0.8};
  static constexpr int kSharerGrid[] = {1, 10, 50, 100};
  static constexpr std::size_t kLoadSteps = std::size(kLoadGrid);
  if (run.first()) {
    run.banner("Extension",
               "Metro-scale shared-cell contention: per-user throughput vs "
               "cell load");
    run.paper(
        "Sec. 3 measures 1-2 UEs on effectively unloaded mid-band cells"
        " (~640 Mbps DL); commercial deployments schedule that capacity"
        " across every attached user, so per-user throughput is governed"
        " by cell load, not peak capacity.");
  }
  if (run.step < kLoadSteps) {
    const double load = kLoadGrid[run.step];
    metro::MetroConfig config = corridor(run);
    config.background_load = load;
    const auto result = metro::run_campaign(config, Rng(run.seed));
    Table& table = run.doc.open_table(
        std::to_string(config.cells) + " cells x " +
            std::to_string(config.ues_per_cell) +
            " UEs/cell, 60 s walk, mid-band NSA: background load sweep",
        {"bg load", "mean/UE Mbps", "p50 Mbps", "p95 Mbps", "mean util",
         "handoffs"});
    table.add_row(
        {Table::num(load, 1), Table::num(result.per_ue_mean_mbps.mean(), 3),
         Table::num(result.per_ue_mean_mbps.median(), 3),
         Table::num(result.per_ue_mean_mbps.p95(), 3),
         Table::num(result.mean_utilization, 3),
         Table::num(static_cast<double>(result.handoffs), 0)});
    if (run.first()) {  // the unloaded anchor point
      run.doc.metric("unloaded_mean_ue_mbps", result.per_ue_mean_mbps.mean());
      run.doc.metric("peak_cell_active",
                     static_cast<double>(result.peak_cell_active));
      run.doc.metric("attach_ops", static_cast<double>(result.attach_ops));
    }
    if (run.step + 1 == kLoadSteps) table.print(run.out);
    run.frame.set("grid", "background_load");
    run.frame.set("bg_load", load);
    run.frame.set("mean_ue_mbps", result.per_ue_mean_mbps.mean());
    run.frame.set("handoffs", static_cast<double>(result.handoffs));
    return;
  }
  const int sharers = kSharerGrid[run.step - kLoadSteps];
  metro::MetroConfig config = corridor(run);
  config.ues_per_cell = sharers;
  config.background_load = 0.0;
  const auto result = metro::run_campaign(config, Rng(run.seed));
  Table& table = run.doc.open_table(
      "Same corridor, background load 0: per-user throughput vs sharers",
      {"UEs/cell", "mean/UE Mbps", "p50 Mbps", "p95 Mbps", "step p5 Mbps"});
  table.add_row({Table::num(static_cast<double>(sharers), 0),
                 Table::num(result.per_ue_mean_mbps.mean(), 3),
                 Table::num(result.per_ue_mean_mbps.median(), 3),
                 Table::num(result.per_ue_mean_mbps.p95(), 3),
                 Table::num(result.step_throughput_mbps.percentile(5.0), 3)});
  if (run.last()) {
    table.print(run.out);
    run.repro(
        "per-user throughput falls monotonically with both dials: the"
        " background-load sweep shrinks every user's airtime share, and"
        " the sharer sweep splits the same cell capacity ever thinner —"
        " the unloaded single-UE numbers the paper reports are the best"
        " case, not the expectation.");
  }
  run.frame.set("grid", "sharers");
  run.frame.set("ues_per_cell", sharers);
  run.frame.set("mean_ue_mbps", result.per_ue_mean_mbps.mean());
}

// Busy-hour QoE and handoff storms for a co-moving population: one step
// per activity grid point (4 steps).
void extension_metro_qoe(FigureRun& run) {
  static constexpr double kActivityGrid[] = {0.25, 0.5, 0.75, 1.0};
  if (run.first()) {
    run.banner("Extension",
               "Metro-scale busy hour: co-moving QoE degradation and"
               " handoff storms");
    run.paper(
        "Sec. 5 streams 4K video (~25 Mbps demand) to one driving UE; at"
        " busy hour every vehicle on the corridor streams at once, and"
        " co-moving UEs cross cell edges together — handoffs arrive in"
        " storms, not one at a time.");
  }
  const double activity = kActivityGrid[run.step];
  metro::MetroConfig config = corridor(run);
  config.ue_speed_mps = 14.0;  // vehicular corridor
  config.background_load = 0.2;
  config.demand_mbps = 25.0;  // the paper's 4K operating point
  config.handoff.time_to_trigger_ms = 160.0;  // vehicular-speed A3 tuning
  config.activity = activity;
  const auto result = metro::run_campaign(config, Rng(run.seed));
  Table& table = run.doc.open_table(
      std::to_string(config.cells) + " cells x " +
          std::to_string(config.ues_per_cell) +
          " UEs/cell at 14 m/s, 25 Mbps demand: busy-hour activity sweep",
      {"activity", "mean/UE Mbps", "rebuffer mean", "rebuffer p95",
       "handoffs", "ping-pongs", "peak storm"});
  table.add_row(
      {Table::num(activity, 2), Table::num(result.per_ue_mean_mbps.mean(), 3),
       Table::num(result.per_ue_rebuffer_fraction.mean(), 4),
       Table::num(result.per_ue_rebuffer_fraction.p95(), 4),
       Table::num(static_cast<double>(result.handoffs), 0),
       Table::num(static_cast<double>(result.pingpongs), 0),
       Table::num(static_cast<double>(result.peak_step_handoffs), 0)});
  if (run.last()) {  // the busy-hour anchor point
    run.doc.metric("busy_hour_rebuffer_mean",
                   result.per_ue_rebuffer_fraction.mean());
    run.doc.metric("busy_hour_peak_storm",
                   static_cast<double>(result.peak_step_handoffs));
    run.doc.metric("busy_hour_pingpongs",
                   static_cast<double>(result.pingpongs));
    table.print(run.out);
    run.repro(
        "rebuffering grows with the activity dial even though demand per"
        " UE is constant — more simultaneously active sharers shrink each"
        " share below the 25 Mbps demand line — and the co-moving"
        " population turns cell edges into handoff storms dozens deep in"
        " a single step.");
  }
  run.frame.set("activity", activity);
  run.frame.set("rebuffer_mean", result.per_ue_rebuffer_fraction.mean());
  run.frame.set("peak_storm", static_cast<double>(result.peak_step_handoffs));
}

}  // namespace wild5g::engine::figures
