// wild5g/engine/figures: the paper's figures and tables as engine campaigns.
//
// Every figure is a function of one FigureRun: it computes its rows from the
// request's seed, params and fault plan, appends them to the
// MetricsDocument, and prints its human-readable report — banner, paper
// note, tables, measured notes — to the run's console.
// register_builtin_campaigns() registers each figure under its golden's
// document id ("fig24_server_survey", ...), so `wild5g_run <id>`, the
// service and the golden gate all name it the same way. This is the one way
// to write a built-in campaign: only drive_soak, which carries cross-step
// state, is a hand-written Campaign (engine/metro_campaigns.h).
//
// Step rule (DESIGN.md section 12): a figure is one step unless its rows
// depend on nothing but (seed, params, row) and its closing notes on no
// earlier row; such a figure runs one row (or one table) per step. No
// figure carries cross-step state, so none overrides checkpoint_state(), and
// no parallel_map is split across steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "core/json.h"
#include "core/table.h"
#include "engine/campaign.h"
#include "engine/metrics.h"
#include "faults/injector.h"

namespace wild5g::engine::figures {

/// What one step of a figure sees.
struct FigureRun {
  std::size_t step;
  std::size_t steps;
  std::uint64_t seed;
  /// The params the figure's registration declares, each resolved to the
  /// request's value or its default; an empty object for most figures.
  const json::Value& params;
  /// The request's fault plan as an injector, or null for a fault-free run
  /// (every harness then takes its exact pre-fault code path).
  const faults::Injector* faults;
  MetricsDocument& doc;
  /// The console, or a sink when the run has none (service mode).
  std::ostream& out;
  /// This step's frame payload, streamed to a service client as progress.
  json::Value frame = json::Value::object();

  [[nodiscard]] bool first() const { return step == 0; }
  [[nodiscard]] bool last() const { return step + 1 == steps; }
  /// The value of declared param `name`.
  [[nodiscard]] int param(std::string_view name) const;
  /// Prints the figure's banner, a `[paper]` note and a `[repro]` note.
  void banner(const std::string& id, const std::string& title) const;
  void paper(const std::string& text) const;
  void repro(const std::string& text) const;
  /// Prints a completed table and records it in the document.
  void report(const Table& table) const;
};

using FigureBody = void (*)(FigureRun& run);

/// A positive-integer param a figure takes, with its default.
struct FigureParam {
  std::string_view name;
  int default_value;
};

/// Refuses, at submit time, a fault plan the figure cannot run; throws
/// wild5g::Error naming `campaign`.
using FaultCheck = void (*)(const faults::FaultPlan& plan,
                            const std::string& campaign);

/// A figure of `steps` steps: resolves the declared `params` (rejecting
/// every other key), runs `check` (when given) on the request's fault plan,
/// and builds the injector from it.
[[nodiscard]] std::unique_ptr<Campaign> make_figure(
    const CampaignRequest& request, FigureBody body, std::size_t steps,
    std::initializer_list<FigureParam> params = {},
    FaultCheck check = nullptr);

/// The registry's factory for one parameterless figure.
template <FigureBody Body, std::size_t Steps = 1>
std::unique_ptr<Campaign> figure(const CampaignRequest& request) {
  return make_figure(request, Body, Steps);
}

// --- network (network.cpp) --------------------------------------------------
void table1_campaign(FigureRun& run);
void fig01_02_latency_distance(FigureRun& run);
void fig03_downlink_distance(FigureRun& run);
void fig04_uplink_distance(FigureRun& run);
void fig05_07_tmobile_sa_nsa(FigureRun& run);
void fig08_transport_tuning(FigureRun& run);
void fig23_carrier_aggregation(FigureRun& run);
void fig24_server_survey(FigureRun& run);
void baseline_2019(FigureRun& run);
void ablation_transport(FigureRun& run);  // one wmem row per step
void extension_bbr(FigureRun& run);       // one Azure region per step

// --- mobility and RRC (mobility.cpp) ----------------------------------------
void fig09_handoffs(FigureRun& run);
void fig10_25_rrc_probe(FigureRun& run);      // one RRC profile per step
void table7_rrc_params(FigureRun& run);       // one RRC profile per step
void ablation_handoff(FigureRun& run);
void extension_drive_energy(FigureRun& run);  // one band setting per step

// --- power (power.cpp) ------------------------------------------------------
void table2_transition_power(FigureRun& run);  // one RRC profile per step
void fig11_throughput_power(FigureRun& run);   // one direction per step
void fig12_energy_efficiency(FigureRun& run);  // one direction per step
void fig13_14_rsrp_power(FigureRun& run);      // one city per step
void fig15_16_power_models(FigureRun& run);
void table3_9_sw_monitor(FigureRun& run);      // one Table 9 row per step
void table8_slopes(FigureRun& run);
void fig26_27_s10_power(FigureRun& run);       // one direction per step
void ablation_power_model(FigureRun& run);

// --- video (video.cpp) ------------------------------------------------------
void fig17_abr_qoe(FigureRun& run);
void fig18a_predictors(FigureRun& run);
void fig18b_chunk_length(FigureRun& run);
void fig18c_table4_interface(FigureRun& run);
void validation_apps(FigureRun& run);
void ablation_abr(FigureRun& run);
void extension_pensieve_5g(FigureRun& run);

// --- web (web.cpp) ----------------------------------------------------------
void fig19_20_web_qoe(FigureRun& run);
void fig21_penalty_saving(FigureRun& run);
void table6_fig22_selector(FigureRun& run);
void extension_http2(FigureRun& run);

// --- metro (metro.cpp): params "cells" and "ues" ----------------------------
void extension_metro_load(FigureRun& run);  // one grid point per step (9)
void extension_metro_qoe(FigureRun& run);   // one activity per step (4)

}  // namespace wild5g::engine::figures
