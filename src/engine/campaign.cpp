#include "engine/campaign.h"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <utility>

#include "core/error.h"
#include "core/integer.h"
#include "engine/figures/figure.h"
#include "engine/metro_campaigns.h"
#include "metro/metro.h"

namespace wild5g::engine {

void CampaignContext::print(const Table& table) const {
  if (console != nullptr) table.print(*console);
}

json::Value Campaign::checkpoint_state() const { return {}; }

void Campaign::restore_state(const json::Value& state) {
  require(state.is_null(),
          "campaign state: this campaign has no cross-step state");
}

// --- registry --------------------------------------------------------------

namespace {

struct RegistryEntry {
  std::string name;
  CampaignFactory factory;
};

/// Serializes registry access; registration happens during startup and the
/// service protocol thread reads concurrently with the compute thread.
std::mutex g_registry_mutex;
// The registry singleton is confined to g_registry_mutex: every caller of
// registry_locked() holds the mutex.
std::vector<RegistryEntry>& registry_locked() {
  static std::vector<RegistryEntry> entries;
  return entries;
}

/// The metro extensions: a corridor of "cells" x "ues" UEs per cell
/// (default 12 x 100, at most INT_MAX UEs) that models only the radio
/// fault kinds.
template <figures::FigureBody Body, std::size_t Steps>
std::unique_ptr<Campaign> metro_figure(const CampaignRequest& request) {
  constexpr int kCells = 12;
  constexpr int kUes = 100;
  auto campaign = figures::make_figure(
      request, Body, Steps, {{"cells", kCells}, {"ues", kUes}},
      require_radio_plan);
  metro::require_population(
      param_positive_int(request.params, "cells", kCells),
      param_positive_int(request.params, "ues", kUes));
  return campaign;
}

}  // namespace

void register_campaign(const std::string& name, CampaignFactory factory) {
  require(!name.empty(), "register_campaign: empty name");
  require(factory != nullptr, "register_campaign: null factory");
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  auto& entries = registry_locked();
  for (auto& entry : entries) {
    if (entry.name == name) {
      entry.factory = factory;
      return;
    }
  }
  entries.push_back(RegistryEntry{name, factory});
}

std::unique_ptr<Campaign> make_campaign(const CampaignRequest& request) {
  CampaignFactory factory = nullptr;
  std::string known;
  {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    for (const auto& entry : registry_locked()) {
      if (!known.empty()) known += ", ";
      known += entry.name;
      if (entry.name == request.campaign) factory = entry.factory;
    }
  }
  require(factory != nullptr,
          "make_campaign: unknown campaign '" + request.campaign +
              "' (registered: " + (known.empty() ? "none" : known) + ")");
  return factory(request);
}

std::vector<std::string> campaign_names() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<std::string> names;
  for (const auto& entry : registry_locked()) names.push_back(entry.name);
  return names;
}

void register_builtin_campaigns() {
  using namespace figures;
  // Every figure and table, under its golden's document id.
  register_campaign("table1_campaign", figure<table1_campaign>);
  register_campaign("fig01_02_latency_distance",
                    figure<fig01_02_latency_distance>);
  register_campaign("fig03_downlink_distance", figure<fig03_downlink_distance>);
  register_campaign("fig04_uplink_distance", figure<fig04_uplink_distance>);
  register_campaign("fig05_07_tmobile_sa_nsa", figure<fig05_07_tmobile_sa_nsa>);
  register_campaign("fig08_transport_tuning", figure<fig08_transport_tuning>);
  register_campaign("fig09_handoffs", figure<fig09_handoffs>);
  register_campaign("fig10_25_rrc_probe", figure<fig10_25_rrc_probe, 6>);
  register_campaign("table7_rrc_params", figure<table7_rrc_params, 6>);
  register_campaign("table2_transition_power",
                    figure<table2_transition_power, 6>);
  register_campaign("fig11_throughput_power",
                    figure<fig11_throughput_power, 2>);
  register_campaign("fig12_energy_efficiency",
                    figure<fig12_energy_efficiency, 2>);
  register_campaign("fig13_14_rsrp_power", figure<fig13_14_rsrp_power, 2>);
  register_campaign("fig15_16_power_models", figure<fig15_16_power_models>);
  register_campaign("table3_9_sw_monitor", figure<table3_9_sw_monitor, 8>);
  register_campaign("table8_slopes", figure<table8_slopes>);
  register_campaign("fig17_abr_qoe", figure<fig17_abr_qoe>);
  register_campaign("fig18a_predictors", figure<fig18a_predictors>);
  register_campaign("fig18b_chunk_length", figure<fig18b_chunk_length>);
  register_campaign("fig18c_table4_interface", figure<fig18c_table4_interface>);
  register_campaign("fig19_20_web_qoe", figure<fig19_20_web_qoe>);
  register_campaign("fig21_penalty_saving", figure<fig21_penalty_saving>);
  register_campaign("table6_fig22_selector", figure<table6_fig22_selector>);
  register_campaign("fig23_carrier_aggregation",
                    figure<fig23_carrier_aggregation>);
  register_campaign("fig24_server_survey", figure<fig24_server_survey>);
  register_campaign("fig26_27_s10_power", figure<fig26_27_s10_power, 2>);
  register_campaign("validation_apps", figure<validation_apps>);
  register_campaign("baseline_2019", figure<baseline_2019>);
  register_campaign("ablation_handoff", figure<ablation_handoff>);
  register_campaign("ablation_transport", figure<ablation_transport, 8>);
  register_campaign("ablation_abr", figure<ablation_abr>);
  register_campaign("ablation_power_model", figure<ablation_power_model>);
  register_campaign("extension_bbr", figure<extension_bbr, 8>);
  register_campaign("extension_pensieve_5g", figure<extension_pensieve_5g>);
  register_campaign("extension_drive_energy",
                    figure<extension_drive_energy, 5>);
  register_campaign("extension_http2", figure<extension_http2>);
  register_campaign("extension_metro_load",
                    metro_figure<extension_metro_load, 9>);
  register_campaign("extension_metro_qoe", metro_figure<extension_metro_qoe, 4>);
  // The long-haul service workload; not a figure.
  register_campaign("drive_soak", make_drive_soak_campaign);
}

// --- request (de)serialization ---------------------------------------------

json::Value request_to_json(const CampaignRequest& request) {
  json::Value doc = json::Value::object();
  doc.set("campaign", request.campaign);
  doc.set("seed", std::to_string(request.seed));
  if (!request.params.is_null()) doc.set("params", request.params);
  if (request.fault_plan.has_value()) {
    doc.set("fault_plan", request.fault_plan->to_json());
  }
  return doc;
}

CampaignRequest request_from_json(const json::Value& doc) {
  require(doc.is_object(), "campaign request: not an object");
  CampaignRequest request;
  const json::Value* campaign = doc.find("campaign");
  require(campaign != nullptr && campaign->is_string(),
          "campaign request: missing string field 'campaign'");
  request.campaign = campaign->as_string();
  if (const json::Value* seed = doc.find("seed")) {
    // Accept both the canonical string form (full 64-bit precision) and a
    // plain JSON number for hand-written submissions.
    constexpr const char* kField = "campaign request: seed";
    request.seed = seed->is_string()
                       ? integer_from_text<std::uint64_t>(seed->as_string(),
                                                          kField, 0, UINT64_MAX)
                       : integer_from_json<std::uint64_t>(
                             *seed, kField, 0, kJsonIntegerMax - 1);
  }
  if (const json::Value* params = doc.find("params")) {
    require(params->is_object(), "campaign request: params is not an object");
    request.params = *params;
  }
  if (const json::Value* plan = doc.find("fault_plan")) {
    request.fault_plan = faults::FaultPlan::from_json(*plan);
  }
  return request;
}

// --- param helpers ----------------------------------------------------------

int param_positive_int(const json::Value& params, const std::string& key,
                       int default_value) {
  if (params.is_null()) return default_value;
  require(params.is_object(), "campaign params: not an object");
  const json::Value* value = params.find(key);
  if (value == nullptr) return default_value;
  return integer_from_json(*value, "campaign params: '" + key + "'", 1,
                           1'000'000'000);
}

void reject_unknown_params(const json::Value& params,
                           const std::vector<std::string_view>& known) {
  if (params.is_null()) return;
  require(params.is_object(), "campaign params: not an object");
  for (const auto& member : params.as_object()) {
    const bool recognized =
        std::any_of(known.begin(), known.end(),
                    [&](std::string_view k) { return k == member.key; });
    require(recognized,
            "campaign params: unknown parameter '" + member.key + "'");
  }
}

}  // namespace wild5g::engine
