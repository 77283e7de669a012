#include "engine/campaign.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <ostream>
#include <utility>

#include "core/error.h"
#include "engine/metro_campaigns.h"

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
  register_campaign("metro_load", make_metro_load_campaign);
  register_campaign("metro_qoe", make_metro_qoe_campaign);
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
    if (seed->is_string()) {
      const std::string& text = seed->as_string();
      std::size_t parsed = 0;
      unsigned long long value = 0;
      try {
        value = std::stoull(text, &parsed);
      } catch (const std::exception&) {
        throw Error("campaign request: seed '" + text +
                    "' is not an unsigned integer");
      }
      require(parsed == text.size() && !text.empty() && text[0] != '-',
              "campaign request: seed '" + text +
                  "' is not an unsigned integer");
      request.seed = static_cast<std::uint64_t>(value);
    } else if (seed->is_number()) {
      const double value = seed->as_number();
      require(value >= 0.0 && value == std::floor(value) && value < 0x1p53,
              "campaign request: numeric seed is not a non-negative integer");
      request.seed = static_cast<std::uint64_t>(value);
    } else {
      throw Error("campaign request: seed must be a string or number");
    }
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
  require(value->is_number(),
          "campaign params: '" + key + "' is not a number");
  const double raw = value->as_number();
  require(raw >= 1.0 && raw == std::floor(raw) && raw <= 1e9,
          "campaign params: '" + key + "' must be a positive integer");
  return static_cast<int>(raw);
}

void reject_unknown_params(const json::Value& params,
                           std::initializer_list<std::string_view> known) {
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
