#include "faults/fault_plan.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "core/integer.h"

namespace wild5g::faults {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr std::array<KindName, 10> kKindNames = {{
    {FaultKind::kMmwaveBlockage, "mmwave_blockage"},
    {FaultKind::kNrToLteOutage, "nr_to_lte_outage"},
    {FaultKind::kRadioOutage, "radio_outage"},
    {FaultKind::kLossBurst, "loss_burst"},
    {FaultKind::kLatencySpike, "latency_spike"},
    {FaultKind::kServerStall, "server_stall"},
    {FaultKind::kServerUnreachable, "server_unreachable"},
    {FaultKind::kChunkStall, "chunk_stall"},
    {FaultKind::kObjectFail, "object_fail"},
    {FaultKind::kTraceCorrupt, "trace_corrupt"},
}};

/// Magnitude contract per kind: probabilities and severities live in [0, 1];
/// additive magnitudes (dB, ms, events/s) only need to be non-negative.
bool magnitude_is_fraction(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNrToLteOutage:
    case FaultKind::kServerStall:
    case FaultKind::kChunkStall:
    case FaultKind::kObjectFail:
    case FaultKind::kTraceCorrupt:
      return true;
    case FaultKind::kMmwaveBlockage:
    case FaultKind::kRadioOutage:
    case FaultKind::kLossBurst:
    case FaultKind::kLatencySpike:
    case FaultKind::kServerUnreachable:
      return false;
  }
  return false;
}

double require_finite_field(const json::Value& window, const char* key,
                            double fallback, bool required) {
  const json::Value* field = window.find(key);
  if (field == nullptr) {
    require(!required, std::string("FaultPlan: window missing '") + key + "'");
    return fallback;
  }
  require(field->is_number(),
          std::string("FaultPlan: window field '") + key + "' must be a number");
  return field->as_number();
}

}  // namespace

const char* to_string(FaultKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  throw Error("FaultKind: unknown enum value");
}

FaultKind kind_from_string(std::string_view name) {
  for (const auto& entry : kKindNames) {
    if (name == entry.name) return entry.kind;
  }
  throw Error("FaultPlan: unknown fault kind '" + std::string(name) + "'");
}

double FaultWindow::overlap_s(double a_s, double b_s) const {
  const double lo = std::max(a_s, start_s);
  const double hi = std::min(b_s, end_s());
  return std::max(0.0, hi - lo);
}

void FaultPlan::validate() const {
  for (const auto& w : windows) {
    const std::string tag = std::string(to_string(w.kind)) + " window";
    require(std::isfinite(w.start_s) && std::isfinite(w.duration_s) &&
                std::isfinite(w.magnitude),
            "FaultPlan: " + tag + " has a non-finite field");
    require(w.start_s >= 0.0, "FaultPlan: " + tag + " starts before t=0");
    require(w.duration_s > 0.0,
            "FaultPlan: " + tag + " has non-positive duration");
    require(w.magnitude >= 0.0, "FaultPlan: " + tag + " has negative magnitude");
    if (magnitude_is_fraction(w.kind)) {
      require(w.magnitude <= 1.0,
              "FaultPlan: " + tag + " magnitude must be a fraction in [0, 1]");
    }
  }
  // Same-kind windows must not overlap. Sort index pairs per kind and check
  // neighbors; O(n log n) and order-independent of the declared sequence.
  std::vector<const FaultWindow*> sorted;
  sorted.reserve(windows.size());
  for (const auto& w : windows) sorted.push_back(&w);
  std::sort(sorted.begin(), sorted.end(),
            [](const FaultWindow* a, const FaultWindow* b) {
              if (a->kind != b->kind) return a->kind < b->kind;
              return a->start_s < b->start_s;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const FaultWindow& prev = *sorted[i - 1];
    const FaultWindow& next = *sorted[i];
    if (prev.kind != next.kind) continue;
    require(next.start_s >= prev.end_s(),
            std::string("FaultPlan: overlapping ") + to_string(next.kind) +
                " windows (merge them into one)");
  }
}

FaultPlan FaultPlan::from_json(const json::Value& doc) {
  require(doc.is_object(), "FaultPlan: document must be a JSON object");
  FaultPlan plan;
  if (const json::Value* name = doc.find("name"); name != nullptr) {
    require(name->is_string(), "FaultPlan: 'name' must be a string");
    plan.name = name->as_string();
  }
  if (const json::Value* salt = doc.find("seed_salt"); salt != nullptr) {
    // Integers at or above 2^53 have no exact double, so they could not
    // round-trip through to_json (a snapshot's embedded plan).
    plan.seed_salt = integer_from_json<std::uint64_t>(
        *salt, "FaultPlan: 'seed_salt'", 0, kJsonIntegerMax - 1);
  }
  const json::Value* windows = doc.find("windows");
  require(windows != nullptr && windows->is_array(),
          "FaultPlan: 'windows' array is required");
  for (const auto& entry : windows->as_array()) {
    require(entry.is_object(), "FaultPlan: each window must be an object");
    const json::Value* kind = entry.find("kind");
    require(kind != nullptr && kind->is_string(),
            "FaultPlan: window missing string 'kind'");
    FaultWindow window;
    window.kind = kind_from_string(kind->as_string());
    window.start_s = require_finite_field(entry, "start_s", 0.0, true);
    window.duration_s = require_finite_field(entry, "duration_s", 0.0, true);
    window.magnitude = require_finite_field(entry, "magnitude", 0.0, false);
    plan.windows.push_back(window);
  }
  plan.validate();
  return plan;
}

FaultPlan FaultPlan::parse(std::string_view text) {
  return from_json(json::parse(text));
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "FaultPlan: cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

json::Value FaultPlan::to_json() const {
  validate();
  json::Value doc = json::Value::object();
  doc.set("name", name);
  doc.set("seed_salt", seed_salt);
  json::Value list = json::Value::array();
  for (const auto& w : windows) {
    json::Value entry = json::Value::object();
    entry.set("kind", to_string(w.kind));
    entry.set("start_s", w.start_s);
    entry.set("duration_s", w.duration_s);
    entry.set("magnitude", w.magnitude);
    list.push_back(std::move(entry));
  }
  doc.set("windows", std::move(list));
  return doc;
}

}  // namespace wild5g::faults
