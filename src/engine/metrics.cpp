#include "engine/metrics.h"

#include <utility>

#include "core/error.h"

namespace wild5g::engine {

namespace {

const json::Value& member(const json::Value& object, const char* key) {
  const json::Value* value = object.find(key);
  require(value != nullptr,
          std::string("MetricsDocument: state missing '") + key + "'");
  return *value;
}

json::Value strings_to_json(const std::vector<std::string>& strings) {
  json::Value array = json::Value::array();
  for (const auto& text : strings) array.push_back(text);
  return array;
}

std::vector<std::string> strings_from_json(const json::Value& array) {
  std::vector<std::string> strings;
  for (const json::Value& text : array.as_array()) {
    strings.push_back(text.as_string());
  }
  return strings;
}

json::Value tables_to_json(const std::deque<Table>& tables) {
  json::Value array = json::Value::array();
  for (const Table& table : tables) {
    json::Value rows = json::Value::array();
    for (const auto& row : table.rows()) rows.push_back(strings_to_json(row));
    json::Value entry = json::Value::object();
    entry.set("title", table.title());
    entry.set("header", strings_to_json(table.header()));
    entry.set("rows", std::move(rows));
    array.push_back(std::move(entry));
  }
  return array;
}

/// The one routine that turns JSON back into tables. The typed json
/// accessors reject a non-string title, header or cell, and Table's
/// set_header()/add_row() reject a row whose arity does not match.
std::deque<Table> tables_from_json(const json::Value& array) {
  std::deque<Table> tables;
  for (const json::Value& entry : array.as_array()) {
    Table& table = tables.emplace_back(member(entry, "title").as_string());
    table.set_header(strings_from_json(member(entry, "header")));
    for (const json::Value& row : member(entry, "rows").as_array()) {
      table.add_row(strings_from_json(row));
    }
  }
  return tables;
}

}  // namespace

MetricsDocument::MetricsDocument(std::string bench_id, std::uint64_t seed,
                                 std::string fault_plan_name)
    : bench_id_(std::move(bench_id)),
      seed_(seed),
      fault_plan_name_(std::move(fault_plan_name)),
      metrics_(json::Value::object()),
      tolerances_(json::Value::object()),
      flags_(json::Value::object()) {}

void MetricsDocument::set_tolerance(double rel, double abs) {
  rel_ = rel;
  abs_ = abs;
}

void MetricsDocument::set_tolerance(const std::string& name, double rel,
                                    double abs) {
  json::Value entry = json::Value::object();
  entry.set("rel", rel);
  entry.set("abs", abs);
  tolerances_.set(name, std::move(entry));
}

Table& MetricsDocument::open_table(const std::string& title,
                                   std::vector<std::string> header) {
  for (Table& table : tables_) {
    if (table.title() != title) continue;
    require(table.header() == header,
            "MetricsDocument: table '" + title +
                "' reopened with a new header");
    return table;
  }
  Table& table = tables_.emplace_back(title);
  table.set_header(std::move(header));
  return table;
}

void MetricsDocument::record(const Table& table) { tables_.push_back(table); }

void MetricsDocument::metric(const std::string& name, double value) {
  metrics_.set(name, value);
}

void MetricsDocument::set_flag(const std::string& name) {
  flags_.set(name, true);
}

json::Value MetricsDocument::document() const {
  json::Value doc = json::Value::object();
  doc.set("bench", bench_id_);
  doc.set("seed", seed_);
  if (!fault_plan_name_.empty()) doc.set("fault_plan", fault_plan_name_);
  json::Value tolerance = json::Value::object();
  tolerance.set("rel", rel_);
  tolerance.set("abs", abs_);
  doc.set("tolerance", std::move(tolerance));
  if (tolerances_.size() > 0) doc.set("tolerances", tolerances_);
  doc.set("tables", tables_to_json(tables_));
  doc.set("metrics", metrics_);
  for (const auto& flag : flags_.as_object()) {
    doc.set(flag.key, flag.value);
  }
  return doc;
}

json::Value MetricsDocument::checkpoint_state() const {
  json::Value state = json::Value::object();
  state.set("rel", rel_);
  state.set("abs", abs_);
  state.set("tolerances", tolerances_);
  state.set("tables", tables_to_json(tables_));
  state.set("metrics", metrics_);
  state.set("flags", flags_);
  return state;
}

void MetricsDocument::restore_state(const json::Value& state) {
  require(state.is_object(), "MetricsDocument: state is not an object");
  const json::Value& rel = member(state, "rel");
  const json::Value& abs = member(state, "abs");
  require(rel.is_number() && abs.is_number(),
          "MetricsDocument: tolerance state is not numeric");
  const json::Value& tolerances = member(state, "tolerances");
  const json::Value& tables = member(state, "tables");
  const json::Value& metrics = member(state, "metrics");
  const json::Value& flags = member(state, "flags");
  require(tolerances.is_object() && metrics.is_object() && flags.is_object(),
          "MetricsDocument: tolerances/metrics/flags state is not an object");
  for (const auto& metric : metrics.as_object()) {
    require(metric.value.is_number(),
            "MetricsDocument: metric '" + metric.key + "' is not a number");
  }
  std::deque<Table> restored = tables_from_json(tables);
  rel_ = rel.as_number();
  abs_ = abs.as_number();
  tolerances_ = tolerances;
  tables_ = std::move(restored);
  metrics_ = metrics;
  flags_ = flags;
}

}  // namespace wild5g::engine
