#include "core/golden.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "core/error.h"

namespace wild5g::golden {

namespace {

const char* type_name(json::Value::Type type) {
  switch (type) {
    case json::Value::Type::kNull: return "null";
    case json::Value::Type::kBool: return "bool";
    case json::Value::Type::kNumber: return "number";
    case json::Value::Type::kString: return "string";
    case json::Value::Type::kArray: return "array";
    case json::Value::Type::kObject: return "object";
  }
  return "?";
}

/// True when `text` is exactly one decimal number (a formatted table cell).
bool parse_cell_number(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && std::isfinite(out);
}

class Comparator {
 public:
  Comparator(Tolerance tol, std::vector<Drift>& out) : tol_(tol), out_(out) {}

  void walk(const json::Value& golden, const json::Value& fresh,
            const std::string& path) {
    if (golden.type() != fresh.type()) {
      // A numeric string vs. numeric string never lands here; a genuine type
      // change is always structural drift.
      drift(path, std::string("type changed: golden ") +
                      type_name(golden.type()) + ", fresh " +
                      type_name(fresh.type()));
      return;
    }
    switch (golden.type()) {
      case json::Value::Type::kNull:
        break;
      case json::Value::Type::kBool:
        if (golden.as_bool() != fresh.as_bool()) {
          drift(path, std::string("golden ") +
                          (golden.as_bool() ? "true" : "false") + ", fresh " +
                          (fresh.as_bool() ? "true" : "false"));
        }
        break;
      case json::Value::Type::kNumber:
        compare_numbers(golden.as_number(), fresh.as_number(), path);
        break;
      case json::Value::Type::kString:
        compare_strings(golden.as_string(), fresh.as_string(), path);
        break;
      case json::Value::Type::kArray:
        walk_array(golden, fresh, path);
        break;
      case json::Value::Type::kObject:
        walk_object(golden, fresh, path);
        break;
    }
  }

 private:
  void drift(const std::string& path, std::string message) {
    out_.push_back(Drift{path, std::move(message)});
  }

  void compare_numbers(double golden, double fresh, const std::string& path) {
    const double diff = std::fabs(fresh - golden);
    if (diff <= tol_.abs || diff <= tol_.rel * std::fabs(golden)) return;
    // wild5g-lint: allow(float-equality) exact-zero guard before dividing;
    // any nonzero magnitude, however small, has a well-defined relative drift.
    const double rel = golden != 0.0
                           ? diff / std::fabs(golden)
                           : std::numeric_limits<double>::infinity();
    drift(path, "golden " + json::format_number(golden) + ", fresh " +
                    json::format_number(fresh) + " (abs drift " +
                    json::format_number(diff) + ", rel drift " +
                    json::format_number(rel) + "; tol rel " +
                    json::format_number(tol_.rel) + ", abs " +
                    json::format_number(tol_.abs) + ")");
  }

  void compare_strings(const std::string& golden, const std::string& fresh,
                       const std::string& path) {
    if (golden == fresh) return;
    // Formatted table cells ("13.5") still deserve tolerance, not
    // byte-equality: a different-but-within-tolerance rounding is fine.
    double golden_num = 0.0;
    double fresh_num = 0.0;
    if (parse_cell_number(golden, golden_num) &&
        parse_cell_number(fresh, fresh_num)) {
      compare_numbers(golden_num, fresh_num, path);
      return;
    }
    drift(path, "golden \"" + golden + "\", fresh \"" + fresh + "\"");
  }

  void walk_array(const json::Value& golden, const json::Value& fresh,
                  const std::string& path) {
    const auto& golden_elems = golden.as_array();
    const auto& fresh_elems = fresh.as_array();
    if (golden_elems.size() != fresh_elems.size()) {
      drift(path, "length changed: golden " +
                      std::to_string(golden_elems.size()) + ", fresh " +
                      std::to_string(fresh_elems.size()));
    }
    const std::size_t n = std::min(golden_elems.size(), fresh_elems.size());
    for (std::size_t i = 0; i < n; ++i) {
      walk(golden_elems[i], fresh_elems[i],
           path + "[" + std::to_string(i) + "]");
    }
  }

  void walk_object(const json::Value& golden, const json::Value& fresh,
                   const std::string& path) {
    const std::string prefix = path.empty() ? "" : path + ".";
    for (const auto& member : golden.as_object()) {
      const json::Value* counterpart = fresh.find(member.key);
      if (counterpart == nullptr) {
        drift(prefix + member.key, "missing in fresh run");
        continue;
      }
      walk(member.value, *counterpart, prefix + member.key);
    }
    for (const auto& member : fresh.as_object()) {
      if (golden.find(member.key) == nullptr) {
        drift(prefix + member.key, "unexpected new field in fresh run");
      }
    }
  }

  Tolerance tol_;
  std::vector<Drift>& out_;
};

}  // namespace

Tolerance document_tolerance(const json::Value& golden) {
  Tolerance tol;
  if (const json::Value* entry = golden.find("tolerance");
      entry != nullptr && entry->is_object()) {
    if (const json::Value* rel = entry->find("rel")) tol.rel = rel->as_number();
    if (const json::Value* abs = entry->find("abs")) tol.abs = abs->as_number();
  }
  return tol;
}

std::vector<Drift> compare(const json::Value& golden,
                           const json::Value& fresh) {
  std::vector<Drift> drifts;
  Comparator comparator(document_tolerance(golden), drifts);
  comparator.walk(golden, fresh, "");
  return drifts;
}

std::string format_report(const std::vector<Drift>& drifts) {
  std::string out;
  for (const auto& drift : drifts) {
    out += "  " + drift.path + ": " + drift.message + "\n";
  }
  return out;
}

}  // namespace wild5g::golden
