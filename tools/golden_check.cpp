// golden_check: diffs a fresh bench metrics document against its committed
// golden baseline within the golden's tolerance.
//
// Usage: golden_check <golden.json> <fresh.json>
//
// Exit 0 when every field is within tolerance; exit 1 with a per-field drift
// report otherwise; exit 2 on unreadable/malformed input. The tolerance
// comes from the golden document's root "tolerance" — see src/core/golden.h.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/error.h"
#include "core/golden.h"
#include "core/json.h"

namespace {

wild5g::json::Value load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  wild5g::require(in.good(), "cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return wild5g::json::parse(buffer.str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: golden_check <golden.json> <fresh.json>\n";
    return 2;
  }
  const std::string golden_path = argv[1];
  const std::string fresh_path = argv[2];
  try {
    const auto golden = load(golden_path);
    const auto fresh = load(fresh_path);
    const auto drifts = wild5g::golden::compare(golden, fresh);
    const auto tol = wild5g::golden::document_tolerance(golden);
    if (drifts.empty()) {
      std::cout << "golden_check: OK (" << golden_path << ", rel tol "
                << wild5g::json::format_number(tol.rel) << ", abs tol "
                << wild5g::json::format_number(tol.abs) << ")\n";
      return 0;
    }
    std::cout << "golden_check: " << drifts.size() << " field(s) drifted ("
              << golden_path << " vs " << fresh_path << "):\n"
              << wild5g::golden::format_report(drifts)
              << "If the change is intentional, regenerate baselines with"
                 " `cmake --build build --target regen-goldens`.\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "golden_check: " << e.what() << "\n";
    return 2;
  }
}
