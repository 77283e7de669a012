// wild5g/core: tolerance-aware comparison of golden-metrics documents.
//
// A golden baseline is the JSON `wild5g_run <id>` emits at the default seed
// via `--json`. compare() walks a fresh run against the committed baseline and
// reports every field that drifted beyond its tolerance — the per-field
// report is what makes a failed `golden.*` test actionable.
#pragma once

#include <string>
#include <vector>

#include "core/json.h"

namespace wild5g::golden {

/// Two-sided tolerance: a numeric pair matches when
/// |fresh - golden| <= abs  OR  |fresh - golden| <= rel * |golden|.
struct Tolerance {
  double rel = 1e-6;
  double abs = 1e-9;
};

/// One field that differs between golden and fresh, with a human-readable
/// JSON-path-like location (e.g. `tables[2].rows[3][1]` or `metrics.stalls`).
struct Drift {
  std::string path;
  std::string message;
};

/// Reads the effective default tolerance of a golden document: its root
/// `tolerance` member if present, library defaults otherwise.
[[nodiscard]] Tolerance document_tolerance(const json::Value& golden);

/// Compares `fresh` against `golden` and returns every drifted field.
///
/// Rules:
///  - The tolerance comes from the GOLDEN document's root `tolerance`
///    object (document_tolerance()) and applies to every field.
///  - Numbers (and strings that parse fully as numbers, i.e. table cells)
///    compare under that tolerance; everything else compares exactly.
///  - Structural mismatches (type changes, missing/extra keys, array length
///    changes) are drifts too — a refactor that drops a table row is a
///    regression even if the surviving numbers match.
[[nodiscard]] std::vector<Drift> compare(const json::Value& golden,
                                         const json::Value& fresh);

/// Formats the drift list as the report golden_check prints: one line per
/// field, `path: <what changed>`.
[[nodiscard]] std::string format_report(const std::vector<Drift>& drifts);

}  // namespace wild5g::golden
