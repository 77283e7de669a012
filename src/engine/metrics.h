// wild5g/engine: the metrics document a campaign accumulates into.
//
// Extracted from bench/bench_common.h's MetricsEmitter so the same
// document-building logic serves three callers: the batch bench binaries
// (which wrap it back into a MetricsEmitter), the campaign engine's
// checkpoint/resume (which snapshots and restores the partially-built
// document), and tools/wild5g_serve (which renders it as the final frame of
// a campaign's metric stream).
//
// The document owns a run's tables: a caller opens a table, and each step
// appends its row in place as the row completes. A run stopped part way
// therefore keeps every completed row, in its partial document and in its
// checkpoint, and no campaign carries checkpoint code for its rows.
//
// The emitted shape is byte-compatible with the pre-engine emitter — key
// order bench, seed, [fault_plan], tolerance, [tolerances], tables,
// metrics — because bench/golden/ baselines diff against it byte-for-byte.
// New supervision keys ("interrupted", "deadline_hit") are only ever
// appended when the corresponding event actually happened, so a default
// run's document is untouched.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/table.h"

namespace wild5g::engine {

/// Insertion-ordered, deterministic collection of a campaign's tables,
/// scalar metrics, and tolerances. Pure data: no I/O, no clock, no argv.
class MetricsDocument {
 public:
  /// `fault_plan_name` empty means a fault-free run; any other value is
  /// recorded under "fault_plan" so a faulted document can never be diffed
  /// against a default golden.
  MetricsDocument(std::string bench_id, std::uint64_t seed,
                  std::string fault_plan_name = {});

  /// Default tolerance written into the document.
  void set_tolerance(double rel, double abs);
  /// Per-metric override, keyed by a metric name or a table title.
  void set_tolerance(const std::string& name, double rel, double abs);

  /// Opens an empty table at the end of the document and returns it, so
  /// rows are appended in place as they complete. When a table titled
  /// `title` is already open (an earlier step, or restore_state(), opened
  /// it) that table is returned instead; its header must match. The
  /// reference stays valid until restore_state().
  Table& open_table(const std::string& title,
                    std::vector<std::string> header);

  /// Records a completed table.
  void record(const Table& table);

  /// Records a named scalar metric (raw double, not a formatted cell).
  void metric(const std::string& name, double value);

  /// Appends a top-level boolean flag ("interrupted") after every standard
  /// key. Flags record supervision events; a run without the event emits a
  /// document byte-identical to a build without the flag mechanism.
  void set_flag(const std::string& name);

  [[nodiscard]] const std::string& bench_id() const { return bench_id_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Assembles the document in its final (golden-compatible) shape.
  [[nodiscard]] json::Value document() const;

  /// The mutable state accumulated so far, for the campaign engine's
  /// checkpoint. Identity fields (bench, seed, fault plan) are *not*
  /// included — they ride in the snapshot's request section and the
  /// restored document is reconstructed from them, so a snapshot cannot be
  /// replayed against a mismatched campaign silently.
  [[nodiscard]] json::Value checkpoint_state() const;
  /// Inverse of checkpoint_state(); throws wild5g::Error on malformed
  /// state (tables are rebuilt through Table, so a row whose arity does not
  /// match its header is rejected). Replaces all accumulated
  /// tables/metrics/tolerances/flags.
  void restore_state(const json::Value& state);

 private:
  std::string bench_id_;
  std::uint64_t seed_ = 0;
  std::string fault_plan_name_;
  double rel_ = 1e-6;
  double abs_ = 1e-9;
  std::deque<Table> tables_;  // deque: opening a table moves no other
  json::Value metrics_;
  json::Value tolerances_;
  json::Value flags_;
};

}  // namespace wild5g::engine
