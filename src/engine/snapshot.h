// wild5g/engine: versioned, self-contained campaign checkpoints.
//
// A Snapshot captures everything needed to continue a supervised campaign
// byte-identically: the original request (campaign name, seed as a decimal
// string, params, the fault plan embedded *by value*), the index of the
// next step to execute, the campaign's serialized cross-step state, and the
// partially-built metrics document with its tables. Nothing in it
// references the machine it was written on — a snapshot written on one host
// resumes on another.
//
// This module is the single sanctioned file-I/O site inside src/engine
// (tools/wild5g_lint rule engine-blocking-call exempts snapshot.{h,cpp});
// campaign and runner code never touch the filesystem. save_snapshot writes
// via a temp file + rename so a SIGKILL mid-write can never leave a
// truncated snapshot where a valid one stood — the chaos soak suite kills
// the service at arbitrary points and resumes from whatever is on disk.
#pragma once

#include <cstddef>
#include <string>

#include "core/json.h"
#include "engine/campaign.h"

namespace wild5g::engine {

/// Bump when the snapshot document shape changes; load_snapshot rejects
/// any other version rather than guessing. Version 2 moved every table row
/// from campaign_state into document_state: a version-1 snapshot would
/// resume into a document missing its earlier rows.
inline constexpr int kSnapshotVersion = 2;

struct Snapshot {
  CampaignRequest request;
  /// Index of the first step the resumed run should execute.
  std::size_t next_step = 0;
  /// Campaign::checkpoint_state() at the yield point: cross-step state
  /// only, null for a campaign that has none.
  json::Value campaign_state;
  /// MetricsDocument::checkpoint_state() at the yield point, including
  /// every table row completed so far.
  json::Value document_state;

  /// Document shape:
  ///   { "format": "wild5g-snapshot", "version": 2,
  ///     "request": {...}, "next_step": N,
  ///     "campaign_state": {...}, "document_state": {...} }
  [[nodiscard]] json::Value to_json() const;
  /// Inverse of to_json(); throws wild5g::Error on a malformed document or
  /// a version this build does not speak.
  [[nodiscard]] static Snapshot from_json(const json::Value& doc);
};

/// Atomically writes `snapshot` to `path` (temp file in the same directory,
/// then rename). Throws wild5g::Error on I/O failure.
void save_snapshot(const Snapshot& snapshot, const std::string& path);

/// Reads and validates a snapshot; throws wild5g::Error on I/O failure or
/// malformed content.
[[nodiscard]] Snapshot load_snapshot(const std::string& path);

}  // namespace wild5g::engine
