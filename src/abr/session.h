// wild5g/abr: trace-driven DASH streaming engine (Sec. 5.1's testbed).
//
// Plays a ladder over a bandwidth source chunk by chunk: the ABR algorithm
// picks a track per chunk, downloads drain the trace's bandwidth, the
// playback buffer absorbs variation, and stalls accrue when it empties.
// Produces the paper's QoE metrics: normalized bitrate, time spent on stall,
// and the MPC-style linear QoE reward.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abr/video.h"
#include "faults/injector.h"
#include "traces/traces.h"

namespace wild5g::abr {

/// Bandwidth seen by the client over time.
class BandwidthSource {
 public:
  virtual ~BandwidthSource() = default;
  /// Instantaneous available bandwidth at time t.
  [[nodiscard]] virtual double mbps_at(double t_s) const = 0;
};

/// A throughput trace as a bandwidth source.
class TraceSource final : public BandwidthSource {
 public:
  explicit TraceSource(const traces::Trace& trace) : trace_(&trace) {}
  [[nodiscard]] double mbps_at(double t_s) const override {
    return trace_->at(t_s);
  }

 private:
  const traces::Trace* trace_;
};

/// Decision context handed to an ABR algorithm for one chunk. A session
/// starts at the decision whose `past_chunk_mbps` is empty.
struct AbrContext {
  const VideoProfile* video = nullptr;
  int next_chunk = 0;
  int chunk_count = 0;
  double buffer_s = 0.0;
  double max_buffer_s = 30.0;
  int last_track = -1;  // -1 before the first chunk
  /// Measured per-chunk download throughput so far, oldest first.
  std::span<const double> past_chunk_mbps;
  double now_s = 0.0;
  /// The session's bandwidth source. Only an oracle may read ahead of
  /// `now_s`; causal algorithms ignore it.
  const BandwidthSource* source = nullptr;
};

/// Rate-adaptation policy interface.
class AbrAlgorithm {
 public:
  virtual ~AbrAlgorithm() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Track index in [0, video->track_count()) for context.next_chunk.
  [[nodiscard]] virtual int choose_track(const AbrContext& context) = 0;
  /// Clears per-session state (prediction-error history etc.).
  virtual void reset() {}
};

/// Per-chunk log entry.
struct ChunkRecord {
  int index = 0;
  int track = 0;            // track of the finally delivered chunk
  double bitrate_mbps = 0.0;
  double download_s = 0.0;  // wall time incl. abandoned attempts
  double throughput_mbps = 0.0;
  double stall_s = 0.0;
  double buffer_after_s = 0.0;
  int abandoned_attempts = 0;
};

struct SessionOptions {
  double max_buffer_s = 30.0;
  int chunk_count = 60;  // 60 x 4 s = 4-minute video by default
  /// Segment abandonment: a download taking longer than 1.8 x chunk_s with
  /// under 80% fetched is aborted (at most 3 times per session) and the ABR
  /// re-decides with the fresh (collapsed) throughput sample. Off
  /// by default: the paper's Sec. 5.3 observations ("one chunk download
  /// decision ... causes 5-10 seconds of rebuffering", "cannot be rolled
  /// back") show the evaluated players did not abandon effectively. The
  /// 5G-aware interface-selection scheme (Sec. 5.4) enables it as its
  /// progress-monitoring component.
  bool allow_abandonment = false;
  /// Optional fault injector (not owned; null = no faults). Chunk stalls,
  /// NR->LTE fallback and radio outages scale the bandwidth the session
  /// sees sample by sample; the player degrades gracefully (downloads slow
  /// down, the buffer drains, stalls accrue as rebuffer time) instead of
  /// failing — matching how a real DASH player rides out dead air.
  const faults::Injector* faults = nullptr;
};

struct SessionResult {
  std::vector<ChunkRecord> chunks;
  double startup_delay_s = 0.0;
  double total_stall_s = 0.0;
  double played_s = 0.0;
  double avg_bitrate_mbps = 0.0;
  /// Linear QoE: sum(bitrate) - top bitrate * stall_s - sum(|delta bitrate|).
  double qoe = 0.0;

  /// Per-second downlink throughput actually consumed (for energy models).
  std::vector<double> per_second_dl_mbps;

  [[nodiscard]] double stall_percent() const {
    const double wall = played_s + total_stall_s;
    return wall > 0.0 ? 100.0 * total_stall_s / wall : 0.0;
  }
  [[nodiscard]] double normalized_bitrate(const VideoProfile& video) const {
    return avg_bitrate_mbps / video.top_mbps();
  }
  [[nodiscard]] double normalized_qoe(const VideoProfile& video,
                                      const SessionOptions& options) const {
    return qoe / (video.top_mbps() * options.chunk_count);
  }
};

/// Streams `options.chunk_count` chunks of `video` over `source` with
/// `algorithm` deciding tracks. Deterministic given deterministic inputs.
[[nodiscard]] SessionResult stream(const VideoProfile& video,
                                   const BandwidthSource& source,
                                   AbrAlgorithm& algorithm,
                                   const SessionOptions& options);

/// Average of a metric across sessions run on every trace in a set.
struct AggregateQoe {
  double mean_normalized_bitrate = 0.0;
  double mean_stall_percent = 0.0;
  double mean_normalized_qoe = 0.0;
  double mean_stall_s = 0.0;
};

[[nodiscard]] AggregateQoe evaluate_on_traces(
    const VideoProfile& video, const std::vector<traces::Trace>& traces,
    AbrAlgorithm& algorithm, const SessionOptions& options);

}  // namespace wild5g::abr
