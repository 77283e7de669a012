#include "abr/session.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace wild5g::abr {

namespace {
// A live radio link never delivers exactly zero for long; this floor also
// guarantees download progress when a trace bottoms out during blockage.
constexpr double kMinBandwidthMbps = 0.05;
constexpr double kAbandonMultiplier = 1.8;
constexpr int kMaxAbandonments = 3;
constexpr double kQoeSmoothness = 1.0;  // weight of sum(|delta bitrate|)
// dash.js-like player buffering: media queued before playback starts, and
// before it resumes after a rebuffer.
constexpr double kStartupBufferS = 8.0;
constexpr double kResumeBufferS = 4.0;
}  // namespace

SessionResult stream(const VideoProfile& video, const BandwidthSource& source,
                     AbrAlgorithm& algorithm, const SessionOptions& options) {
  WILD5G_REQUIRE(video.track_count() >= 1, "stream: empty ladder");
  WILD5G_REQUIRE(options.chunk_count >= 1, "stream: no chunks");
  const double rebuffer_penalty = video.top_mbps();

  algorithm.reset();
  SessionResult result;
  std::vector<double> past_mbps;

  double t = 0.0;
  double buffer = 0.0;
  int last_track = -1;
  // Player state: media time only advances while kPlaying; the player
  // queues kStartupBufferS before starting and, after a rebuffer, waits
  // for kResumeBufferS before resuming.
  enum class PlayState { kStartup, kPlaying, kRebuffering };
  PlayState play_state = PlayState::kStartup;
  const double startup_target =
      std::min(kStartupBufferS,
               static_cast<double>(options.chunk_count) * video.chunk_s);
  const double resume_target =
      std::min(kResumeBufferS, options.max_buffer_s);

  auto record_consumption = [&](double from_s, double mbits) {
    // Attribute consumed megabits to integral-second buckets.
    auto second = static_cast<std::size_t>(from_s);
    if (result.per_second_dl_mbps.size() <= second) {
      result.per_second_dl_mbps.resize(second + 1, 0.0);
    }
    result.per_second_dl_mbps[second] += mbits;
  };

  for (int chunk = 0; chunk < options.chunk_count; ++chunk) {
    const double chunk_start_t = t;
    int abandoned = 0;
    int track = 0;
    double final_attempt_tput = 0.0;

    // One or more download attempts; an attempt that crawls past the
    // abandonment deadline is aborted and the ABR re-decides.
    while (true) {
      AbrContext context;
      context.video = &video;
      context.next_chunk = chunk;
      context.chunk_count = options.chunk_count;
      context.buffer_s =
          play_state == PlayState::kPlaying
              ? std::max(0.0, buffer - (t - chunk_start_t))
              : buffer;
      context.max_buffer_s = options.max_buffer_s;
      context.last_track = last_track;
      context.past_chunk_mbps = past_mbps;
      context.now_s = t;
      context.source = &source;

      track = std::clamp(algorithm.choose_track(context), 0,
                         video.track_count() - 1);
      const double bitrate = video.bitrate(track);
      const double total_mbits = bitrate * video.chunk_s;
      double remaining_mbits = total_mbits;

      const bool may_abandon =
          options.allow_abandonment && abandoned < kMaxAbandonments;
      const double deadline = t + kAbandonMultiplier * video.chunk_s;
      const double attempt_start = t;
      bool aborted = false;
      while (remaining_mbits > 1e-12) {
        if (may_abandon && t >= deadline &&
            remaining_mbits > 0.2 * total_mbits) {
          aborted = true;
          break;
        }
        // Fault shaping multiplies the trace sample before the progress
        // floor: a full outage pins the link at the floor rate, so the
        // download crawls (stalls accrue) but the session always finishes.
        const double fault_scale =
            options.faults != nullptr ? options.faults->bandwidth_scale_at(t)
                                      : 1.0;
        const double bw =
            std::max(kMinBandwidthMbps, source.mbps_at(t) * fault_scale);
        const double slice_end = std::floor(t) + 1.0;
        const double slice = slice_end - t;
        const double slice_mbits = bw * slice;
        if (slice_mbits >= remaining_mbits) {
          const double used = remaining_mbits / bw;
          record_consumption(t, remaining_mbits);
          t += used;
          remaining_mbits = 0.0;
        } else {
          record_consumption(t, slice_mbits);
          remaining_mbits -= slice_mbits;
          t = slice_end;
        }
      }
      const double attempt_s = t - attempt_start;
      final_attempt_tput = (total_mbits - remaining_mbits) /
                           std::max(1e-9, attempt_s);
      if (!aborted) break;
      // Aborted: surface the collapsed throughput so the re-decision (and
      // any interface-selection wrapper) sees it immediately.
      ++abandoned;
      past_mbps.push_back(std::max(kMinBandwidthMbps, final_attempt_tput));
      last_track = track;
    }

    const double download_s = t - chunk_start_t;
    const double bitrate = video.bitrate(track);

    ChunkRecord record;
    record.index = chunk;
    record.track = track;
    record.bitrate_mbps = bitrate;
    record.download_s = download_s;
    record.throughput_mbps = final_attempt_tput;
    record.abandoned_attempts = abandoned;

    switch (play_state) {
      case PlayState::kStartup:
        result.startup_delay_s += download_s;
        break;
      case PlayState::kRebuffering:
        record.stall_s = download_s;
        result.total_stall_s += download_s;
        break;
      case PlayState::kPlaying:
        if (download_s > buffer) {
          record.stall_s = download_s - buffer;
          result.total_stall_s += record.stall_s;
          buffer = 0.0;
          play_state = PlayState::kRebuffering;
        } else {
          buffer -= download_s;
        }
        break;
    }
    buffer += video.chunk_s;
    if (play_state == PlayState::kStartup && buffer >= startup_target) {
      play_state = PlayState::kPlaying;
    } else if (play_state == PlayState::kRebuffering &&
               buffer >= resume_target) {
      play_state = PlayState::kPlaying;
    }
    if (buffer > options.max_buffer_s) {
      // Client throttles: wait until there is room for the next chunk.
      t += buffer - options.max_buffer_s;
      buffer = options.max_buffer_s;
    }
    record.buffer_after_s = buffer;

    past_mbps.push_back(record.throughput_mbps);
    result.chunks.push_back(record);
    last_track = track;
  }

  result.played_s = static_cast<double>(options.chunk_count) * video.chunk_s;
  double bitrate_sum = 0.0;
  double smoothness = 0.0;
  for (std::size_t i = 0; i < result.chunks.size(); ++i) {
    bitrate_sum += result.chunks[i].bitrate_mbps;
    if (i > 0) {
      smoothness += std::abs(result.chunks[i].bitrate_mbps -
                             result.chunks[i - 1].bitrate_mbps);
    }
  }
  result.avg_bitrate_mbps =
      bitrate_sum / static_cast<double>(result.chunks.size());
  result.qoe = bitrate_sum - rebuffer_penalty * result.total_stall_s -
               kQoeSmoothness * smoothness;
  return result;
}

AggregateQoe evaluate_on_traces(const VideoProfile& video,
                                const std::vector<traces::Trace>& traces,
                                AbrAlgorithm& algorithm,
                                const SessionOptions& options) {
  require(!traces.empty(), "evaluate_on_traces: no traces");
  AggregateQoe aggregate;
  for (const auto& trace : traces) {
    TraceSource source(trace);
    const auto result = stream(video, source, algorithm, options);
    aggregate.mean_normalized_bitrate += result.normalized_bitrate(video);
    aggregate.mean_stall_percent += result.stall_percent();
    aggregate.mean_normalized_qoe += result.normalized_qoe(video, options);
    aggregate.mean_stall_s += result.total_stall_s;
  }
  const auto n = static_cast<double>(traces.size());
  aggregate.mean_normalized_bitrate /= n;
  aggregate.mean_stall_percent /= n;
  aggregate.mean_normalized_qoe /= n;
  aggregate.mean_stall_s /= n;
  return aggregate;
}

}  // namespace wild5g::abr
