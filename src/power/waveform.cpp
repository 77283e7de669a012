#include "power/waveform.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/error.h"
#include "core/parallel.h"

namespace wild5g::power {

double PowerTrace::energy_j() const {
  // mW * s = mJ; report joules.
  const double sum_mw =
      std::accumulate(samples_mw.begin(), samples_mw.end(), 0.0);
  return sum_mw / sample_rate_hz / 1000.0;
}

double PowerTrace::average_mw() const {
  require(!samples_mw.empty(), "PowerTrace::average_mw: empty trace");
  return std::accumulate(samples_mw.begin(), samples_mw.end(), 0.0) /
         static_cast<double>(samples_mw.size());
}

double PowerTrace::average_mw(double from_s, double to_s) const {
  require(from_s < to_s, "PowerTrace::average_mw: empty window");
  const auto from = static_cast<std::size_t>(from_s * sample_rate_hz);
  const auto to = std::min(
      samples_mw.size(), static_cast<std::size_t>(to_s * sample_rate_hz));
  require(from < to, "PowerTrace::average_mw: window outside trace");
  double sum = 0.0;
  for (std::size_t i = from; i < to; ++i) sum += samples_mw[i];
  return sum / static_cast<double>(to - from);
}

WaveformSynthesizer::WaveformSynthesizer(rrc::RrcProfile profile,
                                         DevicePowerProfile device,
                                         double sample_rate_hz)
    : profile_(std::move(profile)),
      device_(std::move(device)),
      rail_(rail_key(profile_.config.network)),
      sample_rate_hz_(sample_rate_hz) {
  require(sample_rate_hz_ > 0.0,
          "WaveformSynthesizer: sample rate must be positive");
  require(device_.has_rail(rail_),
          "WaveformSynthesizer: device has no rail for this network");
}

double drx_remainder(double t, double cycle) {
  // q may round up to one more than the true quotient when t/cycle falls
  // just below an integer, never down past it (the true floor is an integer
  // below 2^52, so it is representable and rounding is monotone). The fma
  // then yields t - q*cycle exactly: the true remainder, or the true
  // remainder minus `cycle`, both multiples of the finer of t's and cycle's
  // last-place units and small enough to be representable. In the second
  // case the exact sum r + cycle is the representable true remainder, so
  // the addition is exact too.
  const double q = std::floor(t / cycle);
  const double r = std::fma(-q, cycle, t);
  return r < 0.0 ? r + cycle : r;
}

namespace {

/// Noise-pass chunk length in ticks. Fixed, never derived from the thread
/// count: chunk boundaries only decide where the stream is cut, and each
/// chunk's Rng copy costs ~2.5 KB.
constexpr std::size_t kNoiseChunk = 8192;
/// Raw Rng words one noise tick draws: two normals of two uniforms each.
constexpr std::uint64_t kWordsPerTick = 4;

/// How one planned run of samples is rendered.
enum class FillKind : std::uint8_t {
  kConstant,     // promotion burst, or transfer under constant signal
  kTransfer,     // transfer under an rsrp trajectory: per-tick rail eval
  kDrx,          // square-wave cycling between a hoisted on/sleep pair
};

/// SoA segment plan: one entry per maximal run of samples sharing a
/// timeline segment. Per-tick work drops to a remainder (DRX) or a rail
/// evaluation (trajectory transfers); everything else is hoisted here.
struct SegmentPlan {
  std::vector<std::size_t> begin;     // first sample index of the run
  std::vector<std::size_t> end;       // one past the last sample index
  std::vector<FillKind> kind;
  std::vector<double> const_mw;       // kConstant level
  std::vector<double> on_mw;          // kDrx elevated level
  std::vector<double> sleep_mw;       // kDrx light-sleep level
  std::vector<double> cycle_ms;       // kDrx cycle length
  std::vector<double> on_fraction;    // kDrx duty cycle
  std::vector<std::size_t> segment;   // timeline index (kTransfer rail eval)

  void push(std::size_t b, std::size_t e, FillKind k, std::size_t seg) {
    begin.push_back(b);
    end.push_back(e);
    kind.push_back(k);
    const_mw.push_back(0.0);
    on_mw.push_back(0.0);
    sleep_mw.push_back(0.0);
    cycle_ms.push_back(0.0);
    on_fraction.push_back(0.0);
    segment.push_back(seg);
  }
};

/// DRX square wave averaging to `mean_mw`: `on_fraction` of each cycle at an
/// elevated level, the remainder in light sleep. Solves
/// on_fraction*on + (1-on_fraction)*sleep = mean with sleep = ratio*mean —
/// a pure function of the segment, hoisted out of the sample loop.
struct DrxLevels {
  double on;
  double sleep;
};
DrxLevels drx_levels(double mean_mw, double on_fraction, double sleep_ratio) {
  const double sleep = sleep_ratio * mean_mw;
  const double on = (mean_mw - (1.0 - on_fraction) * sleep) / on_fraction;
  return {on, sleep};
}

/// First sample index in [lo, hi] whose timestamp i*dt_ms reaches `end_ms`.
/// Uses the exact predicate the per-tick scan used, so run boundaries are
/// bit-identical to the old code's segment advances; i*dt_ms is monotone in
/// i, so binary search is sound.
std::size_t boundary_after(double end_ms, double dt_ms, std::size_t lo,
                           std::size_t hi) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) * dt_ms >= end_ms) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace

PowerTrace WaveformSynthesizer::synthesize(
    std::span<const rrc::StateSegment> timeline, Rng& rng,
    const RsrpFn& rsrp_at) const {
  require(!timeline.empty(), "WaveformSynthesizer: empty timeline");
  PowerTrace trace;
  trace.sample_rate_hz = sample_rate_hz_;
  const double horizon_ms = timeline.back().end_ms;
  const double dt_ms = 1000.0 / sample_rate_hz_;
  const auto sample_count =
      static_cast<std::size_t>(std::llround(horizon_ms / dt_ms));

  const auto& cfg = profile_.config;
  const auto& pw = profile_.power;

  // Pass 1: segment plan. Walk the timeline once, mapping each segment to
  // its run of sample indices and hoisting every per-segment constant.
  SegmentPlan plan;
  std::size_t seg = 0;
  std::size_t i = 0;
  while (i < sample_count) {
    const double t = static_cast<double>(i) * dt_ms;
    while (seg + 1 < timeline.size() && t >= timeline[seg].end_ms) ++seg;
    const std::size_t run_end =
        seg + 1 < timeline.size()
            ? boundary_after(timeline[seg].end_ms, dt_ms, i + 1, sample_count)
            : sample_count;
    const rrc::StateSegment& segment = timeline[seg];
    if (segment.promoting) {
      // Signaling burst; NSA additionally pays the 4G->5G switch (Table 2).
      plan.push(i, run_end, FillKind::kConstant, seg);
      plan.const_mw.back() = std::max(
          pw.promotion_mw, cfg.is_nsa_5g() ? pw.switch_mw : pw.promotion_mw);
    } else if (segment.transferring) {
      if (rsrp_at) {
        plan.push(i, run_end, FillKind::kTransfer, seg);
      } else {
        // Constant-signal campaign: the rail evaluation is a pure function
        // of the segment, so it runs once here instead of once per tick.
        plan.push(i, run_end, FillKind::kConstant, seg);
        plan.const_mw.back() = device_.transfer_power_mw(
            rail_, segment.dl_mbps, segment.ul_mbps,
            device_.good_rsrp_dbm(rail_));
      }
    } else {
      double mean_mw = pw.idle_mw;
      double cycle = cfg.idle_drx_cycle_ms;
      double on_fraction = 0.05;
      double sleep_ratio = 0.6;
      switch (segment.state) {
        case rrc::RrcState::kConnected:
          mean_mw = pw.tail_mw;
          cycle = cfg.long_drx_cycle_ms;
          on_fraction = 0.2;
          sleep_ratio = 0.35;
          break;
        case rrc::RrcState::kConnectedAnchor:
          mean_mw = pw.anchor_tail_mw;
          cycle = cfg.long_drx_cycle_ms;
          on_fraction = 0.2;
          sleep_ratio = 0.35;
          break;
        case rrc::RrcState::kInactive:
          mean_mw = pw.inactive_mw;
          cycle = 320.0;
          on_fraction = 0.1;
          sleep_ratio = 0.45;
          break;
        case rrc::RrcState::kIdle:
          break;
      }
      if (cycle <= 0.0) {
        plan.push(i, run_end, FillKind::kConstant, seg);
        plan.const_mw.back() = mean_mw;
      } else {
        plan.push(i, run_end, FillKind::kDrx, seg);
        const DrxLevels levels = drx_levels(mean_mw, on_fraction, sleep_ratio);
        plan.on_mw.back() = levels.on;
        plan.sleep_mw.back() = levels.sleep;
        plan.cycle_ms.back() = cycle;
        plan.on_fraction.back() = on_fraction;
      }
    }
    i = run_end;
  }

  // Pass 2: clean power and measurement + conversion noise (~2%
  // multiplicative with a 4 mW floor), fused per chunk. Two normals per tick,
  // i.e. kWordsPerTick words of one stream in tick order: the exact draw
  // sequence of the per-tick path, so traces are bit-identical to it. The
  // stream is cut into kNoiseChunk-tick chunks, each rendering its runs'
  // clean power and then its noise from a copy of `rng` taken at its first
  // word, and `rng` itself ends kWordsPerTick * sample_count words on, as if
  // drawn serially.
  std::vector<double>& samples = trace.samples_mw;
  samples.resize(sample_count);
  const auto render = [&](std::size_t run, std::size_t b, std::size_t e) {
    switch (plan.kind[run]) {
      case FillKind::kConstant:
        std::fill(samples.begin() + static_cast<std::ptrdiff_t>(b),
                  samples.begin() + static_cast<std::ptrdiff_t>(e),
                  plan.const_mw[run]);
        break;
      case FillKind::kTransfer: {
        const rrc::StateSegment& segment = timeline[plan.segment[run]];
        for (std::size_t s = b; s < e; ++s) {
          const double t = static_cast<double>(s) * dt_ms;
          samples[s] = device_.transfer_power_mw(
              rail_, segment.dl_mbps, segment.ul_mbps, rsrp_at(t));
        }
        break;
      }
      case FillKind::kDrx: {
        const double cycle = plan.cycle_ms[run];
        const double on_fraction = plan.on_fraction[run];
        const double on = plan.on_mw[run];
        const double sleep = plan.sleep_mw[run];
        for (std::size_t s = b; s < e; ++s) {
          const double t = static_cast<double>(s) * dt_ms;
          const double phase = drx_remainder(t, cycle) / cycle;
          samples[s] = phase < on_fraction ? on : sleep;
        }
        break;
      }
    }
  };
  const std::size_t chunks = (sample_count + kNoiseChunk - 1) / kNoiseChunk;
  const auto chunk_end = [sample_count](std::size_t c) {
    return std::min(sample_count, (c + 1) * kNoiseChunk);
  };
  std::vector<Rng> chunk_rngs;
  chunk_rngs.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    chunk_rngs.push_back(rng);
    rng.discard(kWordsPerTick * (chunk_end(c) - c * kNoiseChunk));
  }
  parallel::parallel_for(chunks, [&](std::size_t c) {
    const std::size_t first = c * kNoiseChunk;
    const std::size_t last = chunk_end(c);
    // Runs tile [0, sample_count) in order; start at the first one ending
    // past this chunk's first tick.
    auto run = static_cast<std::size_t>(
        std::upper_bound(plan.end.begin(), plan.end.end(), first) -
        plan.end.begin());
    for (; run < plan.begin.size() && plan.begin[run] < last; ++run) {
      render(run, std::max(first, plan.begin[run]),
             std::min(last, plan.end[run]));
    }
    Rng& chunk_rng = chunk_rngs[c];
    for (std::size_t s = first; s < last; ++s) {
      const double clean = samples[s];
      const double noisy = clean * (1.0 + chunk_rng.normal(0.0, 0.02)) +
                           chunk_rng.normal(0.0, 4.0);
      samples[s] = std::max(0.0, noisy);
    }
  });
  return trace;
}

}  // namespace wild5g::power
