// wild5g/power: 5 kHz power-waveform synthesis (the simulated Monsoon feed).
//
// Turns an RRC state timeline (with per-segment throughput and a signal
// trajectory) into the high-rate radio power waveform a hardware power
// monitor would record: transfer power from the device rails, DRX on/off
// cycling in the tails, paging spikes in IDLE, and promotion bursts.
//
// Hot-path layout: synthesis is batched per RRC-state segment, not per
// tick. A first pass builds an SoA segment plan (sample-index runs plus
// hoisted per-segment constants: promotion level, rail transfer power under
// constant signal, DRX on/sleep levels). A second pass cuts the samples at
// fixed chunk boundaries and, in parallel, renders each chunk's part of the
// runs and then its measurement noise: one Rng stream in tick order, four
// words per tick, each chunk drawing from a copy of the caller's Rng taken
// at its first word, while the caller's Rng ends where a serial pass would
// have left it.
// Traces are bit-identical to the original per-tick evaluation; the
// per-table equivalence digests in tests/test_power_waveform_equiv.cpp pin
// that equivalence against the pre-batching implementation.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/rng.h"
#include "power/power_model.h"
#include "rrc/rrc_config.h"
#include "rrc/state_machine.h"

namespace wild5g::power {

/// A sampled power trace (what the Monsoon monitor records).
struct PowerTrace {
  double sample_rate_hz = 5000.0;
  std::vector<double> samples_mw;

  [[nodiscard]] double duration_s() const {
    return static_cast<double>(samples_mw.size()) / sample_rate_hz;
  }
  /// Integrated energy over the whole trace.
  [[nodiscard]] double energy_j() const;
  [[nodiscard]] double average_mw() const;
  /// Average power over [from_s, to_s).
  [[nodiscard]] double average_mw(double from_s, double to_s) const;
};

/// Synthesizes the radio power waveform for one network + device.
class WaveformSynthesizer {
 public:
  /// `rsrp_at(t_ms)` supplies the signal trajectory; pass nullptr for a
  /// constant good-signal campaign. Must be a pure function of t_ms that is
  /// safe to call concurrently: the renderer evaluates it only for samples
  /// whose power depends on signal (transfer segments), from pool threads,
  /// each chunk's samples in time order.
  using RsrpFn = std::function<double(double t_ms)>;

  WaveformSynthesizer(rrc::RrcProfile profile, DevicePowerProfile device,
                      double sample_rate_hz = 5000.0);

  /// Renders `timeline` (from rrc::build_timeline) into a power trace,
  /// advancing `rng` by exactly 4 words per sample at any thread count.
  /// The plan pass runs on the calling thread; the render-and-noise pass is
  /// a parallel_for (nested when called from inside a parallel region).
  [[nodiscard]] PowerTrace synthesize(
      std::span<const rrc::StateSegment> timeline, Rng& rng,
      const RsrpFn& rsrp_at = nullptr) const;

  [[nodiscard]] const rrc::RrcProfile& profile() const { return profile_; }

 private:
  rrc::RrcProfile profile_;
  DevicePowerProfile device_;
  RailKey rail_;
  double sample_rate_hz_;
};

/// `std::fmod(t, cycle)` computed as `fma(-floor(t / cycle), cycle, t)` with
/// one correction step: bit-equal to it for t >= 0, cycle > 0 and
/// t / cycle < 2^52, and cheaper. The DRX square wave's phase.
[[nodiscard]] double drx_remainder(double t, double cycle);

}  // namespace wild5g::power
