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
// constant signal, DRX on/sleep levels), a second pass renders each run,
// and a third pass applies measurement noise: one Rng stream in tick order,
// four words per tick, cut at fixed chunk boundaries so the chunks render
// in parallel (each from a copy of the caller's Rng taken at its first
// word) while the caller's Rng ends where the serial pass left it.
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
  /// constant good-signal campaign. Must be a pure function of t_ms: the
  /// batched renderer only evaluates it for samples whose power depends on
  /// signal (transfer segments), in time order within each segment.
  using RsrpFn = std::function<double(double t_ms)>;

  WaveformSynthesizer(rrc::RrcProfile profile, DevicePowerProfile device,
                      double sample_rate_hz = 5000.0);

  /// Renders `timeline` (from rrc::build_timeline) into a power trace,
  /// advancing `rng` by exactly 4 words per sample at any thread count.
  /// Passes 1-2 run on the calling thread; the noise pass is a
  /// parallel_for (nested when called from inside a parallel region).
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

}  // namespace wild5g::power
