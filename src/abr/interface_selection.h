// wild5g/abr: 5G-aware video streaming (Sec. 5.4).
//
// The scheme: stream over mmWave 5G by default; when the predicted 5G
// throughput drops below 4G's typical rate, fall back to the (stable) 4G
// interface; return to 5G once the playback buffer recovers past a
// threshold. Interface switches pay the 4G<->5G switch delay (Sec. 4.2)
// unless the no-overhead idealization is requested. Energy is scored with
// the device power rails, reproducing Fig. 18c and Table 4.
#pragma once

#include <string>
#include <vector>

#include "abr/algorithms.h"
#include "abr/session.h"
#include "power/power_model.h"

namespace wild5g::abr {

enum class Interface { k5g, k4g };

struct InterfaceSelectionConfig {
  /// Charge each interface switch its blackout and energy (false = the
  /// no-overhead idealization).
  bool model_switch_overhead = true;
};

/// Bandwidth source that can be retargeted between a 5G and a 4G trace,
/// with a blackout window during switches. Records switch events so the
/// active interface at any time can be reconstructed for energy accounting.
class SwitchableSource final : public BandwidthSource {
 public:
  SwitchableSource(const traces::Trace& trace_5g,
                   const traces::Trace& trace_4g);

  [[nodiscard]] double mbps_at(double t_s) const override;

  void request_switch(Interface to, double now_s, double delay_s);
  [[nodiscard]] Interface active() const { return active_; }
  [[nodiscard]] int switch_count() const { return switch_count_; }
  /// Interface in effect at time t (destination during a blackout).
  [[nodiscard]] Interface interface_at(double t_s) const;

 private:
  struct SwitchEvent {
    double at_s;
    Interface to;
  };
  const traces::Trace* trace_5g_;
  const traces::Trace* trace_4g_;
  Interface active_ = Interface::k5g;
  double blackout_until_s_ = 0.0;
  int switch_count_ = 0;
  std::vector<SwitchEvent> events_;
};

struct InterfaceRunResult {
  SessionResult session;
  int switch_count = 0;
  std::vector<Interface> per_second_interface;
  double energy_j = 0.0;
};

/// Streams one video with the 5G-aware MPC over the trace pair.
[[nodiscard]] InterfaceRunResult stream_5g_aware(
    const VideoProfile& video, const traces::Trace& trace_5g,
    const traces::Trace& trace_4g, const SessionOptions& options,
    const InterfaceSelectionConfig& config,
    const power::DevicePowerProfile& device);

/// Baseline: plain fastMPC pinned to the 5G interface, scored with the same
/// energy model.
[[nodiscard]] InterfaceRunResult stream_5g_only(
    const VideoProfile& video, const traces::Trace& trace_5g,
    const SessionOptions& options, const power::DevicePowerProfile& device);

/// Radio energy of a finished session given the interface in effect each
/// second (all-5G when `per_second_interface` is empty).
[[nodiscard]] double session_energy_j(
    const SessionResult& session,
    const std::vector<Interface>& per_second_interface,
    const power::DevicePowerProfile& device);

}  // namespace wild5g::abr
