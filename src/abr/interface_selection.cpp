#include "abr/interface_selection.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"

namespace wild5g::abr {

SwitchableSource::SwitchableSource(const traces::Trace& trace_5g,
                                   const traces::Trace& trace_4g)
    : trace_5g_(&trace_5g), trace_4g_(&trace_4g) {
  events_.push_back({0.0, Interface::k5g});
}

double SwitchableSource::mbps_at(double t_s) const {
  if (t_s < blackout_until_s_) return 0.0;  // mid-switch: no interface up
  return active_ == Interface::k5g ? trace_5g_->at(t_s) : trace_4g_->at(t_s);
}

void SwitchableSource::request_switch(Interface to, double now_s,
                                      double delay_s) {
  if (to == active_) return;
  active_ = to;
  blackout_until_s_ = now_s + std::max(0.0, delay_s);
  ++switch_count_;
  events_.push_back({now_s, to});
}

Interface SwitchableSource::interface_at(double t_s) const {
  Interface current = Interface::k5g;
  for (const auto& event : events_) {
    if (event.at_s <= t_s) current = event.to;
  }
  return current;
}

namespace {

constexpr double kBufferHighS = 10.0;      // buffer level to return to 5G
constexpr double kLowThresholdMbps = 20.0; // ~4G average throughput
constexpr double kSwitchDelayS = 1.5;      // interface switch blackout
/// Re-probe 5G after this long on 4G even if the buffer has not recovered
/// (4G can only sustain the lowest track, so waiting on the buffer alone
/// can strand the session on 4G after a transient 5G outage).
constexpr double kMax4gDwellS = 16.0;
// Energy accounting assumptions.
constexpr double kRsrp5gDbm = -80.0;
constexpr double kRsrp4gDbm = -85.0;
constexpr double kSwitchEnergyJ = 2.2;     // Table 2 switch power x delay

/// MPC wrapper implementing the switching policy at chunk boundaries.
class FiveGAwareMpc final : public AbrAlgorithm {
 public:
  FiveGAwareMpc(ModelPredictiveAbr& inner, SwitchableSource& source,
                const InterfaceSelectionConfig& config)
      : inner_(&inner), source_(&source), config_(&config) {}

  [[nodiscard]] std::string name() const override { return "5G-aware MPC"; }

  [[nodiscard]] int choose_track(const AbrContext& context) override {
    const double delay =
        config_->model_switch_overhead ? kSwitchDelayS : 0.0;
    if (source_->active() == Interface::k5g) {
      // Require two consecutive slow chunks: deep outages persist for tens
      // of seconds (they will show twice), while transient partial dips
      // recover before a switch could pay for its blackout.
      const auto& past = context.past_chunk_mbps;
      const bool two_low =
          past.size() >= 2 &&
          past[past.size() - 1] < kLowThresholdMbps &&
          past[past.size() - 2] < kLowThresholdMbps;
      if (two_low) {
        source_->request_switch(Interface::k4g, context.now_s, delay);
        on_4g_since_s_ = context.now_s;
      }
    } else if (context.buffer_s >= kBufferHighS ||
               context.now_s - on_4g_since_s_ >= kMax4gDwellS) {
      source_->request_switch(Interface::k5g, context.now_s, delay);
    }
    return inner_->choose_track(context);
  }

  void reset() override { inner_->reset(); }

 private:
  ModelPredictiveAbr* inner_;
  SwitchableSource* source_;
  const InterfaceSelectionConfig* config_;
  double on_4g_since_s_ = 0.0;
};

}  // namespace

double session_energy_j(const SessionResult& session,
                        const std::vector<Interface>& per_second_interface,
                        const power::DevicePowerProfile& device) {
  double energy_j = 0.0;
  for (std::size_t s = 0; s < session.per_second_dl_mbps.size(); ++s) {
    const Interface iface = per_second_interface.empty()
                                ? Interface::k5g
                                : per_second_interface[std::min(
                                      s, per_second_interface.size() - 1)];
    const bool on_5g = iface == Interface::k5g;
    const double dl = session.per_second_dl_mbps[s];
    const double power_mw = device.transfer_power_mw(
        on_5g ? power::RailKey::kNsaMmWave : power::RailKey::k4g, dl,
        dl * 0.03, on_5g ? kRsrp5gDbm : kRsrp4gDbm);
    energy_j += power_mw / 1000.0;
  }
  return energy_j;
}

InterfaceRunResult stream_5g_aware(const VideoProfile& video,
                                   const traces::Trace& trace_5g,
                                   const traces::Trace& trace_4g,
                                   const SessionOptions& options,
                                   const InterfaceSelectionConfig& config,
                                   const power::DevicePowerProfile& device) {
  SwitchableSource source(trace_5g, trace_4g);
  HarmonicMeanPredictor predictor;
  ModelPredictiveAbr mpc(ModelPredictiveAbr::Variant::kFast, predictor);
  FiveGAwareMpc aware(mpc, source, config);

  InterfaceRunResult result;
  result.session = stream(video, source, aware, options);
  result.switch_count = source.switch_count();

  const auto seconds = result.session.per_second_dl_mbps.size();
  result.per_second_interface.reserve(seconds);
  for (std::size_t s = 0; s < seconds; ++s) {
    result.per_second_interface.push_back(
        source.interface_at(static_cast<double>(s) + 0.5));
  }
  result.energy_j =
      session_energy_j(result.session, result.per_second_interface, device) +
      (config.model_switch_overhead ? kSwitchEnergyJ * result.switch_count
                                    : 0.0);
  return result;
}

InterfaceRunResult stream_5g_only(const VideoProfile& video,
                                  const traces::Trace& trace_5g,
                                  const SessionOptions& options,
                                  const power::DevicePowerProfile& device) {
  TraceSource source(trace_5g);
  HarmonicMeanPredictor predictor;
  ModelPredictiveAbr mpc(ModelPredictiveAbr::Variant::kFast, predictor);

  InterfaceRunResult result;
  result.session = stream(video, source, mpc, options);
  result.energy_j = session_energy_j(result.session, {}, device);
  return result;
}

}  // namespace wild5g::abr
