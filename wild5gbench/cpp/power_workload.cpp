// power_models: for each of the five Fig. 15 settings, a walking campaign
// and a controlled sweep, decision-tree power models fitted on them for the
// TH+SS, TH and SS feature sets, and a 1 kHz power waveform synthesized over
// an RRC timeline and read by the Monsoon and software monitors. The power
// waveforms and src/ml run nowhere else in the benchmark.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/stats.h"
#include "power/campaign.h"
#include "power/fitting.h"
#include "power/monitor.h"
#include "power/waveform.h"
#include "radio/ue.h"
#include "rrc/rrc_config.h"
#include "rrc/state_machine.h"
#include "workloads.h"

namespace wild5g::perf {
namespace {

constexpr double kWaveformRateHz = 1000.0;
/// The signal trajectory the waveform is rendered under: AR(1) shadowing
/// around a mean RSRP, sampled at 100 Hz.
constexpr double kRsrpPeriodMs = 10.0;
constexpr double kRsrpMeanDbm = -82.0;
constexpr double kRsrpSigmaDb = 6.0;
constexpr double kRsrpCorrelation = 0.995;
constexpr double kWaveformMs = 300000.0;
constexpr double kTinyWaveformMs = 30000.0;
constexpr double kTinyWalkS = 60.0;

constexpr power::FeatureSet kFeatureSets[] = {
    power::FeatureSet::kThroughputAndSignal,
    power::FeatureSet::kThroughputOnly, power::FeatureSet::kSignalOnly};

struct Setting {
  power::WalkingCampaignConfig walking;
  power::ControlledSweepConfig sweep;
  power::DevicePowerProfile device;
  std::vector<rrc::StateSegment> timeline;
  std::vector<double> rsrp_dbm;
  std::unique_ptr<power::WaveformSynthesizer> synthesizer;
};

std::vector<double> rsrp_trajectory(double horizon_ms, Rng rng) {
  const auto count = static_cast<std::size_t>(horizon_ms / kRsrpPeriodMs) + 1;
  const double innovation =
      kRsrpSigmaDb * std::sqrt(1.0 - kRsrpCorrelation * kRsrpCorrelation);
  std::vector<double> rsrp(count);
  double deviation = rng.normal(0.0, kRsrpSigmaDb);
  for (double& value : rsrp) {
    value = kRsrpMeanDbm + deviation;
    deviation = kRsrpCorrelation * deviation + rng.normal(0.0, innovation);
  }
  return rsrp;
}

struct SettingRun {
  double mape[3] = {0.0, 0.0, 0.0};
  double monitor_mape = 0.0;
  double energy_j = 0.0;
  double samples = 0.0;
  double ms = 0.0;
  // Phase times, filled when traced.
  double walking_ms = 0.0;
  double sweep_ms = 0.0;
  double fit_ms[3] = {0.0, 0.0, 0.0};
  double synthesize_ms = 0.0;
  double monitor_ms = 0.0;
};

bool in_range(const SettingRun& run) {
  for (const double mape : run.mape) {
    if (!std::isfinite(mape) || mape < 0.0) return false;
  }
  return std::isfinite(run.monitor_mape) && run.monitor_mape >= 0.0 &&
         std::isfinite(run.energy_j) && run.energy_j > 0.0 &&
         run.samples > 0.0;
}

/// Times `fn` into `*ms` when traced; the untraced path adds no clock read.
template <typename Fn>
auto phase(bool traced, double* ms, Fn&& fn) {
  if (!traced) return fn();
  const auto start = Clock::now();
  auto result = fn();
  *ms = 1e3 * seconds_between(start, Clock::now());
  return result;
}

class PowerWorkload final : public Workload {
 public:
  explicit PowerWorkload(const RunConfig& config) : config_(config) {}

  void setup() override {
    using radio::Band;
    using radio::Carrier;
    using radio::DeploymentMode;
    struct Spec {
      radio::NetworkConfig network;
      radio::UeProfile ue;
      power::DevicePowerProfile device;
      const char* rrc_profile;
    };
    const Spec specs[] = {
        {{Carrier::kVerizon, Band::kNrMmWave, DeploymentMode::kNsa},
         radio::galaxy_s10(), power::DevicePowerProfile::s10(),
         "Verizon NSA mmWave"},
        {{Carrier::kVerizon, Band::kNrMmWave, DeploymentMode::kNsa},
         radio::galaxy_s20u(), power::DevicePowerProfile::s20u(),
         "Verizon NSA mmWave"},
        {{Carrier::kVerizon, Band::kNrLowBand, DeploymentMode::kNsa},
         radio::galaxy_s20u(), power::DevicePowerProfile::s20u(),
         "Verizon NSA low-band (DSS)"},
        {{Carrier::kTMobile, Band::kNrLowBand, DeploymentMode::kNsa},
         radio::galaxy_s20u(), power::DevicePowerProfile::s20u(),
         "T-Mobile NSA low-band"},
        {{Carrier::kTMobile, Band::kNrLowBand, DeploymentMode::kSa},
         radio::galaxy_s20u(), power::DevicePowerProfile::s20u(),
         "T-Mobile SA low-band"},
    };
    const double horizon_ms = config_.tiny ? kTinyWaveformMs : kWaveformMs;
    // A bulk transfer burst every 16 s with a growing rate, as in Fig. 16.
    std::vector<rrc::ActivityBurst> bursts;
    for (double t = 2000.0; t < horizon_ms - 20000.0; t += 16000.0) {
      bursts.push_back({t, t + 6000.0, 300.0 + t / 2000.0, 10.0});
    }
    settings_.clear();
    const Rng root(config_.seed);
    for (const Spec& spec : specs) {
      Setting setting;
      setting.walking.network = spec.network;
      setting.walking.ue = spec.ue;
      if (config_.tiny) setting.walking.duration_s = kTinyWalkS;
      setting.sweep.network = spec.network;
      setting.sweep.ue = spec.ue;
      if (config_.tiny) setting.sweep.throughput_steps = 4;
      setting.device = spec.device;
      const auto& profile = rrc::profile_by_name(spec.rrc_profile);
      setting.timeline = rrc::build_timeline(profile.config, bursts,
                                             horizon_ms);
      setting.rsrp_dbm =
          rsrp_trajectory(horizon_ms, root.fork(5000 + settings_.size()));
      setting.synthesizer = std::make_unique<power::WaveformSynthesizer>(
          profile, spec.device, kWaveformRateHz);
      settings_.push_back(std::move(setting));
    }
  }

  [[nodiscard]] Round round(bool traced) override {
    auto runs = meter_.map(settings_.size(), [&](std::size_t i) {
      return run_setting(i, traced);
    });
    if (config_.corrupt && rounds_ == 0) runs[0].mape[0] = std::nan("");
    ++rounds_;

    Round round;
    Digest digest;
    for (const SettingRun& run : runs) {
      ++round.attempted;
      if (!in_range(run)) ++round.failed;
      for (const double mape : run.mape) digest.add(mape);
      digest.add(run.monitor_mape);
      digest.add(run.energy_j);
      round.work += 1.0;
      round.op_ms.push_back(run.ms);
      if (!traced) continue;
      walking_ms_.push_back(run.walking_ms);
      sweep_ms_.push_back(run.sweep_ms);
      fit_ms_.insert(fit_ms_.end(), std::begin(run.fit_ms),
                     std::end(run.fit_ms));
      synthesize_ms_.push_back(run.synthesize_ms);
      monitor_ms_.push_back(run.monitor_ms);
      samples_ += run.samples;
    }
    if (traced) ++traced_rounds_;
    round.digest = digest.value();
    return round;
  }

  void finish(bool traced, PassResult& pass) override {
    if (!traced || traced_rounds_ == 0) return;
    put(pass.layers, "power.walking_campaign_ms", median(walking_ms_), "ms");
    put(pass.layers, "power.controlled_sweep_ms", median(sweep_ms_), "ms");
    put(pass.layers, "ml.fit_ms_p50", median(fit_ms_), "ms");
    put(pass.layers, "power.synthesize_ms", median(synthesize_ms_), "ms");
    put(pass.layers, "power.monitor_ms", median(monitor_ms_), "ms");
    put(pass.layers, "power.waveform_samples", samples_ / traced_rounds_,
        "count");
    put(pass.layers, "core.parallel.idle_share", meter_.idle_share(),
        "ratio");
  }

 private:
  [[nodiscard]] SettingRun run_setting(std::size_t i, bool traced) const {
    const Setting& setting = settings_[i];
    const Rng root(config_.seed);
    SettingRun run;
    const auto start = Clock::now();

    auto samples = phase(traced, &run.walking_ms, [&] {
      Rng rng = root.fork(i);
      return power::run_walking_campaign(setting.walking, setting.device, rng);
    });
    const auto sweep = phase(traced, &run.sweep_ms, [&] {
      Rng rng = root.fork(100 + i);
      return power::run_controlled_sweep(setting.sweep, setting.device, rng);
    });
    // The paper's models train on walking and controlled data together.
    samples.insert(samples.end(), sweep.begin(), sweep.end());
    for (int f = 0; f < 3; ++f) {
      run.mape[f] = phase(traced, &run.fit_ms[f], [&] {
        power::PowerModelFit fit(kFeatureSets[f]);
        Rng rng = root.fork(1000 + i);
        fit.fit(samples, rng);
        return fit.test_mape_percent();
      });
    }
    const auto waveform = phase(traced, &run.synthesize_ms, [&] {
      Rng rng = root.fork(2000 + i);
      const auto& rsrp = setting.rsrp_dbm;
      return setting.synthesizer->synthesize(
          setting.timeline, rng, [&rsrp](double t_ms) {
            const auto index = static_cast<std::size_t>(t_ms / kRsrpPeriodMs);
            return rsrp[std::min(index, rsrp.size() - 1)];
          });
    });
    run.monitor_mape = phase(traced, &run.monitor_ms, [&] {
      const auto hardware = power::MonsoonMonitor::per_second_mw(waveform);
      const power::SoftwareMonitor software(
          power::default_software_monitor(10.0));
      Rng rng = root.fork(3000 + i);
      auto readings = software.per_second_mw(waveform, rng);
      readings.resize(hardware.size());
      return stats::mape_percent(hardware, readings);
    });
    run.energy_j = waveform.energy_j();
    run.samples = static_cast<double>(waveform.samples_mw.size());
    run.ms = 1e3 * seconds_between(start, Clock::now());
    return run;
  }

  RunConfig config_;
  std::vector<Setting> settings_;
  ParallelMeter meter_;
  int rounds_ = 0;
  int traced_rounds_ = 0;
  std::vector<double> walking_ms_;
  std::vector<double> sweep_ms_;
  std::vector<double> fit_ms_;
  std::vector<double> synthesize_ms_;
  std::vector<double> monitor_ms_;
  double samples_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_power_workload(const RunConfig& config) {
  return std::make_unique<PowerWorkload>(config);
}

}  // namespace wild5g::perf
