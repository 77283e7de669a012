#include "faults/injector.h"

#include <algorithm>
#include <utility>

namespace wild5g::faults {

namespace {

/// SplitMix64 finalizer, the same mixing discipline Rng::fork uses, so the
/// injector's decision streams are uncorrelated with harness streams that
/// share the campaign seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + b * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Injector::Injector(FaultPlan plan, std::uint64_t campaign_seed)
    : plan_(std::move(plan)), root_(mix(campaign_seed, plan_.seed_salt)) {
  plan_.validate();
}

double Injector::rsrp_penalty_db_at(double t_s) const {
  double penalty = 0.0;
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kMmwaveBlockage && w.covers(t_s)) {
      penalty += w.magnitude;
    }
  }
  return penalty;
}

bool Injector::nr_fallback_at(double t_s) const {
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kNrToLteOutage && w.covers(t_s)) return true;
  }
  return false;
}

bool Injector::radio_outage_at(double t_s) const {
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kRadioOutage && w.covers(t_s)) return true;
  }
  return false;
}

double Injector::outage_fraction(double a_s, double b_s) const {
  if (b_s <= a_s) return 0.0;
  double covered = 0.0;
  // Same-kind windows never overlap (FaultPlan::validate), so overlaps sum.
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kRadioOutage) covered += w.overlap_s(a_s, b_s);
  }
  return std::min(1.0, covered / (b_s - a_s));
}

double Injector::extra_loss_events_per_s_at(double t_s) const {
  double extra = 0.0;
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kLossBurst && w.covers(t_s)) extra += w.magnitude;
  }
  return extra;
}

double Injector::extra_rtt_ms_at(double t_s) const {
  double extra = 0.0;
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kLatencySpike && w.covers(t_s)) {
      extra += w.magnitude;
    }
  }
  return extra;
}

bool Injector::server_unreachable_at(double t_s) const {
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kServerUnreachable && w.covers(t_s)) return true;
  }
  return false;
}

double Injector::server_stall_fraction(double a_s, double b_s) const {
  if (b_s <= a_s) return 0.0;
  double stalled = 0.0;
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kServerStall) {
      stalled += w.magnitude * w.overlap_s(a_s, b_s);
    }
  }
  return std::min(1.0, stalled / (b_s - a_s));
}

double Injector::bandwidth_scale_at(double t_s) const {
  double scale = 1.0;
  for (const auto& w : plan_.windows) {
    if (!w.covers(t_s)) continue;
    switch (w.kind) {
      case FaultKind::kRadioOutage:
        return 0.0;
      case FaultKind::kChunkStall:
        scale *= 1.0 - w.magnitude;
        break;
      case FaultKind::kNrToLteOutage:
        scale *= w.magnitude;
        break;
      default:
        break;
    }
  }
  return scale;
}

bool Injector::object_fetch_fails(std::uint64_t salt,
                                  std::uint64_t object_index,
                                  double t_s) const {
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kObjectFail && w.covers(t_s)) {
      if (decision(mix(salt, 0x0b1ec7ull), object_index, w.magnitude)) {
        return true;
      }
    }
  }
  return false;
}

bool Injector::corrupt_record(std::uint64_t index) const {
  const auto t = static_cast<double>(index);
  for (const auto& w : plan_.windows) {
    if (w.kind == FaultKind::kTraceCorrupt && w.covers(t)) {
      if (decision(0x72ace5ull, index, w.magnitude)) return true;
    }
  }
  return false;
}

bool Injector::decision(std::uint64_t salt, std::uint64_t index,
                        double probability) const {
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  Rng stream = root_.fork(mix(salt, index));
  return stream.bernoulli(probability);
}

}  // namespace wild5g::faults
