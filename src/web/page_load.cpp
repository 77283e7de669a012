#include "web/page_load.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "radio/channel.h"

namespace wild5g::web {

PageLoadConfig mmwave_page_config() {
  PageLoadConfig config;
  config.network = {radio::Carrier::kVerizon, radio::Band::kNrMmWave,
                    radio::DeploymentMode::kNsa};
  config.ue = radio::pixel5();
  config.rtt_ms = 26.0;
  config.rsrp_dbm = -80.0;
  return config;
}

PageLoadConfig lte_page_config() {
  PageLoadConfig config;
  config.network = {radio::Carrier::kVerizon, radio::Band::kLte,
                    radio::DeploymentMode::kNsa};
  config.ue = radio::pixel5();
  config.rtt_ms = 42.0;
  config.rsrp_dbm = -85.0;
  return config;
}

namespace {

constexpr double kInitialWindowKb = 14.6;  // 10 x 1460B segments
constexpr int kParallelConnections = 6;
constexpr double kDynamicThinkMs = 120.0;  // server generation per dyn object
constexpr double kParseRoundMs = 60.0;     // client parse/JS between rounds
constexpr double kObjectTimeoutS = 2.0;    // client's give-up deadline

/// Time to fetch one object of `size_kb` on a connection whose fair share
/// of the link is `share_mbps`: request RTT, slow-start ramp, bulk residual,
/// and server think time for dynamically generated content.
double object_fetch_s(double size_kb, bool dynamic,
                      const PageLoadConfig& config, double share_mbps,
                      Rng& rng) {
  const double rtt_s = config.rtt_ms / 1000.0;
  const double think_s =
      dynamic ? (kDynamicThinkMs / 1000.0) * rng.uniform(0.6, 1.6)
              : 0.0;
  const double ramp_rounds =
      std::min(6.0, std::ceil(std::log2(1.0 + size_kb / kInitialWindowKb)));
  const double ramp_s = 0.5 * ramp_rounds * rtt_s;  // pipelined overlap
  const double bulk_s = (size_kb * 8.0 / 1024.0) / std::max(1.0, share_mbps);
  return rtt_s + think_s + ramp_s + bulk_s;
}

}  // namespace

PageLoadResult load_page(const Website& site, const PageLoadConfig& config,
                         const power::DevicePowerProfile& device, Rng& rng) {
  require(site.object_count > 0, "load_page: empty website");

  // Fault-failure predicate for one object. Checked *before* any per-object
  // rng draws, and failed objects draw nothing — so with a null injector the
  // draw sequence is byte-identical to the pre-fault code path.
  auto fetch_fails = [&](std::size_t object_index, double t_s) {
    return config.faults != nullptr &&
           config.faults->object_fetch_fails(config.fault_salt, object_index,
                                             t_s);
  };

  const double capacity_mbps =
      radio::link_capacity_mbps(config.network, config.ue,
                                radio::Direction::kDownlink, config.rsrp_dbm) *
      rng.uniform(0.85, 1.0);
  const double share_mbps =
      capacity_mbps / static_cast<double>(kParallelConnections);
  const double rtt_s = config.rtt_ms / 1000.0;

  // Object sizes: lognormal split of the page, dynamic objects flagged by
  // the site's dynamic fraction.
  std::vector<double> sizes_kb(static_cast<std::size_t>(site.object_count));
  double raw_total = 0.0;
  for (auto& s : sizes_kb) {
    s = rng.lognormal(std::log(30.0), 1.2);
    raw_total += s;
  }
  const double scale = site.total_page_size_mb * 1024.0 / raw_total;
  for (auto& s : sizes_kb) s *= scale;

  // Dependency rounds: the root document, then discovered resources, then
  // script-injected content. Dynamic-heavy pages need more rounds.
  const int rounds = 2 + static_cast<int>(
                             std::round(3.0 * site.dynamic_object_fraction()));
  std::vector<std::vector<std::size_t>> round_objects(
      static_cast<std::size_t>(rounds));
  round_objects[0].push_back(0);  // root document
  for (std::size_t i = 1; i < sizes_kb.size(); ++i) {
    const auto round = static_cast<std::size_t>(
        rng.uniform_int(1, rounds - 1));
    round_objects[round].push_back(i);
  }

  const double setup_s = 2.5 * rtt_s;  // DNS + TCP + TLS
  double plt = setup_s;
  PageLoadResult result;

  auto record = [&](double from_s, double duration_s, double mbits) {
    // Spread the round's bits uniformly over its duration into 1 s buckets.
    if (duration_s <= 0.0 || mbits <= 0.0) return;
    const double rate = mbits / duration_s;
    double t = from_s;
    const double end = from_s + duration_s;
    while (t < end) {
      const double bucket_end = std::floor(t) + 1.0;
      const double slice = std::min(bucket_end, end) - t;
      const auto bucket = static_cast<std::size_t>(t);
      if (result.per_second_dl_mbps.size() <= bucket) {
        result.per_second_dl_mbps.resize(bucket + 1, 0.0);
      }
      result.per_second_dl_mbps[bucket] += rate * slice;
      t += slice;
    }
  };

  const double dyn_fraction = site.dynamic_object_fraction();
  for (std::size_t round = 0; round < round_objects.size(); ++round) {
    const auto& objects = round_objects[round];
    if (objects.empty()) continue;
    if (config.multiplexed) {
      // One warm stream: a single request round-trip, then the round's
      // bytes at (nearly) the full link share; dynamic think times overlap
      // on the server and only the slowest one gates the stream.
      double round_mbits = 0.0;
      double max_think_s = 0.0;
      for (auto index : objects) {
        if (fetch_fails(index, plt)) {
          // The failed stream transfers nothing; the client abandons it at
          // the timeout, which gates the round like the slowest think time.
          ++result.failed_objects;
          max_think_s = std::max(max_think_s, kObjectTimeoutS);
          continue;
        }
        round_mbits += sizes_kb[index] * 8.0 / 1024.0;
        if (rng.bernoulli(dyn_fraction)) {
          max_think_s = std::max(
              max_think_s, kDynamicThinkMs / 1000.0 *
                               rng.uniform(0.6, 1.6));
        }
      }
      const double round_s = rtt_s + max_think_s +
                             round_mbits / std::max(1.0, capacity_mbps * 0.85);
      record(plt, round_s, round_mbits);
      plt += round_s;
      if (round + 1 < round_objects.size()) {
        plt += kParseRoundMs / 1000.0;
      }
      continue;
    }
    // Greedy makespan over the connection pool: longest objects first.
    std::vector<double> durations;
    durations.reserve(objects.size());
    double round_mbits = 0.0;
    for (auto index : objects) {
      if (fetch_fails(index, plt)) {
        // Failed fetch: holds its connection slot until the client's
        // timeout, delivers no bytes, consumes no rng draws.
        ++result.failed_objects;
        durations.push_back(kObjectTimeoutS);
        continue;
      }
      const bool dynamic = rng.bernoulli(dyn_fraction);
      durations.push_back(
          object_fetch_s(sizes_kb[index], dynamic, config, share_mbps, rng));
      round_mbits += sizes_kb[index] * 8.0 / 1024.0;
    }
    std::sort(durations.rbegin(), durations.rend());
    std::vector<double> workers(
        static_cast<std::size_t>(kParallelConnections), 0.0);
    for (double d : durations) {
      auto slot = std::min_element(workers.begin(), workers.end());
      *slot += d;
    }
    const double round_s = *std::max_element(workers.begin(), workers.end());
    record(plt, round_s, round_mbits);
    plt += round_s;
    if (round + 1 < round_objects.size()) {
      plt += kParseRoundMs / 1000.0;  // parse/JS gap, radio idle
    }
  }
  result.plt_s = plt;

  // Radio energy across the load: rail power at each second's throughput
  // (the radio stays in CONNECTED for the whole load).
  const power::RailKey rail = power::rail_key(config.network);
  if (result.per_second_dl_mbps.size() <
      static_cast<std::size_t>(std::ceil(plt))) {
    result.per_second_dl_mbps.resize(
        static_cast<std::size_t>(std::ceil(plt)), 0.0);
  }
  for (std::size_t s = 0; s < result.per_second_dl_mbps.size(); ++s) {
    const double second_span =
        std::min(1.0, plt - static_cast<double>(s));
    if (second_span <= 0.0) break;
    const double dl = result.per_second_dl_mbps[s];
    result.energy_j += device.transfer_power_mw(rail, dl, dl * 0.05,
                                                config.rsrp_dbm) /
                       1000.0 * second_span;
  }
  return result;
}

}  // namespace wild5g::web
