#include "net/speedtest.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "core/parallel.h"
#include "core/quantile_sketch.h"
#include "core/stats.h"

namespace wild5g::net {

namespace {
// Effective RTT per km of geodesic distance: ~5 us/km/direction in fiber
// times a 3.4x route-inflation factor (calibrated to the Fig. 1 city map).
constexpr double kRttPerKm = 0.034;
constexpr double kSessionRsrpStddevDb = 2.5;  // around session_rsrp_mean_dbm
constexpr double kRetryBackoffS = 1.0;
/// Spacing between the start times of successive peak_of trials; gives each
/// trial a distinct position on the fault timeline.
constexpr double kTrialSpacingS = 20.0;
}  // namespace

double path_rtt_ms(const radio::NetworkConfig& config, double distance_km) {
  require(distance_km >= 0.0, "path_rtt_ms: negative distance");
  return radio::access_latency_ms(config) + kRttPerKm * distance_km;
}

double loss_event_rate_per_s(double rtt_ms) {
  require(rtt_ms >= 0.0, "loss_event_rate_per_s: negative rtt");
  return 0.01 + 0.0008 * rtt_ms;
}

double loss_per_packet(double rtt_ms) {
  require(rtt_ms >= 0.0, "loss_per_packet: negative rtt");
  return 4e-8 * rtt_ms;
}

std::vector<SpeedtestServer> carrier_server_pool() {
  std::vector<SpeedtestServer> servers;
  for (const auto& city : geo::metro_cities()) {
    servers.push_back({.name = city.name,
                       .location = city.point,
                       .carrier_hosted = true});
  }
  return servers;
}

std::vector<SpeedtestServer> minnesota_server_pool() {
  // The 37 in-state servers of Fig. 24 for a Minneapolis UE. Distances are
  // encoded as coordinates near the named towns; caps reflect the figure's
  // observed bounds (25-28 port-limited to ~2 Gbps, 29-33 to ~1 Gbps,
  // 34-37 below that).
  const geo::GeoPoint msp{44.9778, -93.2650};
  auto near = [&](double km_east, double km_north) {
    // Small-offset placement: 1 deg lat ~ 111 km, 1 deg lon ~ 79 km here.
    return geo::GeoPoint{msp.lat_deg + km_north / 111.0,
                         msp.lon_deg + km_east / 79.0};
  };
  std::vector<SpeedtestServer> servers = {
      {"Verizon, Minneapolis", near(3, 1), true, 0.0, 0.0},
      {"Hennepin H.., Minneapolis", near(5, 3), false, 0.0, 0.6},
      {"Sprint, St. Paul", near(15, 2), false, 0.0, 0.6},
      {"Carleton C.., Northfield", near(20, -60), false, 0.0, 0.8},
      {"CenturyLin.., St. Paul", near(16, 0), false, 0.0, 0.7},
      {"Midco, Cambridge", near(20, 70), false, 0.0, 0.8},
      {"NetINS pow.., Minneapolis", near(4, -2), false, 0.0, 0.6},
      {"Fibernet M.., Monticello", near(-55, 35), false, 0.0, 0.9},
      {"US Interne.., Minneapolis", near(6, -4), false, 0.0, 0.7},
      {"Paul Bunya.., Minneapolis", near(2, 5), false, 0.0, 0.7},
      {"Metronet, Rochester", near(90, -110), false, 0.0, 1.0},
      {"Gigabit Mi.., Rosemount", near(18, -25), false, 0.0, 0.8},
      {"Arvig, Perham", near(-200, 180), false, 0.0, 1.2},
      {"West Centr.., Sebeka", near(-160, 190), false, 0.0, 1.2},
      {"Spectrum, St Cloud", near(-90, 90), false, 0.0, 1.0},
      {"CTC, Brainerd", near(-60, 180), false, 0.0, 1.1},
      {"Hiawatha B.., Winona", near(150, -120), false, 0.0, 1.2},
      {"CenturyLin.., Rochester", near(92, -112), false, 0.0, 1.0},
      {"Midco, Bemidji", near(-180, 320), false, 0.0, 1.4},
      {"Midco, Fairmont", near(-90, -180), false, 0.0, 1.3},
      {"Midco, St. Joseph", near(-100, 95), false, 0.0, 1.1},
      {"Paul Bunya.., Bemidji", near(-182, 322), false, 0.0, 1.4},
      {"702 Commun.., Moorhead", near(-320, 280), false, 0.0, 1.5},
      {"fdcservers.., Minneapolis", near(7, 2), false, 2600.0, 0.7},
      {"Vibrant Br.., Litchfield", near(-95, 20), false, 2000.0, 1.0},
      {"Midco, International..", near(-120, 420), false, 2000.0, 1.6},
      {"Gustavus A.., Saint Peter", near(-60, -90), false, 2000.0, 1.0},
      {"AcenTek-Sp.., Houston", near(170, -150), false, 2000.0, 1.3},
      {"RadioLink.., Ellendale", near(40, -110), false, 1000.0, 1.0},
      {"Albany Mut.., Albany", near(-120, 100), false, 1000.0, 1.1},
      {"Paul Bunya.., Duluth", near(150, 220), false, 1000.0, 1.3},
      {"Stellar As.., Brandon", near(-210, 120), false, 1000.0, 1.3},
      {"Nuvera, New Ulm", near(-120, -70), false, 1000.0, 1.1},
      {"Halstad Te.., Halstad", near(-330, 330), false, 950.0, 1.6},
      {"vRad, Eden Prairi..", near(-12, -12), false, 900.0, 0.7},
      {"Northeast.., Mountain Ir..", near(120, 280), false, 800.0, 1.4},
      {"Midco, Ely", near(170, 320), false, 700.0, 1.5},
  };
  return servers;
}

SpeedtestHarness::SpeedtestHarness(SpeedtestConfig config)
    : config_(std::move(config)) {}

SpeedtestResult SpeedtestHarness::run_at(const SpeedtestServer& server,
                                         ConnectionMode mode, Rng& rng,
                                         double start_s) const {
  const faults::Injector* faults = config_.faults;
  SpeedtestResult result;

  // Connection phase. Under a server_unreachable window the harness retries
  // with *deterministic* exponential backoff (no rng draw), so the retry
  // machinery cannot perturb the measurement draw stream; when the retry
  // budget is exhausted the trial degrades to a failed partial result
  // instead of throwing.
  double t = start_s;
  if (faults != nullptr) {
    double backoff_s = kRetryBackoffS;
    int attempts_left = kMaxRetries;
    while (faults->server_unreachable_at(t)) {
      ++result.errors;
      if (attempts_left-- <= 0) {
        result.failed = true;
        return result;
      }
      t += backoff_s;
      backoff_s *= 2.0;
    }
  }

  const double distance_km =
      geo::haversine_km(config_.ue_location, server.location);
  // NR->LTE outage: the session camps on the LTE fallback service for
  // capacity and access latency alike.
  radio::NetworkConfig network = config_.network;
  if (faults != nullptr && faults->nr_fallback_at(t)) {
    network.band = radio::Band::kLte;
  }
  const double base_rtt =
      path_rtt_ms(network, distance_km) + server.hosting_penalty_ms;

  // Latency phase: several pings, report the mean with jitter.
  result.rtt_ms = base_rtt + std::abs(rng.normal(0.0, 1.2));
  if (faults != nullptr) result.rtt_ms += faults->extra_rtt_ms_at(t);

  // Session signal draw (stationary, LoS to the panel), minus any mmWave
  // blockage attenuation active at connect time.
  double rsrp = rng.normal(config_.session_rsrp_mean_dbm,
                           kSessionRsrpStddevDb);
  if (faults != nullptr) rsrp -= faults->rsrp_penalty_db_at(t);

  // Fractions of the measurement window lost to dead air / server stalls;
  // goodput scales down by the lost share (throughput is zero during a
  // full-window outage).
  double degrade = 1.0;
  if (faults != nullptr) {
    const double end_s = t + config_.test_duration_s;
    degrade *= 1.0 - faults->outage_fraction(t, end_s);
    degrade *= 1.0 - faults->server_stall_fraction(t, end_s);
  }

  auto run_direction = [&](radio::Direction direction) {
    double radio_cap =
        radio::link_capacity_mbps(network, config_.ue, direction, rsrp);
    // Session-level capacity wobble: scheduler share, cross traffic.
    radio_cap *= rng.uniform(0.92, 1.0);
    transport::PathConfig path;
    path.rtt_ms = result.rtt_ms;
    path.capacity_mbps = server.port_cap_mbps > 0.0
                             ? std::min(radio_cap, server.port_cap_mbps)
                             : radio_cap;
    if (!server.carrier_hosted) path.capacity_mbps *= 0.93;  // transit hops
    path.loss_event_rate_per_s = loss_event_rate_per_s(path.rtt_ms);
    path.loss_per_packet = loss_per_packet(path.rtt_ms);
    if (faults != nullptr) {
      path.loss_event_rate_per_s += faults->extra_loss_events_per_s_at(t);
    }

    // Speedtest servers run with large, tuned send buffers.
    transport::TcpOptions options = transport::tuned_tcp_options();
    const int conns = mode == ConnectionMode::kMultiple
                          ? static_cast<int>(rng.uniform_int(15, 25))
                          : 1;
    return transport::simulate_tcp(conns, path, options,
                                   config_.test_duration_s, rng)
               .aggregate_goodput_mbps *
           degrade;
  };
  result.downlink_mbps = run_direction(radio::Direction::kDownlink);
  result.uplink_mbps = run_direction(radio::Direction::kUplink);
  return result;
}

SpeedtestResult SpeedtestHarness::peak_of(const SpeedtestServer& server,
                                          ConnectionMode mode, int repeats,
                                          Rng& rng) const {
  require(repeats > 0, "SpeedtestHarness::peak_of: repeats must be positive");
  // Independent repeats run in parallel. Each trial's Rng is forked up
  // front from one split of the caller's stream, so trial i's draws depend
  // only on (parent state, i) — never on thread count or completion order.
  Rng base = rng.split();
  const auto trials = parallel::parallel_map(
      static_cast<std::size_t>(repeats), [&](std::size_t i) {
        Rng trial_rng = base.fork(i);
        // Trial i sits at its own spot on the fault timeline, so a sweep
        // of trials samples fault windows the way repeated real-world
        // sessions would (ignored when no injector is configured).
        return run_at(server, mode, trial_rng,
                      static_cast<double>(i) * kTrialSpacingS);
      });
  // Index-ordered reduction on the caller's thread. Failed trials
  // contribute their error counts but not their (zeroed) metrics.
  stats::SampleAccumulator dl;
  stats::SampleAccumulator ul;
  stats::SampleAccumulator rtt;
  int errors = 0;
  for (const auto& r : trials) {
    errors += r.errors;
    if (r.failed) continue;
    dl.add(r.downlink_mbps);
    ul.add(r.uplink_mbps);
    rtt.add(r.rtt_ms);
  }
  if (dl.empty()) {
    // Every trial failed: degrade to an explicit empty result.
    return {0.0, 0.0, 0.0, errors, true};
  }
  return {dl.percentile(95.0), ul.percentile(95.0), rtt.percentile(5.0),
          errors, false};
}

}  // namespace wild5g::net
