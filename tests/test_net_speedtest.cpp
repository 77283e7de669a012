// Tests for the speedtest harness and server catalogs (Sec. 3).
#include "net/speedtest.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/rng.h"
#include "geo/geo.h"
#include "radio/ue.h"

namespace wn = wild5g::net;
namespace wr = wild5g::radio;
using wild5g::Rng;

namespace {

wn::SpeedtestConfig mmwave_config() {
  wn::SpeedtestConfig config;
  config.network = {wr::Carrier::kVerizon, wr::Band::kNrMmWave,
                    wr::DeploymentMode::kNsa};
  config.ue = wr::galaxy_s20u();
  config.ue_location = wild5g::geo::minneapolis().point;
  return config;
}

wn::SpeedtestServer local_server() {
  return {.name = "Verizon, Minneapolis",
          .location = {44.98, -93.26},
          .carrier_hosted = true};
}

}  // namespace

TEST(RttModel, GrowsLinearlyWithDistance) {
  const wr::NetworkConfig mm{wr::Carrier::kVerizon, wr::Band::kNrMmWave,
                             wr::DeploymentMode::kNsa};
  const double at0 = wn::path_rtt_ms(mm, 0.0);
  const double at1000 = wn::path_rtt_ms(mm, 1000.0);
  EXPECT_NEAR(at0, 5.6, 0.5);         // access latency only
  EXPECT_NEAR(at1000 - at0, 34.0, 1.0);  // 0.034 ms/km inflation
}

TEST(RttModel, MinimumRttNearPaperFloor) {
  // Paper: lowest observed RTT ~6 ms with a server ~3 km away.
  const wr::NetworkConfig mm{wr::Carrier::kVerizon, wr::Band::kNrMmWave,
                             wr::DeploymentMode::kNsa};
  EXPECT_NEAR(wn::path_rtt_ms(mm, 3.0), 6.0, 1.0);
}

TEST(RttModel, LossRateGrowsWithRtt) {
  EXPECT_LT(wn::loss_event_rate_per_s(10.0), wn::loss_event_rate_per_s(90.0));
}

TEST(Catalog, CarrierPoolCoversMetros) {
  const auto pool = wn::carrier_server_pool();
  EXPECT_GE(pool.size(), 25u);
  for (const auto& server : pool) {
    EXPECT_TRUE(server.carrier_hosted);
    EXPECT_EQ(server.port_cap_mbps, 0.0);
  }
}

TEST(Catalog, MinnesotaPoolMatchesFig24Structure) {
  const auto pool = wn::minnesota_server_pool();
  ASSERT_EQ(pool.size(), 37u);
  EXPECT_TRUE(pool.front().carrier_hosted);  // Verizon's own server first
  // Servers 25-28 (1-based) capped at ~2 Gbps; 29-33 at ~1 Gbps.
  for (std::size_t i = 24; i < 28; ++i) {
    EXPECT_NEAR(pool[i].port_cap_mbps, 2000.0, 1.0) << i;
  }
  for (std::size_t i = 28; i < 33; ++i) {
    EXPECT_NEAR(pool[i].port_cap_mbps, 1000.0, 1.0) << i;
  }
}

TEST(Harness, MultiConnReachesMultiGbpsNearServer) {
  // Fig. 3: with multiple connections, S20U exceeds 3 Gbps near the server.
  wn::SpeedtestHarness harness(mmwave_config());
  Rng rng(1);
  const auto result = harness.peak_of(local_server(),
                                      wn::ConnectionMode::kMultiple, 5, rng);
  EXPECT_GT(result.downlink_mbps, 2700.0);
  EXPECT_GT(result.uplink_mbps, 150.0);
  EXPECT_LT(result.rtt_ms, 9.0);
}

TEST(Harness, SingleConnDecaysWithDistance) {
  wn::SpeedtestHarness harness(mmwave_config());
  wn::SpeedtestServer far = local_server();
  far.name = "Verizon, Los Angeles";
  far.location = {34.0522, -118.2437};
  Rng rng(2);
  const auto near_result = harness.peak_of(
      local_server(), wn::ConnectionMode::kSingle, 5, rng);
  const auto far_result =
      harness.peak_of(far, wn::ConnectionMode::kSingle, 5, rng);
  EXPECT_GT(near_result.downlink_mbps, 1.4 * far_result.downlink_mbps);
  EXPECT_GT(far_result.rtt_ms, 50.0);
}

TEST(Harness, MultiConnFlatAcrossDistance) {
  // Fig. 3's headline: multi-connection throughput is roughly constant with
  // distance.
  wn::SpeedtestHarness harness(mmwave_config());
  wn::SpeedtestServer far = local_server();
  far.name = "Verizon, Seattle";
  far.location = {47.6062, -122.3321};
  Rng rng(3);
  const auto near_result = harness.peak_of(
      local_server(), wn::ConnectionMode::kMultiple, 5, rng);
  const auto far_result =
      harness.peak_of(far, wn::ConnectionMode::kMultiple, 5, rng);
  EXPECT_GT(far_result.downlink_mbps, 0.8 * near_result.downlink_mbps);
}

TEST(Harness, PortCapBindsThroughput) {
  wn::SpeedtestHarness harness(mmwave_config());
  wn::SpeedtestServer capped = local_server();
  capped.carrier_hosted = false;
  capped.port_cap_mbps = 1000.0;
  Rng rng(4);
  const auto result =
      harness.peak_of(capped, wn::ConnectionMode::kMultiple, 5, rng);
  EXPECT_LT(result.downlink_mbps, 1000.0);
  EXPECT_GT(result.downlink_mbps, 800.0);
}

TEST(Harness, SaLowBandRoughlyHalfOfNsa) {
  auto config = mmwave_config();
  config.network = {wr::Carrier::kTMobile, wr::Band::kNrLowBand,
                    wr::DeploymentMode::kNsa};
  config.session_rsrp_mean_dbm = -85.0;
  wn::SpeedtestHarness nsa(config);
  config.network.mode = wr::DeploymentMode::kSa;
  wn::SpeedtestHarness sa(config);
  Rng rng(5);
  const auto r_nsa =
      nsa.peak_of(local_server(), wn::ConnectionMode::kMultiple, 5, rng);
  const auto r_sa =
      sa.peak_of(local_server(), wn::ConnectionMode::kMultiple, 5, rng);
  EXPECT_GT(r_sa.downlink_mbps, 0.3 * r_nsa.downlink_mbps);
  EXPECT_LT(r_sa.downlink_mbps, 0.65 * r_nsa.downlink_mbps);
}

TEST(Harness, DeterministicInSeed) {
  wn::SpeedtestHarness harness(mmwave_config());
  Rng a(6);
  Rng b(6);
  const auto ra =
      harness.run_at(local_server(), wn::ConnectionMode::kSingle, a, 0.0);
  const auto rb =
      harness.run_at(local_server(), wn::ConnectionMode::kSingle, b, 0.0);
  EXPECT_DOUBLE_EQ(ra.downlink_mbps, rb.downlink_mbps);
}

TEST(Harness, PeakOfRejectsZeroRepeats) {
  wn::SpeedtestHarness harness(mmwave_config());
  Rng rng(7);
  EXPECT_THROW((void)harness.peak_of(local_server(),
                                     wn::ConnectionMode::kSingle, 0, rng),
               wild5g::Error);
}
