// Tests for the per-cell scheduler model (airtime allocation).
#include "radio/cell.h"

#include <gtest/gtest.h>

#include "core/error.h"

namespace wr = wild5g::radio;

namespace {

wr::CellScheduler make_cell(double background_load = 0.0) {
  return wr::CellScheduler({.background_load = background_load});
}

}  // namespace

TEST(CellScheduler, AirtimeSplitsEquallyAfterBackground) {
  const auto cell = make_cell(0.2);
  EXPECT_DOUBLE_EQ(cell.airtime_share(1), 0.8);
  EXPECT_DOUBLE_EQ(cell.airtime_share(4), 0.2);
  // Zero active UEs: the would-be share of the next arrival.
  EXPECT_DOUBLE_EQ(cell.airtime_share(0), 0.8);
  EXPECT_THROW((void)cell.airtime_share(-1), wild5g::Error);
}

TEST(CellScheduler, UtilizationSaturatesWithAnyActiveUe) {
  const auto idle = make_cell(0.3);
  EXPECT_DOUBLE_EQ(idle.utilization(0), 0.3);
  EXPECT_DOUBLE_EQ(idle.utilization(1), 1.0);
  EXPECT_DOUBLE_EQ(idle.utilization(100), 1.0);
  // Unloaded idle cell: exactly 0.0, the bit-identical-goldens anchor.
  EXPECT_EQ(make_cell(0.0).utilization(0), 0.0);
}

TEST(CellScheduler, SoloUnloadedUeMatchesLoadedLinkCapacity) {
  const auto cell = make_cell();
  const wr::NetworkConfig network{wr::Carrier::kVerizon, wr::Band::kLte,
                                  wr::DeploymentMode::kNsa};
  const auto ue = wr::pixel5();
  const double rsrp = -90.0;
  // One full-buffer UE saturates the cell, so it sees the whole loaded
  // capacity (utilization 1) — not the unloaded link_capacity_mbps.
  EXPECT_DOUBLE_EQ(
      cell.ue_throughput_mbps(network, ue, wr::Direction::kDownlink, rsrp, 1),
      wr::loaded_link_capacity_mbps(network, ue, wr::Direction::kDownlink,
                                    rsrp, 1.0));
}

TEST(CellScheduler, ThroughputMonotoneInSharersAndBackground) {
  const wr::NetworkConfig network{wr::Carrier::kVerizon, wr::Band::kLte,
                                  wr::DeploymentMode::kNsa};
  const auto ue = wr::pixel5();
  const double rsrp = -95.0;
  const auto cell = make_cell();
  double prev = 1e18;
  for (const int sharers : {1, 2, 10, 100}) {
    const double tput = cell.ue_throughput_mbps(
        network, ue, wr::Direction::kDownlink, rsrp, sharers);
    EXPECT_LT(tput, prev);
    prev = tput;
  }
  const double loaded =
      make_cell(0.5).ue_throughput_mbps(network, ue,
                                        wr::Direction::kDownlink, rsrp, 1);
  const double unloaded =
      cell.ue_throughput_mbps(network, ue, wr::Direction::kDownlink, rsrp, 1);
  EXPECT_LT(loaded, unloaded);
  EXPECT_THROW((void)cell.ue_throughput_mbps(
                   network, ue, wr::Direction::kDownlink, rsrp, 0),
               wild5g::Error);
}

TEST(CellScheduler, AirtimeSharesCoverTheNonBackgroundFrame) {
  // Equal round robin hands out the whole non-background frame, whatever
  // the number of sharers.
  for (const double background : {0.0, 0.25, 0.9}) {
    const auto cell = make_cell(background);
    for (const int sharers : {1, 2, 3, 7, 64}) {
      EXPECT_DOUBLE_EQ(sharers * cell.airtime_share(sharers),
                       1.0 - background)
          << "background " << background << ", sharers " << sharers;
    }
  }
}

TEST(CellScheduler, SharersSplitTheSoloThroughputEvenly) {
  // Any active UE saturates the cell, so the interference rise is the same
  // for every sharer count and only the airtime share divides the goodput.
  const wr::NetworkConfig network{wr::Carrier::kVerizon, wr::Band::kNrMidBand,
                                  wr::DeploymentMode::kNsa};
  const auto ue = wr::pixel5();
  const double rsrp = -85.0;
  const auto cell = make_cell(0.3);
  const double solo =
      cell.ue_throughput_mbps(network, ue, wr::Direction::kDownlink, rsrp, 1);
  EXPECT_GT(solo, 0.0);
  for (const int sharers : {2, 5, 40}) {
    EXPECT_DOUBLE_EQ(cell.ue_throughput_mbps(network, ue,
                                             wr::Direction::kDownlink, rsrp,
                                             sharers),
                     solo / sharers)
        << "sharers " << sharers;
  }
}

TEST(CellScheduler, RejectsInvalidConfig) {
  EXPECT_THROW(wr::CellScheduler({.background_load = 1.0}), wild5g::Error);
  EXPECT_THROW(wr::CellScheduler({.background_load = -0.1}), wild5g::Error);
}
