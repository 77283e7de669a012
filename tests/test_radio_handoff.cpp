// Tests for the A3-event handoff engine.
#include "radio/handoff.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/rng.h"

namespace wr = wild5g::radio;
using wild5g::Rng;

namespace {

std::vector<wr::CellSite> line_of_cells(int count, double spacing_m,
                                        wr::Band band) {
  std::vector<wr::CellSite> cells;
  for (int i = 0; i < count; ++i) {
    cells.push_back({i, spacing_m * static_cast<double>(i), band});
  }
  return cells;
}

/// Walks the UE from 0 to `end_m` at `speed` and returns the engine.
wr::A3HandoffEngine walk(wr::A3HandoffEngine engine, double end_m,
                         double speed_mps) {
  double pos = 0.0;
  while (pos < end_m) {
    pos += speed_mps * 0.1;
    engine.step(0.1, pos);
  }
  return engine;
}

}  // namespace

TEST(A3, StationaryUeNearCellCenterNeverHandsOff) {
  wr::HandoffConfig config;
  config.shadowing_sigma_db = 2.0;
  wr::A3HandoffEngine engine(line_of_cells(5, 1000.0, wr::Band::kLte),
                             config, Rng(1));
  for (int i = 0; i < 600; ++i) {
    engine.step(0.1, 0.0);  // parked at cell 0's site
  }
  EXPECT_EQ(engine.handoff_count(), 0);
  EXPECT_EQ(engine.serving_cell(), 0);
}

TEST(A3, DriveThroughCellsHandsOffAboutOncePerCell) {
  wr::HandoffConfig config;
  wr::A3HandoffEngine engine(line_of_cells(10, 800.0, wr::Band::kLte),
                             config, Rng(2));
  const auto done = walk(std::move(engine), 7600.0, 15.0);
  // 9 boundaries; shadowing can add or suppress a couple.
  EXPECT_GE(done.handoff_count(), 6);
  EXPECT_LE(done.handoff_count(), 16);
  EXPECT_GE(done.serving_cell(), 8);
}

TEST(A3, HigherHysteresisFewerHandoffs) {
  auto run = [](double hysteresis_db) {
    wr::HandoffConfig config;
    config.hysteresis_db = hysteresis_db;
    wr::A3HandoffEngine engine(line_of_cells(12, 600.0, wr::Band::kLte),
                               config, Rng(3));
    return walk(std::move(engine), 6600.0, 14.0).handoff_count();
  };
  EXPECT_GE(run(0.0), run(6.0));
}

TEST(A3, LongerTttSuppressesPingPong) {
  auto pingpongs = [](double ttt_ms) {
    wr::HandoffConfig config;
    config.hysteresis_db = 0.5;
    config.time_to_trigger_ms = ttt_ms;
    config.shadowing_sigma_db = 6.0;
    int total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      wr::A3HandoffEngine engine(line_of_cells(12, 600.0, wr::Band::kLte),
                                 config, Rng(seed));
      total += walk(std::move(engine), 6600.0, 14.0).pingpong_count();
    }
    return total;
  };
  EXPECT_GE(pingpongs(0.0), pingpongs(640.0));
}

TEST(A3, MmWaveCellsHandOffMuchMoreOften) {
  // Tiny mmWave footprints vs big low-band cells: same route, same engine.
  auto run = [](wr::Band band, double spacing) {
    wr::HandoffConfig config;
    wr::A3HandoffEngine engine(
        line_of_cells(static_cast<int>(6000.0 / spacing) + 2, spacing, band),
        config, Rng(4));
    return walk(std::move(engine), 6000.0, 14.0).handoff_count();
  };
  EXPECT_GT(run(wr::Band::kNrMmWave, 200.0),
            2 * run(wr::Band::kNrLowBand, 2500.0));
}

TEST(A3, RejectsEmptyCellList) {
  EXPECT_THROW(wr::A3HandoffEngine({}, {}, Rng(5)), wild5g::Error);
}

TEST(A3, StepRequiresPositiveDt) {
  wr::A3HandoffEngine engine(line_of_cells(2, 500.0, wr::Band::kLte), {},
                             Rng(6));
  EXPECT_THROW((void)engine.step(0.0, 0.0), wild5g::Error);
}

// --- boundary-condition regressions (semantics pinned in handoff.h) -------

namespace {

/// Shadowing-free config: every RSRP is pure geometry, so the boundary
/// cases below are exact, not probabilistic.
wr::HandoffConfig exact_config(double hysteresis_db, double ttt_ms) {
  wr::HandoffConfig config;
  config.hysteresis_db = hysteresis_db;
  config.time_to_trigger_ms = ttt_ms;
  config.shadowing_sigma_db = 0.0;
  return config;
}

}  // namespace

TEST(A3Boundary, SingleCellNeverHandsOff) {
  wr::A3HandoffEngine engine({{0, 0.0, wr::Band::kLte}},
                             exact_config(0.0, 0.0), Rng(1));
  for (int i = 0; i < 1000; ++i) {
    const auto result = engine.step(0.1, static_cast<double>(i) * 20.0);
    EXPECT_FALSE(result.handed_off);
  }
  EXPECT_EQ(engine.handoff_count(), 0);
  EXPECT_EQ(engine.serving_cell(), 0);
}

TEST(A3Boundary, ExactTieNeverEntersEvenAtZeroHysteresis) {
  // UE parked exactly midway: both cells are byte-identical in RSRP. The
  // entering condition is strict, so a tie must never start the timer —
  // at hysteresis 0 this is what keeps tied cells from flapping forever.
  wr::A3HandoffEngine engine(line_of_cells(2, 1000.0, wr::Band::kLte),
                             exact_config(0.0, 0.0), Rng(2));
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(engine.step(0.1, 500.0).handed_off);
  }
  EXPECT_EQ(engine.handoff_count(), 0);
}

TEST(A3Boundary, ExactlyHysteresisStrongerDoesNotEnter) {
  // Cells at 0 and 1100 m, UE at 1000 m: distances 1000 and 100, so the
  // RSRP gap is exactly pathloss_slope * (log10(1000) - log10(100)) =
  // 23.0 dB on LTE — representable exactly. A neighbor exactly
  // hysteresis_db stronger must NOT satisfy the strict A3 condition...
  const std::vector<wr::CellSite> cells = {{0, 0.0, wr::Band::kLte},
                                           {1, 1100.0, wr::Band::kLte}};
  wr::A3HandoffEngine at_threshold(cells, exact_config(23.0, 0.0), Rng(3));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(at_threshold.step(0.1, 1000.0).handed_off);
  }
  EXPECT_EQ(at_threshold.handoff_count(), 0);
  // ...while one hair under the gap hands off immediately at TTT 0.
  wr::A3HandoffEngine below(cells, exact_config(22.9, 0.0), Rng(3));
  EXPECT_TRUE(below.step(0.1, 1000.0).handed_off);
  EXPECT_EQ(below.serving_cell(), 1);
}

TEST(A3Boundary, TttFiresOnTheExactThresholdStep) {
  // Neighbor strictly stronger from step 1. dt = 0.125 s (exact in binary)
  // accumulates 125 ms of dwell per step after the observing step, so with
  // TTT = 375 ms the timer reads 0, 125, 250, 375: the handoff must fire
  // on step 4 exactly — TTT is inclusive (>=), and dwell accumulates per
  // step instead of subtracting absolute clocks.
  const std::vector<wr::CellSite> cells = {{0, 0.0, wr::Band::kLte},
                                           {1, 200.0, wr::Band::kLte}};
  wr::A3HandoffEngine engine(cells, exact_config(0.0, 375.0), Rng(4));
  EXPECT_FALSE(engine.step(0.125, 150.0).handed_off);  // observes, dwell 0
  EXPECT_FALSE(engine.step(0.125, 150.0).handed_off);  // 125 ms
  EXPECT_FALSE(engine.step(0.125, 150.0).handed_off);  // 250 ms
  EXPECT_TRUE(engine.step(0.125, 150.0).handed_off);   // 375 ms: fires
  EXPECT_EQ(engine.serving_cell(), 1);
  EXPECT_EQ(engine.handoff_count(), 1);
}

TEST(A3Boundary, ZeroTttFiresOnTheObservingStep) {
  const std::vector<wr::CellSite> cells = {{0, 0.0, wr::Band::kLte},
                                           {1, 200.0, wr::Band::kLte}};
  wr::A3HandoffEngine engine(cells, exact_config(0.0, 0.0), Rng(5));
  EXPECT_TRUE(engine.step(0.1, 150.0).handed_off);
}

TEST(A3Boundary, CandidateChangeRestartsTheTimer) {
  // Three cells; the strongest neighbor flips from 1 to 2 mid-dwell. The
  // timer must restart for the new candidate instead of inheriting the
  // old candidate's dwell.
  const std::vector<wr::CellSite> cells = {{0, 0.0, wr::Band::kLte},
                                           {1, 400.0, wr::Band::kLte},
                                           {2, 800.0, wr::Band::kLte}};
  wr::A3HandoffEngine engine(cells, exact_config(0.0, 200.0), Rng(6));
  EXPECT_FALSE(engine.step(0.1, 300.0).handed_off);  // observes cell 1
  EXPECT_FALSE(engine.step(0.1, 300.0).handed_off);  // dwell 100 ms
  // Jump next to cell 2: new candidate, dwell restarts at 0.
  EXPECT_FALSE(engine.step(0.1, 700.0).handed_off);  // observes cell 2
  EXPECT_FALSE(engine.step(0.1, 700.0).handed_off);  // dwell 100 ms
  EXPECT_TRUE(engine.step(0.1, 700.0).handed_off);   // dwell 200 ms: fires
  EXPECT_EQ(engine.serving_cell(), 2);
}

TEST(A3Boundary, TiedCandidatesResolveToLowestIndex) {
  // Neighbors 1 and 2 sit exactly 100 m from the UE (positions 900 and
  // 1100, UE at 1000): byte-identical RSRP. The strict best-neighbor scan
  // must keep the lowest index.
  const std::vector<wr::CellSite> cells = {{0, 0.0, wr::Band::kLte},
                                           {1, 900.0, wr::Band::kLte},
                                           {2, 1100.0, wr::Band::kLte}};
  wr::A3HandoffEngine engine(cells, exact_config(0.0, 0.0), Rng(7));
  EXPECT_TRUE(engine.step(0.1, 1000.0).handed_off);
  EXPECT_EQ(engine.serving_cell(), 1);
}

TEST(A3Boundary, InitialServingIsRespectedAndValidated) {
  const auto cells = line_of_cells(5, 1000.0, wr::Band::kLte);
  wr::A3HandoffEngine engine(cells, exact_config(3.0, 0.0), Rng(8), 3);
  EXPECT_EQ(engine.serving_cell(), 3);
  // Parked at its own site, a UE attached to cell 3 stays there.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(engine.step(0.1, 3000.0).handed_off);
  }
  EXPECT_THROW(wr::A3HandoffEngine(cells, exact_config(0.0, 0.0), Rng(9), 5),
               wild5g::Error);
  EXPECT_THROW(wr::A3HandoffEngine(cells, exact_config(0.0, 0.0), Rng(9), -1),
               wild5g::Error);
}

TEST(A3Boundary, EventsRecordCompletedHandoffsInOrder) {
  const std::vector<wr::CellSite> cells = {{0, 0.0, wr::Band::kLte},
                                           {1, 200.0, wr::Band::kLte}};
  wr::A3HandoffEngine engine(cells, exact_config(0.0, 0.0), Rng(10));
  (void)engine.step(0.1, 150.0);  // 0 -> 1
  (void)engine.step(0.1, 50.0);   // 1 -> 0
  ASSERT_EQ(engine.events().size(), 2u);
  EXPECT_EQ(engine.events()[0].from, 0);
  EXPECT_EQ(engine.events()[0].to, 1);
  EXPECT_EQ(engine.events()[1].from, 1);
  EXPECT_EQ(engine.events()[1].to, 0);
  EXPECT_LT(engine.events()[0].t_s, engine.events()[1].t_s);
  EXPECT_EQ(engine.pingpong_count(), 1);
}
