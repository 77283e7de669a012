// Tests for the sharded multi-UE metro campaign driver: the determinism
// contract (byte-identical at any thread count), the contention physics
// (per-user throughput monotone in load and sharers), co-moving handoff
// storms, the sketch-bounded memory budget, and the fault surface.
//
// Suite names carry "Metro" so the CI TSan job's regex picks the parallel
// campaigns up alongside the Parallel/GoldenDeterminism suites.
#include "metro/metro.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/parallel.h"

namespace wm = wild5g::metro;
namespace wf = wild5g::faults;
using wild5g::Rng;

namespace {

/// Small-but-real campaign: 10 cells x 100 UEs = 1000 UEs, 40 steps.
wm::MetroConfig small_campaign() {
  wm::MetroConfig config;
  config.cells = 10;
  config.ues_per_cell = 100;
  config.duration_s = 20.0;
  return config;
}

/// Runs `config` at a forced thread count, restoring auto afterwards.
wm::MetroResult run_at(const wm::MetroConfig& config, std::size_t threads) {
  wild5g::parallel::set_thread_count(threads);
  auto result = wm::run_campaign(config, Rng(99));
  wild5g::parallel::set_thread_count(0);
  return result;
}

wf::FaultPlan plan_with(wf::FaultKind kind, double start_s, double duration_s,
                        double magnitude) {
  wf::FaultPlan plan;
  plan.name = "test";
  plan.windows.push_back({kind, start_s, duration_s, magnitude});
  plan.validate();
  return plan;
}

}  // namespace

TEST(MetroDeterminism, ByteIdenticalAcrossThreadCounts) {
  const auto config = small_campaign();
  const auto serial = run_at(config, 1);
  const auto threaded = run_at(config, 8);

  EXPECT_EQ(serial.ues, 1000);
  EXPECT_EQ(serial.steps, 40);
  EXPECT_EQ(serial.handoffs, threaded.handoffs);
  EXPECT_EQ(serial.pingpongs, threaded.pingpongs);
  EXPECT_EQ(serial.peak_step_handoffs, threaded.peak_step_handoffs);
  EXPECT_EQ(serial.peak_cell_active, threaded.peak_cell_active);
  EXPECT_EQ(serial.attach_ops, threaded.attach_ops);
  // Exact equality throughout: the contract is bit-identical, not close.
  EXPECT_EQ(serial.mean_utilization, threaded.mean_utilization);
  EXPECT_EQ(serial.per_ue_mean_mbps.count(),
            threaded.per_ue_mean_mbps.count());
  EXPECT_EQ(serial.per_ue_mean_mbps.mean(), threaded.per_ue_mean_mbps.mean());
  EXPECT_EQ(serial.per_ue_mean_mbps.min(), threaded.per_ue_mean_mbps.min());
  EXPECT_EQ(serial.per_ue_mean_mbps.max(), threaded.per_ue_mean_mbps.max());
  for (const double p : {5.0, 50.0, 95.0}) {
    EXPECT_EQ(serial.per_ue_mean_mbps.percentile(p),
              threaded.per_ue_mean_mbps.percentile(p));
    EXPECT_EQ(serial.step_throughput_mbps.percentile(p),
              threaded.step_throughput_mbps.percentile(p));
    EXPECT_EQ(serial.per_ue_rebuffer_fraction.percentile(p),
              threaded.per_ue_rebuffer_fraction.percentile(p));
  }
}

TEST(MetroDeterminism, SameSeedRepeatsDifferentSeedDiffers) {
  const auto config = small_campaign();
  const auto a = wm::run_campaign(config, Rng(7));
  const auto b = wm::run_campaign(config, Rng(7));
  EXPECT_EQ(a.per_ue_mean_mbps.mean(), b.per_ue_mean_mbps.mean());
  EXPECT_EQ(a.handoffs, b.handoffs);
  const auto c = wm::run_campaign(config, Rng(8));
  EXPECT_NE(a.per_ue_mean_mbps.mean(), c.per_ue_mean_mbps.mean());
}

TEST(MetroCampaign, ThroughputMonotoneInBackgroundLoad) {
  auto config = small_campaign();
  double prev = 1e18;
  for (const double load : {0.0, 0.3, 0.6, 0.9}) {
    config.background_load = load;
    const auto result = wm::run_campaign(config, Rng(42));
    EXPECT_LT(result.per_ue_mean_mbps.mean(), prev)
        << "per-user throughput must fall as background load rises";
    prev = result.per_ue_mean_mbps.mean();
  }
}

TEST(MetroCampaign, ThroughputMonotoneInSharers) {
  auto config = small_campaign();
  double prev = 1e18;
  for (const int sharers : {1, 10, 50}) {
    config.ues_per_cell = sharers;
    const auto result = wm::run_campaign(config, Rng(42));
    EXPECT_LT(result.per_ue_mean_mbps.mean(), prev)
        << "per-user throughput must fall as the cell is shared wider";
    prev = result.per_ue_mean_mbps.mean();
  }
}

TEST(MetroCampaign, CoMovingPopulationHandsOffInStorms) {
  auto config = small_campaign();
  config.ue_speed_mps = 14.0;  // vehicular: everyone crosses edges together
  config.handoff.time_to_trigger_ms = 160.0;
  const auto result = wm::run_campaign(config, Rng(5));
  EXPECT_GT(result.handoffs, 0);
  // The storm signature: many UEs complete a handoff in the same step.
  EXPECT_GE(result.peak_step_handoffs, 5);
  // A stationary population sees no storms of comparable depth.
  config.ue_speed_mps = 0.0;
  config.handoff.shadowing_sigma_db = 0.5;
  const auto parked = wm::run_campaign(config, Rng(5));
  EXPECT_LT(parked.peak_step_handoffs, result.peak_step_handoffs);
}

TEST(MetroCampaign, LedgerFlowsEveryUeThroughAttach) {
  const auto result = wm::run_campaign(small_campaign(), Rng(3));
  // Step 0 attaches the whole population; churn adds more operations, at
  // most one detach and one attach per handoff.
  EXPECT_GE(result.attach_ops, result.ues);
  EXPECT_LE(result.attach_ops, result.ues + 2 * result.handoffs);
  EXPECT_GE(result.peak_cell_active, 1);
  EXPECT_LE(result.peak_cell_active, result.ues);
}

TEST(MetroCampaign, SingleCellTotalsFollowFromOccupancy) {
  // One cell: nobody can hand off, so the occupancy matrix is the whole
  // population on cell 0 at every step and every total is exact.
  auto config = small_campaign();
  config.cells = 1;
  const auto result = wm::run_campaign(config, Rng(13));
  EXPECT_EQ(result.ues, 100);
  EXPECT_EQ(result.handoffs, 0);
  EXPECT_EQ(result.peak_step_handoffs, 0);
  // Step 0 attaches everyone and nobody ever detaches.
  EXPECT_EQ(result.attach_ops, result.ues);
  // Always-on UEs: all of them are active on the one cell...
  EXPECT_EQ(result.peak_cell_active, result.ues);
  // ...so the cell is saturated at every step.
  EXPECT_EQ(result.mean_utilization, 1.0);
}

TEST(MetroCampaign, IdlePopulationLeavesOnlyBackgroundLoad) {
  auto config = small_campaign();
  config.activity = 0.0;
  config.background_load = 0.5;  // a dyadic load: the mean is exact
  const auto result = wm::run_campaign(config, Rng(17));
  // Idle UEs still camp on cells, so attachments are counted...
  EXPECT_GE(result.attach_ops, result.ues);
  EXPECT_LE(result.attach_ops, result.ues + 2 * result.handoffs);
  // ...but no cell ever has an active UE, so utilization is the background
  // alone and no UE produces a throughput sample.
  EXPECT_EQ(result.peak_cell_active, 0);
  EXPECT_EQ(result.mean_utilization, 0.5);
  EXPECT_EQ(result.per_ue_mean_mbps.count(), 0u);
  EXPECT_EQ(result.step_throughput_mbps.count(), 0u);
}

TEST(MetroCampaign, MemoryStaysSketchBounded) {
  auto config = small_campaign();
  const auto result = wm::run_campaign(config, Rng(11));
  // 1000 UEs x 40 steps = 40k step samples: far past the exact limit, so
  // the accumulator must have spilled to the sketch...
  EXPECT_GT(result.step_throughput_mbps.count(), 8192u);
  EXPECT_FALSE(result.step_throughput_mbps.exact());
  // ...and the accumulators are O(bucket range), not O(samples). Only they
  // are: the timeline run_campaign records, 12 B per UE-step, is O(UEs x
  // steps), and it is gone once the result returns.
  EXPECT_LT(result.step_throughput_mbps.memory_bytes(), 256u * 1024u);
  EXPECT_LT(result.per_ue_rebuffer_fraction.memory_bytes(), 256u * 1024u);
}

TEST(MetroCampaign, PartialActivityScalesTheActivePopulation) {
  auto config = small_campaign();
  config.activity = 0.5;
  const auto result = wm::run_campaign(config, Rng(21));
  // Half-duty UEs: roughly half the step samples of the always-on run.
  const auto full = wm::run_campaign(small_campaign(), Rng(21));
  EXPECT_LT(result.step_throughput_mbps.count(),
            full.step_throughput_mbps.count());
  // Fewer simultaneous sharers -> each active step is faster on average.
  EXPECT_GT(result.step_throughput_mbps.percentile(50.0),
            full.step_throughput_mbps.percentile(50.0));
}

TEST(MetroCampaign, RejectsInvalidConfig) {
  auto bad = small_campaign();
  bad.cells = 0;
  EXPECT_THROW((void)wm::run_campaign(bad, Rng(1)), wild5g::Error);
  bad = small_campaign();
  bad.ues_per_cell = 0;
  EXPECT_THROW((void)wm::run_campaign(bad, Rng(1)), wild5g::Error);
  bad = small_campaign();
  bad.activity = 1.5;
  EXPECT_THROW((void)wm::run_campaign(bad, Rng(1)), wild5g::Error);
  bad = small_campaign();
  bad.background_load = 1.0;
  EXPECT_THROW((void)wm::run_campaign(bad, Rng(1)), wild5g::Error);
  bad = small_campaign();
  bad.duration_s = 0.25;  // shorter than one 0.5 s step
  EXPECT_THROW((void)wm::run_campaign(bad, Rng(1)), wild5g::Error);
  bad = small_campaign();
  bad.cells = 100000;  // 10^10 UEs: more than an int holds
  bad.ues_per_cell = 100000;
  EXPECT_THROW((void)wm::run_campaign(bad, Rng(1)), wild5g::Error);
  // The bound is exact: 46341 x 46340 fits in an int, 46341^2 does not.
  EXPECT_NO_THROW(wm::require_population(46341, 46340));
  EXPECT_THROW(wm::require_population(46341, 46341), wild5g::Error);
}

TEST(MetroFaults, UnsupportedKindsAreListedAndRejected) {
  const auto plan =
      plan_with(wf::FaultKind::kLatencySpike, 1.0, 2.0, 30.0);
  const auto bad = wm::unsupported_fault_kinds(plan);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad.front(), wf::FaultKind::kLatencySpike);

  const wf::Injector injector(plan, 99);
  auto config = small_campaign();
  config.faults = &injector;
  EXPECT_THROW((void)wm::run_campaign(config, Rng(1)), wild5g::Error);
}

TEST(MetroFaults, RadioKindsAreSupported) {
  wf::FaultPlan plan;
  plan.name = "radio_only";
  plan.windows.push_back({wf::FaultKind::kMmwaveBlockage, 2.0, 4.0, 12.0});
  plan.windows.push_back({wf::FaultKind::kNrToLteOutage, 8.0, 4.0, 0.2});
  plan.windows.push_back({wf::FaultKind::kRadioOutage, 14.0, 2.0, 0.0});
  plan.validate();
  EXPECT_TRUE(wm::unsupported_fault_kinds(plan).empty());

  const wf::Injector injector(plan, 99);
  auto config = small_campaign();
  config.faults = &injector;
  const auto faulted = wm::run_campaign(config, Rng(6));
  const auto clean = wm::run_campaign(small_campaign(), Rng(6));
  // The same draws run underneath, so faults only remove throughput.
  EXPECT_LT(faulted.per_ue_mean_mbps.mean(), clean.per_ue_mean_mbps.mean());
  EXPECT_EQ(faulted.handoffs, clean.handoffs);
}

TEST(MetroFaults, TotalRadioOutageZeroesThroughput) {
  const auto plan = plan_with(wf::FaultKind::kRadioOutage, 0.0, 1e6, 0.0);
  const wf::Injector injector(plan, 99);
  auto config = small_campaign();
  config.faults = &injector;
  const auto result = wm::run_campaign(config, Rng(2));
  EXPECT_EQ(result.per_ue_mean_mbps.max(), 0.0);
  // Nothing delivered, everything demanded: rebuffering is total.
  EXPECT_EQ(result.per_ue_rebuffer_fraction.min(), 1.0);
}

TEST(MetroFaults, FaultedCampaignIsThreadCountInvariant) {
  const auto plan =
      plan_with(wf::FaultKind::kMmwaveBlockage, 3.0, 10.0, 15.0);
  const wf::Injector injector(plan, 99);
  auto config = small_campaign();
  config.faults = &injector;
  const auto serial = run_at(config, 1);
  const auto threaded = run_at(config, 8);
  EXPECT_EQ(serial.per_ue_mean_mbps.mean(), threaded.per_ue_mean_mbps.mean());
  EXPECT_EQ(serial.per_ue_mean_mbps.percentile(95.0),
            threaded.per_ue_mean_mbps.percentile(95.0));
  EXPECT_EQ(serial.handoffs, threaded.handoffs);
}
