// Engine suite: the campaign engine's checkpoint/resume determinism
// contract (DESIGN.md section 12) plus the serialization plumbing under it.
//
// The heart of the suite is resume byte-identity: checkpoint every
// registered campaign at several different yield points, restore each
// snapshot into a fresh campaign, run the remaining steps, and require the
// final metrics document to be byte-for-byte identical to an uninterrupted
// run — at --threads 1 and 8, with and without a fault plan. Everything a
// campaign's state touches (Rng text state, SampleAccumulator sketches, the
// partially-built document) must round-trip losslessly for this to hold.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/json.h"
#include "core/parallel.h"
#include "core/quantile_sketch.h"
#include "core/rng.h"
#include "engine/campaign.h"
#include "engine/metrics.h"
#include "engine/runner.h"
#include "engine/snapshot.h"
#include "faults/fault_plan.h"

namespace {

using namespace wild5g;

// --- serialization plumbing -------------------------------------------------

TEST(engine, rng_state_round_trips_mid_stream) {
  Rng rng(20210823);
  for (int i = 0; i < 1000; ++i) (void)rng.uniform(0.0, 1.0);
  Rng restored = Rng::deserialize_state(rng.serialize_state());
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(rng.uniform(0.0, 1.0), restored.uniform(0.0, 1.0));
  }
}

TEST(engine, sketch_round_trip_preserves_quantiles_exactly) {
  stats::QuantileSketch sketch(0.01);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    sketch.add(rng.uniform(-50.0, 900.0));
  }
  sketch.add(0.0);  // exercise the zero bucket
  const stats::QuantileSketch restored =
      stats::QuantileSketch::from_json(sketch.to_json());
  for (const double q : {0.0, 5.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(sketch.quantile(q), restored.quantile(q)) << q;
  }
  EXPECT_EQ(sketch.count(), restored.count());
  // The re-serialized form must be byte-identical — snapshots of snapshots
  // cannot drift.
  EXPECT_EQ(json::dump(sketch.to_json()), json::dump(restored.to_json()));
}

TEST(engine, accumulator_round_trips_in_both_modes) {
  // Exact mode: below the spill limit, samples (and their order) survive.
  stats::SampleAccumulator exact;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) exact.add(rng.uniform(0.0, 10.0));
  const stats::SampleAccumulator exact_restored =
      stats::SampleAccumulator::from_json(exact.to_json());
  EXPECT_DOUBLE_EQ(exact.percentile(50.0), exact_restored.percentile(50.0));
  EXPECT_EQ(json::dump(exact.to_json()), json::dump(exact_restored.to_json()));

  // Sketch mode: past the spill limit the DDSketch state must round-trip.
  stats::SampleAccumulator spilled;
  for (int i = 0; i < 10000; ++i) spilled.add(rng.uniform(0.0, 10.0));
  const stats::SampleAccumulator spilled_restored =
      stats::SampleAccumulator::from_json(spilled.to_json());
  EXPECT_DOUBLE_EQ(spilled.percentile(95.0),
                   spilled_restored.percentile(95.0));
  EXPECT_EQ(json::dump(spilled.to_json()),
            json::dump(spilled_restored.to_json()));
}

TEST(engine, accumulator_rejects_malformed_state) {
  EXPECT_THROW((void)stats::SampleAccumulator::from_json(
                   json::parse(R"({"exact_limit":8192,"alpha":0.01})")),
               Error);
  // Both exact and sketch present: ambiguous.
  EXPECT_THROW(
      (void)stats::SampleAccumulator::from_json(json::parse(
          R"({"exact_limit":8192,"alpha":0.01,"sum":0,"exact":[],)"
          R"("sketch":{}})")),
      Error);
}

TEST(engine, request_round_trips_full_64_bit_seed) {
  engine::CampaignRequest request;
  request.campaign = "metro_load";
  request.seed = 0xFFFFFFFFFFFFFFFFULL;  // unrepresentable as a double
  request.params = json::Value::object();
  request.params.set("cells", 4);
  const engine::CampaignRequest restored =
      engine::request_from_json(engine::request_to_json(request));
  EXPECT_EQ(restored.seed, request.seed);
  EXPECT_EQ(restored.campaign, request.campaign);
}

TEST(engine, snapshot_rejects_wrong_version_and_format) {
  engine::Snapshot snapshot;
  snapshot.request.campaign = "metro_load";
  json::Value doc = snapshot.to_json();
  doc.set("version", engine::kSnapshotVersion + 1);
  EXPECT_THROW((void)engine::Snapshot::from_json(doc), Error);
  json::Value doc2 = snapshot.to_json();
  doc2.set("format", "not-a-snapshot");
  EXPECT_THROW((void)engine::Snapshot::from_json(doc2), Error);
}

TEST(engine, document_restore_replaces_state_byte_identically) {
  engine::MetricsDocument doc("unit", 1);
  doc.metric("alpha", 1.5);
  Table table("T");
  table.set_header({"a"});
  table.add_row({"1"});
  doc.record(table);
  doc.set_flag("interrupted");
  engine::MetricsDocument other("unit", 1);
  other.metric("junk", 9.0);  // must be discarded by restore
  other.restore_state(doc.checkpoint_state());
  EXPECT_EQ(json::dump(doc.document()), json::dump(other.document()));
}

// --- runner semantics -------------------------------------------------------

/// A minimal campaign recording which steps ran.
class CountingCampaign : public engine::Campaign {
 public:
  explicit CountingCampaign(std::size_t steps) : steps_(steps) {}
  [[nodiscard]] std::size_t total_steps() const override { return steps_; }
  [[nodiscard]] json::Value execute_step(std::size_t index,
                                         engine::CampaignContext&) override {
    executed.push_back(index);
    json::Value frame = json::Value::object();
    frame.set("i", static_cast<std::uint64_t>(index));
    return frame;
  }
  [[nodiscard]] json::Value checkpoint_state() const override {
    return json::Value::object();
  }
  void restore_state(const json::Value&) override {}

  std::vector<std::size_t> executed;

 private:
  std::size_t steps_;
};

TEST(engine, runner_completes_and_reports_next_step) {
  CountingCampaign campaign(4);
  engine::MetricsDocument doc("unit", 1);
  engine::CampaignContext ctx{doc, nullptr};
  const engine::RunOutcome outcome =
      engine::run_steps(campaign, ctx, engine::RunControl{});
  EXPECT_EQ(outcome.status, engine::RunStatus::kCompleted);
  EXPECT_EQ(outcome.steps_executed, 4u);
  EXPECT_EQ(outcome.next_step, 4u);
  EXPECT_EQ(campaign.executed, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(engine, runner_deadline_steps_is_deterministic) {
  CountingCampaign campaign(10);
  engine::MetricsDocument doc("unit", 1);
  engine::CampaignContext ctx{doc, nullptr};
  engine::RunControl control;
  control.deadline_steps = 3;
  const engine::RunOutcome outcome =
      engine::run_steps(campaign, ctx, control);
  EXPECT_EQ(outcome.status, engine::RunStatus::kDeadline);
  EXPECT_EQ(outcome.steps_executed, 3u);
  EXPECT_EQ(outcome.next_step, 3u);
}

TEST(engine, runner_start_step_resumes_where_told) {
  CountingCampaign campaign(5);
  engine::MetricsDocument doc("unit", 1);
  engine::CampaignContext ctx{doc, nullptr};
  engine::RunControl control;
  control.start_step = 3;
  const engine::RunOutcome outcome =
      engine::run_steps(campaign, ctx, control);
  EXPECT_EQ(outcome.steps_executed, 2u);
  EXPECT_EQ(campaign.executed, (std::vector<std::size_t>{3, 4}));
}

TEST(engine, runner_checks_supervision_before_each_step) {
  CountingCampaign campaign(5);
  engine::MetricsDocument doc("unit", 1);
  engine::CampaignContext ctx{doc, nullptr};
  engine::RunControl control;
  int polls = 0;
  control.cancelled = [&polls] { return ++polls > 2; };
  const engine::RunOutcome outcome =
      engine::run_steps(campaign, ctx, control);
  EXPECT_EQ(outcome.status, engine::RunStatus::kCancelled);
  EXPECT_EQ(outcome.steps_executed, 2u);
  // Interrupted outranks cancelled at the same yield point.
  CountingCampaign both(2);
  engine::RunControl tie;
  tie.interrupted = [] { return true; };
  tie.cancelled = [] { return true; };
  EXPECT_EQ(engine::run_steps(both, ctx, tie).status,
            engine::RunStatus::kInterrupted);
}

TEST(engine, runner_frame_and_yield_fire_in_step_order) {
  CountingCampaign campaign(3);
  engine::MetricsDocument doc("unit", 1);
  engine::CampaignContext ctx{doc, nullptr};
  engine::RunControl control;
  std::vector<std::string> events;
  control.on_frame = [&](std::size_t step, const json::Value&) {
    events.push_back("frame" + std::to_string(step));
  };
  control.on_yield = [&](std::size_t next) {
    events.push_back("yield" + std::to_string(next));
  };
  (void)engine::run_steps(campaign, ctx, control);
  EXPECT_EQ(events, (std::vector<std::string>{"frame0", "yield1", "frame1",
                                              "yield2", "frame2", "yield3"}));
}

// --- checkpoint/resume byte-identity ---------------------------------------

faults::FaultPlan radio_plan() {
  faults::FaultPlan plan;
  plan.name = "engine_unit_radio";
  plan.windows = {{faults::FaultKind::kMmwaveBlockage, 5.0, 10.0, 20.0},
                  {faults::FaultKind::kNrToLteOutage, 20.0, 8.0, 0.3}};
  plan.validate();
  return plan;
}

engine::CampaignRequest small_request(const std::string& campaign,
                                      bool with_faults) {
  engine::CampaignRequest request;
  request.campaign = campaign;
  request.seed = 20210823;
  request.params = json::Value::object();
  if (campaign == "drive_soak") {
    request.params.set("intervals", 6);
    request.params.set("interval_s", 20);
    request.params.set("cells", 3);
    request.params.set("ues", 8);
  } else {
    request.params.set("cells", 4);
    request.params.set("ues", 12);
  }
  if (with_faults) request.fault_plan = radio_plan();
  return request;
}

/// Runs the campaign uninterrupted and returns the dumped final document.
std::string run_uninterrupted(const engine::CampaignRequest& request) {
  engine::MetricsDocument doc(
      request.campaign, request.seed,
      request.fault_plan.has_value() ? request.fault_plan->name
                                     : std::string{});
  engine::CampaignContext ctx{doc, nullptr};
  auto campaign = engine::make_campaign(request);
  const engine::RunOutcome outcome =
      engine::run_steps(*campaign, ctx, engine::RunControl{});
  EXPECT_EQ(outcome.status, engine::RunStatus::kCompleted);
  return json::dump(doc.document());
}

/// Runs to `stop_at` steps, snapshots (through JSON text, as the service
/// does), restores into a fresh campaign, finishes, and returns the dump.
std::string run_with_checkpoint_at(const engine::CampaignRequest& request,
                                   std::size_t stop_at) {
  json::Value snapshot_text;
  {
    engine::MetricsDocument doc(
        request.campaign, request.seed,
        request.fault_plan.has_value() ? request.fault_plan->name
                                       : std::string{});
    engine::CampaignContext ctx{doc, nullptr};
    auto campaign = engine::make_campaign(request);
    engine::RunControl control;
    control.deadline_steps = stop_at;
    const engine::RunOutcome outcome =
        engine::run_steps(*campaign, ctx, control);
    EXPECT_EQ(outcome.status, engine::RunStatus::kDeadline);
    engine::Snapshot snapshot;
    snapshot.request = request;
    snapshot.next_step = outcome.next_step;
    snapshot.campaign_state = campaign->checkpoint_state();
    snapshot.document_state = doc.checkpoint_state();
    // Round-trip through text so nothing survives via in-memory aliasing.
    snapshot_text = json::parse(json::dump(snapshot.to_json()));
  }
  const engine::Snapshot restored = engine::Snapshot::from_json(snapshot_text);
  engine::MetricsDocument doc(
      restored.request.campaign, restored.request.seed,
      restored.request.fault_plan.has_value()
          ? restored.request.fault_plan->name
          : std::string{});
  doc.restore_state(restored.document_state);
  engine::CampaignContext ctx{doc, nullptr};
  auto campaign = engine::make_campaign(restored.request);
  campaign->restore_state(restored.campaign_state);
  engine::RunControl control;
  control.start_step = restored.next_step;
  const engine::RunOutcome outcome =
      engine::run_steps(*campaign, ctx, control);
  EXPECT_EQ(outcome.status, engine::RunStatus::kCompleted);
  return json::dump(doc.document());
}

/// Every registered campaign, so a new campaign gets resume coverage (and a
/// restore_state that drops a key fails here) without touching this file.
std::vector<std::string> registered_campaigns() {
  engine::register_builtin_campaigns();
  return engine::campaign_names();
}

class EngineResume
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {
};

TEST_P(EngineResume, resumes_byte_identically_at_every_yield_point) {
  const auto& [campaign, threads] = GetParam();
  engine::register_builtin_campaigns();
  parallel::set_thread_count(threads);
  for (const bool with_faults : {false, true}) {
    const engine::CampaignRequest request =
        small_request(campaign, with_faults);
    const std::size_t total = engine::make_campaign(request)->total_steps();
    ASSERT_GE(total, 2u) << campaign << " has no interior yield point";
    const std::string baseline = run_uninterrupted(request);
    // Right after the first step, mid-campaign, and one step before the end.
    for (const std::size_t stop_at : {std::size_t{1}, total / 2, total - 1}) {
      EXPECT_EQ(baseline, run_with_checkpoint_at(request, stop_at))
          << campaign << (with_faults ? " (faulted)" : "")
          << " resumed from step " << stop_at << " diverged at " << threads
          << " thread(s)";
    }
  }
  parallel::set_thread_count(0);
}

INSTANTIATE_TEST_SUITE_P(
    AllCampaigns, EngineResume,
    ::testing::Combine(::testing::ValuesIn(registered_campaigns()),
                       ::testing::Values(std::size_t{1}, std::size_t{8})),
    [](const ::testing::TestParamInfo<EngineResume::ParamType>& info) {
      return std::get<0>(info.param) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

TEST(engine, snapshot_file_round_trip_and_atomic_write) {
  engine::register_builtin_campaigns();
  const engine::CampaignRequest request =
      small_request("metro_qoe", /*with_faults=*/false);
  engine::MetricsDocument doc(request.campaign, request.seed);
  engine::CampaignContext ctx{doc, nullptr};
  auto campaign = engine::make_campaign(request);
  engine::RunControl control;
  control.deadline_steps = 2;
  (void)engine::run_steps(*campaign, ctx, control);
  engine::Snapshot snapshot;
  snapshot.request = request;
  snapshot.next_step = 2;
  snapshot.campaign_state = campaign->checkpoint_state();
  snapshot.document_state = doc.checkpoint_state();
  const std::string path = ::testing::TempDir() + "engine_unit.ckpt";
  engine::save_snapshot(snapshot, path);
  // The temp file must not survive a successful rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  const engine::Snapshot loaded = engine::load_snapshot(path);
  EXPECT_EQ(loaded.next_step, 2u);
  EXPECT_EQ(json::dump(loaded.to_json()), json::dump(snapshot.to_json()));
  std::remove(path.c_str());
  EXPECT_THROW((void)engine::load_snapshot(path), Error);
}

TEST(engine, factories_reject_unknown_params_and_unsupported_faults) {
  engine::register_builtin_campaigns();
  engine::CampaignRequest request;
  request.campaign = "metro_load";
  request.params = json::Value::object();
  request.params.set("cels", 4);  // typo must fail, not silently default
  EXPECT_THROW((void)engine::make_campaign(request), Error);

  engine::CampaignRequest faulted = small_request("metro_load", false);
  faults::FaultPlan plan;
  plan.name = "bad_kinds";
  plan.windows = {{faults::FaultKind::kChunkStall, 0.0, 5.0, 0.5}};
  faulted.fault_plan = plan;
  EXPECT_THROW((void)engine::make_campaign(faulted), Error);

  engine::CampaignRequest unknown;
  unknown.campaign = "no_such_campaign";
  EXPECT_THROW((void)engine::make_campaign(unknown), Error);
}

}  // namespace
