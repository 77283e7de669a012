// Engine suite: the campaign engine's checkpoint/resume determinism
// contract (DESIGN.md section 12) plus the serialization plumbing under it.
//
// The heart of the suite is resume byte-identity: checkpoint every
// registered campaign with two or more steps (the multi-step figures
// included) at several different yield points, restore each
// snapshot into a fresh campaign, run the remaining steps, and require the
// final metrics document to be byte-for-byte identical to an uninterrupted
// run — at --threads 1 and 8, with and without a fault plan. Everything a
// campaign's state touches (Rng text state, SampleAccumulator sketches, the
// partially-built document) must round-trip losslessly for this to hold.
// The same campaigns stopped by a deadline must keep every completed row:
// each partial table is a row-prefix of its completed twin.
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
  request.campaign = "extension_metro_load";
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
  snapshot.request.campaign = "extension_metro_load";
  json::Value doc = snapshot.to_json();
  doc.set("version", engine::kSnapshotVersion + 1);
  EXPECT_THROW((void)engine::Snapshot::from_json(doc), Error);
  json::Value doc2 = snapshot.to_json();
  doc2.set("format", "not-a-snapshot");
  EXPECT_THROW((void)engine::Snapshot::from_json(doc2), Error);

  // A version-1 metro_load snapshot: its rows ride in campaign_state and
  // its document_state holds no tables. Resuming it would lose those rows,
  // so the version check must refuse it.
  json::Value row = json::Value::array();
  for (const char* cell : {"0.0", "1.000", "1.000", "1.000", "1.000", "0"}) {
    row.push_back(cell);
  }
  json::Value rows = json::Value::array();
  rows.push_back(row);
  json::Value v1_state = json::Value::object();
  v1_state.set("load_rows", rows);
  v1_state.set("sharer_rows", json::Value::array());
  snapshot.next_step = 1;
  snapshot.campaign_state = v1_state;
  snapshot.document_state =
      engine::MetricsDocument("extension_metro_load", 1).checkpoint_state();
  json::Value v1 = snapshot.to_json();
  v1.set("version", 1);
  try {
    (void)engine::Snapshot::from_json(v1);
    ADD_FAILURE() << "a version-1 snapshot was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"),
              std::string::npos)
        << e.what();
  }
}

TEST(engine, document_restore_replaces_state_byte_identically) {
  engine::MetricsDocument doc("unit", 1);
  doc.metric("alpha", 1.5);
  Table table("T");
  table.set_header({"a"});
  table.add_row({"1"});
  doc.record(table);
  doc.set_flag("interrupted");
  doc.open_table("U", {"b", "c"}).add_row({"2", "3"});
  engine::MetricsDocument other("unit", 1);
  other.metric("junk", 9.0);  // must be discarded by restore
  other.restore_state(doc.checkpoint_state());
  EXPECT_EQ(json::dump(doc.document()), json::dump(other.document()));
  // A restored table is found again by title and keeps growing in place.
  other.open_table("U", {"b", "c"}).add_row({"4", "5"});
  doc.open_table("U", {"b", "c"}).add_row({"4", "5"});
  EXPECT_EQ(json::dump(doc.document()), json::dump(other.document()));
}

TEST(engine, document_open_table_appends_in_place_in_open_order) {
  engine::MetricsDocument doc("unit", 1);
  Table& first = doc.open_table("first", {"a"});
  first.add_row({"1"});
  Table complete("recorded");
  complete.set_header({"x"});
  doc.record(complete);
  Table& again = doc.open_table("first", {"a"});
  EXPECT_EQ(&again, &first);
  again.add_row({"2"});
  const json::Value document = doc.document();
  const json::Value& tables = *document.find("tables");
  ASSERT_EQ(tables.as_array().size(), 2u);
  EXPECT_EQ(tables.as_array()[0].find("title")->as_string(), "first");
  EXPECT_EQ(tables.as_array()[0].find("rows")->as_array().size(), 2u);
  EXPECT_EQ(tables.as_array()[1].find("title")->as_string(), "recorded");
  EXPECT_THROW((void)doc.open_table("first", {"b"}), Error);
  EXPECT_THROW(first.add_row({"1", "2"}), Error);
}

/// A document state whose "tables" entry is replaced by `tables_text`.
json::Value document_state_with_tables(const std::string& tables_text) {
  json::Value state = engine::MetricsDocument("unit", 1).checkpoint_state();
  state.set("tables", json::parse(tables_text));
  return state;
}

TEST(engine, document_restore_rejects_malformed_tables) {
  // The snapshot part of the malformed-input corpus: every entry is a
  // document state a resume could read from a corrupted or hand-edited
  // snapshot, and each must be refused rather than passed into the result.
  const std::vector<std::string> corpus = {
      R"({"title":"T","header":["a"],"rows":[]})",        // not an array
      R"([5])",                                           // non-object table
      R"([["T"]])",                                       // non-object table
      R"([{"header":["a"],"rows":[]}])",                  // missing title
      R"([{"title":7,"header":["a"],"rows":[]}])",        // non-string title
      R"([{"title":"T","rows":[]}])",                     // missing header
      R"([{"title":"T","header":"a","rows":[]}])",        // header not a list
      R"([{"title":"T","header":["a",1],"rows":[]}])",    // non-string header
      R"([{"title":"T","header":["a"]}])",                // missing rows
      R"([{"title":"T","header":["a"],"rows":{}}])",      // rows not a list
      R"([{"title":"T","header":["a"],"rows":["1"]}])",   // row not a list
      R"([{"title":"T","header":["a"],"rows":[[1]]}])",   // non-string cell
      R"([{"title":"T","header":["a"],"rows":[[null]]}])",  // non-string cell
      R"([{"title":"T","header":["a","b"],"rows":[["1"]]}])",  // short row
      R"([{"title":"T","header":["a"],"rows":[["1","2"]]}])",  // long row
      R"([{"title":"T","header":[],"rows":[[]]}])",       // row, no header
  };
  for (const std::string& tables : corpus) {
    engine::MetricsDocument doc("unit", 1);
    doc.open_table("kept", {"a"}).add_row({"1"});
    const std::string before = json::dump(doc.document());
    EXPECT_THROW(doc.restore_state(document_state_with_tables(tables)), Error)
        << tables;
    EXPECT_EQ(json::dump(doc.document()), before)
        << "a rejected restore changed the document: " << tables;
  }
  // The well-formed neighbour of the corpus restores.
  engine::MetricsDocument doc("unit", 1);
  EXPECT_NO_THROW(doc.restore_state(document_state_with_tables(
      R"([{"title":"T","header":["a","b"],"rows":[["1","2"]]}])")));
}

TEST(engine, stateless_campaigns_reject_non_null_state) {
  // Every campaign but drive_soak — every figure included — carries no
  // cross-step state: its rows live in the document.
  engine::register_builtin_campaigns();
  for (const std::string& name : engine::campaign_names()) {
    if (name == "drive_soak") continue;
    engine::CampaignRequest request;
    request.campaign = name;
    auto campaign = engine::make_campaign(request);
    EXPECT_TRUE(campaign->checkpoint_state().is_null()) << name;
    EXPECT_NO_THROW(campaign->restore_state(json::Value{})) << name;
    // The version-1 shape of metro_qoe's state: rows that now belong in
    // the document.
    json::Value v1_state = json::Value::object();
    v1_state.set("rows", json::Value::array());
    EXPECT_THROW(campaign->restore_state(v1_state), Error) << name;
    EXPECT_THROW(campaign->restore_state(json::Value::object()), Error)
        << name;
  }
}

// --- runner semantics -------------------------------------------------------

/// A minimal campaign recording which steps ran; it has no cross-step
/// state, so it keeps the default checkpoint hooks.
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

/// The campaign at its smallest: the metro extensions and drive_soak are
/// sized down by params; every other figure takes none and runs at its own
/// size.
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
  } else if (campaign.rfind("extension_metro_", 0) == 0) {
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

/// Every registered campaign with an interior yield point (two or more
/// steps), so a new one gets resume coverage (and a restore_state that
/// drops a key fails here) without touching this file. A one-step campaign
/// has nothing to resume.
std::vector<std::string> multi_step_campaigns() {
  engine::register_builtin_campaigns();
  std::vector<std::string> names;
  for (const std::string& name : engine::campaign_names()) {
    if (engine::make_campaign(small_request(name, false))->total_steps() >= 2) {
      names.push_back(name);
    }
  }
  return names;
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
    ::testing::Combine(::testing::ValuesIn(multi_step_campaigns()),
                       ::testing::Values(std::size_t{1}, std::size_t{8})),
    [](const ::testing::TestParamInfo<EngineResume::ParamType>& info) {
      return std::get<0>(info.param) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

/// Runs the campaign until the deterministic deadline stops it before step
/// `stop_at` and returns the partial document.
json::Value run_partial(const engine::CampaignRequest& request,
                        std::size_t stop_at) {
  engine::MetricsDocument doc(request.campaign, request.seed);
  engine::CampaignContext ctx{doc, nullptr};
  auto campaign = engine::make_campaign(request);
  engine::RunControl control;
  control.deadline_steps = stop_at;
  EXPECT_EQ(engine::run_steps(*campaign, ctx, control).status,
            engine::RunStatus::kDeadline);
  return doc.document();
}

class EnginePartial : public EngineResume {};

TEST_P(EnginePartial, partial_tables_are_row_prefixes_of_the_completed_ones) {
  const auto& [campaign, threads] = GetParam();
  engine::register_builtin_campaigns();
  parallel::set_thread_count(threads);
  const engine::CampaignRequest request =
      small_request(campaign, /*with_faults=*/false);
  const std::size_t total = engine::make_campaign(request)->total_steps();
  const json::Value completed = json::parse(run_uninterrupted(request));
  const auto& completed_tables = completed.find("tables")->as_array();
  for (const std::size_t stop_at : {std::size_t{1}, total / 2, total - 1}) {
    const json::Value partial = run_partial(request, stop_at);
    const auto& tables = partial.find("tables")->as_array();
    // Every finished step computed at least one row; a stopped run must
    // keep it.
    EXPECT_FALSE(tables.empty())
        << campaign << " stopped before step " << stop_at
        << " lost every completed row";
    for (const json::Value& table : tables) {
      const std::string& title = table.find("title")->as_string();
      const json::Value* match = nullptr;
      for (const json::Value& full : completed_tables) {
        if (full.find("title")->as_string() == title) match = &full;
      }
      ASSERT_NE(match, nullptr) << campaign << ": no completed table '"
                                << title << "'";
      EXPECT_EQ(json::dump(*table.find("header")),
                json::dump(*match->find("header")));
      const auto& rows = table.find("rows")->as_array();
      const auto& full_rows = match->find("rows")->as_array();
      EXPECT_FALSE(rows.empty()) << campaign << ": empty table '" << title
                                 << "' at step " << stop_at;
      ASSERT_LE(rows.size(), full_rows.size()) << title;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(json::dump(rows[r]), json::dump(full_rows[r]))
            << campaign << ": row " << r << " of '" << title
            << "' differs after a stop at step " << stop_at << " at "
            << threads << " thread(s)";
      }
    }
  }
  parallel::set_thread_count(0);
}

INSTANTIATE_TEST_SUITE_P(
    AllCampaigns, EnginePartial,
    ::testing::Combine(::testing::ValuesIn(multi_step_campaigns()),
                       ::testing::Values(std::size_t{1}, std::size_t{8})),
    [](const ::testing::TestParamInfo<EnginePartial::ParamType>& info) {
      return std::get<0>(info.param) + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

TEST(engine, snapshot_file_round_trip_and_atomic_write) {
  engine::register_builtin_campaigns();
  const engine::CampaignRequest request =
      small_request("extension_metro_qoe", /*with_faults=*/false);
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

TEST(engine, snapshot_with_the_old_tolerance_keys_still_resumes) {
  // A version-2 snapshot as earlier builds wrote it: its document_state
  // still carries "rel", "abs" and "tolerances", which documents no longer
  // keep. The restore ignores those keys, and the resumed run finishes
  // byte-identical to an uninterrupted one.
  engine::register_builtin_campaigns();
  const std::string old_snapshot = R"({
    "format": "wild5g-snapshot", "version": 2,
    "request": {"campaign": "extension_metro_qoe", "seed": "20210823",
                "params": {"cells": 2, "ues": 4}},
    "next_step": 1, "campaign_state": null,
    "document_state": {
      "rel": 1e-06, "abs": 1e-09, "tolerances": {},
      "tables": [{
        "title": "2 cells x 4 UEs/cell at 14 m/s, 25 Mbps demand: busy-hour activity sweep",
        "header": ["activity", "mean/UE Mbps", "rebuffer mean",
                   "rebuffer p95", "handoffs", "ping-pongs", "peak storm"],
        "rows": [["0.25", "214.073", "0.0000", "0.0000", "8", "2", "1"]]}],
      "metrics": {}, "flags": {}}})";
  const engine::Snapshot snapshot =
      engine::Snapshot::from_json(json::parse(old_snapshot));
  engine::MetricsDocument doc(snapshot.request.campaign,
                              snapshot.request.seed);
  doc.restore_state(snapshot.document_state);
  EXPECT_EQ(doc.checkpoint_state().find("tolerances"), nullptr);
  auto campaign = engine::make_campaign(snapshot.request);
  campaign->restore_state(snapshot.campaign_state);
  engine::CampaignContext ctx{doc, nullptr};
  engine::RunControl control;
  control.start_step = snapshot.next_step;
  EXPECT_EQ(engine::run_steps(*campaign, ctx, control).status,
            engine::RunStatus::kCompleted);
  EXPECT_EQ(json::dump(doc.document()), run_uninterrupted(snapshot.request));
}

TEST(engine, factories_reject_unknown_params_and_unsupported_faults) {
  engine::register_builtin_campaigns();
  for (const std::string& name : engine::campaign_names()) {
    engine::CampaignRequest request = small_request(name, false);
    request.params.set("cels", 4);  // typo must fail, not silently default
    EXPECT_THROW((void)engine::make_campaign(request), Error) << name;
  }

  engine::CampaignRequest faulted =
      small_request("extension_metro_load", false);
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
