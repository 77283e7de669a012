// Chaos soak suite (`ctest -R soak`): drives the wild5g_serve binary over
// real pipes and gates the service-mode guarantees of DESIGN.md section 12:
//
//   - determinism: a submitted (campaign, seed, params, fault_plan) produces
//     a byte-identical frame/done/result event stream on every run and at
//     every --threads count;
//   - chaos resume: SIGKILL the service mid-campaign, resume from the last
//     checkpoint in a fresh service, and the spliced frame stream plus the
//     final result document are byte-identical to an uninterrupted run;
//   - uptime invariant: every job the service ever accepted ends in exactly
//     one of {completed, cancelled, deadline_partial} — reported in the bye
//     event — and the service itself always exits 0 unless killed outright.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/json.h"

namespace {

using namespace wild5g;

// A stuck pipe read would otherwise hang the whole test run; any soak test
// taking minutes has already failed.
struct AlarmGuard {
  AlarmGuard() { ::alarm(300); }
} g_alarm_guard;

/// One wild5g_serve child process with its stdin/stdout piped to the test.
class ServeClient {
 public:
  explicit ServeClient(const std::vector<std::string>& extra_args = {}) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      ADD_FAILURE() << "pipe() failed: " << std::strerror(errno);
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      std::vector<std::string> args = {WILD5G_SERVE_BIN};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      for (auto& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::perror("execv wild5g_serve");
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    stdin_fd_ = to_child[1];
    stdout_fd_ = from_child[0];
  }

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  ~ServeClient() {
    close_stdin();
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  void send(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::write(stdin_fd_, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }

  void close_stdin() {
    if (stdin_fd_ >= 0) {
      ::close(stdin_fd_);
      stdin_fd_ = -1;
    }
  }

  /// Reads the next event line; false on EOF (service exited) or, given a
  /// `deadline`, when it passes with no complete line. Unbuffered fd reads
  /// keep poll() exact: no line can sit in a stdio buffer unseen.
  bool read_line(std::string* line,
                 std::optional<std::chrono::steady_clock::time_point>
                     deadline = std::nullopt) {
    std::size_t newline = pending_.find('\n');
    while (newline == std::string::npos) {
      int wait_ms = -1;
      if (deadline) {
        wait_ms = static_cast<int>(std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::milliseconds>(
                   *deadline - std::chrono::steady_clock::now())
                   .count()));
      }
      pollfd ready{stdout_fd_, POLLIN, 0};
      const int polled = ::poll(&ready, 1, wait_ms);
      if (polled < 0 && errno == EINTR) continue;
      if (polled <= 0) return false;
      char buffer[4096];
      const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      const std::size_t scanned = pending_.size();
      pending_.append(buffer, static_cast<std::size_t>(n));
      newline = pending_.find('\n', scanned);
    }
    line->assign(pending_, 0, newline);
    pending_.erase(0, newline + 1);
    return true;
  }

  /// Reads the next event whose "event" field matches; fails the test (and
  /// returns null) on EOF. Every line seen on the way is kept in `lines`.
  json::Value read_until_event(const std::string& name,
                               std::vector<std::string>* lines = nullptr) {
    std::string line;
    while (read_line(&line)) {
      if (lines != nullptr) lines->push_back(line);
      const json::Value event = json::parse(line);
      if (event.find("event")->as_string() == name) return event;
    }
    ADD_FAILURE() << "service hung up before emitting '" << name << "'";
    return json::Value();
  }

  std::vector<std::string> read_to_eof() {
    std::vector<std::string> lines;
    std::string line;
    while (read_line(&line)) lines.push_back(line);
    return lines;
  }

  void signal(int signo) { ::kill(pid_, signo); }

  /// Reaps the child: exit code for a normal exit, 128+signo for a killed
  /// one (SIGKILL in the chaos test is expected, anything else is not).
  int wait() {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    reaped_ = true;
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
    return -1;
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string pending_;  // bytes read past the last returned line
  bool reaped_ = false;
};

// --- event-stream helpers ---------------------------------------------------

/// The deterministic skeleton of a run: the frame/done/result lines for one
/// job, in emission order. hello/accepted/ckpt/status lines are protocol
/// envelope, not campaign output, so the byte-identity gate compares this.
std::vector<std::string> campaign_stream(const std::vector<std::string>& lines,
                                         const std::string& id) {
  std::vector<std::string> stream;
  for (const auto& line : lines) {
    const json::Value event = json::parse(line);
    const std::string name = event.find("event")->as_string();
    if (name != "frame" && name != "done" && name != "result") continue;
    const json::Value* event_id = event.find("id");
    if (event_id != nullptr && event_id->as_string() == id) {
      stream.push_back(line);
    }
  }
  return stream;
}

const json::Value* find_event(const std::vector<json::Value>& events,
                              const std::string& name,
                              const std::string& id = "") {
  for (const auto& event : events) {
    if (event.find("event")->as_string() != name) continue;
    if (!id.empty()) {
      const json::Value* event_id = event.find("id");
      if (event_id == nullptr || event_id->as_string() != id) continue;
    }
    return &event;
  }
  return nullptr;
}

std::vector<json::Value> parse_all(const std::vector<std::string>& lines) {
  std::vector<json::Value> events;
  events.reserve(lines.size());
  for (const auto& line : lines) events.push_back(json::parse(line));
  return events;
}

/// The uptime invariant: the bye event lists every accepted job in exactly
/// one terminal state.
void expect_uptime_invariant(const std::vector<json::Value>& events) {
  const json::Value* bye = find_event(events, "bye");
  ASSERT_NE(bye, nullptr) << "service exited without a bye event";
  static const std::set<std::string> kTerminal = {"completed", "cancelled",
                                                  "deadline_partial"};
  for (const auto& entry : bye->find("jobs")->as_array()) {
    EXPECT_TRUE(kTerminal.count(entry.find("state")->as_string()) == 1)
        << "job '" << entry.find("id")->as_string()
        << "' ended in non-terminal state '"
        << entry.find("state")->as_string() << "'";
  }
}

// A drive_soak submit with a radio fault plan — the chaos campaign the
// determinism and kill/resume gates run. Long enough (10 intervals) that a
// SIGKILL after the third checkpoint lands mid-run.
std::string soak_submit(const std::string& id,
                        const std::string& checkpoint_path = "",
                        int deadline_steps = 0) {
  std::string line =
      "{\"op\":\"submit\",\"id\":\"" + id +
      "\",\"campaign\":\"drive_soak\",\"seed\":\"987654321\","
      "\"params\":{\"intervals\":10,\"interval_s\":30,\"cells\":3,"
      "\"ues\":10},"
      "\"fault_plan\":{\"name\":\"soak_weather\",\"seed_salt\":3,"
      "\"windows\":["
      "{\"kind\":\"mmwave_blockage\",\"start_s\":40,\"duration_s\":60,"
      "\"magnitude\":20},"
      "{\"kind\":\"nr_to_lte_outage\",\"start_s\":150,\"duration_s\":45,"
      "\"magnitude\":0.3}]}";
  if (!checkpoint_path.empty()) {
    line += ",\"checkpoint_path\":\"" + checkpoint_path + "\"";
  }
  if (deadline_steps > 0) {
    line += ",\"deadline_steps\":" + std::to_string(deadline_steps);
  }
  return line + "}";
}

std::string sleeper_submit(const std::string& id, int steps,
                           int sleep_ms = 0) {
  return "{\"op\":\"submit\",\"id\":\"" + id +
         "\",\"campaign\":\"sleeper\",\"seed\":\"11\",\"params\":{\"steps\":" +
         std::to_string(steps) +
         ",\"sleep_ms\":" + std::to_string(sleep_ms) + "}}";
}

/// The figure ids with a committed golden (bench_<id>.json; bench_micro is
/// not a campaign), sorted.
std::vector<std::string> golden_figures() {
  std::vector<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator(WILD5G_GOLDEN_DIR)) {
    const std::string stem = entry.path().stem().string();
    if (entry.path().extension() == ".json" && stem.rfind("bench_", 0) == 0 &&
        stem != "bench_micro") {
      ids.push_back(stem.substr(6));
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

// --- tests ------------------------------------------------------------------

TEST(soak, batch_client_submits_closes_stdin_and_reads_every_result) {
  ServeClient serve;
  serve.send(soak_submit("j1"));
  serve.close_stdin();  // graceful drain: queued work still runs to done
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0);
  ASSERT_FALSE(lines.empty());

  const std::vector<json::Value> events = parse_all(lines);
  // hello is the first event and advertises the protocol + registry.
  EXPECT_EQ(events.front().find("event")->as_string(), "hello");
  EXPECT_EQ(events.front().find("protocol")->as_number(), 1.0);
  std::set<std::string> campaigns;
  for (const auto& name : events.front().find("campaigns")->as_array()) {
    campaigns.insert(name.as_string());
  }
  EXPECT_EQ(campaigns.count("drive_soak"), 1u);
  EXPECT_EQ(campaigns.count("sleeper"), 1u);

  const json::Value* accepted = find_event(events, "accepted", "j1");
  ASSERT_NE(accepted, nullptr);
  const auto total =
      static_cast<std::size_t>(accepted->find("total_steps")->as_number());
  ASSERT_GT(total, 0u);

  // One frame per step, strictly in step order.
  std::size_t next_expected = 0;
  for (const auto& event : events) {
    if (event.find("event")->as_string() != "frame") continue;
    EXPECT_EQ(event.find("step")->as_number(),
              static_cast<double>(next_expected));
    ++next_expected;
  }
  EXPECT_EQ(next_expected, total);

  const json::Value* done = find_event(events, "done", "j1");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "completed");
  EXPECT_EQ(done->find("next_step")->as_number(), static_cast<double>(total));

  const json::Value* result = find_event(events, "result", "j1");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("document")->find("bench")->as_string(),
            "drive_soak");
  expect_uptime_invariant(events);
}

TEST(soak, frame_stream_is_byte_identical_across_runs_and_thread_counts) {
  auto run = [](const std::vector<std::string>& args) {
    ServeClient serve(args);
    serve.send(soak_submit("j1"));
    serve.close_stdin();
    const std::vector<std::string> lines = serve.read_to_eof();
    EXPECT_EQ(serve.wait(), 0);
    return campaign_stream(lines, "j1");
  };
  const std::vector<std::string> serial_a = run({"--threads", "1"});
  const std::vector<std::string> serial_b = run({"--threads", "1"});
  const std::vector<std::string> parallel_8 = run({"--threads", "8"});
  ASSERT_FALSE(serial_a.empty());
  EXPECT_EQ(serial_a, serial_b) << "same submit, two runs, different bytes";
  EXPECT_EQ(serial_a, parallel_8)
      << "thread count leaked into the campaign event stream";
}

TEST(soak, sigkill_mid_campaign_then_resume_is_byte_identical) {
  // Reference: the uninterrupted stream.
  std::vector<std::string> reference;
  {
    ServeClient serve;
    serve.send(soak_submit("j1"));
    serve.close_stdin();
    reference = campaign_stream(serve.read_to_eof(), "j1");
    EXPECT_EQ(serve.wait(), 0);
  }
  ASSERT_FALSE(reference.empty());
  std::map<std::size_t, std::string> reference_frames;
  std::string reference_result;
  for (const auto& line : reference) {
    const json::Value event = json::parse(line);
    const std::string name = event.find("event")->as_string();
    if (name == "frame") {
      reference_frames[static_cast<std::size_t>(
          event.find("step")->as_number())] = line;
    } else if (name == "result") {
      reference_result = line;
    }
  }
  ASSERT_FALSE(reference_result.empty());

  // Chaos: same submit with checkpoints on; SIGKILL — no cleanup, no
  // handler — once the third checkpoint has hit the disk.
  const std::string ckpt = ::testing::TempDir() + "wild5g_soak_" +
                           std::to_string(::getpid()) + ".ckpt";
  std::remove(ckpt.c_str());
  std::size_t killed_after_step = 0;
  {
    ServeClient serve;
    serve.send(soak_submit("j1", ckpt));
    std::vector<std::string> seen;
    std::string line;
    while (serve.read_line(&line)) {
      seen.push_back(line);
      const json::Value event = json::parse(line);
      if (event.find("event")->as_string() != "ckpt") continue;
      killed_after_step =
          static_cast<std::size_t>(event.find("next_step")->as_number());
      if (killed_after_step >= 3) break;
    }
    ASSERT_GE(killed_after_step, 3u) << "service finished before the kill";
    serve.signal(SIGKILL);
    EXPECT_EQ(serve.wait(), 128 + SIGKILL);
    // Frames emitted before the kill must already match the reference.
    for (const auto& pre : campaign_stream(seen, "j1")) {
      const json::Value event = json::parse(pre);
      if (event.find("event")->as_string() != "frame") continue;
      const auto step =
          static_cast<std::size_t>(event.find("step")->as_number());
      EXPECT_EQ(pre, reference_frames.at(step));
    }
  }

  // Resume in a fresh service: the stream continues exactly where the
  // snapshot says, and the final document is byte-identical.
  {
    ServeClient serve;
    serve.send("{\"op\":\"resume\",\"id\":\"j1\",\"snapshot_path\":\"" +
               ckpt + "\"}");
    serve.close_stdin();
    const std::vector<std::string> lines = serve.read_to_eof();
    EXPECT_EQ(serve.wait(), 0);
    const std::vector<json::Value> events = parse_all(lines);

    const json::Value* accepted = find_event(events, "accepted", "j1");
    ASSERT_NE(accepted, nullptr);
    const auto start =
        static_cast<std::size_t>(accepted->find("start_step")->as_number());
    EXPECT_GE(start, 3u) << "resume ignored the snapshot's progress";

    std::size_t expected_step = start;
    std::string resumed_result;
    for (const auto& line : campaign_stream(lines, "j1")) {
      const json::Value event = json::parse(line);
      const std::string name = event.find("event")->as_string();
      if (name == "frame") {
        ASSERT_EQ(event.find("step")->as_number(),
                  static_cast<double>(expected_step));
        EXPECT_EQ(line, reference_frames.at(expected_step))
            << "resumed frame " << expected_step
            << " diverged from the uninterrupted run";
        ++expected_step;
      } else if (name == "result") {
        resumed_result = line;
      }
    }
    EXPECT_EQ(expected_step, reference_frames.size())
        << "resumed run did not finish the remaining steps";
    EXPECT_EQ(resumed_result, reference_result)
        << "splice is not byte-identical to the uninterrupted document";

    const json::Value* done = find_event(events, "done", "j1");
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->find("status")->as_string(), "completed");
    expect_uptime_invariant(events);
  }
  std::remove(ckpt.c_str());
}

TEST(soak, status_answers_while_a_checkpoint_write_blocks) {
  // A checkpoint write that blocks (slow disk, full pipe) must not stall
  // the protocol thread. save_snapshot writes `<path>.tmp` first; making
  // that a FIFO blocks its open until a reader appears. The job's status
  // reports next_step 1 only after on_yield has recorded the step under
  // the service mutex, i.e. once the compute thread is headed into the
  // blocked write. Answering that status (and a second one) within a
  // bounded wait proves the mutex is not held across the write.
  const std::string ckpt = ::testing::TempDir() + "wild5g_soak_fifo_" +
                           std::to_string(::getpid()) + ".ckpt";
  const std::string tmp = ckpt + ".tmp";
  std::remove(ckpt.c_str());
  std::remove(tmp.c_str());
  ASSERT_EQ(::mkfifo(tmp.c_str(), 0600), 0) << std::strerror(errno);

  ServeClient serve;
  serve.send(
      "{\"op\":\"submit\",\"id\":\"j1\",\"campaign\":\"sleeper\","
      "\"seed\":\"11\",\"params\":{\"steps\":2},\"checkpoint_path\":\"" +
      ckpt + "\"}");
  std::vector<std::string> lines;
  serve.read_until_event("accepted", &lines);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // Reads up to the next status event; false if the service stays silent
  // until the deadline.
  const auto next_status = [&](json::Value* status) {
    std::string line;
    while (serve.read_line(&line, deadline)) {
      lines.push_back(line);
      *status = json::parse(line);
      if (status->find("event")->as_string() == "status") return true;
    }
    return false;
  };
  bool yielded = false;
  bool answered = false;
  json::Value status;
  while (!yielded) {
    serve.send("{\"op\":\"status\",\"id\":\"j1\"}");
    if (!next_status(&status)) break;
    yielded = status.find("next_step")->as_number() >= 1.0;
  }
  if (yielded) {
    serve.send("{\"op\":\"status\"}");
    answered = next_status(&status);
  }
  EXPECT_TRUE(yielded && answered)
      << "status went unanswered for 10 s while a checkpoint write blocked";
  for (const auto& line : lines) {
    EXPECT_NE(json::parse(line).find("event")->as_string(), "ckpt")
        << "the checkpoint finished before its FIFO had a reader";
  }

  // Let the blocked write finish: read the snapshot out of the FIFO.
  const int fifo = ::open(tmp.c_str(), O_RDONLY);
  ASSERT_GE(fifo, 0) << std::strerror(errno);
  std::string snapshot;
  char buffer[4096];
  for (ssize_t n; (n = ::read(fifo, buffer, sizeof(buffer))) > 0;) {
    snapshot.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fifo);
  EXPECT_NE(snapshot.find("wild5g-snapshot"), std::string::npos) << snapshot;

  serve.close_stdin();
  for (const auto& line : serve.read_to_eof()) lines.push_back(line);
  EXPECT_EQ(serve.wait(), 0);
  std::remove(ckpt.c_str());
  std::remove(tmp.c_str());
  const std::vector<json::Value> events = parse_all(lines);
  std::size_t ckpts = 0;
  for (const auto& event : events) {
    if (event.find("event")->as_string() == "ckpt") ++ckpts;
  }
  EXPECT_EQ(ckpts, 2u);
  const json::Value* done = find_event(events, "done", "j1");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "completed");
  expect_uptime_invariant(events);
}

TEST(soak, deadline_steps_ends_in_deadline_partial_with_a_result) {
  ServeClient serve;
  serve.send(soak_submit("j1", "", /*deadline_steps=*/2));
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0);
  const std::vector<json::Value> events = parse_all(lines);

  std::size_t frames = 0;
  for (const auto& event : events) {
    if (event.find("event")->as_string() == "frame") ++frames;
  }
  EXPECT_EQ(frames, 2u);

  const json::Value* done = find_event(events, "done", "j1");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "deadline_partial");
  EXPECT_EQ(done->find("next_step")->as_number(), 2.0);
  // A deadline is a supervised outcome: the partial document still ships.
  EXPECT_NE(find_event(events, "result", "j1"), nullptr);
  expect_uptime_invariant(events);
}

TEST(soak, every_served_figure_matches_its_golden) {
  // The service and the batch path (wild5g_run, which the golden gate
  // drives) must produce the same document bytes for every figure: submit
  // them all to one service session and diff each result against its
  // golden, canonicalized through json::parse + json::dump.
  const std::vector<std::string> ids = golden_figures();
  ASSERT_FALSE(ids.empty());
  ServeClient serve;
  for (const auto& id : ids) {
    serve.send("{\"op\":\"submit\",\"id\":\"" + id + "\",\"campaign\":\"" +
               id + "\"}");
  }
  serve.close_stdin();
  const std::vector<json::Value> events = parse_all(serve.read_to_eof());
  EXPECT_EQ(serve.wait(), 0);
  for (const auto& id : ids) {
    const json::Value* result = find_event(events, "result", id);
    ASSERT_NE(result, nullptr) << id << " produced no result";
    std::ifstream golden(std::string(WILD5G_GOLDEN_DIR) + "/bench_" + id +
                         ".json");
    const std::string golden_text((std::istreambuf_iterator<char>(golden)),
                                  std::istreambuf_iterator<char>());
    EXPECT_EQ(json::dump(*result->find("document")),
              json::dump(json::parse(golden_text)))
        << "served " << id << " differs from its golden";
  }
  expect_uptime_invariant(events);
}

TEST(soak, deadline_partial_result_carries_every_completed_row) {
  // extension_metro_qoe adds one row per step; stopped after 3 of its 4
  // steps, the
  // partial result document must carry those 3 rows.
  ServeClient serve;
  serve.send(
      "{\"op\":\"submit\",\"id\":\"q\",\"campaign\":"
      "\"extension_metro_qoe\","
      "\"params\":{\"cells\":2,\"ues\":4},\"deadline_steps\":3}");
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0);
  const std::vector<json::Value> events = parse_all(lines);

  const json::Value* done = find_event(events, "done", "q");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "deadline_partial");
  const json::Value* result = find_event(events, "result", "q");
  ASSERT_NE(result, nullptr);
  const auto& tables = result->find("document")->find("tables")->as_array();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].find("rows")->as_array().size(), 3u);
  expect_uptime_invariant(events);
}

TEST(soak, resume_from_a_malformed_snapshot_is_an_error_event) {
  // Each snapshot is well-formed JSON of the current version whose state a
  // restore must refuse: a stateless campaign handed a campaign_state, and
  // a document_state whose table row does not match its header. The service
  // answers each resume with an error event and keeps serving.
  const std::string request =
      "\"request\":{\"campaign\":\"extension_metro_qoe\",\"seed\":\"1\","
      "\"params\":{\"cells\":2,\"ues\":4}},\"next_step\":1,";
  const std::string empty_doc =
      "{\"rel\":1e-06,\"abs\":1e-09,\"tolerances\":{},\"tables\":[],"
      "\"metrics\":{},\"flags\":{}}";
  const std::string bad_doc =
      "{\"rel\":1e-06,\"abs\":1e-09,\"tolerances\":{},\"tables\":[{\"title\":"
      "\"T\",\"header\":[\"a\",\"b\"],\"rows\":[[\"1\"]]}],\"metrics\":{},"
      "\"flags\":{}}";
  const std::vector<std::string> snapshots = {
      "{\"format\":\"wild5g-snapshot\",\"version\":2," + request +
          "\"campaign_state\":{\"rows\":[]},\"document_state\":" + empty_doc +
          "}",
      "{\"format\":\"wild5g-snapshot\",\"version\":2," + request +
          "\"campaign_state\":null,\"document_state\":" + bad_doc + "}",
  };
  ServeClient serve;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    paths.push_back(::testing::TempDir() + "wild5g_soak_bad_" +
                    std::to_string(::getpid()) + "_" + std::to_string(i) +
                    ".ckpt");
    FILE* file = std::fopen(paths.back().c_str(), "w");
    ASSERT_NE(file, nullptr);
    std::fputs(snapshots[i].c_str(), file);
    std::fclose(file);
    serve.send("{\"op\":\"resume\",\"id\":\"bad" + std::to_string(i) +
               "\",\"snapshot_path\":\"" + paths.back() + "\"}");
  }
  serve.send(sleeper_submit("j1", /*steps=*/2));
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0) << "a malformed snapshot crashed the service";
  for (const auto& path : paths) std::remove(path.c_str());
  const std::vector<json::Value> events = parse_all(lines);

  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const std::string id = "bad" + std::to_string(i);
    EXPECT_NE(find_event(events, "error", id), nullptr) << id;
    EXPECT_EQ(find_event(events, "accepted", id), nullptr) << id;
  }
  const json::Value* done = find_event(events, "done", "j1");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "completed");
  expect_uptime_invariant(events);
}

/// Checkpoints a 3-step sleeper job, rewrites the snapshot's next_step to
/// `next_step`, resumes it in a fresh service as job "r", and returns that
/// service's events.
std::vector<json::Value> resume_sleeper_at(const std::string& tag,
                                           double next_step) {
  const std::string base = ::testing::TempDir() + "wild5g_soak_" + tag + "_" +
                           std::to_string(::getpid());
  const std::string ckpt = base + ".ckpt";
  const std::string edited = base + "_edited.ckpt";
  {
    ServeClient serve;
    serve.send(
        "{\"op\":\"submit\",\"id\":\"src\",\"campaign\":\"sleeper\","
        "\"seed\":\"11\",\"params\":{\"steps\":3},\"checkpoint_path\":\"" +
        ckpt + "\"}");
    serve.close_stdin();
    (void)serve.read_to_eof();
    EXPECT_EQ(serve.wait(), 0);
  }
  std::ifstream in(ckpt);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  json::Value snapshot = json::parse(text);
  snapshot.set("next_step", next_step);
  std::ofstream(edited) << json::dump(snapshot);

  ServeClient serve;
  serve.send("{\"op\":\"resume\",\"id\":\"r\",\"snapshot_path\":\"" + edited +
             "\"}");
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0);
  std::remove(ckpt.c_str());
  std::remove(edited.c_str());
  return parse_all(lines);
}

/// The resume is answered with an error event naming next_step, and never
/// accepted.
void expect_resume_refused(const std::vector<json::Value>& events) {
  const json::Value* error = find_event(events, "error", "r");
  ASSERT_NE(error, nullptr) << "the resume was not refused";
  EXPECT_NE(error->find("message")->as_string().find("next_step"),
            std::string::npos)
      << error->find("message")->as_string();
  EXPECT_EQ(find_event(events, "accepted", "r"), nullptr);
  expect_uptime_invariant(events);
}

TEST(soak, resume_past_the_last_step_is_an_error_event) {
  expect_resume_refused(resume_sleeper_at("past_end", 4));
}

TEST(soak, resume_at_next_step_1e30_is_an_error_event) {
  expect_resume_refused(resume_sleeper_at("huge_step", 1e30));
}

TEST(soak, resume_at_the_last_step_completes_with_no_frame) {
  // next_step == total_steps is a finished run: accepted, nothing to do.
  const std::vector<json::Value> events = resume_sleeper_at("at_end", 3);
  EXPECT_NE(find_event(events, "accepted", "r"), nullptr);
  EXPECT_EQ(find_event(events, "frame", "r"), nullptr);
  const json::Value* done = find_event(events, "done", "r");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "completed");
}

TEST(soak, fractional_sleep_ms_is_an_error_event) {
  ServeClient serve;
  serve.send(
      "{\"op\":\"submit\",\"id\":\"frac\",\"campaign\":\"sleeper\","
      "\"params\":{\"steps\":2,\"sleep_ms\":2.5}}");
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0);
  const std::vector<json::Value> events = parse_all(lines);
  EXPECT_NE(find_event(events, "error", "frac"), nullptr);
  EXPECT_EQ(find_event(events, "accepted", "frac"), nullptr);
}

TEST(soak, deadline_ms_of_1e30_is_an_error_event) {
  ServeClient serve;
  serve.send(
      "{\"op\":\"submit\",\"id\":\"far\",\"campaign\":\"sleeper\","
      "\"params\":{\"steps\":2},\"deadline_ms\":1e30}");
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0);
  const std::vector<json::Value> events = parse_all(lines);
  EXPECT_NE(find_event(events, "error", "far"), nullptr);
  EXPECT_EQ(find_event(events, "accepted", "far"), nullptr);
}

TEST(soak, watchdog_reaps_stuck_campaign_and_the_service_survives) {
  ServeClient serve({"--watchdog-ms", "100"});
  // "stuck": every step dwells 600 ms, six times the watchdog budget.
  serve.send(sleeper_submit("stuck", /*steps=*/3, /*sleep_ms=*/600));
  serve.send(sleeper_submit("next", /*steps=*/2));
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0) << "a stuck campaign took the service down";
  const std::vector<json::Value> events = parse_all(lines);

  EXPECT_NE(find_event(events, "watchdog", "stuck"), nullptr)
      << "watchdog never fired";
  const json::Value* stuck_done = find_event(events, "done", "stuck");
  ASSERT_NE(stuck_done, nullptr);
  EXPECT_EQ(stuck_done->find("status")->as_string(), "cancelled");

  // The queue keeps draining after the reap: the next job completes.
  const json::Value* next_done = find_event(events, "done", "next");
  ASSERT_NE(next_done, nullptr);
  EXPECT_EQ(next_done->find("status")->as_string(), "completed");
  EXPECT_NE(find_event(events, "result", "next"), nullptr);
  expect_uptime_invariant(events);
}

TEST(soak, sigterm_fast_drains_and_exits_zero) {
  ServeClient serve;
  serve.send(sleeper_submit("j1", /*steps=*/50, /*sleep_ms=*/50));
  std::vector<std::string> lines;
  // Wait for proof the campaign is actually running before pulling the plug.
  serve.read_until_event("frame", &lines);
  serve.signal(SIGTERM);
  for (const auto& line : serve.read_to_eof()) lines.push_back(line);
  EXPECT_EQ(serve.wait(), 0) << "graceful shutdown must exit 0";
  const std::vector<json::Value> events = parse_all(lines);

  const json::Value* done = find_event(events, "done", "j1");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "cancelled");
  expect_uptime_invariant(events);
}

TEST(soak, cancel_op_stops_a_queued_job_before_it_runs) {
  ServeClient serve;
  serve.send(sleeper_submit("running", /*steps=*/5, /*sleep_ms=*/200));
  serve.send(sleeper_submit("queued", /*steps=*/3));
  serve.send("{\"op\":\"cancel\",\"id\":\"queued\"}");
  serve.send("{\"op\":\"status\"}");
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0);
  const std::vector<json::Value> events = parse_all(lines);

  const json::Value* cancelled = find_event(events, "done", "queued");
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->find("status")->as_string(), "cancelled");
  EXPECT_EQ(cancelled->find("steps_executed")->as_number(), 0.0)
      << "a cancelled queued job must never execute a step";
  EXPECT_EQ(find_event(events, "result", "queued"), nullptr);

  const json::Value* done = find_event(events, "done", "running");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "completed");

  const json::Value* status = find_event(events, "status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->find("jobs")->as_array().size(), 2u);
  expect_uptime_invariant(events);
}

TEST(soak, protocol_errors_do_not_take_the_service_down) {
  ServeClient serve;
  serve.send("this is not json");
  serve.send("{\"op\":\"frobnicate\"}");
  serve.send("{\"op\":\"submit\",\"id\":\"x\",\"campaign\":\"no_such\"}");
  serve.send("{\"op\":\"cancel\",\"id\":\"never_submitted\"}");
  serve.send(sleeper_submit("j1", /*steps=*/2));
  serve.close_stdin();
  const std::vector<std::string> lines = serve.read_to_eof();
  EXPECT_EQ(serve.wait(), 0) << "bad requests crashed the service";
  const std::vector<json::Value> events = parse_all(lines);

  std::size_t errors = 0;
  for (const auto& event : events) {
    if (event.find("event")->as_string() == "error") ++errors;
  }
  EXPECT_EQ(errors, 4u);

  // The job submitted after the garbage still runs to completion.
  const json::Value* done = find_event(events, "done", "j1");
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->find("status")->as_string(), "completed");
  expect_uptime_invariant(events);
}

TEST(soak, flag_values_that_are_not_positive_integers_are_usage_errors) {
  // A count with trailing junk must not start the service on its numeric
  // prefix; the service exits 2 before it writes a single event.
  for (const std::string flag : {"--threads", "--watchdog-ms"}) {
    for (const std::string value : {"3x", "abc", "0", "-1"}) {
      ServeClient serve({flag, value});
      serve.close_stdin();
      EXPECT_TRUE(serve.read_to_eof().empty()) << flag << " " << value;
      EXPECT_EQ(serve.wait(), 2) << flag << " " << value;
    }
  }
}

TEST(soak, thread_counts_above_the_cap_are_usage_errors) {
  // One past parallel::kMaxThreads and the largest int64 both exit 2 before
  // the service writes an event or starts a thread.
  for (const std::string value : {"257", "9223372036854775807"}) {
    ServeClient serve({"--threads", value});
    serve.close_stdin();
    EXPECT_TRUE(serve.read_to_eof().empty()) << value;
    EXPECT_EQ(serve.wait(), 2) << value;
  }
}

}  // namespace
