// wild5g_serve: the long-running campaign service (DESIGN.md section 12).
//
// Speaks a line-oriented JSON protocol (version 1) on stdin/stdout: the
// client submits campaigns by registry name, the service streams one frame
// per executed step, and every campaign ends in exactly one of the states
// {completed, cancelled, deadline_partial} — the uptime invariant the chaos
// soak suite (tests/test_soak.cpp) gates.
//
// Threads:
//   - protocol (main): reads request lines, enqueues jobs, answers
//     status/cancel, and owns the drain sequence;
//   - compute: pops jobs FIFO and drives engine::run_steps; all frames,
//     checkpoints, done, and result events for a job are emitted here, in
//     step order, so a job's event stream is deterministic;
//   - watchdog: cancels the running job when no yield point has been
//     reached for --watchdog-ms (a stuck step cannot be interrupted, but
//     the job is reaped at its next yield and the service stays up).
//
// Requests (one JSON object per line):
//   {"op":"submit","id":"j1","campaign":"drive_soak","seed":"1","params":{},
//    "fault_plan":{...},"checkpoint_path":"/tmp/j1.ckpt",
//    "deadline_steps":4,"deadline_ms":60000}
//   {"op":"resume","id":"j2","snapshot_path":"/tmp/j1.ckpt"}
//   {"op":"status"}            (or with "id" for one job)
//   {"op":"cancel","id":"j1"}
//   {"op":"shutdown"}          (same drain as EOF / SIGINT / SIGTERM)
//
// Events: hello, accepted, frame, ckpt, watchdog, done, result, status,
// error, bye. Determinism contract: for a given (campaign, seed, params,
// fault_plan, deadline_steps), the sequence of frame/ckpt/done/result
// events is byte-identical at any --threads count, and a run resumed from
// a checkpoint continues the frame stream exactly where the original left
// off.
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <system_error>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "engine/campaign.h"
#include "engine/metrics.h"
#include "engine/runner.h"
#include "engine/snapshot.h"

namespace wild5g {
namespace {

constexpr int kProtocolVersion = 1;

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

/// Milliseconds since an arbitrary epoch, for watchdog heartbeats only —
/// never enters a campaign or an emitted document.
std::int64_t now_ms() {
  // wild5g-lint: allow(ban-wall-clock) watchdog heartbeat; supervision
  // layer only, the engine under it stays clock-free
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
}

/// All stdout writes go through one mutex so concurrently emitted events
/// never interleave mid-line; every event is exactly one flushed line.
class EventWriter {
 public:
  void emit(const json::Value& event) {
    const std::string line = json::dump_compact(event);
    const std::lock_guard<std::mutex> lock(mutex_);
    std::cout << line << '\n' << std::flush;
  }

 private:
  std::mutex mutex_;
};

json::Value make_event(const std::string& name) {
  json::Value event = json::Value::object();
  event.set("event", name);
  return event;
}

/// One submitted campaign. Protocol thread creates it; compute thread runs
/// it; watchdog may set `cancel`. `state` transitions queued -> running ->
/// {completed, cancelled, deadline_partial} under the service mutex.
struct Job {
  std::string id;
  engine::CampaignRequest request;
  std::unique_ptr<engine::Campaign> campaign;
  std::string checkpoint_path;  // empty: no checkpoints
  std::size_t deadline_steps = 0;
  std::int64_t deadline_ms = 0;
  std::size_t start_step = 0;                  // > 0 for resumed jobs
  std::optional<engine::MetricsDocument> doc;  // restored for resumed jobs
  std::size_t total_steps = 0;
  std::atomic<bool> cancel{false};
  std::string state = "queued";
  std::size_t next_step = 0;
};

/// The service: job table, FIFO queue, and the three threads' shared state.
class Service {
 public:
  Service(EventWriter& out, std::int64_t watchdog_ms)
      : out_(out), watchdog_ms_(watchdog_ms) {}

  void handle_line(const std::string& line) {
    json::Value request;
    try {
      request = json::parse(line);
    } catch (const std::exception& e) {
      emit_error("", std::string("bad request line: ") + e.what());
      return;
    }
    const json::Value* op = request.find("op");
    if (op == nullptr || !op->is_string()) {
      emit_error("", "request has no string 'op'");
      return;
    }
    try {
      dispatch(op->as_string(), request);
    } catch (const std::exception& e) {
      const json::Value* id = request.find("id");
      emit_error(id != nullptr && id->is_string() ? id->as_string() : "",
                 e.what());
    }
  }

  [[nodiscard]] bool draining() const { return draining_.load(); }

  void start() {
    compute_ = std::thread([this] { compute_loop(); });
    // The watchdog thread always runs: besides the --watchdog-ms stall
    // check it escalates a signal that lands during a graceful drain
    // (when the protocol thread is already blocked joining) into a
    // cancel-everything fast drain, so SIGTERM always terminates.
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }

  /// Stops accepting new jobs. `cancel_jobs` false (EOF / shutdown op) lets
  /// the running and queued campaigns finish — a batch client can submit,
  /// close stdin, and read every result; true (SIGINT/SIGTERM) cancels the
  /// running job at its next yield and fails the queue fast.
  void drain(bool cancel_jobs) {
    std::vector<std::shared_ptr<Job>> cancelled;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      draining_.store(true);
      if (cancel_jobs) {
        for (const auto& job : queue_) {
          job->state = "cancelled";
          cancelled.push_back(job);
        }
        queue_.clear();
        if (running_ != nullptr) running_->cancel.store(true);
      }
    }
    for (const auto& job : cancelled) {
      emit_done(*job, "cancelled", 0, job->start_step);
    }
    cv_.notify_all();
  }

  /// Joins the workers (the compute thread first finishes whatever drain()
  /// left runnable) and reports every job's final state.
  void join_and_bye() {
    if (compute_.joinable()) compute_.join();
    if (watchdog_.joinable()) watchdog_.join();
    json::Value bye = make_event("bye");
    json::Value jobs = json::Value::array();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& [id, job] : jobs_) {
        json::Value entry = json::Value::object();
        entry.set("id", id);
        entry.set("state", job->state);
        jobs.push_back(std::move(entry));
      }
    }
    bye.set("jobs", std::move(jobs));
    out_.emit(bye);
  }

 private:
  void dispatch(const std::string& op, const json::Value& request) {
    if (op == "submit") {
      submit(request, /*resume=*/false);
    } else if (op == "resume") {
      submit(request, /*resume=*/true);
    } else if (op == "status") {
      status(request);
    } else if (op == "cancel") {
      cancel(request);
    } else if (op == "shutdown") {
      draining_.store(true);
      cv_.notify_all();
    } else {
      throw Error("unknown op '" + op + "'");
    }
  }

  std::string require_id(const json::Value& request) {
    const json::Value* id = request.find("id");
    require(id != nullptr && id->is_string() && !id->as_string().empty(),
            "request needs a non-empty string 'id'");
    return id->as_string();
  }

  static std::int64_t optional_count(const json::Value& request,
                                     const std::string& key) {
    const json::Value* value = request.find(key);
    if (value == nullptr) return 0;
    require(value->is_number(), "'" + key + "' must be a number");
    const double raw = value->as_number();
    require(raw >= 0 && raw == static_cast<double>(static_cast<std::int64_t>(
                                   raw)),
            "'" + key + "' must be a non-negative integer");
    return static_cast<std::int64_t>(raw);
  }

  void submit(const json::Value& request, bool resume) {
    const std::string id = require_id(request);
    auto job = std::make_shared<Job>();
    job->id = id;
    engine::Snapshot snapshot;
    if (resume) {
      const json::Value* path = request.find("snapshot_path");
      require(path != nullptr && path->is_string(),
              "resume needs a string 'snapshot_path'");
      snapshot = engine::load_snapshot(path->as_string());
      job->request = snapshot.request;
    } else {
      // The submit message itself carries the request fields
      // (campaign/seed/params/fault_plan); extra protocol keys are ignored
      // by request_from_json.
      job->request = engine::request_from_json(request);
    }
    job->campaign = engine::make_campaign(job->request);
    job->doc.emplace(job->request.campaign, job->request.seed,
                     job->request.fault_plan.has_value()
                         ? job->request.fault_plan->name
                         : std::string{});
    if (resume) {
      // Both restores run here, so a malformed snapshot is answered with an
      // error event before the job is accepted.
      job->campaign->restore_state(snapshot.campaign_state);
      job->doc->restore_state(snapshot.document_state);
      job->start_step = snapshot.next_step;
      job->next_step = snapshot.next_step;
    }
    if (const json::Value* path = request.find("checkpoint_path")) {
      require(path->is_string(), "'checkpoint_path' must be a string");
      job->checkpoint_path = path->as_string();
    }
    job->deadline_steps = static_cast<std::size_t>(
        optional_count(request, "deadline_steps"));
    job->deadline_ms = optional_count(request, "deadline_ms");
    job->total_steps = job->campaign->total_steps();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      require(!draining_.load(), "service is draining");
      require(jobs_.count(id) == 0, "duplicate job id '" + id + "'");
      jobs_[id] = job;
    }
    // Emit accepted before the job becomes runnable so a client always sees
    // accepted strictly before the job's first frame.
    json::Value event = make_event("accepted");
    event.set("id", id);
    event.set("campaign", job->request.campaign);
    event.set("total_steps", static_cast<std::uint64_t>(job->total_steps));
    event.set("start_step", static_cast<std::uint64_t>(job->start_step));
    out_.emit(event);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      // An immediate cancel can land between registration and queueing; a
      // job no longer "queued" must not be queued twice.
      if (job->state == "queued") queue_.push_back(job);
    }
    cv_.notify_all();
  }

  void status(const json::Value& request) {
    json::Value event = make_event("status");
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const json::Value* id = request.find("id")) {
      require(id->is_string(), "'id' must be a string");
      const auto it = jobs_.find(id->as_string());
      require(it != jobs_.end(), "unknown job id '" + id->as_string() + "'");
      event.set("id", it->first);
      event.set("state", it->second->state);
      event.set("next_step",
                static_cast<std::uint64_t>(it->second->next_step));
      event.set("total_steps",
                static_cast<std::uint64_t>(it->second->total_steps));
    } else {
      json::Value jobs = json::Value::array();
      for (const auto& [id_key, job] : jobs_) {
        json::Value entry = json::Value::object();
        entry.set("id", id_key);
        entry.set("state", job->state);
        entry.set("next_step", static_cast<std::uint64_t>(job->next_step));
        jobs.push_back(std::move(entry));
      }
      event.set("jobs", std::move(jobs));
    }
    out_.emit(event);
  }

  void cancel(const json::Value& request) {
    const std::string id = require_id(request);
    std::shared_ptr<Job> to_finish;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(id);
      require(it != jobs_.end(), "unknown job id '" + id + "'");
      it->second->cancel.store(true);
      // A queued job never reaches the compute thread once cancelled;
      // finish it here so its done event is not deferred behind the queue.
      if (it->second->state == "queued") {
        it->second->state = "cancelled";
        for (auto queued = queue_.begin(); queued != queue_.end(); ++queued) {
          if ((*queued)->id == id) {
            queue_.erase(queued);
            break;
          }
        }
        to_finish = it->second;
      }
    }
    if (to_finish != nullptr) {
      emit_done(*to_finish, "cancelled", 0, to_finish->start_step);
    }
  }

  void emit_error(const std::string& id, const std::string& message) {
    json::Value event = make_event("error");
    if (!id.empty()) event.set("id", id);
    event.set("message", message);
    out_.emit(event);
  }

  void emit_done(const Job& job, const std::string& state,
                 std::size_t steps_executed, std::size_t next_step) {
    json::Value event = make_event("done");
    event.set("id", job.id);
    event.set("status", state);
    event.set("steps_executed", static_cast<std::uint64_t>(steps_executed));
    event.set("next_step", static_cast<std::uint64_t>(next_step));
    out_.emit(event);
  }

  // --- compute thread -------------------------------------------------------

  void compute_loop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return !queue_.empty() || draining_.load(); });
        if (queue_.empty()) return;  // draining and nothing left to run
        job = queue_.front();
        queue_.pop_front();
        job->state = "running";
        running_ = job.get();
        heartbeat_ms_.store(now_ms());
      }
      run_job(*job);
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        running_ = nullptr;
      }
    }
  }

  void run_job(Job& job) {
    engine::MetricsDocument& doc = *job.doc;
    engine::CampaignContext ctx{doc, nullptr};

    engine::RunControl control;
    control.start_step = job.start_step;
    control.deadline_steps = job.deadline_steps;
    control.cancelled = [&job] { return job.cancel.load(); };
    if (job.deadline_ms > 0) {
      const std::int64_t deadline = now_ms() + job.deadline_ms;
      control.over_deadline = [deadline] { return now_ms() >= deadline; };
    }
    control.on_frame = [this, &job](std::size_t step,
                                    const json::Value& frame) {
      json::Value event = make_event("frame");
      event.set("id", job.id);
      event.set("step", static_cast<std::uint64_t>(step));
      event.set("payload", frame);
      out_.emit(event);
    };
    control.on_yield = [this, &job, &doc](std::size_t next_step) {
      heartbeat_ms_.store(now_ms());
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        job.next_step = next_step;
      }
      if (job.checkpoint_path.empty()) return;
      engine::Snapshot snapshot;
      snapshot.request = job.request;
      snapshot.next_step = next_step;
      snapshot.campaign_state = job.campaign->checkpoint_state();
      snapshot.document_state = doc.checkpoint_state();
      engine::save_snapshot(snapshot, job.checkpoint_path);
      json::Value event = make_event("ckpt");
      event.set("id", job.id);
      event.set("next_step", static_cast<std::uint64_t>(next_step));
      out_.emit(event);
    };

    std::string state = "cancelled";
    engine::RunOutcome outcome;
    try {
      outcome = engine::run_steps(*job.campaign, ctx, control);
      state = engine::to_string(outcome.status);
      // The service maps every interruption to a cancellation; the runner's
      // kInterrupted never fires here (no interrupted predicate is wired).
      if (outcome.status == engine::RunStatus::kDeadline) {
        state = "deadline_partial";
      }
    } catch (const std::exception& e) {
      // A throwing step is a campaign bug, but one job's bug must not take
      // the service down: report it and mark the job cancelled so the
      // uptime invariant still holds.
      emit_error(job.id, std::string("campaign step threw: ") + e.what());
      state = "cancelled";
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.state = state;
      job.next_step = outcome.next_step;
    }
    emit_done(job, state, outcome.steps_executed, outcome.next_step);
    if (state == "completed" || state == "deadline_partial") {
      json::Value event = make_event("result");
      event.set("id", job.id);
      event.set("document", doc.document());
      out_.emit(event);
    }
  }

  // --- watchdog thread ------------------------------------------------------

  void watchdog_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      cv_.wait_for(lock, std::chrono::milliseconds(25));
      // A signal during a graceful drain (protocol thread already joining)
      // escalates to a fast drain so the process still exits promptly.
      if (g_signal.load(std::memory_order_relaxed) != 0) {
        lock.unlock();
        drain(/*cancel_jobs=*/true);
        lock.lock();
      }
      if (draining_.load()) {
        const bool idle = running_ == nullptr && queue_.empty();
        if (idle) return;
      }
      if (watchdog_ms_ <= 0 || running_ == nullptr ||
          running_->cancel.load()) {
        continue;
      }
      const std::int64_t stalled = now_ms() - heartbeat_ms_.load();
      if (stalled < watchdog_ms_) continue;
      running_->cancel.store(true);
      json::Value event = make_event("watchdog");
      event.set("id", running_->id);
      event.set("stalled_ms", static_cast<std::uint64_t>(stalled));
      lock.unlock();
      out_.emit(event);
      lock.lock();
    }
  }

  EventWriter& out_;
  const std::int64_t watchdog_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::deque<std::shared_ptr<Job>> queue_;
  Job* running_ = nullptr;
  std::atomic<std::int64_t> heartbeat_ms_{0};
  std::atomic<bool> draining_{false};
  std::thread compute_;
  std::thread watchdog_;
};

// --- sleeper: the soak suite's controllable test campaign -------------------

/// A campaign whose only job is to be supervised: each step optionally
/// dwells `sleep_ms` of wall time (to widen cancellation windows and to
/// simulate a stuck step for the watchdog) and draws one value from a
/// checkpointed Rng stream, so its frame stream still has real state to
/// prove resume byte-identity with. The Rng and the running sum are
/// cross-step state the document does not hold, so it keeps both checkpoint
/// hooks. Registered only by wild5g_serve.
class SleeperCampaign : public engine::Campaign {
 public:
  SleeperCampaign(const engine::CampaignRequest& request, int steps,
                  std::int64_t sleep_ms)
      : rng_(request.seed), steps_(steps), sleep_ms_(sleep_ms) {}

  [[nodiscard]] std::size_t total_steps() const override {
    return static_cast<std::size_t>(steps_);
  }

  [[nodiscard]] json::Value execute_step(std::size_t index,
                                         engine::CampaignContext& ctx)
      override {
    if (sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    const double draw = rng_.uniform(0.0, 1.0);
    sum_ += draw;
    if (index + 1 == total_steps()) {
      ctx.doc.metric("sleeper_sum", sum_);
    }
    json::Value frame = json::Value::object();
    frame.set("draw", draw);
    return frame;
  }

  [[nodiscard]] json::Value checkpoint_state() const override {
    json::Value state = json::Value::object();
    state.set("rng", rng_.serialize_state());
    state.set("sum", sum_);
    return state;
  }

  void restore_state(const json::Value& state) override {
    const json::Value* rng = state.find("rng");
    const json::Value* sum = state.find("sum");
    require(rng != nullptr && rng->is_string() && sum != nullptr &&
                sum->is_number(),
            "sleeper state: need string 'rng' and number 'sum'");
    rng_ = Rng::deserialize_state(rng->as_string());
    sum_ = sum->as_number();
  }

 private:
  Rng rng_;
  int steps_;
  std::int64_t sleep_ms_;
  double sum_ = 0.0;
};

std::unique_ptr<engine::Campaign> make_sleeper(
    const engine::CampaignRequest& request) {
  engine::reject_unknown_params(request.params, {"steps", "sleep_ms"});
  const int steps = engine::param_positive_int(request.params, "steps", 5);
  std::int64_t sleep_ms = 0;
  if (!request.params.is_null()) {
    if (const json::Value* value = request.params.find("sleep_ms")) {
      require(value->is_number() && value->as_number() >= 0,
              "sleeper params: 'sleep_ms' must be a non-negative number");
      sleep_ms = static_cast<std::int64_t>(value->as_number());
    }
  }
  return std::make_unique<SleeperCampaign>(request, steps, sleep_ms);
}

/// Parses a flag value that must be entirely a positive integer; anything
/// else (trailing junk, a sign, zero, overflow) is a usage error (exit 2).
std::int64_t positive_flag(const std::string& name, const std::string& text) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end || value <= 0) {
    std::cerr << "wild5g_serve: " << name
              << " must be a positive integer, got '" << text << "'\n";
    std::exit(2);
  }
  return value;
}

int serve_main(int argc, char** argv) {
  std::int64_t watchdog_ms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto long_flag = [&](const std::string& name,
                         std::int64_t& target) -> bool {
      if (arg == name) {
        if (i + 1 >= argc) {
          std::cerr << "wild5g_serve: " << name << " requires a value\n";
          std::exit(2);
        }
        target = positive_flag(name, argv[++i]);
        return true;
      }
      if (arg.rfind(name + "=", 0) == 0) {
        target = positive_flag(name, arg.substr(name.size() + 1));
        return true;
      }
      return false;
    };
    std::int64_t threads = 0;
    if (long_flag("--watchdog-ms", watchdog_ms)) continue;
    if (long_flag("--threads", threads)) {
      parallel::set_thread_count(static_cast<std::size_t>(threads));
      continue;
    }
    std::cerr << "wild5g_serve: unknown flag '" << arg << "'\n";
    std::exit(2);
  }

  engine::register_builtin_campaigns();
  engine::register_campaign("sleeper", make_sleeper);

  // sigaction without SA_RESTART: the signal must interrupt the protocol
  // thread's blocking read() (EINTR) so the drain starts immediately —
  // std::signal() on glibc installs SA_RESTART and would resume the read,
  // leaving the process alive until the client happens to hang up.
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = on_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // A client that goes away mid-stream must read as EOF, not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  EventWriter out;
  Service service(out, watchdog_ms);
  // The kernel delivers a process-directed signal to an arbitrary thread
  // with it unblocked; mask it while spawning the workers (they inherit the
  // mask) so delivery always interrupts the protocol thread's read().
  sigset_t supervised;
  sigemptyset(&supervised);
  sigaddset(&supervised, SIGINT);
  sigaddset(&supervised, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &supervised, nullptr);
  service.start();
  pthread_sigmask(SIG_UNBLOCK, &supervised, nullptr);

  json::Value hello = make_event("hello");
  hello.set("service", "wild5g_serve");
  hello.set("protocol", kProtocolVersion);
  json::Value names = json::Value::array();
  for (const auto& name : engine::campaign_names()) names.push_back(name);
  hello.set("campaigns", std::move(names));
  out.emit(hello);

  // Protocol loop: raw read() so a SIGINT/SIGTERM interrupting the blocking
  // read surfaces as EINTR and starts the drain instead of being lost.
  std::string buffer;
  char chunk[4096];
  for (;;) {
    if (g_signal.load(std::memory_order_relaxed) != 0 || service.draining()) {
      break;
    }
    const ssize_t n = ::read(0, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;  // signal checked at loop top
      break;
    }
    if (n == 0) break;  // EOF: client hung up, drain
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      const std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty()) service.handle_line(line);
    }
    buffer.erase(0, start);
  }

  service.drain(
      /*cancel_jobs=*/g_signal.load(std::memory_order_relaxed) != 0);
  service.join_and_bye();
  return 0;
}

}  // namespace
}  // namespace wild5g

int main(int argc, char** argv) { return wild5g::serve_main(argc, argv); }
