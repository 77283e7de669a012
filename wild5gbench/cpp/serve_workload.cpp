// serve_drive_soak: one client with one job outstanding (a closed loop)
// submits drive_soak jobs with a checkpoint path to a wild5g_serve
// subprocess and waits for each result. It is the only workload through
// src/engine, engine::save_snapshot and the service protocol, and it draws
// many Rng words per fork (metro UEs), the opposite of speedtest_survey.
// The job is sized so that metro compute and checkpointing each take a
// large share of it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "engine/campaign.h"
#include "engine/metrics.h"
#include "engine/runner.h"
#include "engine/snapshot.h"
#include "workloads.h"

extern char** environ;

namespace wild5g::perf {
namespace {

/// A reply slower than this means the service is stuck, not slow.
constexpr int kReplyTimeoutMs = 60000;

/// drive_soak's defaults (4 cells x 25 UEs, 30 s intervals) but 6
/// intervals: checkpointing takes about 60% of a job and metro compute the
/// rest, and a job is short enough for a run to collect the hundred-odd
/// samples a tail percentile needs.
json::Value job_params(bool tiny) {
  json::Value params = json::Value::object();
  params.set("intervals", tiny ? 2 : 6);
  params.set("interval_s", tiny ? 5 : 30);
  params.set("cells", tiny ? 2 : 4);
  params.set("ues", tiny ? 3 : 25);
  return params;
}

/// wild5g_serve as a child process behind one stdin/stdout pipe pair.
class ServiceProcess {
 public:
  ServiceProcess(const std::string& binary, std::size_t threads) {
    int to_child[2];
    int from_child[2];
    require(::pipe2(to_child, O_CLOEXEC) == 0 &&
                ::pipe2(from_child, O_CLOEXEC) == 0,
            "wild5g-bench: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    const std::string threads_arg = "--threads=" + std::to_string(threads);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>(threads_arg.c_str()),
                               nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    in_ = to_child[1];
    out_ = from_child[0];
    require(rc == 0, "wild5g-bench: cannot start " + binary);
    const std::string hello = read_line();
    require(hello.find("\"event\":\"hello\"") != std::string::npos,
            "wild5g-bench: service did not say hello: " + hello);
  }

  ServiceProcess(const ServiceProcess&) = delete;
  ServiceProcess& operator=(const ServiceProcess&) = delete;

  ~ServiceProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    close_fd(in_);
    close_fd(out_);
  }

  void write_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(in_, data.data() + done, data.size() - done);
      if (n < 0 && errno == EINTR) continue;
      require(n > 0, "wild5g-bench: service closed its input");
      done += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      pollfd fd{out_, POLLIN, 0};
      const int ready = ::poll(&fd, 1, kReplyTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      require(ready > 0, "wild5g-bench: service did not reply in time");
      char chunk[65536];
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      require(n > 0, "wild5g-bench: service output ended");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Drains the service (EOF on its input), waits for it to exit and
  /// returns its peak resident set in MiB.
  double stop() {
    close_fd(in_);
    char chunk[65536];
    for (;;) {
      pollfd fd{out_, POLLIN, 0};
      const int ready = ::poll(&fd, 1, kReplyTimeoutMs);
      if (ready < 0 && errno == EINTR) continue;
      require(ready > 0, "wild5g-bench: service did not drain in time");
      const ssize_t n = ::read(out_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
    }
    int status = 0;
    struct rusage usage {};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    require(WIFEXITED(status) && WEXITSTATUS(status) == 0,
            "wild5g-bench: service exited abnormally");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  static void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buffer_;
};

/// Forwards to the wrapped campaign, timing each execute_step.
class TimedCampaign final : public engine::Campaign {
 public:
  explicit TimedCampaign(engine::Campaign& inner) : inner_(inner) {}

  [[nodiscard]] std::size_t total_steps() const override {
    return inner_.total_steps();
  }
  [[nodiscard]] json::Value execute_step(
      std::size_t index, engine::CampaignContext& ctx) override {
    const auto start = Clock::now();
    json::Value frame = inner_.execute_step(index, ctx);
    step_ms.push_back(1e3 * seconds_between(start, Clock::now()));
    return frame;
  }
  [[nodiscard]] json::Value checkpoint_state() const override {
    return inner_.checkpoint_state();
  }
  void restore_state(const json::Value& state) override {
    inner_.restore_state(state);
  }

  std::vector<double> step_ms;

 private:
  engine::Campaign& inner_;
};

/// Per-checkpoint times of an in-process run, filled when traced.
struct EngineTimes {
  std::vector<double> checkpoint_state_ms;
  std::vector<double> save_ms;
  std::vector<double> bytes;
  std::vector<double> step_ms;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const RunConfig& config)
      : config_(config),
        tag_(std::to_string(::getpid())),
        service_checkpoint_(config.work_dir + "/serve-" + tag_ + ".ckpt"),
        local_checkpoint_(config.work_dir + "/local-" + tag_ + ".ckpt") {}

  ~ServeWorkload() override {
    std::error_code ignored;
    std::filesystem::remove(service_checkpoint_, ignored);
    std::filesystem::remove(local_checkpoint_, ignored);
  }

  void setup() override {
    service_ = std::make_unique<ServiceProcess>(config_.serve_bin,
                                                config_.threads);
    request_ = json::Value::object();
    request_.set("campaign", "drive_soak");
    request_.set("seed", std::to_string(config_.seed));
    request_.set("params", job_params(config_.tiny));
  }

  void discard() override {
    service_->stop();
    service_.reset();
  }

  [[nodiscard]] Round round(bool traced) override {
    std::string id = std::to_string(jobs_++);
    id.insert(id.begin(), 'j');
    json::Value submit = json::Value::object();
    submit.set("op", "submit");
    submit.set("id", id);
    for (const auto& member : request_.as_object()) {
      submit.set(member.key, member.value);
    }
    submit.set("checkpoint_path", service_checkpoint_);

    Round round;
    round.attempted = 1;
    round.work = 1.0;
    const auto start = Clock::now();
    service_->write_line(json::dump_compact(submit));
    std::string result;
    bool completed = false;
    Clock::time_point last_frame{};
    for (;;) {
      const std::string line = service_->read_line();
      const auto now = Clock::now();
      if (line.rfind("{\"event\":\"frame\"", 0) == 0) {
        if (traced && last_frame != Clock::time_point{}) {
          frame_gap_ms_.push_back(1e3 * seconds_between(last_frame, now));
        }
        last_frame = now;
      } else if (line.rfind("{\"event\":\"done\"", 0) == 0) {
        const json::Value done = json::parse(line);
        const json::Value* status = done.find("status");
        const std::string state =
            status != nullptr && status->is_string() ? status->as_string()
                                                     : "";
        completed = state == "completed";
        // Only completed and deadline_partial jobs send a result.
        if (!completed && state != "deadline_partial") break;
      } else if (line.rfind("{\"event\":\"result\"", 0) == 0) {
        round.op_ms.push_back(1e3 * seconds_between(start, now));
        result = line;
        break;
      } else if (line.rfind("{\"event\":\"error\"", 0) == 0) {
        completed = false;
      }
    }
    if (config_.corrupt && jobs_ == 1 && !result.empty()) {
      result[result.size() / 2] ^= 1;
    }

    // The result line is {"event":"result","id":<id>,"document":<doc>}: keep
    // the document bytes, which every job of the pass must repeat exactly.
    std::string prefix = "{\"event\":\"result\",\"id\":\"";
    prefix += id;
    prefix += "\",\"document\":";
    std::string document;
    if (result.rfind(prefix, 0) == 0) {
      document = result.substr(prefix.size());
    }
    if (!completed || document.empty()) ++round.failed;
    Digest digest;
    digest.add(document);
    round.digest = digest.value();
    document_digests_.push_back(round.digest);
    return round;
  }

  void finish(bool traced, PassResult& pass) override {
    child_rss_mb_ = service_->stop();
    service_.reset();

    // The in-process run of the same request is the reference every
    // service result must equal byte for byte.
    Digest expected;
    expected.add(json::dump_compact(run_in_process(nullptr)) + "}");
    for (const std::uint64_t digest : document_digests_) {
      if (digest != expected.value()) ++pass.failed;
    }
    if (!traced) return;

    std::vector<double> local_ms;
    for (int i = 0; i < 5; ++i) {
      const auto start = Clock::now();
      static_cast<void>(run_in_process(nullptr));
      local_ms.push_back(1e3 * seconds_between(start, Clock::now()));
    }
    EngineTimes times;
    static_cast<void>(run_in_process(&times));
    put(pass.layers, "engine.execute_step_ms_p50", median(times.step_ms), "ms");
    put(pass.layers, "engine.checkpoint_state_ms_p50",
        median(times.checkpoint_state_ms), "ms");
    put(pass.layers, "engine.snapshot_save_ms_p50", median(times.save_ms),
        "ms");
    put(pass.layers, "engine.snapshot_bytes", median(times.bytes), "bytes");
    put(pass.layers, "serve.frame_gap_ms_p50", median(frame_gap_ms_), "ms");
    put(pass.layers, "serve.overhead_ms",
        median(pass.op_ms) - median(local_ms), "ms");
  }

  [[nodiscard]] double peak_rss_mb() const override { return child_rss_mb_; }

 private:
  /// Runs the request through engine::run_steps in this process with the
  /// service's checkpointing, and returns the finished document. With
  /// `times`, each step, checkpoint and snapshot save is timed.
  json::Value run_in_process(EngineTimes* times) const {
    engine::register_builtin_campaigns();
    const engine::CampaignRequest request =
        engine::request_from_json(request_);
    const auto campaign = engine::make_campaign(request);
    TimedCampaign timed(*campaign);
    engine::Campaign& runner_campaign =
        times != nullptr ? static_cast<engine::Campaign&>(timed) : *campaign;
    engine::MetricsDocument doc(request.campaign, request.seed);
    engine::CampaignContext ctx{doc, nullptr};
    engine::RunControl control;
    control.on_yield = [&](std::size_t next_step) {
      const auto start = Clock::now();
      engine::Snapshot snapshot;
      snapshot.request = request;
      snapshot.next_step = next_step;
      snapshot.campaign_state = campaign->checkpoint_state();
      snapshot.document_state = doc.checkpoint_state();
      const auto saving = Clock::now();
      engine::save_snapshot(snapshot, local_checkpoint_);
      if (times == nullptr) return;
      const auto saved = Clock::now();
      times->checkpoint_state_ms.push_back(1e3 *
                                           seconds_between(start, saving));
      times->save_ms.push_back(1e3 * seconds_between(saving, saved));
      times->bytes.push_back(static_cast<double>(
          std::filesystem::file_size(local_checkpoint_)));
    };
    const auto outcome = engine::run_steps(runner_campaign, ctx, control);
    require(outcome.status == engine::RunStatus::kCompleted,
            "wild5g-bench: in-process drive_soak did not complete");
    if (times != nullptr) times->step_ms = timed.step_ms;
    return doc.document();
  }

  RunConfig config_;
  std::string tag_;
  std::string service_checkpoint_;
  std::string local_checkpoint_;
  std::unique_ptr<ServiceProcess> service_;
  json::Value request_;
  int jobs_ = 0;
  std::vector<std::uint64_t> document_digests_;
  std::vector<double> frame_gap_ms_;
  double child_rss_mb_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const RunConfig& config) {
  return std::make_unique<ServeWorkload>(config);
}

}  // namespace wild5g::perf
