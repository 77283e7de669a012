// wild5g-bench harness: what the four workloads share.
//
// A workload builds its inputs from the seed (setup, timed and repeated),
// then repeats one fixed unit of work (a round) until the pass has run for
// its time budget. Every round produces the same outputs, so the harness
// checks that each round's output digest equals the first round's; the
// workloads range-check each output themselves and count the ones that
// fail. Layer timing is taken from outside the library: the workloads wrap
// calls to public functions and interfaces, and only when a pass is traced.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"
#include "core/parallel.h"

namespace wild5g::perf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// How the workloads are built and run; fixed for one invocation.
struct RunConfig {
  std::uint64_t seed = 0;
  /// Smallest inputs that still run every code path (the self-test).
  bool tiny = false;
  /// Self-test: corrupt one output of the first round, which the workload's
  /// output checks must then count as a failed job.
  bool corrupt = false;
  /// The service binary (serve_drive_soak only).
  std::string serve_bin;
  /// Directory for files the service writes (checkpoints).
  std::string work_dir;
  /// Worker threads for parallel_map and the service's --threads.
  std::size_t threads = 1;
};

/// FNV-1a over the exact bytes of each value, so any changed bit of any
/// output changes the digest.
class Digest {
 public:
  void add(double value);
  void add(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// One repetition of a workload's unit of work.
struct Round {
  /// Work completed, in the workload's unit (sessions, trials, ...).
  double work = 0.0;
  /// Latency of each operation (session, server, setting, job), in the
  /// same order every round.
  std::vector<double> op_ms;
  /// Digest of every output of the round, in a fixed order.
  std::uint64_t digest = 0;
  /// Jobs attempted and failed (threw, failed or partial, out of range).
  long attempted = 0;
  long failed = 0;
};

/// What one pass measured.
struct PassResult {
  double setup_s = 0.0;
  double work = 0.0;
  double elapsed_s = 0.0;
  int rounds = 0;
  /// Work per second of each round.
  std::vector<double> round_rates;
  /// One latency per distinct operation, or per job of a request stream.
  std::vector<double> op_ms;
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  double peak_rss_mb = 0.0;
  json::Value layers = json::Value::object();
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed. Timed as setup_s, so a pass runs it
  /// several times; the last inputs built are the ones measured.
  virtual void setup() = 0;
  /// Releases what the previous setup() built; not timed.
  virtual void discard() {}
  /// Runs one repetition; `traced` turns the per-layer timers on.
  [[nodiscard]] virtual Round round(bool traced) = 0;
  /// Runs after the timed rounds: checks that need the whole pass (adding
  /// to pass.failed) and, when traced, the layer metrics (pass.layers).
  virtual void finish(bool /*traced*/, PassResult& /*pass*/) {}
  /// Peak resident set of whatever ran the work, in MiB.
  [[nodiscard]] virtual double peak_rss_mb() const;
};


/// Sets the workload up (median of several repetitions), then runs rounds
/// until `seconds` have passed and at least `min_rounds` have run.
[[nodiscard]] PassResult run_pass(Workload& workload, double seconds,
                                  bool traced, int min_rounds);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);

/// The round rate that 90% of rounds reach (see harness.cpp).
[[nodiscard]] double steady_rate(const PassResult& pass);

/// The highest percentile that leaves at least ten samples above it, with
/// its value; with ten samples or fewer it is the maximum (percentile 100).
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
};
[[nodiscard]] Tail tail(std::vector<double> values);

/// Sets metrics[name] = {"value": value, "unit": unit}.
void put(json::Value& metrics, const std::string& name, double value,
         const std::string& unit);

/// parallel_map that also records each task's busy time, for
/// core.parallel.idle_share = 1 - busy / (threads x wall).
class ParallelMeter {
 public:
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t n_tasks, Fn&& fn) {
    std::vector<double> busy(n_tasks, 0.0);
    const auto start = Clock::now();
    auto results = parallel::parallel_map(n_tasks, [&](std::size_t i) {
      const auto task_start = Clock::now();
      auto result = fn(i);
      busy[i] = seconds_between(task_start, Clock::now());
      return result;
    });
    wall_s_ += seconds_between(start, Clock::now()) *
               static_cast<double>(parallel::thread_count());
    for (const double b : busy) busy_s_ += b;
    return results;
  }

  [[nodiscard]] double idle_share() const {
    return wall_s_ > 0.0 ? 1.0 - busy_s_ / wall_s_ : 0.0;
  }

 private:
  double busy_s_ = 0.0;
  double wall_s_ = 0.0;  // thread-seconds available
};

}  // namespace wild5g::perf
