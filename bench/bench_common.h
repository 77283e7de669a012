// Batch supervision for the two bench executables: `wild5g_run <campaign>`,
// which runs any registered engine campaign (every paper figure and table,
// src/engine/figures/), and `bench_micro`.
//
// The MetricsEmitter owns the engine::MetricsDocument a run accumulates
// into and writes it with `--json <path>`; committed baselines live in
// bench/golden/ and `ctest -R golden.` diffs fresh runs against them (see
// tools/golden_check.cpp). It is also the runs' *supervision layer*: it
// installs SIGINT/SIGTERM handlers, parses `--deadline-ms`, and wires both
// into engine::run_steps' yield points, so a stopped run flushes a valid
// partial document instead of dying mid-write. Everything clock- or
// signal-shaped lives here, outside src/engine — the engine itself is
// deterministic compute only (DESIGN.md section 12).
#pragma once

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/table.h"
#include "engine/campaign.h"
#include "engine/metrics.h"
#include "engine/runner.h"
#include "faults/fault_plan.h"

namespace wild5g::bench {

namespace detail {

/// The one piece of state a signal handler may touch: the number of the
/// delivery, stored with a relaxed atomic (async-signal-safe on every
/// platform the repo targets).
inline std::atomic<int> g_signal{0};

inline void on_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
}

}  // namespace detail

/// Collects a run's tables and, when the binary was invoked with
/// `--json <path>` (or `--json=<path>`), writes them as deterministic JSON.
/// Mains end with `return emitter.exit_code();` (run_campaign() folds it
/// in) so a failed metrics write exits non-zero; the destructor is only a
/// safety net (and skips writing entirely when an exception is unwinding
/// the stack, so a run that throws mid-way cannot leave a half-populated
/// document for the golden gate to diff confusingly).
///
/// Also strips `--threads N` (or `--threads=N`) and configures the parallel
/// campaign runner with it; `1` forces serial execution and the default is
/// WILD5G_THREADS / hardware concurrency (core/parallel.h). The emitted
/// document never mentions the thread count: output is byte-identical
/// regardless of it, and the determinism gate asserts that.
///
/// Also strips `--faults <plan.json>` (or `--faults=<plan.json>`): the plan
/// is loaded, validated, and embedded in the campaign request, whose
/// factory builds the faults::Injector. Without the flag every harness runs
/// its exact pre-fault code path and the document is byte-identical to a
/// build without the fault layer — the golden gate relies on that. With the
/// flag the document records the plan name under "fault_plan", so a
/// faulted run can never be confused with (or diffed against) a default
/// golden.
///
/// Also strips `--deadline-ms N`: a wall-clock budget for the whole run.
/// When it expires, the run stops at the next yield point, flushes the
/// partial document with a `deadline_hit` metric, and exits 0 — a deadline
/// is a supervised outcome, not a failure. Garbage or non-positive budgets
/// are usage errors (exit 2) like every other flag.
///
/// Supervision: the constructor installs SIGINT/SIGTERM handlers, and
/// run_campaign() polls them (and the deadline) at every yield point of
/// engine::run_steps. Once a poll stops the run, exit_code() flushes the
/// partial document — annotated with a top-level `"interrupted": true` key
/// on signal — then exits 128+signo (signal), 0 (deadline), or 1 (write
/// failure). Steps append their rows to document-owned tables, so the
/// partial document carries every row finished before the stop. Test
/// hooks: WILD5G_DEADLINE_AFTER_YIELDS=N trips the deadline
/// deterministically at the Nth yield (no clock involved), and
/// WILD5G_TEST_YIELD_DELAY_MS=M dwells M ms per yield to widen the
/// signal-delivery window the regression tests race against.
///
/// Recognized flags are stripped from argv so bench_micro can forward argv
/// to google-benchmark's flag parser.
class MetricsEmitter {
 public:
  MetricsEmitter(int& argc, char** argv, std::string bench_id)
      : bench_id_(std::move(bench_id)),
        uncaught_on_entry_(std::uncaught_exceptions()) {
    // wild5g-lint: allow(ban-wall-clock) supervision layer: --deadline-ms
    // budgets wall time by definition; src/engine stays clock-free
    start_ = std::chrono::steady_clock::now();
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        if (i + 1 >= argc) usage_error("--json requires a path argument");
        json_path_ = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        json_path_ = arg.substr(7);
        if (json_path_.empty()) usage_error("--json= requires a path");
      } else if (arg == "--threads") {
        if (i + 1 >= argc) usage_error("--threads requires a count argument");
        set_threads(argv[++i]);
      } else if (arg.rfind("--threads=", 0) == 0) {
        set_threads(arg.substr(10));
      } else if (arg == "--faults") {
        if (i + 1 >= argc) usage_error("--faults requires a plan path");
        load_faults(argv[++i]);
      } else if (arg.rfind("--faults=", 0) == 0) {
        load_faults(arg.substr(9));
      } else if (arg == "--deadline-ms") {
        if (i + 1 >= argc) usage_error("--deadline-ms requires a budget");
        deadline_ms_ = positive_count("--deadline-ms", argv[++i]);
      } else if (arg.rfind("--deadline-ms=", 0) == 0) {
        deadline_ms_ = positive_count("--deadline-ms", arg.substr(14));
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    doc_.emplace(bench_id_, engine::kDefaultSeed,
                 plan_.has_value() ? plan_->name : std::string{});
    read_test_hooks();
    std::signal(SIGINT, detail::on_signal);
    std::signal(SIGTERM, detail::on_signal);
  }

  MetricsEmitter(const MetricsEmitter&) = delete;
  MetricsEmitter& operator=(const MetricsEmitter&) = delete;

  ~MetricsEmitter() {
    // Mid-unwind the document is half-populated: leave nothing behind (a
    // missing file makes the golden gate fail loudly, a partial one would
    // diff confusingly) and let the exception terminate the process.
    if (std::uncaught_exceptions() > uncaught_on_entry_) {
      if (!json_path_.empty()) std::remove(json_path_.c_str());
      return;
    }
    if (!finalized_) (void)finalize();
  }

  /// The run's exit status: finalizes (writing the document when `--json`
  /// was given, annotated first with the "interrupted" flag or the
  /// "deadline_hit" metric when the run was stopped), then reports 1 on
  /// write failure, 128+signo when a signal stopped the run, and 0
  /// otherwise — including the deadline case, which is a supervised partial
  /// result, not an error.
  [[nodiscard]] int exit_code() {
    if (!finalize()) return 1;
    if (interrupted_) return 128 + signal_;
    return 0;
  }

  /// True when this run was asked for a JSON document; bench_micro skips
  /// its machine-dependent timing phase under this.
  [[nodiscard]] bool json_requested() const { return !json_path_.empty(); }

  /// Records a completed table without printing it.
  void record(const Table& table) { doc_->record(table); }

  /// Builds the registered engine campaign named by this run's id from the
  /// flags left in argv: each `--<param> N` sets a positive integer param,
  /// and the `--faults` plan rides along. The factory rejects any param it
  /// does not take, so a mistyped flag is a usage error (exit 2) like an
  /// unknown campaign, a bad count, or a fault plan with kinds the campaign
  /// does not model.
  [[nodiscard]] std::unique_ptr<engine::Campaign> make_campaign(
      int argc, char** argv) const {
    engine::CampaignRequest request;
    request.campaign = bench_id_;
    request.params = json::Value::object();
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--", 0) != 0 || flag.size() == 2) {
        usage_error("unknown argument '" + flag + "'");
      }
      if (i + 1 >= argc) usage_error(flag + " requires a count");
      request.params.set(flag.substr(2), positive_count(flag, argv[++i]));
    }
    request.fault_plan = plan_;
    try {
      return engine::make_campaign(request);
    } catch (const Error& e) {
      usage_error(e.what());
    }
  }

  /// Runs an engine campaign under this emitter's supervision (signals and
  /// deadline wired into the runner's yield points, tables printed to
  /// stdout) and returns the run's exit code.
  [[nodiscard]] int run_campaign(engine::Campaign& campaign) {
    engine::CampaignContext ctx{*doc_, &std::cout};
    engine::RunControl control;
    control.interrupted = [this] {
      poll_supervision();
      return interrupted_;
    };
    control.over_deadline = [this] { return deadline_hit_; };
    (void)engine::run_steps(campaign, ctx, control);
    return exit_code();
  }

 private:
  /// Flag-parse failures are usage errors, not campaign results: print a
  /// clear message and exit non-zero immediately instead of silently
  /// running something other than what was asked.
  [[noreturn]] void usage_error(const std::string& message) const {
    std::cerr << bench_id_ << ": " << message << "\n";
    std::exit(2);
  }

  /// Parses a strictly positive integer flag value (`--ues 100`); anything
  /// else — garbage, trailing junk, zero, negative, above INT_MAX — is a
  /// usage error (exit 2). Campaign sizes of zero are always a typo, never a
  /// request for an empty measurement.
  [[nodiscard]] int positive_count(const std::string& flag,
                                   const std::string& text) const {
    std::size_t parsed = 0;
    long value = 0;
    try {
      value = std::stol(text, &parsed);
    } catch (const std::exception&) {
      usage_error(flag + ": '" + text + "' is not a count");
    }
    if (parsed != text.size()) {
      usage_error(flag + ": '" + text + "' is not a count");
    }
    if (value <= 0) {
      usage_error(flag + ": count must be >= 1, got '" + text + "'");
    }
    if (value > INT_MAX) {
      usage_error(flag + ": count must be <= " + std::to_string(INT_MAX) +
                  ", got '" + text + "'");
    }
    return static_cast<int>(value);
  }

  /// Writes the document (when `--json` was given) and reports whether this
  /// run's metrics made it to disk. Idempotent.
  [[nodiscard]] bool finalize() {
    if (finalized_) return ok_;
    finalized_ = true;
    if (interrupted_) doc_->set_flag("interrupted");
    if (deadline_hit_) doc_->metric("deadline_hit", 1.0);
    if (json_path_.empty()) return ok_;
    try {
      const std::string text = json::dump(doc_->document());
      std::ofstream out(json_path_, std::ios::binary | std::ios::trunc);
      require(out.good(),
              "MetricsEmitter: cannot open '" + json_path_ + "' for writing");
      out << text;
      out.flush();
      require(out.good(), "MetricsEmitter: write to '" + json_path_ +
                              "' failed");
    } catch (const std::exception& e) {
      // Leave no output file behind: a missing document makes the golden
      // gate fail loudly instead of comparing against a stale artifact.
      std::remove(json_path_.c_str());
      std::cerr << "MetricsEmitter: failed to write '" << json_path_
                << "': " << e.what() << "\n";
      ok_ = false;
    }
    return ok_;
  }

  void set_threads(const std::string& text) const {
    if (text.empty()) usage_error("--threads requires a count argument");
    std::size_t parsed = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(text, &parsed);
    } catch (const std::exception&) {
      usage_error("--threads: '" + text + "' is not a thread count");
    }
    if (parsed != text.size()) {
      usage_error("--threads: '" + text + "' is not a thread count");
    }
    if (value == 0) {
      // set_thread_count(0) means "restore auto" as an API, but as a flag
      // `--threads 0` is always a typo for `--threads 1`; silently running
      // at hardware concurrency would mislabel any timing the caller
      // records.
      usage_error("--threads: count must be >= 1 ('auto' is the default; "
                  "0 is not a thread count)");
    }
    parallel::set_thread_count(static_cast<std::size_t>(value));
  }

  void load_faults(const std::string& path) {
    if (path.empty()) usage_error("--faults requires a plan path");
    try {
      plan_ = faults::FaultPlan::load(path);
    } catch (const std::exception& e) {
      // A bad plan is a usage error, not a measurement: refuse to run
      // rather than silently measuring something other than what was asked.
      usage_error(std::string("--faults: ") + e.what());
    }
  }

  /// Test hooks are WILD5G_-prefixed env vars so the supervision tests can
  /// pin nondeterministic timing without patching the binary. Lenient
  /// parsing: they are test plumbing, not user flags.
  void read_test_hooks() {
    if (const char* text = std::getenv("WILD5G_DEADLINE_AFTER_YIELDS")) {
      deadline_after_yields_ = std::atol(text);
    }
    if (const char* text = std::getenv("WILD5G_TEST_YIELD_DELAY_MS")) {
      yield_delay_ms_ = std::atol(text);
    }
  }

  /// One supervision poll = one yield. Sticky: once stopped, later polls
  /// change nothing, so a signal can never be overwritten by a deadline
  /// (or vice versa) and exit_code() reports the first cause.
  void poll_supervision() {
    if (stopped_) return;
    ++yields_;
    if (yield_delay_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(yield_delay_ms_));
    }
    const int sig = detail::g_signal.load(std::memory_order_relaxed);
    if (sig != 0) {
      stopped_ = true;
      interrupted_ = true;
      signal_ = sig;
      return;
    }
    if (deadline_after_yields_ > 0 && yields_ >= deadline_after_yields_) {
      stopped_ = true;
      deadline_hit_ = true;
      return;
    }
    if (deadline_ms_ > 0) {
      // wild5g-lint: allow(ban-wall-clock) the --deadline-ms supervision
      // check; the engine under this layer never reads a clock
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      if (elapsed >= std::chrono::milliseconds(deadline_ms_)) {
        stopped_ = true;
        deadline_hit_ = true;
      }
    }
  }

  std::string bench_id_;
  std::string json_path_;
  std::optional<faults::FaultPlan> plan_;
  int uncaught_on_entry_ = 0;
  bool finalized_ = false;
  bool ok_ = true;
  std::optional<engine::MetricsDocument> doc_;
  // wild5g-lint: allow(ban-wall-clock) supervision state for --deadline-ms
  std::chrono::steady_clock::time_point start_;
  int deadline_ms_ = 0;
  long deadline_after_yields_ = 0;
  long yield_delay_ms_ = 0;
  long yields_ = 0;
  bool stopped_ = false;
  bool interrupted_ = false;
  bool deadline_hit_ = false;
  int signal_ = 0;
};

}  // namespace wild5g::bench
