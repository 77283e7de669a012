// wild5g_bench: runs one workload and prints its metrics.
//
//   wild5g_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --serve-bin <path> --work-dir <dir> [--tiny] [--corrupt]
//   wild5g_bench --transparency [--tiny]
//
// With --trace 0 the workload runs untraced and the end-to-end metrics are
// printed. With --trace 1 it runs untraced and then traced for the same
// time (the difference is the tracing overhead); every other workload then
// runs a short traced pass too, so that each layer metric is measured on
// the workload that exercises that layer. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <signal.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "engine/campaign.h"
#include "harness.h"
#include "workloads.h"

namespace wild5g::perf {
namespace {

/// Length of the traced pass of each workload other than the named one.
constexpr double kHomePassSeconds = 1.0;

struct WorkloadSpec {
  const char* name;
  const char* work_unit;
  std::unique_ptr<Workload> (*make)(const RunConfig&);
};

/// In the order their traced passes are merged: a layer metric two
/// workloads report (core.parallel.idle_share) is taken from the named
/// workload, else from the last one here that reports it.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"serve_drive_soak", "jobs", make_serve_workload},
      {"power_models", "settings", make_power_workload},
      {"speedtest_survey", "trials", make_speedtest_workload},
      {"abr_trace_eval", "sessions", make_abr_workload},
  };
  return kWorkloads;
}

/// Median over five repetitions of `fn`, which returns ns per operation.
double median_of_five(const std::function<double()>& fn) {
  std::vector<double> values;
  for (int i = 0; i < 5; ++i) values.push_back(fn());
  return median(values);
}

/// Rng::fork plus the first draw (which fills the child's state block),
/// and one draw from a long-lived stream, in ns.
void time_rng(std::uint64_t seed, json::Value& layers) {
  double sink = 0.0;
  const double fork_ns = median_of_five([&] {
    const Rng base(seed);
    constexpr int kForks = 20000;
    const auto start = Clock::now();
    for (int i = 0; i < kForks; ++i) {
      Rng child = base.fork(static_cast<std::uint64_t>(i));
      sink += child.uniform(0.0, 1.0);
    }
    return 1e9 * seconds_between(start, Clock::now()) / kForks;
  });
  const double draw_ns = median_of_five([&] {
    Rng rng(seed);
    constexpr int kDraws = 2000000;
    const auto start = Clock::now();
    for (int i = 0; i < kDraws; ++i) sink += rng.uniform(0.0, 1.0);
    return 1e9 * seconds_between(start, Clock::now()) / kDraws;
  });
  if (sink < 0.0) std::cerr << "impossible: negative uniform sum\n";
  put(layers, "core.rng_fork_ns", fork_ns, "ns");
  put(layers, "core.rng_draw_ns", draw_ns, "ns");
}

struct Args {
  RunConfig config;
  std::string workload;
  double seconds = 10.0;
  bool trace = false;
  bool transparency = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.config.seed = engine::kDefaultSeed;
  args.config.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value after " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.config.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--serve-bin") {
      args.config.serve_bin = value();
    } else if (flag == "--work-dir") {
      args.config.work_dir = value();
    } else if (flag == "--tiny") {
      args.config.tiny = true;
    } else if (flag == "--corrupt") {
      args.config.corrupt = true;
    } else if (flag == "--transparency") {
      args.transparency = true;
    } else {
      throw Error("unknown flag " + flag);
    }
  }
  return args;
}

int run(const Args& args) {
  const WorkloadSpec* named = nullptr;
  for (const auto& spec : workloads()) {
    if (args.workload == spec.name) named = &spec;
  }
  if (named == nullptr) {
    throw Error("unknown workload '" + args.workload + "'");
  }

  const PassResult plain =
      run_pass(*named->make(args.config), args.seconds, false, 2);
  long attempted = plain.attempted;
  long failed = plain.failed;
  bool correct = plain.correct;
  const Tail op_tail = tail(plain.op_ms);

  json::Value metrics = json::Value::object();
  if (!args.trace) {
    put(metrics, "setup_s", plain.setup_s, "s");
    put(metrics, "work_per_s", steady_rate(plain), "1/s");
    put(metrics, "op_latency_p50_ms", median(plain.op_ms), "ms");
    put(metrics, "op_latency_tail_ms", op_tail.value, "ms");
    put(metrics, "peak_rss_mb", plain.peak_rss_mb, "MiB");
  } else {
    const PassResult traced =
        run_pass(*named->make(args.config), args.seconds, true, 2);
    attempted += traced.attempted;
    failed += traced.failed;
    correct = correct && traced.correct;
    // The other workloads' layers, from a short traced pass each.
    for (const auto& spec : workloads()) {
      if (&spec == named) continue;
      const PassResult home =
          run_pass(*spec.make(args.config), kHomePassSeconds, true, 2);
      attempted += home.attempted;
      failed += home.failed;
      correct = correct && home.correct;
      for (const auto& member : home.layers.as_object()) {
        metrics.set(member.key, member.value);
      }
    }
    for (const auto& member : traced.layers.as_object()) {
      metrics.set(member.key, member.value);
    }
    time_rng(args.config.seed, metrics);
    put(metrics, "trace.overhead_pct",
        100.0 * (steady_rate(plain) / steady_rate(traced) - 1.0), "%");
    put(metrics, "op.tail_percentile", op_tail.percentile, "pct");
    put(metrics, "op.samples", static_cast<double>(plain.op_ms.size()),
        "count");
  }

  std::cout << "wild5g-bench " << named->name << " seed=" << args.config.seed
            << " threads=" << args.config.threads << ": " << plain.rounds
            << " rounds, " << plain.work << " " << named->work_unit << " in "
            << plain.elapsed_s << " s; op tail = p" << op_tail.percentile
            << " of " << plain.op_ms.size() << " samples; failed_frac = "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << "\n";
  // Counts are written as integers: the JSON writer renders every number
  // as a double in shortest form, which turns 50 into 5e+01.
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << json::dump_compact(metrics) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace wild5g::perf

int main(int argc, char** argv) {
  using namespace wild5g;
  // A service that dies mid-write must surface as an error, not a signal.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    perf::Args args = perf::parse_args(argc, argv);
    args.config.threads =
        std::min<std::size_t>(4, parallel::hardware_thread_count());
    parallel::set_thread_count(args.config.threads);
    // Start the worker pool now rather than inside the first timed round.
    parallel::parallel_for(args.config.threads, [](std::size_t) {});
    if (args.transparency) {
      return perf::abr_decorators_are_transparent(args.config, std::cout) ? 0
                                                                          : 1;
    }
    return perf::run(args);
  } catch (const std::exception& e) {
    std::cerr << "wild5g_bench: " << e.what() << "\n";
    return 1;
  }
}
