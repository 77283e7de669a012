#include "harness.h"

#include <sys/resource.h>

#include <cstring>
#include <utility>

#include "core/stats.h"

namespace wild5g::perf {

namespace {

/// On a VM that shares its host, rounds run at a steady floor rate and,
/// whenever neighbours go idle, in bursts up to 1.7x faster. How much of a
/// run the bursts cover differs from run to run, but every run reaches the
/// floor, so repeated measurements are summarized by the level that 90% of
/// rounds reach: the 10th percentile of rates and the 90th of latencies.
constexpr double kSteadyPercentile = 10.0;

}  // namespace

void Digest::add(double value) {
  unsigned char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  add(std::string_view(reinterpret_cast<const char*>(bytes), sizeof value));
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ull;
  }
}

double Workload::peak_rss_mb() const { return self_peak_rss_mb(); }

double self_peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : stats::median(values);
}

double steady_rate(const PassResult& pass) {
  return stats::percentile(pass.round_rates, kSteadyPercentile);
}

Tail tail(std::vector<double> values) {
  Tail result;
  if (values.empty()) return result;
  const auto n = static_cast<double>(values.size());
  if (values.size() > 10) result.percentile = 100.0 * (n - 10.0) / n;
  result.value = stats::percentile(values, result.percentile);
  return result;
}

void put(json::Value& metrics, const std::string& name, double value,
         const std::string& unit) {
  json::Value entry = json::Value::object();
  entry.set("value", value);
  entry.set("unit", unit);
  metrics.set(name, std::move(entry));
}

PassResult run_pass(Workload& workload, double seconds, bool traced,
                    int min_rounds) {
  PassResult pass;

  // Set-up is short next to the rounds, so repeat it until the median is
  // taken over enough time to be steady.
  std::vector<double> setups;
  double setup_total = 0.0;
  while (setups.size() < 5 || (setup_total < 0.2 && setups.size() < 200)) {
    if (!setups.empty()) workload.discard();
    const auto start = Clock::now();
    workload.setup();
    setups.push_back(seconds_between(start, Clock::now()));
    setup_total += setups.back();
  }
  pass.setup_s = median(setups);

  std::uint64_t first_digest = 0;
  std::vector<std::vector<double>> op_ms_by_round;
  const auto start = Clock::now();
  while (pass.rounds < min_rounds ||
         seconds_between(start, Clock::now()) < seconds) {
    const auto round_start = Clock::now();
    Round round = workload.round(traced);
    pass.round_rates.push_back(
        round.work / seconds_between(round_start, Clock::now()));
    if (pass.rounds == 0) first_digest = round.digest;
    // Every round computes the same outputs from the same inputs.
    if (round.digest != first_digest) pass.correct = false;
    ++pass.rounds;
    pass.work += round.work;
    pass.attempted += round.attempted;
    pass.failed += round.failed;
    op_ms_by_round.push_back(std::move(round.op_ms));
  }
  pass.elapsed_s = seconds_between(start, Clock::now());

  // A round of several operations repeats the same ones (cells, servers,
  // settings), so each gets one latency from its repeats, and the
  // distribution is taken across the distinct operations. A round of one
  // operation is one request of a stream, and every request counts.
  const std::size_t per_round = op_ms_by_round.front().size();
  if (per_round > 1) {
    for (std::size_t op = 0; op < per_round; ++op) {
      std::vector<double> repeats;
      for (const auto& ops : op_ms_by_round) repeats.push_back(ops.at(op));
      pass.op_ms.push_back(
          stats::percentile(repeats, 100.0 - kSteadyPercentile));
    }
  } else {
    for (const auto& ops : op_ms_by_round) {
      pass.op_ms.insert(pass.op_ms.end(), ops.begin(), ops.end());
    }
  }

  workload.finish(traced, pass);
  if (pass.failed > 0) pass.correct = false;
  pass.peak_rss_mb = workload.peak_rss_mb();
  return pass;
}

}  // namespace wild5g::perf
