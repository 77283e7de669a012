// wild5g/core: deterministic parallel campaign runner.
//
// Every figure reproduces a paper campaign by iterating over independent
// seeded trials (speedtest repeats, drive runs, web page loads, ABR
// sessions). `parallel_map` / `parallel_for` turn those loops into a
// parallel primitive whose contract is **bit-identical output regardless of
// thread count**:
//
//   1. Each task index gets its own Rng substream, forked *up front* from a
//      parent stream (`Rng::fork(index)` / `Rng::split()`), never a shared
//      Rng threaded through the loop — so the draws a task sees are a pure
//      function of its index, not of scheduling order.
//   2. Results are collected into an index-ordered vector; tasks never
//      publish into shared accumulators.
//   3. Floating-point reductions happen in index order on the caller's
//      thread after the barrier — FP addition is not associative, so the
//      reduction order must not depend on which thread finished first.
//
// Thread count comes from `--threads N` (stripped by bench::MetricsEmitter)
// or the WILD5G_THREADS environment variable; the default is the hardware
// concurrency and `1` restores fully serial execution on the calling
// thread. The determinism gate (tests/test_golden_determinism.cpp) asserts
// byte-identical figure JSON at `--threads 1` and `--threads 8`.
//
// Nested parallel regions execute serially inline on the worker that
// reaches them: campaign loops parallelize at the outermost level and the
// inner primitives (e.g. SpeedtestHarness::peak_of) degrade gracefully.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace wild5g::parallel {

/// Number of threads parallel regions use (>= 1). Resolution order:
/// set_thread_count() > WILD5G_THREADS > hardware concurrency.
[[nodiscard]] std::size_t thread_count();

/// Overrides the thread count for subsequent parallel regions; 0 restores
/// the default (WILD5G_THREADS, else hardware concurrency). Workers are
/// re-provisioned lazily on the next parallel region.
void set_thread_count(std::size_t n);

/// The machine's hardware concurrency (>= 1); what thread_count() defaults
/// to when neither an override nor WILD5G_THREADS is present.
[[nodiscard]] std::size_t hardware_thread_count();

namespace detail {
/// Runs body(0) .. body(n_tasks - 1), each exactly once, on the shared
/// fixed-size pool (the caller participates). Blocks until all tasks
/// finish; every task runs even if an earlier one throws, and the
/// exception from the lowest failing index is rethrown on the caller's
/// thread (lowest-index so the surfaced error does not depend on thread
/// count).
void run_indexed(std::size_t n_tasks,
                 const std::function<void(std::size_t)>& body);
}  // namespace detail

/// Parallel index loop. `fn(i)` must not touch shared mutable state except
/// through its own index-addressed slot; fork a per-index Rng substream
/// instead of sharing one.
template <typename Fn>
void parallel_for(std::size_t n_tasks, Fn&& fn) {
  detail::run_indexed(n_tasks,
                      [&fn](std::size_t index) { fn(index); });
}

/// Parallel map: returns {fn(0), fn(1), ..., fn(n_tasks - 1)} in index
/// order regardless of completion order. Reduce the result serially on the
/// caller's thread to keep floating-point sums deterministic.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n_tasks, Fn&& fn) {
  using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  static_assert(!std::is_void_v<Result>,
                "parallel_map requires a value-returning fn; use "
                "parallel_for for side-effect loops");
  std::vector<std::optional<Result>> slots(n_tasks);
  detail::run_indexed(n_tasks, [&fn, &slots](std::size_t index) {
    slots[index].emplace(fn(index));
  });
  std::vector<Result> results;
  results.reserve(n_tasks);
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace wild5g::parallel
