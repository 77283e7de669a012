// Unit tests for the deterministic parallel campaign runner
// (src/core/parallel.h): index-ordered collection, bit-identical results
// across thread counts, exception propagation, nested regions that recruit
// idle workers, the thread-count cap. These are the tests the
// ThreadSanitizer CI job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"

namespace wp = wild5g::parallel;
using wild5g::Rng;

namespace {

/// Runs `body` with the pool pinned at `threads`, restoring auto after.
template <typename Body>
void with_threads(std::size_t threads, Body&& body) {
  wp::set_thread_count(threads);
  body();
  wp::set_thread_count(0);
}

std::vector<double> campaign_draws(std::size_t tasks) {
  Rng rng(20210823);
  Rng base = rng.split();
  return wp::parallel_map(tasks, [&](std::size_t i) {
    Rng task_rng = base.fork(i);
    double acc = 0.0;
    for (int draw = 0; draw < 100; ++draw) acc += task_rng.uniform(0.0, 1.0);
    return acc;
  });
}

}  // namespace

TEST(Parallel, ThreadCountIsAtLeastOne) {
  EXPECT_GE(wp::thread_count(), 1u);
  EXPECT_GE(wp::hardware_thread_count(), 1u);
}

TEST(Parallel, SetThreadCountOverridesAndResets) {
  wp::set_thread_count(3);
  EXPECT_EQ(wp::thread_count(), 3u);
  wp::set_thread_count(0);
  EXPECT_GE(wp::thread_count(), 1u);
}

TEST(Parallel, SetThreadCountRefusesCountsAboveTheCap) {
  wp::set_thread_count(wp::kMaxThreads);
  EXPECT_EQ(wp::thread_count(), wp::kMaxThreads);
  wp::set_thread_count(2);
  EXPECT_THROW(wp::set_thread_count(wp::kMaxThreads + 1), wild5g::Error);
  EXPECT_THROW(wp::set_thread_count(static_cast<std::size_t>(-1)),
               wild5g::Error);
  EXPECT_EQ(wp::thread_count(), 2u) << "a refused count must not apply";
  wp::set_thread_count(0);
}

TEST(Parallel, EnvThreadCountIsParsedStrictlyAndCapped) {
  // set_thread_count(0) defers to WILD5G_THREADS; restore the caller's
  // value afterwards so the rest of the suite sees the same environment.
  const char* saved = std::getenv("WILD5G_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  wp::set_thread_count(0);
  ::setenv("WILD5G_THREADS", "5", 1);
  EXPECT_EQ(wp::thread_count(), 5u);
  ::setenv("WILD5G_THREADS", "256", 1);
  EXPECT_EQ(wp::thread_count(), 256u);
  for (const char* bad : {" 5", "+5", "5 ", "-1", "0x4", "2.5", "five", "257",
                          "9223372036854775807", "18446744073709551616"}) {
    ::setenv("WILD5G_THREADS", bad, 1);
    EXPECT_THROW((void)wp::thread_count(), wild5g::Error) << "'" << bad << "'";
  }
  if (saved != nullptr) {
    ::setenv("WILD5G_THREADS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("WILD5G_THREADS");
  }
}

TEST(Parallel, MapReturnsIndexOrderedResults) {
  with_threads(8, [] {
    const auto out =
        wp::parallel_map(100, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
  });
}

TEST(Parallel, ForRunsEveryIndexExactlyOnce) {
  with_threads(8, [] {
    std::vector<std::atomic<int>> hits(257);
    wp::parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  });
}

TEST(Parallel, ZeroTasksIsANoOp) {
  with_threads(8, [] {
    wp::parallel_for(0, [](std::size_t) { FAIL() << "body ran"; });
    const auto out = wp::parallel_map(0, [](std::size_t i) { return i; });
    EXPECT_TRUE(out.empty());
  });
}

TEST(Parallel, BitIdenticalAcrossThreadCounts) {
  // The determinism contract: per-index forked substreams + index-ordered
  // collection make the output a pure function of (seed, index), so any
  // thread count yields the same bits.
  std::vector<double> serial;
  with_threads(1, [&] { serial = campaign_draws(64); });
  for (const std::size_t threads : {2u, 5u, 8u}) {
    std::vector<double> parallel_out;
    with_threads(threads, [&] { parallel_out = campaign_draws(64); });
    ASSERT_EQ(serial.size(), parallel_out.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel_out[i])  // wild5g-lint: allow(float-equality) the contract is bit-identity, not closeness
          << "task " << i << " diverged at " << threads << " threads";
    }
  }
}

TEST(Parallel, OrderedReductionMatchesSerialSum) {
  // Reducing the index-ordered result on the caller's thread must give the
  // serial loop's sum exactly (FP addition in the same order).
  double serial_sum = 0.0;
  with_threads(1, [&] {
    for (const double x : campaign_draws(64)) serial_sum += x;
  });
  double parallel_sum = 0.0;
  with_threads(8, [&] {
    for (const double x : campaign_draws(64)) parallel_sum += x;
  });
  EXPECT_EQ(serial_sum, parallel_sum);  // wild5g-lint: allow(float-equality) bit-identity contract across thread counts
}

TEST(Parallel, LowestIndexExceptionWins) {
  with_threads(8, [] {
    try {
      wp::parallel_for(64, [](std::size_t i) {
        if (i % 3 == 0) {
          throw wild5g::Error("task " + std::to_string(i) + " failed");
        }
      });
      FAIL() << "no exception propagated";
    } catch (const wild5g::Error& e) {
      // Every failing task ran, but the surfaced error must not depend on
      // scheduling: the lowest failing index is rethrown.
      EXPECT_STREQ(e.what(), "task 0 failed");
    }
  });
}

TEST(Parallel, AllTasksRunDespiteEarlyFailure) {
  with_threads(4, [] {
    std::vector<std::atomic<int>> hits(32);
    EXPECT_THROW(wp::parallel_for(hits.size(),
                                  [&](std::size_t i) {
                                    hits[i]++;
                                    if (i == 0) {
                                      throw wild5g::Error("first task");
                                    }
                                  }),
                 wild5g::Error);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  });
}

TEST(Parallel, NestedRegionsStayDeterministic) {
  auto nested_campaign = [] {
    Rng rng(7);
    Rng base = rng.split();
    return wp::parallel_map(8, [&](std::size_t outer) {
      Rng outer_rng = base.fork(outer);
      Rng inner_base = outer_rng.split();
      const auto inner = wp::parallel_map(4, [&](std::size_t j) {
        Rng inner_rng = inner_base.fork(j);
        return inner_rng.uniform(0.0, 1.0);
      });
      return std::accumulate(inner.begin(), inner.end(), 0.0);
    });
  };
  std::vector<double> serial;
  with_threads(1, [&] { serial = nested_campaign(); });
  std::vector<double> threaded;
  with_threads(8, [&] { threaded = nested_campaign(); });
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]);  // wild5g-lint: allow(float-equality) bit-identity contract across thread counts
  }
}

TEST(Parallel, NestedRegionRecruitsIdleWorkers) {
  // Two outer tasks on four threads leave two workers idle. Each outer task
  // opens an inner pair whose tasks meet at a rendezvous: the pair only
  // meets if an idle worker runs one of them while the outer task's own
  // thread runs the other. Run inline, the first task waits alone until
  // the bounded wait gives up.
  struct Rendezvous {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
  };
  std::vector<Rendezvous> meets(2);
  std::vector<std::atomic<int>> met(2);
  with_threads(4, [&] {
    wp::parallel_for(2, [&](std::size_t outer) {
      wp::parallel_for(2, [&](std::size_t) {
        Rendezvous& r = meets[outer];
        std::unique_lock<std::mutex> lock(r.mutex);
        ++r.arrived;
        r.cv.notify_all();
        if (r.cv.wait_for(lock, std::chrono::seconds(5),
                          [&r] { return r.arrived == 2; })) {
          ++met[outer];
        }
      });
    });
  });
  for (std::size_t outer = 0; outer < met.size(); ++outer) {
    EXPECT_EQ(met[outer].load(), 2)
        << "outer task " << outer << ": the inner pair never ran concurrently";
  }
}

TEST(Parallel, ThreeLevelNestingStaysDeterministic) {
  // Every level forks per-index substreams; any scheduling of the three
  // levels' batches over the pool must give the serial bits, round after
  // round on one pool.
  auto campaign = [](std::uint64_t seed) {
    Rng rng(seed);
    Rng base = rng.split();
    return wp::parallel_map(6, [&](std::size_t a) {
      Rng a_base = base.fork(a).split();
      const auto mid = wp::parallel_map(5, [&](std::size_t b) {
        Rng b_base = a_base.fork(b).split();
        const auto inner = wp::parallel_map(7, [&](std::size_t c) {
          Rng c_rng = b_base.fork(c);
          double acc = 0.0;
          for (int draw = 0; draw < 50; ++draw) acc += c_rng.normal(0.0, 1.0);
          return acc;
        });
        return std::accumulate(inner.begin(), inner.end(), 0.0);
      });
      return std::accumulate(mid.begin(), mid.end(), 0.0);
    });
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<double> serial;
    with_threads(1, [&] { serial = campaign(seed); });
    for (const std::size_t threads : {3u, 8u}) {
      std::vector<double> threaded;
      with_threads(threads, [&] { threaded = campaign(seed); });
      ASSERT_EQ(serial.size(), threaded.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i], threaded[i])  // wild5g-lint: allow(float-equality) bit-identity contract across thread counts
            << "seed " << seed << " task " << i << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(Parallel, NestedLowestIndexErrorPropagates) {
  // Each inner region rethrows its lowest failing index, and the outer
  // region rethrows its lowest failing outer index, so the surfaced error
  // is "outer 1 inner 3" at any thread count. On the pool every task still
  // runs; serially the loop stops at that same first failure.
  for (const std::size_t threads : {1u, 4u, 8u}) {
    std::vector<std::atomic<int>> hits(6 * 16);
    with_threads(threads, [&] {
      try {
        wp::parallel_for(6, [&](std::size_t outer) {
          wp::parallel_for(16, [&](std::size_t inner) {
            hits[outer * 16 + inner]++;
            if (outer > 0 && inner % 5 == 3) {
              throw wild5g::Error("outer " + std::to_string(outer) +
                                  " inner " + std::to_string(inner));
            }
          });
        });
        ADD_FAILURE() << "no exception propagated at " << threads
                      << " threads";
      } catch (const wild5g::Error& e) {
        EXPECT_STREQ(e.what(), "outer 1 inner 3") << threads << " threads";
      }
    });
    if (threads == 1) continue;
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads << " threads";
  }
}

TEST(Parallel, ReusableAcrossManyBatches) {
  // The shared pool must survive many batch cycles (every campaign loop in
  // a bench is one batch) without leaking or wedging.
  with_threads(4, [] {
    for (int round = 0; round < 50; ++round) {
      const auto out = wp::parallel_map(
          17, [round](std::size_t i) { return round * 100 + static_cast<int>(i); });
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], round * 100 + static_cast<int>(i));
      }
    }
  });
}

TEST(Parallel, SplitAdvancesParentStream) {
  // split() must derive distinct substream families on successive calls —
  // that is what keeps two campaigns on one Rng from replaying each other's
  // draws (fork() alone is position-independent by design).
  Rng rng(99);
  Rng first = rng.split();
  Rng second = rng.split();
  EXPECT_NE(first.uniform(0.0, 1.0), second.uniform(0.0, 1.0));

  Rng a(99);
  Rng b(99);
  EXPECT_EQ(a.split().uniform(0.0, 1.0),  // wild5g-lint: allow(float-equality) determinism: same seed, same split draw
            b.split().uniform(0.0, 1.0));
}
