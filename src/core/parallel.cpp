#include "core/parallel.h"

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "core/error.h"

namespace wild5g::parallel {

namespace {

/// True on a thread currently executing inside a parallel region; nested
/// regions run serially inline so the pool can never deadlock on itself.
thread_local bool t_inside_region = false;

std::size_t resolve_env_thread_count() {
  const char* env = std::getenv("WILD5G_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  require(end != env && *end == '\0' && value >= 0 &&
              value <= std::numeric_limits<int>::max(),
          "WILD5G_THREADS must be a non-negative integer");
  return static_cast<std::size_t>(value);
}

/// Fixed-size pool executing one indexed batch at a time. Indices are
/// dispensed under the batch mutex and tagged with a batch generation so a
/// worker can never claim work from a batch it did not observe starting.
/// Campaign tasks are milliseconds-to-seconds each, so per-index locking is
/// noise; what matters is that index->thread assignment can never affect
/// the output (tasks are pure functions of their index).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t extra_workers) {
    workers_.reserve(extra_workers);
    for (std::size_t i = 0; i < extra_workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    batch_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  /// Runs body(0..n_tasks-1), each exactly once; the calling thread
  /// participates. Every task runs even if an earlier one throws; the
  /// exception of the lowest failing index is rethrown here so the surfaced
  /// error does not depend on thread count.
  void run(std::size_t n_tasks,
           const std::function<void(std::size_t)>& body) {
    std::uint64_t my_generation = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      body_ = &body;
      n_tasks_ = n_tasks;
      next_index_ = 0;
      pending_ = n_tasks;
      error_ = nullptr;
      error_index_ = std::numeric_limits<std::size_t>::max();
      my_generation = ++generation_;
    }
    batch_cv_.notify_all();
    work(my_generation);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    body_ = nullptr;
    if (error_ != nullptr) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  void worker_loop() {
    t_inside_region = true;  // nested regions on workers run inline
    std::uint64_t seen_generation = 0;
    for (;;) {
      std::uint64_t my_generation = 0;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        batch_cv_.wait(lock, [&] {
          return stop_ || (body_ != nullptr && generation_ != seen_generation);
        });
        if (stop_) return;
        seen_generation = my_generation = generation_;
      }
      work(my_generation);
    }
  }

  /// Claims and executes indices of batch `my_generation` until it is
  /// drained (or superseded, which cannot happen before it drains because
  /// run() blocks until pending_ == 0).
  void work(std::uint64_t my_generation) {
    for (;;) {
      std::size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (generation_ != my_generation || next_index_ >= n_tasks_) return;
        index = next_index_++;
      }
      std::exception_ptr task_error = nullptr;
      try {
        // Reading body_ outside mutex_ is safe: it is published under
        // mutex_ before the generation_ bump that releases this batch, and
        // run() cannot retire or replace it until pending_ drains — the
        // generation check above is the happens-before edge.
        (*body_)(index);
      } catch (...) {
        task_error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (task_error != nullptr && index < error_index_) {
        error_ = task_error;
        error_index_ = index;
      }
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable batch_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_tasks_ = 0;
  std::size_t next_index_ = 0;
  std::size_t pending_ = 0;
  std::exception_ptr error_ = nullptr;
  std::size_t error_index_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

/// Pool configuration + lazily provisioned shared pool. `g_pool_mutex` also
/// serializes top-level parallel regions from distinct caller threads (the
/// benches only ever have one).
std::mutex g_pool_mutex;
// The three pool globals are confined to g_pool_mutex: every access is
// either lexically under a g_pool_mutex guard or inside a *_locked helper
// whose callers hold it.
std::size_t g_override_threads = 0;  // 0 = WILD5G_THREADS / hardware
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_pool_threads = 0;  // thread count g_pool was built for

std::size_t resolve_thread_count_locked() {
  if (g_override_threads != 0) return g_override_threads;
  const std::size_t env = resolve_env_thread_count();
  if (env != 0) return env;
  return hardware_thread_count();
}

ThreadPool& pool_for_locked(std::size_t threads) {
  if (g_pool == nullptr || g_pool_threads != threads) {
    g_pool.reset();  // join old workers before re-provisioning
    g_pool = std::make_unique<ThreadPool>(threads - 1);
    g_pool_threads = threads;
  }
  return *g_pool;
}

}  // namespace

std::size_t hardware_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t thread_count() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  return resolve_thread_count_locked();
}

void set_thread_count(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_override_threads = n;
}

namespace detail {

void run_indexed(std::size_t n_tasks,
                 const std::function<void(std::size_t)>& body) {
  if (n_tasks == 0) return;
  if (t_inside_region) {  // nested region: already inside a parallel run
    for (std::size_t i = 0; i < n_tasks; ++i) body(i);
    return;
  }
  std::unique_lock<std::mutex> lock(g_pool_mutex);
  const std::size_t threads = resolve_thread_count_locked();
  if (threads <= 1 || n_tasks == 1) {
    lock.unlock();
    for (std::size_t i = 0; i < n_tasks; ++i) body(i);
    return;
  }
  ThreadPool& pool = pool_for_locked(threads);
  t_inside_region = true;
  try {
    pool.run(n_tasks, body);
  } catch (...) {
    t_inside_region = false;
    throw;
  }
  t_inside_region = false;
}

}  // namespace detail

}  // namespace wild5g::parallel
